"""Tests for the scenario CLI: loading, exit codes, and file outputs."""

import copy
import dataclasses
import importlib.resources
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import cox_de_boor_matrix, export_csv_per_row
from test_fuzz import mutate
import safeflight
from safeflight.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    SCENARIO_SCHEMA,
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    main,
)
from safeflight.documents import checked, object_schema, violation
from safeflight.flatness import GRAVITY
from safeflight.planner import (
    PLAN_SCHEMA,
    ConvexRegion,
    EndpointPins,
    IntervalConstraint,
    PlanningScenario,
    SafetyBounds,
    TrajectoryPlan,
    Waypoint,
)
from safeflight.simverify import SimConfig, TrackingConfig, span_samples
from safeflight.splines import SplineCurve
from safeflight.tracker import CbfParams, PdGains

EXPECTED_BUNDLED = [
    "example1",
    "example2_window",
    "example3_c1_s6_s2_c3",
    "example3_c2_s1_c3",
    "example3_c3_s2_s3_c4",
    "example3_c4_s5_c1",
    "hover",
    "margin_demo",
]


def bundled_dict(name):
    """A bundled scenario as a plain dict, ready to mutate and re-dump."""
    import importlib.resources

    text = (importlib.resources.files("safeflight") / "scenarios" / f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def hover_dict():
    return bundled_dict("hover")


def write_scenario(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def write_plan(tmp_path, pl, name="plan.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(pl.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return str(path)


@pytest.fixture()
def free_fall_plan(tmp_path, hover_plan):
    """The hover plan with z on the free-fall parabola 0.5 - g t^2 / 2.

    The parabola lies in the spline space, so the least-squares fit is exact
    and every sample's acceleration cancels gravity: no thrust direction.
    """
    kv = hover_plan.curve.knots
    ts = np.linspace(kv.t0, kv.tf, 200)
    z, *_ = np.linalg.lstsq(cox_de_boor_matrix(kv.tau, kv.degree, ts), 0.5 - 0.5 * GRAVITY * ts**2)
    doc = hover_plan.to_dict()
    doc["control_points"][2] = z.tolist()
    path = tmp_path / "ff.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def dive_plan(tmp_path, hover_plan):
    """The hover plan with z control point 6 at -40: the thrust points down.

    acc_z + g falls to about -2.5 over some 14% of [0, 10]. Each span's zeta
    sits at 0.999 of its sampled minimum thrust, so the thrust floors hold;
    hover's bounds loosened to v_max 100, thrust_max 1000 and
    omega_max_deg_s 5.4e5 admit the rest. Read as small angles, the plan
    would verify.
    """
    doc = hover_plan.to_dict()
    doc["control_points"][2][6] = -40.0
    pl = TrajectoryPlan.from_dict(doc)
    kv = pl.curve.knots
    l = np.array(kv.nonempty_spans())
    seg = np.linspace(kv.tau[l], kv.tau[l + 1], 300, axis=1)
    acc = pl.curve.eval(seg.ravel(), 2)
    thrust = np.linalg.norm(acc + [0.0, 0.0, GRAVITY], axis=1).reshape(seg.shape)
    doc["zeta"] = (0.999 * thrust.min(axis=1)).tolist()
    path = tmp_path / "dive.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoading:
    @pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, PLAN_SCHEMA], ids=["scenario", "plan"])
    def test_schema_is_valid_under_its_metaschema(self, schema):
        # Loads never check the schemas themselves, so check them here once.
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_bundled_names(self):
        assert bundled_scenarios() == EXPECTED_BUNDLED

    def test_every_bundled_scenario_loads(self):
        for name in bundled_scenarios():
            sf = load_scenario(name)
            assert sf.planning.name == name
            assert sf.source == f"bundled:{name}"

    def test_loads_from_path(self, tmp_path):
        path = write_scenario(tmp_path, hover_dict())
        sf = load_scenario(path)
        assert sf.planning.name == "hover"
        assert sf.source == path

    def test_a_file_named_like_a_bundled_scenario_is_read(self, tmp_path, monkeypatch):
        doc = hover_dict()
        doc["name"] = "local"
        write_scenario(tmp_path, doc, name="hover")
        monkeypatch.chdir(tmp_path)
        sf = load_scenario("hover")
        assert (sf.planning.name, sf.source) == ("local", "hover")

    def test_angles_arrive_in_radians(self):
        sf = load_scenario("example1")
        assert sf.planning.bounds.tilt_max == pytest.approx(np.deg2rad(1.75), abs=1e-15)
        assert sf.planning.bounds.omega_max == pytest.approx(np.deg2rad(1.5), abs=1e-15)

    def test_tracking_section(self):
        sf = load_scenario("example1")
        tr = sf.tracking
        assert (tr.cbf.delta, tr.cbf.a1, tr.cbf.a2) == (0.1, 6.0, 8.0)
        assert (tr.gains.kp, tr.gains.kd) == (0.4, 0.1)
        np.testing.assert_array_equal(tr.sim.initial_velocity_offset, [0.25, -0.25, 0.15])
        assert tr.sim.duration == sf.planning.tf - sf.planning.t0 == 30.0  # none given
        assert tr.sim.control_rate == 100.0

    def test_corridor_scenario_derives_n(self):
        sf = load_scenario("example3_c2_s1_c3")
        planning = sf.planning
        assert planning.corridor is not None
        assert planning.n == len(planning.corridor) + planning.degree - 1

    def test_unknown_name_lists_bundled(self):
        with pytest.raises(ScenarioError, match="hover"):
            load_scenario("no_such_scenario")

    def test_yaml_parse_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("spline: [unclosed\n")
        with pytest.raises(ScenarioError, match="YAML parse error"):
            load_scenario(str(path))

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_c_and_python_loaders_agree(self):
        import importlib.resources

        root = importlib.resources.files("safeflight") / "scenarios"
        for name in bundled_scenarios():
            text = (root / f"{name}.yaml").read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("c_loader", [True, False])
    def test_malformed_yaml_exits_parse(self, tmp_path, monkeypatch, capsys, c_loader):
        if not c_loader:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        path = tmp_path / "bad.yaml"
        path.write_text("spline: [unclosed\n")
        assert main(["plan", "--scenario", str(path)]) == EXIT_PARSE
        assert "YAML parse error" in capsys.readouterr().err

    def test_schema_violation_names_the_path(self, tmp_path):
        doc = hover_dict()
        del doc["bounds"]["v_max"]
        with pytest.raises(ScenarioError, match="schema violation at bounds"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_rejects_wrong_format_tag(self, tmp_path):
        doc = hover_dict()
        doc["format"] = "other"
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_n_required_without_corridor(self, tmp_path):
        doc = hover_dict()
        del doc["spline"]["n"]
        with pytest.raises(ScenarioError, match="spline.n is required"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_region_shape_error_names_its_file_and_path(self, tmp_path):
        doc = hover_dict()
        box = {"lo": [-1.0, -1.0, 0.0], "hi": [1.0, 1.0, 1.0]}
        doc["bounds"]["regions"] = [{"box": box, "ball": {"center": [0.0] * 3, "radius": 1.0}}]
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"{path}: bounds/regions/0: region needs exactly one shape key, got ['box', 'ball']"
        )

    def test_planning_validation_becomes_scenario_error(self, tmp_path):
        doc = hover_dict()
        doc["apply_tracking_margins"] = True
        del doc["tracking"]
        with pytest.raises(ScenarioError, match="tracking margins need cbf parameters"):
            load_scenario(write_scenario(tmp_path, doc))


def full_dict():
    """hover with every key the schema knows, each holding a valid value."""
    doc = hover_dict()
    box = {"lo": [-2.0, -2.0, 0.0], "hi": [2.0, 2.0, 3.0]}
    doc["gravity"] = 9.81
    doc["bounds"]["regions"] = [
        {"name": "room", "box": box},
        {"ball": {"center": [0.0, 0.0, 1.0], "radius": 3.0}},
        {"ellipsoid": {"A": np.eye(3).tolist(), "b": [0.0, 0.0, -1.0]}},
        {"halfspace": {"normal": [0.0, 0.0, 1.0], "offset": 3.0}},
    ]
    doc["waypoints"] = [{"position": [0.0, 0.0, 1.0], "time": 5.0, "radius": 0.5}]
    doc["windows"] = [
        {"t_start": 2.0, "t_end": 4.0, "kind": "position", "region": {"box": box}},
        {"t_start": 2.0, "t_end": 4.0, "kind": "speed", "bound": 1.0},
    ]
    doc["corridor"] = [{"name": "all", "box": box}]
    doc.update(zeta_mode="scalar", apply_tracking_margins=False, solver_tol=1e-8)
    doc["tracking"].update(
        control_rate=100.0,
        substeps=10,
        duration=1.0,
        psi_deg=0.0,
        initial_position_offset=[0.0, 0.0, 0.0],
        initial_velocity_offset=[0.0, 0.0, 0.0],
    )
    return doc


def walk(value, schema, path=()):
    """(path, value, schema) of every node of a document, parents first."""
    yield path, value, schema
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from walk(value[key], sub, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from walk(item, schema["items"], path + (i,))


def changed(base, path, edit):
    """A deep copy of base with edit(parent, key) applied at path."""
    doc = copy.deepcopy(base)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return doc


def put(value):
    def edit(parent, key):
        parent[key] = value
    return edit


def schema_mutations(base, root_schema):
    """(label, document) pairs, each base with one change at one node of root_schema."""
    for path, value, schema in walk(base, root_schema):
        if not path:
            continue
        kind = schema.get("type")
        name = "/".join(map(str, path))
        if kind in ("number", "integer"):
            yield f"{name} = true", changed(base, path, put(True))
            yield f"{name} = '1'", changed(base, path, put("1"))
        if kind == "integer":
            yield f"{name} = 3.0", changed(base, path, put(3.0))
            yield f"{name} = 3.5", changed(base, path, put(3.5))
        if kind == "boolean":
            yield f"{name} = 1", changed(base, path, put(1))
        if kind == "string":
            yield f"{name} = 1", changed(base, path, put(1))
        if kind == "object":
            for key in schema.get("required", ()):
                drop = lambda p, k, key=key: p[k].pop(key)  # noqa: E731
                yield f"{name} without {key}", changed(base, path, drop)
            yield f"{name} with an extra key", changed(base, path, lambda p, k: p[k].update(extra=1))
            yield f"{name} = []", changed(base, path, put([]))
        if kind == "array":
            if schema.get("maxItems") == 3:
                yield f"{name} short", changed(base, path, put(value[:2]))
                yield f"{name} long", changed(base, path, put(value + [0.0]))
            if schema.get("minItems") == 1:
                yield f"{name} empty", changed(base, path, put([]))
            yield f"{name} = {{}}", changed(base, path, put({}))
        for key in ("const", "enum"):
            if key in schema:
                yield f"{name} = 'bogus'", changed(base, path, put("bogus"))
                yield f"{name} = true", changed(base, path, put(True))
    yield "version = 1.0", changed(base, ("version",), put(1.0))
    yield "zeta_mode = 'per-span'", changed(base, ("zeta_mode",), put("per-span"))
    yield "top-level key", changed(base, ("comment",), put("x"))
    for top in (None, [], "document", 3):
        yield f"document {top!r}", top


def scenario_mutations():
    """schema_mutations of full_dict(), and documents with two errors."""
    base = full_dict()
    yield from schema_mutations(base, SCENARIO_SCHEMA)
    edit = lambda p, k: p[k].update(t0=True, tf="x")  # noqa: E731
    yield "two errors at one depth", changed(base, ("spline",), edit)
    doc = changed(base, ("gravity",), put(None))
    doc["spline"]["t0"] = True
    yield "errors at two depths", doc


def bad_input_documents():
    """The scenario documents of this module's bad-input cases, edited as they are."""

    def degree_three(d):
        d["spline"]["degree"] = 3
        for side in ("initial", "final"):
            d["endpoints"][side] = d["endpoints"][side][:3]

    def timed(d):
        d["waypoints"] = [{"position": [0.0, 0.0, 1.0], "time": 5.0, "radius": 0.5}]
        d["windows"] = [{"t_start": 2.0, "t_end": 4.0, "kind": "speed", "bound": 1.0}]
        return d

    edits = [
        lambda d: d["bounds"].pop("v_max"),
        lambda d: d.update(format="other"),
        lambda d: d["spline"].pop("n"),
        lambda d: d.update(apply_tracking_margins=True) or d.pop("tracking"),
        lambda d: d["bounds"].update(v_max=-1.0),
        lambda d: d["bounds"].update(thrust_min=9.9),
        lambda d: d["spline"].update(tf=8.0),
        lambda d: d.pop("tracking"),
        lambda d: d["tracking"].update(initial_position_offset=[0.3, 0.0, 0.0], duration=1.0),
        lambda d: d.update(waypoints=[{"position": [100.0, 0.0, 0.5], "time": 5.0}]),
        degree_three,
    ]
    for section, key, value in TestScenarioTimes.CASES:
        edits.append(lambda d, s=section, k=key, v=value: timed(d)[s][0].update({k: v}))
    for section, key, value, _ in TestBadTracking.CASES:
        edits.append(
            lambda d, s=section, k=key, v=value: (d["tracking"] if s is None else d["tracking"][s])
            .update({k: v})
        )
    docs = []
    for edit in edits:
        doc = hover_dict()
        edit(doc)
        docs.append(doc)
    return docs


class TestSchemaChecker:
    """The package's checker against jsonschema on SCENARIO_SCHEMA and PLAN_SCHEMA.

    Both must agree on validity. The checker reports the shallowest failing
    path, as jsonschema's best_match does; where jsonschema finds exactly one
    error, both must name the same path.
    """

    @staticmethod
    def validator_of(schema):
        jsonschema = pytest.importorskip("jsonschema")
        return jsonschema.validators.validator_for(schema)(schema)

    @pytest.fixture(scope="class")
    def validator(self):
        return self.validator_of(SCENARIO_SCHEMA)

    @pytest.fixture(scope="class")
    def plan_validator(self):
        return self.validator_of(PLAN_SCHEMA)

    @staticmethod
    def assert_agrees(validator, doc, label):
        import jsonschema

        errors = list(validator.iter_errors(doc))
        got = violation(doc, validator.schema)
        assert (got is None) == (not errors), f"{label}: checker {got}, jsonschema {errors}"
        if errors:
            best = jsonschema.exceptions.best_match(errors)
            assert len(got[0]) == len(best.absolute_path), label
            if len(errors) == 1:
                assert list(got[0]) == list(errors[0].absolute_path), label

    def test_bundled_scenarios(self, validator):
        import importlib.resources

        root = importlib.resources.files("safeflight") / "scenarios"
        for name in bundled_scenarios():
            doc = yaml.safe_load((root / f"{name}.yaml").read_text())
            self.assert_agrees(validator, doc, name)
            assert violation(doc, SCENARIO_SCHEMA) is None

    def test_full_document_is_valid(self, validator):
        self.assert_agrees(validator, full_dict(), "full")
        assert violation(full_dict(), SCENARIO_SCHEMA) is None

    def test_bad_input_cases(self, validator):
        for i, doc in enumerate(bad_input_documents()):
            self.assert_agrees(validator, doc, f"case {i}")

    def test_mutations(self, validator):
        labels = []
        for label, doc in scenario_mutations():
            self.assert_agrees(validator, doc, label)
            labels.append(label)
        assert len(labels) > 200

    def test_bundled_plan_documents(self, plan_validator, bundled_plan):
        for name in bundled_scenarios():
            doc = json.loads(json.dumps(bundled_plan(name).to_dict()))
            self.assert_agrees(plan_validator, doc, name)
            assert violation(doc, PLAN_SCHEMA) is None

    def test_bad_plan_documents(self, plan_validator, hover_plan):
        for label, edit, _ in BAD_PLAN_DOCUMENTS:
            doc = hover_plan.to_dict()
            if edit is None:
                doc = [doc]
            else:
                edit(doc)
            self.assert_agrees(plan_validator, doc, label)

    def test_plan_mutations(self, plan_validator, hover_plan, bundled_plan):
        labels = []
        for label, doc in schema_mutations(hover_plan.to_dict(), PLAN_SCHEMA):
            self.assert_agrees(plan_validator, doc, label)
            labels.append(label)
        assert len(labels) > 100
        rng = np.random.default_rng(27)
        for name in bundled_scenarios():
            for _ in range(25):
                doc, what = mutate(bundled_plan(name).to_dict(), rng)
                self.assert_agrees(plan_validator, doc, f"{name}: {what}")

    @pytest.mark.parametrize(
        "path,value,where,message",
        [
            (("waypoints",), "x" * 300, "waypoints", "a string is not of type 'array'"),
            (("zeta_mode",), "x" * 300, "zeta_mode", f"'{'x' * 20}... is not one of"),
            (("x" * 300,), 1, "<root>", f"unknown field(s) '{'x' * 20}..."),
            (("endpoints", "initial"), [], "endpoints/initial", "0 items, fewer than the minimum 1"),
            (
                ("tracking", "initial_position_offset"),
                [0.0] * 300,
                "tracking/initial_position_offset",
                "300 items, more than the maximum 3",
            ),
        ],
        ids=["type", "enum", "unknown-key", "min-items", "max-items"],
    )
    def test_violation_names_the_type_or_length(
        self, tmp_path, capsys, monkeypatch, path, value, where, message
    ):
        # A relative path keeps the message's length independent of tmp_path.
        monkeypatch.chdir(tmp_path)
        Path("s.yaml").write_text(yaml.safe_dump(changed(full_dict(), path, put(value))))
        assert main(["plan", "--scenario", "s.yaml"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"error: s.yaml: schema violation at {where}: {message}" in err
        assert len(err) < 120, err

    @pytest.mark.parametrize(
        "path,value,where",
        [
            (("bounds", "v_max"), True, "bounds/v_max"),
            (("spline", "n"), 3.5, "spline/n"),
            (("version",), True, "version"),
            (("zeta_mode",), "diagonal", "zeta_mode"),
            (("endpoints", "initial", 1), [0.0, 0.0], "endpoints/initial/1"),
        ],
    )
    def test_violation_exits_parse_naming_the_path(self, tmp_path, capsys, path, value, where):
        doc = full_dict()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert main(["plan", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_PARSE
        assert f"schema violation at {where}: " in capsys.readouterr().err


def every_key_dict():
    """full_dict() made loadable: one corridor set fixes n = degree over [0, 2].

    Its regions share no dict, so an edit changes one node.
    """
    doc = json.loads(json.dumps(full_dict()))
    del doc["spline"]["n"]
    doc["spline"]["tf"] = 2.0
    doc["waypoints"][0]["time"] = 1.0
    for window in doc["windows"]:
        window.update(t_start=0.5, t_end=1.0)
    return doc


def schema_at(path):
    """The schema of the node at path, a key per object and "items" per array."""
    schema = SCENARIO_SCHEMA
    for key in path:
        schema = schema["items"] if key == "items" else schema["properties"][key]
    return schema


class TestKeysAreFieldNames:
    """Each section is passed by key to the library class that owns it.

    Each key must be a parameter of that class, except the angle keys,
    given in degrees for the radians field ANGLES names, the nested
    sections (built on their own, as the schema's objects and arrays) and
    the format tags.
    """

    ANGLES = {"tilt_max_deg": "tilt_max", "omega_max_deg_s": "omega_max", "psi_deg": "psi"}
    SECTIONS = [
        ((), PlanningScenario),
        (("spline",), PlanningScenario),
        (("bounds",), SafetyBounds),
        (("waypoints", "items"), Waypoint),
        (("endpoints",), EndpointPins),
        (("windows", "items"), IntervalConstraint),
        (("tracking",), SimConfig),
        (("tracking", "cbf"), CbfParams),
        (("tracking", "gains"), PdGains),
    ]
    SHAPES = ("box", "ball", "ellipsoid", "halfspace")

    @pytest.mark.parametrize(
        "path,cls", SECTIONS, ids=["/".join(p) or "<root>" for p, _ in SECTIONS]
    )
    def test_section_keys_are_parameters(self, path, cls):
        for key, sub in schema_at(path)["properties"].items():
            section = sub.get("type") == "object" or sub.get("items", {}).get("type") == "object"
            if section or "const" in sub:
                continue
            # psi, the one tracking angle, is the run's yaw, not a SimConfig field.
            owner = TrackingConfig if key == "psi_deg" else cls
            assert self.ANGLES.get(key, key) in inspect.signature(owner).parameters, (path, key)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_region_keys_are_constructor_parameters(self, shape):
        region = schema_at(("corridor", "items"))["properties"]
        assert set(region) == {"name", *self.SHAPES}
        params = inspect.signature(getattr(ConvexRegion, shape)).parameters
        assert {"name", *region[shape]["properties"]} == set(params)

    def test_a_document_with_every_key_loads_into_its_fields(self, tmp_path):
        doc = every_key_dict()
        doc["tracking"].update(psi_deg=90.0, substeps=3)
        sf = load_scenario(write_scenario(tmp_path, doc))
        planning, tr = sf.planning, sf.tracking
        assert (planning.t0, planning.tf, planning.n, planning.degree) == (0.0, 2.0, 5, 5)
        assert (planning.gravity, planning.zeta_mode, planning.solver_tol) == (9.81, "scalar", 1e-8)
        assert planning.apply_tracking_margins is False
        names = [r.name for r in planning.bounds.regions]
        assert names == ["room", "ball", "ellipsoid", "halfspace"]
        assert [r.name for r in planning.corridor] == ["all"]
        (wp,) = planning.waypoints
        assert (wp.position.tolist(), wp.time, wp.radius) == ([0.0, 0.0, 1.0], 1.0, 0.5)
        position, speed = planning.intervals
        assert (position.kind, position.region.name, speed.bound) == ("position", "box", 1.0)
        assert len(planning.pins.initial) == len(planning.pins.final) == 5
        assert planning.cbf == tr.cbf == CbfParams(**doc["tracking"]["cbf"])
        assert tr.gains == PdGains(**doc["tracking"]["gains"])
        assert (tr.sim.control_rate, tr.sim.substeps, tr.sim.duration) == (100.0, 3, 1.0)
        assert tr.psi == np.pi / 2


class TestTooLargeIntegers:
    """An integer too large for a float exits 2, naming its field, on every command."""

    BIG = 10**400  # 401 digits

    @staticmethod
    def number_paths():
        for path, _, schema in walk(every_key_dict(), SCENARIO_SCHEMA):
            if schema.get("type") == "number":
                yield path

    @pytest.mark.parametrize("path", list(number_paths()), ids=lambda p: "/".join(map(str, p)))
    def test_scenario_number_exits_parse_naming_its_path(self, tmp_path, capsys, path):
        doc = every_key_dict()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = self.BIG
        scenario = write_scenario(tmp_path, doc)
        where = "/".join(map(str, path))
        message = f"{where}: a 401-digit integer is too large for a float"
        for command in ("plan", "verify", "track"):
            assert main([command, "--scenario", scenario]) == EXIT_PARSE
            assert capsys.readouterr().err == f"error: {scenario}: {message}\n"

    def test_past_the_digit_limit_of_int_exits_parse(self, tmp_path, capsys):
        # Python 3.11 refuses to parse an integer of more than 4300 digits.
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(hover_dict()).replace("v_max: 0.3", "v_max: " + "9" * 5000))
        assert main(["plan", "--scenario", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "unexpected" not in err


class TestIntegersBeyondExactFloats:
    """An integer field beyond +-2**53 exits 2 with one short line naming it, not the integer."""

    @staticmethod
    def assert_one_short_line(err, want):
        assert err == want + "\n"
        assert len(want) <= 120

    @pytest.mark.parametrize(
        "section, key, value, digits",
        [
            ("spline", "n", 1.0e300, 301),
            ("spline", "degree", 1.0e300, 301),
            ("spline", "n", 10**400, 401),
            ("tracking", "substeps", 1.0e300, 301),
        ],
    )
    def test_scenario_field_exits_parse(
        self, tmp_path, capsys, monkeypatch, section, key, value, digits
    ):
        doc = hover_dict()
        doc[section][key] = value
        monkeypatch.chdir(tmp_path)
        Path("big.yaml").write_text(yaml.safe_dump(doc))
        assert main(["plan", "--scenario", "big.yaml"]) == EXIT_PARSE
        want = f"error: big.yaml: {section}/{key}: a {digits}-digit integer is beyond 2**53"
        self.assert_one_short_line(capsys.readouterr().err, want)

    @pytest.mark.parametrize("command", ["verify", "track", "export"])
    @pytest.mark.parametrize("field", ["n", "degree"])
    def test_plan_document_field_exits_parse(
        self, tmp_path, hover_plan, capsys, monkeypatch, command, field
    ):
        doc = hover_plan.to_dict()
        doc[field] = 10**400
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text(json.dumps(doc))
        assert main(TestBadPlanDocument.args(command, "big.json", tmp_path)) == EXIT_PARSE
        want = f"error: cannot load plan 'big.json': {field}: a 401-digit integer is beyond 2**53"
        self.assert_one_short_line(capsys.readouterr().err, want)
        assert not (tmp_path / "samples.csv").exists()

    def test_bound_is_2_to_the_53(self):
        schema = object_schema({"n": {"type": "integer"}})
        assert checked({"n": 2**53}, schema) == {"n": 2**53}
        assert checked({"n": -(2**53)}, schema) == {"n": -(2**53)}
        assert checked({"n": 2.0**53}, schema) == {"n": 2**53}
        with pytest.raises(ValueError, match=r"^n: a 16-digit integer is beyond 2\*\*53$"):
            checked({"n": 2**53 + 1}, schema)


class TestScenarioTimes:
    # A waypoint or window time outside the spline's [t0, tf], NaN included,
    # exits 2 naming its field, before any planning starts.
    CASES = [
        ("waypoints", "time", 12.0),
        ("waypoints", "time", -0.5),
        ("waypoints", "time", float("nan")),
        ("windows", "t_start", -1.0),
        ("windows", "t_end", 12.0),
        ("windows", "t_end", float("nan")),
    ]

    @pytest.mark.parametrize("command", ["plan", "verify"])
    @pytest.mark.parametrize("section,key,value", CASES)
    def test_exits_parse(self, tmp_path, capsys, command, section, key, value):
        doc = hover_dict()
        doc["waypoints"] = [{"position": [0.0, 0.0, 1.0], "time": 5.0, "radius": 0.5}]
        doc["windows"] = [{"t_start": 2.0, "t_end": 4.0, "kind": "speed", "bound": 1.0}]
        doc[section][0][key] = value
        path = write_scenario(tmp_path, doc)
        assert main([command, "--scenario", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        # Out of range, PlanningScenario names waypoints/0/time; a NaN time
        # is rejected first, by the Waypoint or window built as waypoints/0.
        assert f"{section}/0" in err and key in err
        assert "unexpected error" not in err

    def test_rejected_planning_value_exits_parse(self, tmp_path, capsys):
        doc = hover_dict()
        doc["bounds"]["v_max"] = -1.0
        assert main(["plan", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "v_max must be positive" in err
        assert "unexpected error" not in err


def pin_count(end, count):
    """An edit of a scenario that pins count zero-padded orders at one end."""

    def edit(doc):
        pins = doc["endpoints"][end]
        pins += [[0.0, 0.0, 0.0]] * (count - len(pins))

    return edit


class TestSplineShapeAndGravity:
    # A spline.n below the degree, more than degree + 1 pinned orders at one
    # end, or a gravity that is not positive exits 2 naming its field, before
    # any planning starts. Past load, the first two failed in the knot vector
    # or the pin compile (exit 5), and the third in the tilt cone (exit 3).
    CASES = [
        ("n-3", lambda d: d["spline"].update(n=3), "spline.n"),
        ("n-0", lambda d: d["spline"].update(n=0), "spline.n"),
        ("n-minus-2", lambda d: d["spline"].update(n=-2), "spline.n"),
        ("seven-initial-pins", pin_count("initial", 7), "endpoints.initial"),
        ("seven-final-pins", pin_count("final", 7), "endpoints.final"),
        ("gravity-zero", lambda d: d.update(gravity=0.0), "gravity must be positive"),
        ("gravity-negative", lambda d: d.update(gravity=-9.81), "gravity must be positive"),
        # Untracked, spans too wide for a usable snap Gram: the solve would
        # end in numerical-failure (exit 3).
        (
            "tf-1e60-untracked",
            lambda d: (d.pop("tracking"), d["spline"].update(tf=1.0e60)),
            "spline.tf: (tf - t0) / ",
        ),
    ]

    @pytest.mark.parametrize("command", ["plan", "verify"])
    @pytest.mark.parametrize("edit, field", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_exits_parse(self, tmp_path, capsys, command, edit, field):
        doc = hover_dict()
        edit(doc)
        assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert field in err
        assert "unexpected error" not in err

    @pytest.mark.parametrize("command", ["plan", "track"])
    @pytest.mark.parametrize("name", ["hover", "example3_c2_s1_c3"])
    def test_spans_too_short_for_the_snap_gram(self, tmp_path, capsys, command, name):
        # From t0 = 0 to tf = 1e-300 the snap Gram's entries overflow, and
        # np.linalg.eigh failed on them (exit 5) before the width was checked.
        doc = bundled_dict(name)
        doc["spline"].update(t0=0.0, tf=1.0e-300)
        assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "spline.tf: (tf - t0) / " in err
        assert "unexpected error" not in err

    def test_limits_are_accepted(self, tmp_path):
        doc = hover_dict()
        doc["spline"]["n"] = doc["spline"]["degree"]
        for end in ("initial", "final"):
            pin_count(end, doc["spline"]["degree"] + 1)(doc)
        planning = load_scenario(write_scenario(tmp_path, doc)).planning
        assert planning.n == planning.degree == 5
        assert len(planning.pins.initial) == len(planning.pins.final) == 6


def every_planning_shape():
    """The hover scenario with a waypoint, both window kinds, one region of
    every shape and a corridor, all finite and containing the hover point."""
    doc = hover_dict()
    box = {"box": {"lo": [-1.0, -1.0, 0.0], "hi": [1.0, 1.0, 1.0]}}
    doc["bounds"]["regions"] = [
        box,
        {"ball": {"center": [0.0, 0.0, 0.5], "radius": 1.0}},
        {"ellipsoid": {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "b": [0.0, 0.0, -0.5]}},
        {"halfspace": {"normal": [0.0, 0.0, 1.0], "offset": 2.0}},
    ]
    doc["gravity"] = GRAVITY
    doc["waypoints"] = [{"position": [0.0, 0.0, 0.5], "time": 5.0, "radius": 0.1}]
    doc["windows"] = [
        {"t_start": 2.0, "t_end": 4.0, "kind": "speed", "bound": 1.0},
        {"t_start": 2.0, "t_end": 4.0, "kind": "position", "region": copy.deepcopy(box)},
    ]
    doc["corridor"] = [copy.deepcopy(box) for _ in range(8)]  # n = 8 + degree - 1
    return doc


class TestNonFinitePlanning:
    # A NaN or infinite planning number exits 2 naming its file, its YAML
    # path and its field, before any planning starts: past load, a NaN bound
    # makes the solve fail (exit 3) or a verified margin NaN (exit 4), and an
    # infinite radius verifies. The dataclass that owns the field rejects it.
    NAN, INF = float("nan"), float("inf")
    CASES = [
        (("bounds", "v_max"), NAN, "bounds: v_max must be finite, got nan"),
        (("bounds", "tilt_max_deg"), INF, "bounds: tilt_max must be finite, got inf"),
        (("bounds", "thrust_min"), -INF, "bounds: thrust_min must be finite, got -inf"),
        (("bounds", "thrust_max"), NAN, "bounds: thrust_max must be finite, got nan"),
        (("bounds", "omega_max_deg_s"), INF, "bounds: omega_max must be finite, got inf"),
        (("gravity",), NAN, "gravity must be finite, got nan"),
        (
            ("endpoints", "initial", 0, 2),
            NAN,
            "endpoints: pins.initial[0] must be finite, got nan at 2",
        ),
        (
            ("endpoints", "final", 1, 0),
            INF,
            "endpoints: pins.final[1] must be finite, got inf at 0",
        ),
        (
            ("waypoints", 0, "position", 1),
            NAN,
            "waypoints/0: waypoint position must be finite, got nan at 1",
        ),
        (("waypoints", 0, "radius"), INF, "waypoints/0: waypoint radius must be finite, got inf"),
        (
            ("bounds", "regions", 0, "box", "lo", 0),
            NAN,
            "bounds/regions/0: box lo must be finite, got nan at 0",
        ),
        (
            ("bounds", "regions", 0, "box", "hi", 2),
            INF,
            "bounds/regions/0: box hi must be finite, got inf at 2",
        ),
        (
            ("bounds", "regions", 1, "ball", "center", 0),
            NAN,
            "bounds/regions/1: ball center must be finite, got nan at 0",
        ),
        (
            ("bounds", "regions", 1, "ball", "radius"),
            INF,
            "bounds/regions/1: ball radius must be finite, got inf",
        ),
        (
            ("bounds", "regions", 2, "ellipsoid", "A", 1, 1),
            NAN,
            "bounds/regions/2: ellipsoid A must be finite, got nan at (1, 1)",
        ),
        (
            ("bounds", "regions", 2, "ellipsoid", "b", 2),
            -INF,
            "bounds/regions/2: ellipsoid b must be finite, got -inf at 2",
        ),
        (
            ("bounds", "regions", 3, "halfspace", "normal", 2),
            NAN,
            "bounds/regions/3: halfspace normal must be finite, got nan at 2",
        ),
        (
            ("bounds", "regions", 3, "halfspace", "offset"),
            INF,
            "bounds/regions/3: halfspace offset must be finite, got inf",
        ),
        (("windows", 0, "bound"), NAN, "windows/0: interval bound must be finite, got nan"),
        (
            ("windows", 1, "region", "box", "lo", 1),
            NAN,
            "windows/1/region: box lo must be finite, got nan at 1",
        ),
        (("corridor", 4, "box", "hi", 0), INF, "corridor/4: box hi must be finite, got inf at 0"),
    ]

    def test_the_finite_document_loads(self, tmp_path):
        sf = load_scenario(write_scenario(tmp_path, every_planning_shape()))
        assert len(sf.planning.bounds.regions) == 4 and len(sf.planning.corridor) == 8

    @pytest.mark.parametrize("command", ["plan", "verify"])
    @pytest.mark.parametrize("path,value,message", CASES)
    def test_exits_parse_naming_the_field(
        self, tmp_path, capsys, hover_plan, command, path, value, message
    ):
        doc = every_planning_shape()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario = write_scenario(tmp_path, doc)
        argv = [command, "--scenario", scenario]
        if command == "verify":
            argv += ["--plan", write_plan(tmp_path, hover_plan)]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: {scenario}: {message}\n"


class TestWindowFieldOfTheOtherKind:
    # A speed window that names a region, or a position window that names a
    # bound, exits 2 under its YAML path. Nothing would compile or verify the
    # extra field: hover would plan with the FAR box out of its reach.
    HOME = {"box": {"lo": [-1.0, -1.0, 0.0], "hi": [1.0, 1.0, 1.0]}}  # holds the hover point
    FAR = {"box": {"lo": [5.0, 5.0, 5.0], "hi": [6.0, 6.0, 6.0]}}
    CASES = [
        ({"kind": "speed", "bound": 0.5}, "region", FAR),
        ({"kind": "position", "region": HOME}, "bound", 0.0001),
    ]

    @pytest.mark.parametrize("command", ["plan", "verify", "track"])
    @pytest.mark.parametrize("window, unread, value", CASES, ids=["speed", "position"])
    def test_exits_parse(self, tmp_path, capsys, hover_plan, command, window, unread, value):
        doc = hover_dict()
        doc["windows"] = [{"t_start": 2.0, "t_end": 4.0, **window, unread: value}]
        scenario = write_scenario(tmp_path, doc)
        argv = [command, "--scenario", scenario]
        if command != "plan":
            argv += ["--plan", write_plan(tmp_path, hover_plan)]
        assert main(argv) == EXIT_PARSE
        message = f"windows/0: a {window['kind']} interval reads no {unread}, but one is given"
        assert capsys.readouterr().err == f"error: {scenario}: {message}\n"


class TestBadTracking:
    NAN, INF = float("nan"), float("inf")
    # Each bad tracking value exits 2 on every command, naming its file, its
    # field and the value, before any planning starts.
    CASES = [
        ("cbf", "a1", 2.0, "tracking.cbf: a1^2 = 4 < 4 a2 = 32: complex error poles"),
        ("cbf", "a2", 1.0e301, "tracking.cbf: a1^2 = 36 < 4 a2 = 4e+301: complex error poles"),
        ("cbf", "a1", 1.0e300, "tracking.cbf: a1^2 must be finite, got a1 = 1e+300"),
        ("gains", "kp", -2.0, "tracking.gains: kp must be nonnegative and finite, got -2.0"),
        (None, "control_rate", 0.0, "tracking: control_rate must be positive and finite, got 0.0"),
        (None, "control_rate", NAN, "tracking: control_rate must be positive and finite, got nan"),
        (None, "substeps", 0, "tracking: substeps must be >= 1, got 0"),
        (  # under one 10 ms tick
            None,
            "duration",
            0.004,
            "tracking: duration must be finite and at least one control tick (0.01 s), got 0.004",
        ),
        ("cbf", "delta", INF, "tracking.cbf: delta must be positive and finite, got inf"),
    ]

    @pytest.mark.parametrize("command", ["plan", "track"])
    @pytest.mark.parametrize("section,key,value,message", CASES)
    def test_exits_parse(self, tmp_path, capsys, command, section, key, value, message):
        doc = hover_dict()
        target = doc["tracking"] if section is None else doc["tracking"][section]
        target[key] = value
        path = write_scenario(tmp_path, doc)
        assert main([command, "--scenario", path]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    # Past MAX_TICKS a run is refused at load, with the scenario's duration
    # or, without one, the planning horizon: 10 s at 10 MHz is 1e8 ticks.
    # A count past 2**53 is written to three digits, and one that overflows
    # a float is named as past the cap, not as an infinite duration.
    @pytest.mark.parametrize("command", ["plan", "verify"])
    @pytest.mark.parametrize(
        "rate, duration, count",
        [
            (1.0e7, 10.0, "is 100000000 ticks, more than MAX_TICKS"),
            (1.0e7, None, "is 100000000 ticks, more than MAX_TICKS"),
            (100.0, 1.0e306, "is 1e+308 ticks, more than MAX_TICKS"),
            (1.0e300, 1.0e10, "is more than MAX_TICKS = 1000000 ticks"),
        ],
        ids=["10MHz-10s", "10MHz-horizon", "100Hz-1e306s", "1e300Hz-1e10s"],
    )
    def test_tick_count_capped(self, tmp_path, capsys, hover_plan, command, rate, duration, count):
        doc = hover_dict()
        doc["tracking"]["control_rate"] = rate
        doc["tracking"].pop("duration", None)
        if duration is not None:
            doc["tracking"]["duration"] = duration
        path = write_scenario(tmp_path, doc)
        want = f"{path}: tracking: control_rate {rate:g} Hz over "
        with pytest.raises(ScenarioError, match=re.escape(want)):
            load_scenario(path)
        argv = [command, "--scenario", path]
        if command == "verify":
            argv += ["--plan", write_plan(tmp_path, hover_plan)]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}")
        assert count in err and not re.search(r"\d{21}", err)


class TestSolverTol:
    # The solve runs at the --tol flag's tolerance, else at the scenario's
    # solver_tol; PlanningScenario holds the range check for both.
    @pytest.fixture()
    def solved_tols(self, monkeypatch):
        tols, solve = [], safeflight.cli.plan

        def recording(planning):
            tols.append(planning.solver_tol)
            return solve(planning)

        monkeypatch.setattr(safeflight.cli, "plan", recording)
        return tols

    @pytest.fixture()
    def scenario(self, tmp_path):
        doc = hover_dict()
        doc["solver_tol"] = 1e-7
        return write_scenario(tmp_path, doc)

    @pytest.mark.parametrize("command", ["plan", "verify", "track"])
    def test_flag_wins(self, scenario, solved_tols, command):
        assert main([command, "--scenario", scenario, "--tol", "1e-6"]) == EXIT_OK
        assert solved_tols == [1e-6]

    def test_scenario_default(self, scenario, solved_tols):
        assert main(["plan", "--scenario", scenario]) == EXIT_OK
        assert solved_tols == [1e-7]

    # Below 1e-10 the solver cannot reach the tolerance: at 1e-12 five
    # bundled scenarios end in numerical-failure.
    @pytest.mark.parametrize("tol", ["0.5", "1e-12"])
    @pytest.mark.parametrize("command", ["plan", "verify", "track"])
    def test_out_of_range_flag_exits_parse(self, capsys, command, tol):
        assert main([command, "--scenario", "hover", "--tol", tol]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"error: --tol: solver_tol must be a number in [1e-10, 0.01), got {tol}" in err
        assert "unexpected" not in err

    @pytest.mark.parametrize("tol", [0.5, 0.0, float("nan"), 1e-12])
    def test_out_of_range_scenario_value_names_its_file(self, tmp_path, capsys, tol):
        doc = hover_dict()
        doc["solver_tol"] = tol
        path = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        want = f"error: {path}: solver_tol must be a number in [1e-10, 0.01), got {tol}"
        assert err.startswith(want)


class TestPlanCommand:
    def test_list_prints_bundled_names(self, capsys):
        assert main(["plan", "--list"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == EXPECTED_BUNDLED

    def test_requires_scenario_or_list(self, capsys):
        with pytest.raises(SystemExit):
            main(["plan"])

    def test_plan_writes_document(self, tmp_path, capsys):
        out = tmp_path / "hover.plan.json"
        assert main(["plan", "--scenario", "hover", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "hover: optimal" in stdout
        assert "objective" in stdout
        doc = json.loads(out.read_text())
        assert doc["format"] == "safeflight-plan"
        assert doc["name"] == "hover"

    def test_plan_is_deterministic_byte_for_byte(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", "--scenario", "hover", "--out", str(out1)]) == EXIT_OK
        assert main(["plan", "--scenario", "hover", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_zeta_mode_flag(self, tmp_path, capsys):
        out = tmp_path / "scalar.json"
        args = ["plan", "--scenario", "hover", "--zeta-mode", "scalar", "--out", str(out)]
        assert main(args) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["zeta"]) == 1

    def test_unknown_scenario_exits_parse(self, capsys):
        assert main(["plan", "--scenario", "nonexistent"]) == EXIT_PARSE
        assert "nonexistent" in capsys.readouterr().err

    def test_a_directory_does_not_shadow_a_bundled_name(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "hover").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["plan", "--scenario", "hover"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("hover: optimal")

    def test_infeasible_tracking_margins_exit_infeasible(self, tmp_path, capsys):
        # The filter may deviate 4 delta a2 = 3.2 per axis from the reference,
        # so a thrust ceiling of 12 leaves 12 - sqrt(3) 3.2 = 6.457 < g.
        doc = hover_dict()
        doc["bounds"]["thrust_max"] = 12.0
        doc["apply_tracking_margins"] = True
        assert main(["plan", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INFEASIBLE
        fault = "thrust_max - sqrt(3)*4*delta*a2 = 6.457 < g"
        assert capsys.readouterr().err == f"error: tracking margins infeasible: {fault}\n"

    def test_infeasible_scenario_exits_infeasible(self, tmp_path, capsys):
        doc = hover_dict()
        doc["waypoints"] = [{"position": [100.0, 0.0, 0.5], "time": 5.0}]
        path = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", path]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_degree_below_four_exits_parse(self, tmp_path, capsys):
        # The snap objective needs a fourth derivative; a cubic spline is
        # bad input, not an unexpected error.
        doc = hover_dict()
        doc["spline"]["degree"] = 3
        for side in ("initial", "final"):
            doc["endpoints"][side] = doc["endpoints"][side][:3]
        path = write_scenario(tmp_path, doc)
        assert main(["plan", "--scenario", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "spline.degree" in err
        assert "unexpected error" not in err

    def test_max_degree_plans(self, tmp_path, capsys):
        doc = hover_dict()
        doc["spline"].update(degree=28, n=35)
        assert main(["plan", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_OK
        assert "hover: optimal" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["plan", "verify", "track"])
    @pytest.mark.parametrize("degree", [29, 60])
    def test_degree_above_max_degree_exits_parse(self, tmp_path, capsys, command, degree):
        # The snap Gram's moments have no Cholesky factor past degree 28; the
        # solve failed on them with numpy's LinAlgError (exit 5).
        doc = hover_dict()
        doc["spline"].update(degree=degree, n=degree + 7)
        assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"spline.degree must lie in [4, 28], got {degree}" in err
        assert "unexpected error" not in err

    @pytest.mark.parametrize("command", ["plan", "verify", "track"])
    @pytest.mark.parametrize("tol", [[], ["--tol", "1e-7"]])
    def test_solver_fault_on_valid_input_exits_runtime(self, monkeypatch, capsys, command, tol):
        # LinAlgError is a ValueError; only building the inputs maps those to exit 2.
        def failing(planning):
            raise np.linalg.LinAlgError("KKT factorization failed")

        monkeypatch.setattr(safeflight.cli, "plan", failing)
        assert main([command, "--scenario", "hover", *tol]) == EXIT_RUNTIME
        assert "unexpected error: LinAlgError: KKT factorization failed" in capsys.readouterr().err


class TestVerifyCommand:
    def test_round_trip_passes(self, tmp_path, hover_plan, capsys):
        plan_path = write_plan(tmp_path, hover_plan)
        code = main(["verify", "--scenario", "hover", "--plan", plan_path])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "all constraints verified" in stdout
        assert "worst margin" in stdout

    def test_replans_when_no_plan_given(self, capsys):
        assert main(["verify", "--scenario", "hover"]) == EXIT_OK

    def test_violated_bound_exits_verify(self, tmp_path, hover_plan, capsys):
        doc = hover_dict()
        doc["bounds"]["thrust_min"] = 9.9  # hover thrust is g, below this floor
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        code = main(["verify", "--scenario", scenario_path, "--plan", plan_path])
        assert code == EXIT_VERIFY
        stdout = capsys.readouterr().out
        assert "FAILED" in stdout
        assert "thrust-lower" in stdout

    @pytest.mark.parametrize("command", ["verify", "track"])
    def test_mismatched_plan_exits_parse(self, tmp_path, hover_plan, capsys, command):
        doc = hover_dict()
        doc["spline"]["tf"] = 8.0
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        code = main([command, "--scenario", scenario_path, "--plan", plan_path])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "does not match" in err
        assert err.startswith(f"error: {plan_path}: plan spline (t0=0.0, tf=10.0, n=12, d=5) ")

    # Verified at g = 3, hover's plan fails every thrust floor; flown at the
    # scenario's 9.81 it would pass. The plan file is refused instead.
    @pytest.mark.parametrize("command", ["verify", "track"])
    def test_plan_of_another_gravity_exits_parse(self, tmp_path, hover_plan, capsys, command):
        doc = hover_plan.to_dict()
        doc["gravity"] = 3.0
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        assert main([command, "--scenario", "hover", "--plan", str(plan_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: {plan_path}: plan gravity 3.0 does not match scenario gravity 9.81\n"

    # --tol sets the tolerance of a re-plan; a plan file is not solved.
    @pytest.mark.parametrize("command", ["verify", "track"])
    def test_tol_beside_a_plan_file_exits_parse(self, tmp_path, hover_plan, capsys, command):
        plan_path = write_plan(tmp_path, hover_plan)
        args = [command, "--scenario", "hover", "--plan", plan_path, "--tol", "0.5"]
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: --tol: applies only when re-planning, not with --plan\n"

    def test_corrupt_plan_file_exits_parse(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        code = main(["verify", "--scenario", "hover", "--plan", str(path)])
        assert code == EXIT_PARSE
        assert "cannot load plan" in capsys.readouterr().err

    # Both inputs are read by one rule: a directory, or a file that is not
    # UTF-8, exits 2 naming the path (it was exit 5 for a scenario).
    @pytest.mark.parametrize("flag", ["--scenario", "--plan"])
    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_input_exits_parse(self, tmp_path, capsys, flag, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("name: caf\xe9\n".encode("latin-1"))
        inputs = {"--scenario": "hover", flag: str(path)}
        assert main(["verify", *(arg for pair in inputs.items() for arg in pair)]) == EXIT_PARSE
        what = flag.removeprefix("--")
        assert capsys.readouterr().err.startswith(f"error: cannot load {what} '{path}': ")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_exits_parse(self, count, capsys):
        assert main(["verify", "--scenario", "hover", "--samples-per-span", count]) == EXIT_PARSE
        message = f"--samples-per-span: samples_per_span must be at least 1, got {count}"
        assert capsys.readouterr().err == f"error: {message}\n"

    # 10**15 per span: numpy refuses such a grid at once, so nothing is
    # allocated even where the cap is missing. A count past 2**53 is written
    # to three digits, one past a float's range too.
    @pytest.mark.parametrize(
        "count, written",
        [(10**15, "1000000000000000 "), (10**80, "1.00e+80 "), (10**400, "1.00e+400 ")],
        ids=["1e15", "1e80", "1e400"],
    )
    @pytest.mark.parametrize("with_plan", [True, False], ids=["plan-file", "replan"])
    def test_sample_count_past_the_grid_cap_exits_parse(
        self, tmp_path, hover_plan, with_plan, count, written, capsys
    ):
        args = ["verify", "--scenario", "hover", "--samples-per-span", str(count)]
        if with_plan:
            args += ["--plan", write_plan(tmp_path, hover_plan)]
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: --samples-per-span: {written}samples per span over 8 spans")
        assert "MAX_SAMPLES" in err and not re.search(r"\d{21}", err)

    @pytest.mark.parametrize(
        "tol, message",
        [
            ("nan", "must be finite and at least 0, got nan"),
            ("-1", "must be finite and at least 0, got -1"),
            ("inf", "must be finite and at least 0, got inf"),
            ("abc", "not a number: 'abc'"),
        ],
        ids=["nan", "-1", "inf", "abc"],
    )
    def test_bad_margin_tol_exits_parse(self, tmp_path, hover_plan, tol, message, capsys):
        args = ["verify", "--scenario", "hover", "--plan", write_plan(tmp_path, hover_plan)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--margin-tol", tol])
        assert exc.value.code == EXIT_PARSE
        assert f"argument --margin-tol: {message}\n" in capsys.readouterr().err

    def test_margin_tol_is_read(self, tmp_path, hover_plan, capsys):
        args = ["verify", "--scenario", "hover", "--plan", write_plan(tmp_path, hover_plan)]
        assert main(args + ["--margin-tol", "0.001"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("all constraints verified\n")

    def test_window_between_grid_samples_exits_cleanly(self, tmp_path, capsys):
        # At 3 samples per span no grid sample falls inside either window.
        import importlib.resources

        text = (importlib.resources.files("safeflight") / "scenarios" / "example2_window.yaml").read_text()
        doc = yaml.safe_load(text)
        for window in doc["windows"]:
            window["t_start"], window["t_end"] = 3.001, 3.002
        path = write_scenario(tmp_path, doc)
        code = main(["verify", "--scenario", path, "--samples-per-span", "3"])
        assert code in (EXIT_OK, EXIT_VERIFY)
        assert "window[1]:speed" in capsys.readouterr().out

    def test_free_fall_plan_exits_verify(self, free_fall_plan, capsys):
        code = main(["verify", "--scenario", "hover", "--plan", free_fall_plan])
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "error: flatness map undefined on the plan: SingularThrustError" in err
        assert "unexpected error" not in err


class TestTrackCommand:
    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "no-filter"])
    def test_hover_track_writes_trace_and_report(self, tmp_path, hover_plan, capsys, filtered):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "trace.csv"
        args = ["track", "--scenario", "hover", "--plan", plan_path, "--out", str(out)]
        assert main(args + ([] if filtered else ["--no-filter"])) == EXIT_OK
        stdout = capsys.readouterr().out
        label = "filtered" if filtered else "unfiltered"
        assert stdout.startswith(f"hover: {label} run, 1000 ticks at 100 Hz\n")
        assert "min barrier" in stdout

        assert out.exists()
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 1000  # header + 10 s at 100 Hz

        report = json.loads((tmp_path / "trace.csv.report.json").read_text())
        assert report["scenario"] == "hover"
        assert report["filtered"] is filtered
        ic = report["initial_conditions"]
        assert set(ic) == {"tube_ok", "slope_ok", "velocity_ok", "e_inf", "e1_inf"}
        assert ic["tube_ok"] is True and ic["e_inf"] == 0.0
        assert report["certificate"]["min_barrier"] >= 0.0

    def test_report_path_flag(self, tmp_path, hover_plan):
        plan_path = write_plan(tmp_path, hover_plan)
        report_path = tmp_path / "cert.json"
        args = ["track", "--scenario", "hover", "--plan", plan_path, "--report", str(report_path)]
        assert main(args) == EXIT_OK
        assert json.loads(report_path.read_text())["scenario"] == "hover"

    def test_start_outside_tube_exits_verify(self, tmp_path, hover_plan, capsys):
        doc = hover_dict()
        doc["tracking"]["initial_position_offset"] = [0.3, 0.0, 0.0]
        doc["tracking"]["duration"] = 1.0
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, hover_plan)
        args = ["track", "--scenario", scenario_path, "--plan", plan_path, "--no-filter"]
        assert main(args) == EXIT_VERIFY
        stdout = capsys.readouterr().out
        assert "unfiltered run" in stdout
        assert "tube=False" in stdout
        assert "FAILED: tracking left the safe tube" in stdout

    def test_free_fall_plan_exits_verify(self, free_fall_plan, capsys):
        code = main(["track", "--scenario", "hover", "--plan", free_fall_plan])
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "error: flatness map undefined on the plan: InvertedFlightError" in err
        assert "unexpected error" not in err

    # kp = 1e308 times the 2 m start error overflows the PD law. The loop's
    # floats turn to inf (and, unfiltered, to NaN) without a warning, and the
    # record of the run must too: a RuntimeWarning raised as an error would
    # exit 5. The report keeps its NaN values.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "no-filter"])
    def test_overflowing_gain_exits_verify(self, tmp_path, hover_plan, capsys, filtered):
        doc = hover_dict()
        doc["tracking"]["gains"]["kp"] = 1.0e308
        doc["tracking"]["initial_position_offset"] = [0.0, 0.0, -2.0]
        scenario_path = write_scenario(tmp_path, doc)
        args = ["track", "--scenario", scenario_path, "--plan", write_plan(tmp_path, hover_plan)]
        assert main(args + ([] if filtered else ["--no-filter"])) == EXIT_VERIFY
        out = capsys.readouterr()
        assert out.out.endswith("FAILED: tracking left the safe tube\n") and not out.err
        assert ("min barrier nan" in out.out) is not filtered

    def test_scenario_without_tracking_exits_parse(self, tmp_path, capsys):
        doc = hover_dict()
        del doc["tracking"]
        path = write_scenario(tmp_path, doc)
        assert main(["track", "--scenario", path]) == EXIT_PARSE
        assert "no tracking section" in capsys.readouterr().err

    def test_reference_held_past_the_horizon_stays_in_tube(self, tmp_path, bundled_plan, capsys):
        # A run longer than the plan tracks the end state held at rest.
        path = importlib.resources.files("safeflight") / "scenarios" / "example2_window.yaml"
        doc = yaml.safe_load(path.read_text())
        doc["tracking"]["duration"] = 20.0
        scenario_path = write_scenario(tmp_path, doc)
        plan_path = write_plan(tmp_path, bundled_plan("example2_window"))
        report_path = tmp_path / "report.json"
        args = ["track", "--scenario", scenario_path, "--plan", plan_path]
        assert main(args + ["--report", str(report_path)]) == EXIT_OK
        assert "2000 ticks" in capsys.readouterr().out
        cert = json.loads(report_path.read_text())["certificate"]
        assert cert["max_position_err"] <= cert["position_bound"]
        assert cert["min_barrier"] >= 0.0


class TestExportCommand:
    @pytest.mark.parametrize("name", ["example1", "example2_window", "hover"])
    def test_csv_bytes_match_the_per_row_writer(self, tmp_path, bundled_plan, name):
        pl = bundled_plan(name)
        out = tmp_path / "samples.csv"
        assert main(["export", "--plan", write_plan(tmp_path, pl), "--out", str(out)]) == EXIT_OK
        spans = pl.curve.knots.n - pl.curve.knots.degree + 1
        assert out.read_text().count("\n") == 1 + spans * 50 + 1  # header, 50 per span, final knot
        export_csv_per_row(pl, 50, tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_document_round_trip_is_byte_identical(self, tmp_path, hover_plan):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "copy.json"
        args = ["export", "--plan", plan_path, "--out", str(out), "--format", "document"]
        assert main(args) == EXIT_OK
        assert out.read_bytes() == (tmp_path / "plan.json").read_bytes()
        # Without its optional fields, which load as NaN, a document comes
        # back as it went in and as strict JSON, with no NaN written.
        doc = hover_plan.to_dict()
        for key in ("objective", "snap", "max_residual"):
            del doc[key]
        bare, out = tmp_path / "bare.json", tmp_path / "bare_copy.json"
        bare.write_text(json.dumps(doc))
        args = ["export", "--plan", str(bare), "--out", str(out), "--format", "document"]
        assert main(args) == EXIT_OK

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        assert json.loads(out.read_text(), parse_constant=refuse) == doc

    def test_csv_header_and_row_count(self, tmp_path, hover_plan, capsys):
        plan_path = write_plan(tmp_path, hover_plan)
        out = tmp_path / "samples.csv"
        args = ["export", "--plan", plan_path, "--out", str(out), "--samples-per-span", "20"]
        assert main(args) == EXIT_OK
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == [
            "t", "x", "y", "z", "vx", "vy", "vz", "speed",
            "ax", "ay", "az", "thrust", "phi_deg", "theta_deg",
            "p_deg_s", "q_deg_s", "zeta",
        ]
        spans = len(hover_plan.curve.knots.nonempty_spans())
        assert len(rows) == 1 + spans * 20 + 1  # header, interior samples, final knot
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == 10.0
        # Hovering: speed is solver noise, thrust is gravity, angles are flat.
        assert abs(float(rows[3][7])) < 1e-6
        assert float(rows[3][11]) == pytest.approx(9.81, abs=1e-6)
        assert float(rows[3][12]) == pytest.approx(0.0, abs=1e-6)

    def test_zeta_column_follows_the_span(self, tmp_path, hover_plan):
        # Distinct per-span floors, so a wrong span lookup shows.
        doc = hover_plan.to_dict()
        assert doc["zeta_mode"] == "per-span"
        doc["zeta"] = [1.0 + 0.25 * k for k in range(len(doc["zeta"]))]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        out = tmp_path / "samples.csv"
        args = ["export", "--plan", str(plan_path), "--out", str(out), "--samples-per-span", "7"]
        assert main(args) == EXIT_OK
        pl = TrajectoryPlan.from_dict(doc)
        kv = pl.curve.knots
        spans = kv.span_index(span_samples(pl, 7)) - kv.degree
        want = [f"{doc['zeta'][k]:.12g}" for k in spans]
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == want
        assert len(set(want)) == len(doc["zeta"])

    def test_free_fall_plan_exits_verify(self, tmp_path, free_fall_plan, capsys):
        out = tmp_path / "samples.csv"
        assert main(["export", "--plan", free_fall_plan, "--out", str(out)]) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "error: flatness map undefined on the plan: SingularThrustError" in err
        assert "unexpected error" not in err

    def test_missing_plan_exits_parse(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["export", "--plan", str(tmp_path / "none.json"), "--out", str(out)])
        assert code == EXIT_PARSE
        assert "cannot load plan" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2", "two"])
    def test_sample_count_below_one_exits_parse(self, tmp_path, hover_plan, count, capsys):
        out = tmp_path / "samples.csv"
        args = ["export", "--plan", write_plan(tmp_path, hover_plan), "--out", str(out)]
        args += ["--samples-per-span", count]
        if count == "two":  # not an integer: argparse refuses it
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == EXIT_PARSE
        else:
            assert main(args) == EXIT_PARSE
        assert "--samples-per-span" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_document_format_checks_the_sample_count(self, tmp_path, hover_plan, count, capsys):
        out = tmp_path / "out.json"
        args = ["export", "--plan", write_plan(tmp_path, hover_plan), "--out", str(out)]
        assert main(args + ["--format", "document", "--samples-per-span", count]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: --samples-per-span: samples_per_span must be at least 1")
        assert not out.exists()

    def test_sample_count_past_the_grid_cap_exits_parse(self, tmp_path, hover_plan, capsys):
        out = tmp_path / "samples.csv"
        args = ["export", "--plan", write_plan(tmp_path, hover_plan), "--out", str(out)]
        assert main(args + ["--samples-per-span", str(10**15)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--samples-per-span" in err and "MAX_SAMPLES" in err
        assert "unexpected" not in err
        assert not out.exists()


class TestUnwritableOutput:
    # Each output flag with a path that cannot be written: one in a missing
    # directory, or "." for the test's own directory where a file would go.
    @pytest.mark.parametrize(
        "argv, flag, target",
        [
            (["plan", "--scenario", "hover"], "--out", "no/dir/h.json"),
            (["track", "--scenario", "hover"], "--out", "no/x.csv"),
            (["track", "--scenario", "hover"], "--report", "."),
            (["export"], "--out", "no/x.csv"),
            (["export", "--format", "document"], "--out", "."),
        ],
        ids=["plan-out", "track-out", "track-report", "export-out", "export-document-out"],
    )
    def test_exits_parse_naming_the_flag_and_path(
        self, tmp_path, hover_plan, capsys, argv, flag, target
    ):
        # Each write raised its OSError to the CLI boundary, which exited 5.
        path = tmp_path / target
        plan_file = [] if argv[0] == "plan" else ["--plan", write_plan(tmp_path, hover_plan)]
        assert main(argv + plan_file + [flag, str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: cannot write '{path}': "), err
        assert "unexpected error" not in err


def set_entry(key, *index, value):
    """An edit of a plan document that sets doc[key][index...] to value."""

    def edit(doc):
        if not index:
            doc[key] = value
            return
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value

    return edit


def respline(**spline):
    """An edit of a plan document onto another spline, its control points and zeta resized to fit.

    Every control point takes the first one's place: the plan rests there.
    """

    def edit(doc):
        doc.update(spline)
        n, degree = doc["n"], doc["degree"]
        doc["control_points"] = [row[:1] * (n + 1) for row in doc["control_points"]]
        doc["zeta"] = doc["zeta"][:1] * (n - degree + 1)

    return edit


# (label, edit of the hover plan document, field the error must name). The
# hover plan has n = 12, degree = 5 and per-span zeta, 8 values.
BAD_PLAN_DOCUMENTS = [
    (
        "control-point-nan",
        set_entry("control_points", 1, 4, value=float("nan")),
        "control_points must be finite, got nan at (1, 4)",
    ),
    ("control-point-inf", set_entry("control_points", 2, 0, value=float("inf")), "control_points"),
    ("control-points-short", lambda d: d["control_points"][0].pop(), "control_points"),
    ("control-points-two-rows", lambda d: d["control_points"].pop(), "control_points"),
    ("control-point-string", set_entry("control_points", 0, 3, value="x"), "control_points"),
    ("zeta-nan", set_entry("zeta", 2, value=float("nan")), "zeta"),
    ("zeta-short", lambda d: d["zeta"].pop(), "zeta"),
    ("zeta-empty", set_entry("zeta", value=[]), "zeta"),
    ("zeta-scalar-mode", set_entry("zeta_mode", value="scalar"), "zeta"),
    ("zeta-mode-bogus", set_entry("zeta_mode", value="bogus"), "zeta_mode"),
    ("n-string", set_entry("n", value="12"), "at n: a string is not of type 'integer'"),
    ("n-bool", set_entry("n", value=True), "at n: a boolean is not of type 'integer'"),
    ("degree-float", set_entry("degree", value=2.5), "degree"),
    ("t0-null", set_entry("t0", value=None), "t0"),
    ("t0-nan", set_entry("t0", value=float("nan")), "t0"),
    ("tf-string", set_entry("tf", value="10"), "tf"),
    ("tf-inf", set_entry("tf", value=float("inf")), "tf"),
    ("gravity-nan", set_entry("gravity", value=float("nan")), "gravity"),
    ("gravity-zero", set_entry("gravity", value=0.0), "gravity must be positive, got 0.0"),
    ("gravity-negative", set_entry("gravity", value=-9.81), "gravity must be positive"),
    ("objective-null", set_entry("objective", value=None), "objective"),
    ("max-residual-list", set_entry("max_residual", value=[1.0]), "max_residual"),
    ("list-document", None, "at <root>: an array is not of type 'object'"),
    ("format-missing", lambda d: d.pop("format"), "'format' is a required property"),
    ("n-missing", lambda d: d.pop("n"), "'n' is a required property"),
    ("format-other", set_entry("format", value="x"), "at format: 'safeflight-plan' was expected"),
    # An integer too large for a float, and an n past MAX_CONTROL_POINTS,
    # which the control points need not hold to be refused.
    ("t0-huge", set_entry("t0", value=10**400), "t0: a 401-digit integer is too large for a float"),
    ("tf-huge", set_entry("tf", value=10**400), "tf: a 401-digit integer"),
    ("gravity-huge", set_entry("gravity", value=-(10**400)), "gravity: a 401-digit integer"),
    ("control-point-huge", set_entry("control_points", 0, 3, value=10**400), "control_points"),
    ("zeta-huge", set_entry("zeta", 1, value=10**400), "zeta/1: a 401-digit integer"),
    ("objective-huge", set_entry("objective", value=10**400), "objective: a 401-digit integer"),
    ("snap-huge", set_entry("snap", value=10**400), "snap: a 401-digit integer"),
    ("max-residual-huge", set_entry("max_residual", value=10**400), "max_residual: a 401-digit"),
    ("n-10^12", set_entry("n", value=10**12), "n must lie in [degree, MAX_CONTROL_POINTS - 1] = "),
    # Numbers only where the format has numbers, only the fields to_dict
    # writes, version 1 and a string name: numpy would read True as 1.0
    # and "1.5" as 1.5.
    (
        "control-point-numeric-string-and-bool",
        set_entry("control_points", 0, value=["1.5", True] + [0.0] * 11),
        "at control_points/0/0: a string is not of type 'number'",
    ),
    (
        "control-point-bool",
        set_entry("control_points", 2, 5, value=True),
        "at control_points/2/5: a boolean is not of type 'number'",
    ),
    (
        "zeta-numeric-string",
        lambda d: d.update(zeta_mode="scalar", zeta=["9.8"]),
        "at zeta/0: a string is not of type 'number'",
    ),
    ("zeta-bool", set_entry("zeta", 3, value=False), "at zeta/3: a boolean is not of type"),
    ("version-7", set_entry("version", value=7), "at version: 1 was expected"),
    ("version-true", set_entry("version", value=True), "at version: 1 was expected"),
    ("unknown-field", set_entry("comment", value="x"), "unknown field(s) 'comment'"),
    ("name-list", set_entry("name", value=["x"]), "at name: an array is not of type 'string'"),
    # A plan document meets a scenario's spline rule: a degree in [4, 28], at
    # most MAX_CONTROL_POINTS control points per axis and spans that the snap
    # Gram can be built over. Each copy but degree-1 is whole, its control
    # points and zeta sized to its spline. Export wrote each with exit 0 or
    # failed on it with exit 5: an OverflowError at degree 200, and an
    # evaluation time outside [t0, tf] over the ends at +-1e308.
    ("degree-1", set_entry("degree", value=1), "degree must lie in [4, 28], got 1"),
    ("degree-29", respline(degree=29, n=36), "degree must lie in [4, 28], got 29"),
    ("degree-60", respline(degree=60, n=67), "degree must lie in [4, 28], got 60"),
    ("degree-200", respline(degree=200, n=207), "degree must lie in [4, 28], got 200"),
    (
        "n-500",
        respline(n=500),
        "n must lie in [degree, MAX_CONTROL_POINTS - 1] = [5, 499], got 500",
    ),
    ("ends-1e308", respline(t0=-1.0e308, tf=1.0e308), "tf: (tf - t0) / 8 spans = inf s, outside"),
    (
        "tf-1e60",
        respline(tf=1.0e60),
        "tf: (tf - t0) / 8 spans = 1.25e+59 s, outside [1e-40, 1e+40] at degree 5",
    ),
]


class TestBadPlanDocument:
    """A malformed or non-finite plan document exits 2, naming its field, in every command."""

    @staticmethod
    def args(command, path, tmp_path):
        if command == "export":
            return ["export", "--plan", path, "--out", str(tmp_path / "samples.csv")]
        return [command, "--scenario", "hover", "--plan", path]

    @pytest.mark.parametrize("command", ["verify", "track", "export"])
    @pytest.mark.parametrize(
        "edit, field",
        [case[1:] for case in BAD_PLAN_DOCUMENTS],
        ids=[case[0] for case in BAD_PLAN_DOCUMENTS],
    )
    def test_exits_parse_naming_the_field(
        self, tmp_path, hover_plan, capsys, monkeypatch, command, edit, field
    ):
        doc = hover_plan.to_dict()
        if edit is None:
            doc = [doc]
        else:
            edit(doc)
        # A relative path keeps the message's length independent of tmp_path.
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text(json.dumps(doc))
        assert main(self.args(command, "bad.json", tmp_path)) == EXIT_PARSE
        out = capsys.readouterr()
        assert "cannot load plan" in out.err and field in out.err
        assert "unexpected error" not in out.err
        # A value is named by its index, type or length, never printed whole.
        assert all(len(line) < 120 for line in out.err.splitlines()), out.err
        assert not (tmp_path / "samples.csv").exists()

    NON_FINITE = [
        ("objective", "Infinity"),
        ("objective", "1e400"),
        ("snap", "NaN"),
        ("max_residual", "-1e400"),
    ]

    @pytest.mark.parametrize("key, literal", NON_FINITE)
    def test_non_finite_optional_number_exits_parse(
        self, tmp_path, hover_plan, capsys, key, literal
    ):
        # JSON reads 1e400 as inf. Loaded, the field would be left out of the exported document.
        doc = hover_plan.to_dict()
        text = json.dumps(doc).replace(f'"{key}": {json.dumps(doc[key])}', f'"{key}": {literal}')
        assert f'"{key}": {literal}' in text
        path, out = tmp_path / "bad.json", tmp_path / "copy.json"
        path.write_text(text)
        args = ["export", "--plan", str(path), "--out", str(out), "--format", "document"]
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "cannot load plan" in err and f"{key} must be finite, got " in err
        assert not out.exists()

    def test_nan_barrier_fails_the_track_run(self, tmp_path, hover_plan, monkeypatch, capsys):
        # A NaN reaching the run compares false against 0, so the barrier
        # check must be written to fail on it. The report is still written,
        # NaN and all: unlike a plan document, it need not be strict JSON.
        ctrl = hover_plan.curve.ctrl.copy()
        ctrl[0, 4] = np.nan
        nan_plan = dataclasses.replace(hover_plan, curve=SplineCurve(hover_plan.curve.knots, ctrl))
        monkeypatch.setattr("safeflight.cli._load_plan_doc", lambda path: nan_plan)
        report = tmp_path / "report.json"
        args = ["track", "--scenario", "hover", "--plan", "nan.json", "--report", str(report)]
        assert main(args) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "min barrier nan" in out
        assert "FAILED: tracking left the safe tube" in out
        assert np.isnan(json.loads(report.read_text())["certificate"]["min_barrier"])


class TestInvertedFlight:
    """A plan whose thrust points down fails verification in every command that reads its map."""

    def test_verify_exits_verify(self, tmp_path, dive_plan, capsys):
        doc = hover_dict()
        doc["bounds"].update(v_max=100.0, thrust_max=1000.0, omega_max_deg_s=5.4e5)
        code = main(["verify", "--scenario", write_scenario(tmp_path, doc), "--plan", dive_plan])
        assert code == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "error: flatness map undefined on the plan: InvertedFlightError" in err
        assert "unexpected error" not in err

    def test_export_exits_verify(self, tmp_path, dive_plan, capsys):
        out = tmp_path / "samples.csv"
        assert main(["export", "--plan", dive_plan, "--out", str(out)]) == EXIT_VERIFY
        assert "InvertedFlightError" in capsys.readouterr().err
        assert not out.exists()

    def test_hover_squeezed_into_1e_30_s_exits_verify(self, tmp_path, hover_plan, capsys):
        # Spans of 1.25e-31 s meet the spline rule, whose floor at degree 5 is
        # 1e-40 s, so the document loads. Over such spans the solve's round-off
        # in the control points is an acceleration of order 1e52, downward.
        doc = hover_plan.to_dict()
        doc["tf"] = 1.0e-30
        path = tmp_path / "squeezed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "samples.csv"
        assert main(["export", "--plan", str(path), "--out", str(out)]) == EXIT_VERIFY
        err = capsys.readouterr().err
        assert "error: flatness map undefined on the plan: InvertedFlightError" in err
        assert not out.exists()


def huge_thrust_bounds(tmp_path, bundled_plan):
    doc = bundled_dict("margin_demo")
    doc["bounds"].update(thrust_min=1.0e299, thrust_max=1.0e300)
    message = "tracking margins infeasible: thrust_min + sqrt(3)*4*delta*a2 = 1e+299 > g"
    return ["plan", "--scenario", write_scenario(tmp_path, doc)], EXIT_INFEASIBLE, message


def huge_control_points(tmp_path, bundled_plan):
    doc = bundled_plan("example1").to_dict()
    doc["control_points"] = (np.array(doc["control_points"]) * 1.0e306).tolist()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    message = "flatness map undefined on the plan: InvertedFlightError: vertical thrust component"
    return ["track", "--scenario", "example1", "--plan", str(path)], EXIT_VERIFY, message


# A magnitude far past any flight envelope is written in four digits, not
# in the hundreds that a fixed-point format spells out.
@pytest.mark.parametrize("case", [huge_thrust_bounds, huge_control_points], ids=["bounds", "plan"])
def test_huge_magnitudes_are_written_short(tmp_path, bundled_plan, capsys, case):
    argv, code, message = case(tmp_path, bundled_plan)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err) < 120, err
    assert not re.search(r"\d{21}", err)


def greville_speed_plan(tmp_path, hover_plan):
    """hover's plan with x = 1e100 t: x control points at 1e100 times their Greville abscissae."""
    doc = hover_plan.to_dict()
    kv = hover_plan.curve.knots
    greville = [kv.tau[i + 1 : i + kv.degree + 1].mean() for i in range(kv.n + 1)]
    doc["control_points"][0] = (1e100 * np.array(greville)).tolist()
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    return ["verify", "--scenario", "hover", "--plan", str(path)], "speed"


def far_start_unfiltered(tmp_path, hover_plan):
    """hover's plan flown unfiltered without feedback from 1e40 above its start."""
    doc = hover_dict()
    doc["tracking"].update(initial_position_offset=[0, 0, 1e40], gains={"kp": 0, "kd": 0})
    argv = ["track", "--scenario", write_scenario(tmp_path, doc), "--no-filter"]
    return argv + ["--plan", write_plan(tmp_path, hover_plan)], "max |e|"


# A report writes each measured magnitude to four significant digits: the
# speed detail held 101 digits, and max |e| and min barrier 41 each.
@pytest.mark.parametrize(
    "case", [greville_speed_plan, far_start_unfiltered], ids=["verify", "track"]
)
def test_huge_magnitudes_in_reports_are_written_short(tmp_path, hover_plan, capsys, case):
    argv, line = case(tmp_path, hover_plan)
    assert main(argv) == EXIT_VERIFY
    out, err = capsys.readouterr()
    assert line in out and "unexpected error" not in err
    assert not re.search(r"\d{21}", out + err), out


def child_env(**extra) -> dict:
    """The environment of a new interpreter that imports this safeflight, plus extra."""
    package_root = str(Path(safeflight.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestColdStart:
    """In a fresh interpreter only a solve loads scipy, and nothing loads jsonschema."""

    CLI = "from safeflight.cli import main\nassert main(sys.argv[1:]) == 0"

    def run(self, cwd, code, *args):
        """Run code in a new interpreter; its stdout and the heavy modules it loaded."""
        probe = (
            f"import json, sys\n{code}\n"
            "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'jsonschema'})))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *args],
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        *out, loaded = proc.stdout.splitlines()
        return "\n".join(out), json.loads(loaded)

    def test_only_the_solve_loads_scipy(self, tmp_path):
        out, loaded = self.run(tmp_path, self.CLI, "plan", "--scenario", "hover", "--out", "plan.json")
        assert "hover: optimal" in out
        assert loaded == ["scipy"]
        for args in (
            ["verify", "--scenario", "hover", "--plan", "plan.json"],
            ["track", "--scenario", "hover", "--plan", "plan.json", "--out", "run.csv"],
            ["export", "--plan", "plan.json", "--out", "samples.csv"],
        ):
            assert self.run(tmp_path, self.CLI, *args)[1] == [], args[0]

    # Importing the CLI or the document checker loads neither, and nor do
    # building example1's cone model and auditing a point: the audit reads
    # the stored triplets with numpy alone.
    @pytest.mark.parametrize(
        "code",
        [
            "import safeflight.cli",
            "import safeflight.documents",
            "import numpy as np\n"
            "from safeflight.cli import load_scenario\n"
            "from safeflight.planner import compile_plan\n"
            "cp = compile_plan(load_scenario('example1').planning)[0].cp\n"
            "cp.residuals(np.zeros(cp.num_vars))",
        ],
        ids=["import-cli", "import-documents", "compile-plan-and-residuals"],
    )
    def test_loads_neither(self, tmp_path, code):
        assert self.run(tmp_path, code) == ("", [])


@pytest.mark.parametrize("name", ["example1", "margin_demo"])
def test_plan_documents_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    # Both solve past the size where OpenBLAS splits a factorization over
    # threads; the solve caps it at one thread, so the documents match.
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "safeflight.cli", "plan", "--scenario", name, "--out", out],
            env=child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
