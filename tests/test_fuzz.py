"""A seeded fuzzer over scenario files and plan documents, run through the CLI.

Each case takes one bundled scenario, or the plan solved from it, makes one
mutation and runs the CLI in process. A mutation sets one numeric leaf to
one of VALUES, drops one key or list item, or gives one node a value of one
of WRONG_TYPES. Every case must keep these properties:

- the exit code is a documented one, and never 5 (an unexpected error);
- an exit 2 prints one error line naming a field, and for a scenario the
  line starts with its file;
- a scenario that plans to optimal passes `verify --plan` on that plan;
- `track` exits 4 only on a negative min barrier or a flatness-map error.

`plan` runs only on scenarios that load. The seed, the case counts, VALUES
and WRONG_TYPES are the domain; each case draws from its own stream.
"""

import contextlib
import copy
import dataclasses
import importlib.resources
import io
import json
import re

import numpy as np
import pytest
import yaml

from safeflight.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    SCENARIO_SCHEMA,
    bundled_scenarios,
    main,
)
from safeflight.planner import (
    PLAN_SCHEMA,
    EndpointPins,
    IntervalConstraint,
    PlanningScenario,
    SafetyBounds,
    Waypoint,
)
from safeflight.simverify import SimConfig, TrackingConfig
from safeflight.tracker import CbfParams, PdGains

SEED = 22
SCENARIO_CASES = 120
PLAN_CASES = 60
VALUES = (0, -1, 1e-6, 0.5, 2, 1e6, -1e6, 1e-300, 1e300)
WRONG_TYPES = ("text", [1.0], {"key": 1.0}, None, True)
NAMES = bundled_scenarios()


def _schema_keys(schema: dict):
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _schema_keys(sub)
    if "items" in schema:
        yield from _schema_keys(schema["items"])


def _field_names() -> set[str]:
    """Names a message may use for a field: scenario and plan keys, dataclass fields."""
    classes = (SafetyBounds, Waypoint, EndpointPins, IntervalConstraint, PlanningScenario)
    classes += (SimConfig, CbfParams, PdGains, TrackingConfig)
    names = {f.name for cls in classes for f in dataclasses.fields(cls)}
    return names | {*_schema_keys(SCENARIO_SCHEMA), *_schema_keys(PLAN_SCHEMA)}


FIELD = re.compile(rf"(?<!\w)({'|'.join(map(re.escape, sorted(_field_names())))})(?!\w)")


def nodes(doc, path=()):
    """(path, value) of every node below doc, depth first."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def mutate(doc, rng) -> tuple[object, str]:
    """A deep copy of doc with one mutation, and a description of it."""
    doc = copy.deepcopy(doc)
    kind = ("number", "drop", "type")[rng.integers(3)]
    if kind == "number":
        pool = [p for p, v in nodes(doc) if isinstance(v, (int, float)) and not isinstance(v, bool)]
    else:
        pool = [p for p, _ in nodes(doc)]
    path = pool[rng.integers(len(pool))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "number":
        value = VALUES[rng.integers(len(VALUES))]
        parent[path[-1]] = value
    elif kind == "drop":
        value = None
        del parent[path[-1]]
    else:
        value = copy.deepcopy(WRONG_TYPES[rng.integers(len(WRONG_TYPES))])
        parent[path[-1]] = value
    return doc, f"{kind} {'/'.join(map(str, path))} -> {value!r}"


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def check_exit(code: int, err: str, what: str, tmp_path, source=None) -> None:
    """The documented exit codes only, and an exit 2 that names a field (and its source)."""
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_INFEASIBLE, EXIT_VERIFY), (what, code, err)
    if code == EXIT_PARSE:
        assert err.startswith("error: ") and err.count("\n") == 1, (what, err)
        if source is not None:
            assert err.startswith(f"error: {source}: "), (what, err)
        assert FIELD.search(err.replace(str(tmp_path), "")), (what, err)


def check_track(argv, what: str, tmp_path, source=None) -> None:
    """track's exit code, and an exit 4 only for a negative min barrier or the flatness map."""
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    code, out, err = run(argv + ["--report", report])
    check_exit(code, err, what, tmp_path, source)
    if code == EXIT_VERIFY:
        if "flatness map undefined" not in err:
            barrier = json.loads(report.read_text())["certificate"]["min_barrier"]
            assert barrier < 0.0, (what, barrier, out)


def scenario_doc(name: str) -> dict:
    path = importlib.resources.files("safeflight") / "scenarios" / f"{name}.yaml"
    return yaml.safe_load(path.read_text())


@pytest.mark.parametrize("case", range(SCENARIO_CASES))
def test_scenario_mutation(tmp_path, case):
    rng = np.random.default_rng([SEED, case])
    name = NAMES[rng.integers(len(NAMES))]
    doc, what = mutate(scenario_doc(name), rng)
    what = f"{name}: {what}"
    scenario, plan_path = tmp_path / "scenario.yaml", tmp_path / "plan.json"
    scenario.write_text(yaml.safe_dump(doc))

    code, _, err = run(["plan", "--scenario", scenario, "--out", plan_path])
    check_exit(code, err, what, tmp_path, source=scenario)
    if code != EXIT_OK:
        return
    code, out, err = run(["verify", "--scenario", scenario, "--plan", plan_path])
    assert code == EXIT_OK, (what, out, err)
    check_track(["track", "--scenario", scenario, "--plan", plan_path], what, tmp_path, scenario)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", range(PLAN_CASES))
def test_plan_document_mutation(tmp_path, bundled_plan, case):
    rng = np.random.default_rng([SEED, SCENARIO_CASES + case])
    name = NAMES[rng.integers(len(NAMES))]
    doc, what = mutate(bundled_plan(name).to_dict(), rng)
    what = f"{name} plan: {what}"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc))

    code, _, err = run(["verify", "--scenario", name, "--plan", plan_path])
    check_exit(code, err, what, tmp_path)
    code, _, err = run(["export", "--plan", plan_path, "--out", tmp_path / "samples.csv"])
    check_exit(code, err, what, tmp_path)
    check_track(["track", "--scenario", name, "--plan", plan_path], what, tmp_path)
