"""Scenario-file driven pipeline: plan, track, verify, export.

Scenarios are YAML documents validated against SCENARIO_SCHEMA before use,
by a small checker of the JSON Schema keywords that schema uses; angles are
written in degrees there and converted on ingestion. A handful of
scenarios ship inside the package and can be named directly (see
`safeflight plan --list`). Exit codes: 0 success, 2 parse or validation
error, 3 infeasible plan, 4 failed verification or tracking certificate,
5 unexpected runtime failure. A NaN or infinite number in a scenario's
bounds, regions, waypoints, pins, windows or corridor is a validation
error, named by its field, and so is a plan document that is malformed
(not a plan-format object, a non-integer n or degree, a control-point array
not 3 x (n + 1), an unknown zeta_mode or a zeta of the wrong length) or
holds a non-finite number. So are a spline.n below the degree, spans too
short for a finite snap Gram (named as spline.tf), more than
degree + 1 pinned orders at either end of a scenario, a gravity that is
not positive in a scenario or a plan document, and a --samples-per-span
whose grid over the plan's spans would hold more than MAX_SAMPLES samples.
A plan that leaves the flatness map's domain (a free-fall sample with no
thrust direction, a thrust axis along the yaw heading's normal, or a sample
or command whose thrust points down, which asks for inverted flight) fails
verification: `verify`, `track` and `export` exit 4 on it. Only a solve
loads scipy, so `verify`, `track` and `export` given a plan file start
without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .flatness import (
    GRAVITY,
    InvertedFlightError,
    SingularAttitudeError,
    SingularThrustError,
    tilt_thrust_rates,
)
from .planner import (
    ConvexRegion,
    EndpointPins,
    IntervalConstraint,
    MarginInfeasibleError,
    PlanInfeasibleError,
    PlanningScenario,
    SafetyBounds,
    TrajectoryPlan,
    Waypoint,
    plan,
)
from .simverify import (
    MARGIN_TOL,
    MAX_TICKS,
    SAMPLES_PER_SPAN,
    SimConfig,
    check_sample_count,
    make_filtered_controller,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    span_samples,
    verify_plan,
    verify_span_minima,
)
from .socp import MAX_TOL
from .tracker import CbfParams, PdGains, ReferencePoint, TrackingState, check_initial_conditions

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_RUNTIME = 5

_VEC3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_REGION = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "box": {
            "type": "object",
            "properties": {"lo": _VEC3, "hi": _VEC3},
            "required": ["lo", "hi"],
            "additionalProperties": False,
        },
        "ball": {
            "type": "object",
            "properties": {"center": _VEC3, "radius": {"type": "number"}},
            "required": ["center", "radius"],
            "additionalProperties": False,
        },
        "ellipsoid": {
            "type": "object",
            "properties": {
                "A": {"type": "array", "items": _VEC3, "minItems": 3, "maxItems": 3},
                "b": _VEC3,
            },
            "required": ["A", "b"],
            "additionalProperties": False,
        },
        "halfspace": {
            "type": "object",
            "properties": {"normal": _VEC3, "offset": {"type": "number"}},
            "required": ["normal", "offset"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "format": {"const": "safeflight-scenario"},
        "version": {"const": 1},
        "name": {"type": "string"},
        "gravity": {"type": "number"},
        "spline": {
            "type": "object",
            "properties": {
                "t0": {"type": "number"},
                "tf": {"type": "number"},
                "n": {"type": "integer"},
                "degree": {"type": "integer"},
            },
            "required": ["t0", "tf", "degree"],
            "additionalProperties": False,
        },
        "bounds": {
            "type": "object",
            "properties": {
                "v_max": {"type": "number"},
                "tilt_max_deg": {"type": "number"},
                "thrust_min": {"type": "number"},
                "thrust_max": {"type": "number"},
                "omega_max_deg_s": {"type": "number"},
                "regions": {"type": "array", "items": _REGION},
            },
            "required": ["v_max", "tilt_max_deg", "thrust_min", "thrust_max", "omega_max_deg_s"],
            "additionalProperties": False,
        },
        "waypoints": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "position": _VEC3,
                    "time": {"type": "number"},
                    "radius": {"type": "number"},
                },
                "required": ["position", "time"],
                "additionalProperties": False,
            },
        },
        "endpoints": {
            "type": "object",
            "properties": {
                "initial": {"type": "array", "items": _VEC3, "minItems": 1},
                "final": {"type": "array", "items": _VEC3, "minItems": 1},
            },
            "required": ["initial", "final"],
            "additionalProperties": False,
        },
        "windows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "t_start": {"type": "number"},
                    "t_end": {"type": "number"},
                    "kind": {"enum": ["position", "speed"]},
                    "region": _REGION,
                    "bound": {"type": "number"},
                },
                "required": ["t_start", "t_end", "kind"],
                "additionalProperties": False,
            },
        },
        "corridor": {"type": "array", "items": _REGION, "minItems": 1},
        "zeta_mode": {"enum": ["per-span", "scalar"]},
        "apply_tracking_margins": {"type": "boolean"},
        "solver_tol": {"type": "number"},
        "tracking": {
            "type": "object",
            "properties": {
                "cbf": {
                    "type": "object",
                    "properties": {
                        "delta": {"type": "number"},
                        "a1": {"type": "number"},
                        "a2": {"type": "number"},
                    },
                    "required": ["delta", "a1", "a2"],
                    "additionalProperties": False,
                },
                "gains": {
                    "type": "object",
                    "properties": {"kp": {"type": "number"}, "kd": {"type": "number"}},
                    "required": ["kp", "kd"],
                    "additionalProperties": False,
                },
                "control_rate": {"type": "number"},
                "substeps": {"type": "integer"},
                "duration": {"type": "number"},
                "psi_deg": {"type": "number"},
                "initial_position_offset": _VEC3,
                "initial_velocity_offset": _VEC3,
            },
            "required": ["cbf", "gains"],
            "additionalProperties": False,
        },
    },
    "required": ["name", "spline", "bounds", "endpoints"],
    "additionalProperties": False,
}

_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (
        isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer()
    ),
}


def _same(value, expected) -> bool:
    """JSON equality for const and enum: true and 1 differ, 1.0 and 1 do not."""
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for every way value breaks schema.

    Covers the keywords SCENARIO_SCHEMA uses, with JSON Schema's meaning:
    type (a bool is no number, and 3.0 is an integer), const, enum, and the
    object and array keywords, which apply only to values of their type.
    """
    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
    if "const" in schema and not _same(value, schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        extra = [repr(key) for key in value if key not in props]
        if schema.get("additionalProperties") is False and extra:
            yield path, f"additional properties are not allowed ({', '.join(extra)} unexpected)"
        for key, sub in props.items():
            if key in value:
                yield from _schema_errors(value[key], sub, path + (key,))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(item, schema["items"], path + (i,))


def schema_violation(doc) -> tuple[tuple, str] | None:
    """The shallowest (path, message) where doc breaks SCENARIO_SCHEMA, or None."""
    return min(_schema_errors(doc, SCENARIO_SCHEMA), key=lambda e: len(e[0]), default=None)


class ScenarioError(ValueError):
    """Scenario file failed validation or internal consistency checks."""


@dataclass(frozen=True)
class TrackingConfig:
    """Closed-loop settings attached to a scenario."""

    cbf: CbfParams
    gains: PdGains
    sim: SimConfig
    psi: float = 0.0


@dataclass(frozen=True)
class ScenarioFile:
    """A validated scenario: the planning problem plus optional tracking."""

    planning: PlanningScenario
    tracking: TrackingConfig | None
    source: str


def _region_from_spec(spec: dict) -> ConvexRegion:
    name = spec.get("name", "")
    kinds = [k for k in ("box", "ball", "ellipsoid", "halfspace") if k in spec]
    if len(kinds) != 1:
        raise ScenarioError(f"region needs exactly one shape key, got {kinds or 'none'}")
    kind = kinds[0]
    body = spec[kind]
    if kind == "box":
        return ConvexRegion.box(body["lo"], body["hi"], name or "box")
    if kind == "ball":
        return ConvexRegion.ball(body["center"], body["radius"], name or "ball")
    if kind == "ellipsoid":
        return ConvexRegion.ellipsoid(np.asarray(body["A"], dtype=float), body["b"], name or "ellipsoid")
    return ConvexRegion.halfspace(body["normal"], body["offset"], name or "halfspace")


def bundled_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = importlib.resources.files("safeflight") / "scenarios"
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def _resolve_source(source: str) -> tuple[str, str]:
    """Return (text, description) for a path or a bundled scenario name."""
    path = Path(source)
    if path.exists():
        return path.read_text(), str(path)
    candidate = importlib.resources.files("safeflight") / "scenarios" / f"{source}.yaml"
    if candidate.is_file():
        return candidate.read_text(), f"bundled:{source}"
    raise ScenarioError(
        f"scenario '{source}' is neither a file nor one of {', '.join(bundled_scenarios())}"
    )


def load_scenario(source: str) -> ScenarioFile:
    """Parse and validate a scenario from a path or bundled name.

    Raises:
        ScenarioError: for YAML errors, schema violations, or inconsistent
            contents (for example a corridor with the wrong n, or a tracking
            run of more than MAX_TICKS control ticks).
    """
    text, desc = _resolve_source(source)
    # libyaml's loader parses about ten times faster; PyYAML may be built without it.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{desc}: YAML parse error: {exc}") from exc
    error = schema_violation(doc)
    if error is not None:
        where = "/".join(str(p) for p in error[0]) or "<root>"
        raise ScenarioError(f"{desc}: schema violation at {where}: {error[1]}")

    spline = doc["spline"]
    degree = int(spline["degree"])
    if degree < 4:
        raise ScenarioError(
            f"{desc}: spline.degree must be >= 4 for the snap objective, got {degree}"
        )
    tracking = _tracking_config(doc["tracking"], desc) if "tracking" in doc else None
    try:
        planning = _planning_scenario(doc, degree, tracking)
    except ValueError as exc:
        raise ScenarioError(f"{desc}: {exc}") from exc
    if tracking is not None:
        sim = tracking.sim
        span = sim.duration if sim.duration is not None else planning.tf - planning.t0
        ticks = round(span * sim.control_rate)
        if ticks > MAX_TICKS:
            raise ScenarioError(
                f"{desc}: tracking.control_rate: {sim.control_rate:g} Hz over {span:g} s "
                f"is {ticks} ticks, more than MAX_TICKS = {MAX_TICKS}"
            )
    return ScenarioFile(planning=planning, tracking=tracking, source=desc)


# Sections whose every number must be finite: the bounds and their regions,
# waypoints, pins, windows and corridor sets. A NaN compares false, so it
# would pass the planner's range checks and reach the solve or the verifier.
_PLANNING_NUMBERS = ("gravity", "bounds", "waypoints", "endpoints", "windows", "corridor")


def _check_finite(value, path: tuple) -> None:
    """Raise a ValueError naming the first non-finite number in value."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{'/'.join(map(str, path))} must be finite, got {value}")
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_finite(item, path + (key,))


def _planning_scenario(doc: dict, degree: int, tracking) -> PlanningScenario:
    """The planning problem of a schema-valid scenario document.

    Raises:
        ValueError: for a non-finite number in a planning section, a value
            the planner's dataclasses reject, a missing n, or a waypoint or
            window time outside the spline's [t0, tf], named by its field.
    """
    for key in _PLANNING_NUMBERS:
        if key in doc:
            _check_finite(doc[key], (key,))
    spline = doc["spline"]
    corridor = None
    if "corridor" in doc:
        corridor = tuple(_region_from_spec(s) for s in doc["corridor"])
    n = spline.get("n")
    if n is None:
        if corridor is None:
            raise ValueError("spline.n is required without a corridor")
        n = len(corridor) + degree - 1  # corridor fixes the control-point count
    t0, tf = float(spline["t0"]), float(spline["tf"])
    if not (np.isfinite(t0) and np.isfinite(tf) and t0 < tf):
        raise ValueError(f"spline: need finite t0 < tf, got [{t0}, {tf}]")
    times = [(f"waypoints/{i}/time", w["time"]) for i, w in enumerate(doc.get("waypoints", []))]
    for i, w in enumerate(doc.get("windows", [])):
        times += [(f"windows/{i}/{key}", w[key]) for key in ("t_start", "t_end")]
    for where, t in times:
        if not t0 <= float(t) <= tf:
            raise ValueError(f"{where} = {t} lies outside the spline's [{t0}, {tf}]")

    b = doc["bounds"]
    bounds = SafetyBounds(
        v_max=float(b["v_max"]),
        tilt_max=float(np.deg2rad(b["tilt_max_deg"])),
        thrust_min=float(b["thrust_min"]),
        thrust_max=float(b["thrust_max"]),
        omega_max=float(np.deg2rad(b["omega_max_deg_s"])),
        regions=tuple(_region_from_spec(s) for s in b.get("regions", [])),
    )
    waypoints = tuple(
        Waypoint(w["position"], float(w["time"]), float(w.get("radius", 0.0)))
        for w in doc.get("waypoints", [])
    )
    pins = EndpointPins(
        initial=tuple(np.asarray(v, dtype=float) for v in doc["endpoints"]["initial"]),
        final=tuple(np.asarray(v, dtype=float) for v in doc["endpoints"]["final"]),
    )
    intervals = []
    for w in doc.get("windows", []):
        region = _region_from_spec(w["region"]) if "region" in w else None
        bound = float(w["bound"]) if "bound" in w else None
        intervals.append(
            IntervalConstraint(float(w["t_start"]), float(w["t_end"]), w["kind"], region, bound)
        )
    return PlanningScenario(
        name=doc["name"],
        t0=t0,
        tf=tf,
        n=int(n),
        degree=degree,
        bounds=bounds,
        pins=pins,
        waypoints=waypoints,
        intervals=tuple(intervals),
        corridor=corridor,
        zeta_mode=doc.get("zeta_mode", "per-span"),
        cbf=tracking.cbf if tracking else None,
        apply_tracking_margins=bool(doc.get("apply_tracking_margins", False)),
        gravity=float(doc.get("gravity", GRAVITY)),
        solver_tol=float(doc.get("solver_tol", 1e-8)),
    )


def _tracking_config(tr: dict, desc: str) -> TrackingConfig:
    """The tracking section; a bad or non-finite value raises a ScenarioError naming its field."""

    def build(where: str, make):
        try:
            return make()
        except ValueError as exc:
            raise ScenarioError(f"{desc}: {where}: {exc}") from exc

    psi_deg = float(tr.get("psi_deg", 0.0))
    if not np.isfinite(psi_deg):
        raise ScenarioError(f"{desc}: tracking: psi_deg must be finite, got {psi_deg}")
    return TrackingConfig(
        cbf=build("tracking.cbf", lambda: CbfParams(**{k: float(v) for k, v in tr["cbf"].items()})),
        gains=build("tracking.gains", lambda: PdGains(**{k: float(v) for k, v in tr["gains"].items()})),
        sim=build(
            "tracking",
            lambda: SimConfig(
                control_rate=float(tr.get("control_rate", 100.0)),
                substeps=int(tr.get("substeps", 10)),
                duration=float(tr["duration"]) if "duration" in tr else None,
                initial_position_offset=tr.get("initial_position_offset", np.zeros(3)),
                initial_velocity_offset=tr.get("initial_velocity_offset", np.zeros(3)),
            ),
        ),
        psi=float(np.deg2rad(psi_deg)),
    )


# ------------------------------------------------------------------- commands


def _effective_tol(scenario: PlanningScenario, flag: float | None) -> float:
    """The --tol flag, else the scenario's solver_tol.

    Raises:
        ScenarioError: if the chosen value is not a number in (0, MAX_TOL).
    """
    source, tol = ("--tol", flag) if flag is not None else ("solver_tol", scenario.solver_tol)
    if not 0 < tol < MAX_TOL:
        raise ScenarioError(f"{source} must be a number in (0, {MAX_TOL:g}), got {tol!r}")
    return tol


def _check_samples(spans: int, samples_per_span: int) -> None:
    """A ScenarioError naming --samples-per-span for a grid past MAX_SAMPLES."""
    try:
        check_sample_count(spans, samples_per_span)
    except ValueError as exc:
        raise ScenarioError(f"--samples-per-span: {exc}") from None


def _load_plan_doc(path: str) -> TrajectoryPlan:
    try:
        with open(path) as fh:
            return TrajectoryPlan.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ScenarioError(f"cannot load plan '{path}': {exc}") from exc


def _check_consistent(planning: PlanningScenario, pl: TrajectoryPlan) -> None:
    kv = pl.curve.knots
    same = (
        kv.t0 == planning.t0
        and kv.tf == planning.tf
        and kv.n == planning.n
        and kv.degree == planning.degree
    )
    if not same:
        raise ScenarioError(
            f"plan spline (t0={kv.t0}, tf={kv.tf}, n={kv.n}, d={kv.degree}) does not match "
            f"scenario (t0={planning.t0}, tf={planning.tf}, n={planning.n}, d={planning.degree})"
        )


def cmd_plan(args) -> int:
    if args.list:
        for name in bundled_scenarios():
            print(name)
        return EXIT_OK
    sf = load_scenario(args.scenario)
    planning = sf.planning
    if args.zeta_mode:
        planning = dataclasses.replace(planning, zeta_mode=args.zeta_mode)
    planning = dataclasses.replace(planning, solver_tol=_effective_tol(planning, args.tol))
    pl = plan(planning)
    stats = pl.solve_stats
    print(
        f"{planning.name}: {stats.status} in {stats.solve_time * 1e3:.1f} ms, "
        f"{stats.iterations} iterations, residual {stats.max_residual:.2e}"
    )
    print(f"objective {pl.objective:.6f} (snap {pl.snap:.6f})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(pl.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"plan written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    sf = load_scenario(args.scenario)
    planning = sf.planning
    _check_samples(planning.n - planning.degree + 1, args.samples_per_span)
    if args.plan:
        pl = _load_plan_doc(args.plan)
        _check_consistent(planning, pl)
    else:
        pl = plan(dataclasses.replace(planning, solver_tol=_effective_tol(planning, args.tol)))
    bounds = planning.bounds
    report = verify_plan(
        pl,
        bounds,
        waypoints=planning.waypoints,
        pins=planning.pins,
        intervals=planning.intervals,
        corridor=planning.corridor,
        samples_per_span=args.samples_per_span,
    )
    spans = verify_span_minima(pl, bounds.omega_max, args.samples_per_span)
    print(report.summary())
    print(f"{report.samples} samples; worst margin {report.min_margin:.3e}")
    bad = report.failing(args.margin_tol) + spans.failing(args.margin_tol)
    if bad:
        print(f"FAILED: {len(bad)} constraint(s) below -{args.margin_tol:g}:")
        for c in bad:
            print(f"  {c.name}: margin {c.margin:.3e} at t={c.worst_t:.3f}")
        return EXIT_VERIFY
    print("all constraints verified")
    return EXIT_OK


def cmd_track(args) -> int:
    sf = load_scenario(args.scenario)
    if sf.tracking is None:
        raise ScenarioError(f"{sf.source}: scenario has no tracking section")
    planning, tr = sf.planning, sf.tracking
    if args.plan:
        pl = _load_plan_doc(args.plan)
        _check_consistent(planning, pl)
    else:
        pl = plan(dataclasses.replace(planning, solver_tol=_effective_tol(planning, args.tol)))

    maker = make_unfiltered_controller if args.no_filter else make_filtered_controller
    controller = maker(tr.cbf, tr.gains, tr.psi, planning.gravity)
    duration = tr.sim.duration if tr.sim.duration is not None else planning.tf - planning.t0
    trace = simulate(plan_reference(pl), controller, tr.sim, t0=planning.t0, duration=duration)
    ic = check_initial_conditions(
        TrackingState(trace.r[0], trace.r1[0]),
        ReferencePoint(trace.ref_r[0], trace.ref_r1[0], trace.ref_r2[0]),
        tr.cbf,
    )
    cert = trace.certificate(tr.cbf)

    label = "unfiltered" if args.no_filter else "filtered"
    print(f"{planning.name}: {label} run, {trace.t.size} ticks at {tr.sim.control_rate:g} Hz")
    print(
        f"initial conditions: tube={ic.tube_ok} slope={ic.slope_ok} velocity={ic.velocity_ok}"
    )
    print(
        f"max |e| {cert.max_position_err:.4f} (tube {cert.position_bound:g}), "
        f"max |de| {cert.max_velocity_err:.4f} (bound {cert.velocity_bound:g}), "
        f"max |mu - ref| {cert.max_input_dev:.4f} (bound {cert.input_bound:g}), "
        f"min barrier {cert.min_barrier:.4f}"
    )
    if args.out:
        trace.to_csv(args.out)
        print(f"trace written to {args.out}")
    report_path = args.report or (str(args.out) + ".report.json" if args.out else None)
    if report_path:
        doc = {
            "scenario": planning.name,
            "filtered": not args.no_filter,
            "initial_conditions": {
                "tube_ok": ic.tube_ok,
                "slope_ok": ic.slope_ok,
                "velocity_ok": ic.velocity_ok,
                "e_inf": ic.e_inf,
                "e1_inf": ic.e1_inf,
            },
            "certificate": cert.to_dict(),
        }
        with open(report_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"report written to {report_path}")
    # Written so that a NaN barrier, which fails every comparison, fails the run.
    if not cert.min_barrier >= 0.0:
        print("FAILED: tracking left the safe tube")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_export(args) -> int:
    pl = _load_plan_doc(args.plan)
    if args.format == "document":
        with open(args.out, "w") as fh:
            json.dump(pl.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"plan document written to {args.out}")
        return EXIT_OK

    kv = pl.curve.knots
    _check_samples(len(kv.nonempty_spans()), args.samples_per_span)
    ts = span_samples(pl, args.samples_per_span)
    pos, vel, acc, jerk = pl.curve.eval(ts, (0, 1, 2, 3))
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, pl.gravity)
    zeta_by_span = np.array([pl.zeta_for_span(l) for l in kv.nonempty_spans()])
    zeta = zeta_by_span[kv.span_index(ts) - kv.degree]
    header = [
        "t", "x", "y", "z", "vx", "vy", "vz", "speed",
        "ax", "ay", "az", "thrust", "phi_deg", "theta_deg",
        "p_deg_s", "q_deg_s", "zeta",
    ]
    # The speed of one vector, np.linalg.norm(v), is sqrt(v.dot(v)); a stack
    # of (1, 3) @ (3, 1) products runs the same dot kernel, so the column
    # keeps those bits, which a norm along axis 1 (another sum order) would not.
    speed = np.sqrt(vel[:, None, :] @ vel[:, :, None]).ravel()
    cols = np.column_stack(
        [ts, pos, vel, speed, acc, thrust, np.rad2deg(phi), np.rad2deg(theta)]
        + [np.rad2deg(p_rate), np.rad2deg(q_rate), zeta]
    )
    # One format string per row; the lines end in "\r\n" as csv.writer's do.
    line = ",".join(["%.12g"] * cols.shape[1]) + "\r\n"
    with open(args.out, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(line % tuple(row) for row in cols.tolist()))
    print(f"{ts.size} samples written to {args.out}")
    return EXIT_OK


def _sample_count(text: str) -> int:
    """argparse type of --samples-per-span: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _margin_tol(text: str) -> float:
    """argparse type of --margin-tol: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeflight",
        description="B-spline trajectory planning and barrier-filtered tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve a scenario and write the plan document")
    p_plan.add_argument("--scenario", help="scenario path or bundled name")
    p_plan.add_argument("--out", help="output plan JSON path")
    p_plan.add_argument("--zeta-mode", choices=["per-span", "scalar"], default=None)
    p_plan.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    p_plan.add_argument("--list", action="store_true", help="list bundled scenarios and exit")
    p_plan.set_defaults(func=cmd_plan)

    p_verify = sub.add_parser("verify", help="dense-sample a plan against its scenario")
    p_verify.add_argument("--scenario", required=True)
    p_verify.add_argument("--plan", help="plan JSON (re-plans when omitted)")
    p_verify.add_argument("--samples-per-span", type=_sample_count, default=SAMPLES_PER_SPAN)
    p_verify.add_argument("--margin-tol", type=_margin_tol, default=MARGIN_TOL)
    p_verify.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    p_verify.set_defaults(func=cmd_verify)

    p_track = sub.add_parser("track", help="closed-loop tracking run with the safety filter")
    p_track.add_argument("--scenario", required=True)
    p_track.add_argument("--plan", help="plan JSON (re-plans when omitted)")
    p_track.add_argument("--out", help="trace CSV path")
    p_track.add_argument("--report", help="certificate report JSON path")
    p_track.add_argument("--no-filter", action="store_true", help="bypass the barrier filter")
    p_track.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    p_track.set_defaults(func=cmd_track)

    p_export = sub.add_parser("export", help="convert a plan document to samples or re-emit it")
    p_export.add_argument("--plan", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--format", choices=["csv", "document"], default="csv")
    p_export.add_argument("--samples-per-span", type=_sample_count, default=50)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plan" and not args.list and not args.scenario:
        parser.error("plan requires --scenario (or --list)")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MarginInfeasibleError as exc:
        print(f"error: tracking margins infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlanInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SingularThrustError, SingularAttitudeError, InvertedFlightError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        print(f"error: flatness map undefined on the plan: {reason}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
