"""Scenario-file driven pipeline: plan, track, verify, export.

Scenarios are YAML documents and plans JSON documents. A handful of
scenarios ship inside the package and can be named directly (see
`safeflight plan --list`). Exit codes: 0 success, 2 parse or validation
error or an output file that cannot be written, 3 infeasible plan, 4
failed verification or tracking certificate, 5 unexpected runtime
failure. Both formats go through the one checker in
documents: SCENARIO_SCHEMA here, and PLAN_SCHEMA in planner, and one walk
checks a document's shape and types and makes every number a float and
every integer an int; a number too large for a float, or an integer
beyond +-2**53, exits 2, as does a scenario or plan file that cannot be
read as UTF-8 text. A scenario key is the field name of the library
class that owns its section, which takes the section by name and holds
every default and value check (for a flag's grid, that is
check_sample_count). Only the angles differ: written in degrees under
_DEGREES' keys, they are converted to radians.
The CLI builds each object through one wrapper, which reports a ValueError
as exit 2, prefixed with the scenario file and the field's YAML path, or
the flag.
A --plan file must hold the scenario's spline (t0, tf, n and degree) and
gravity, and --tol, which sets the tolerance of a re-plan, is refused beside
it: each exits 2.
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

from .documents import checked, object_schema
from .flatness import (
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
    SAMPLES_PER_SPAN,
    SimConfig,
    TrackingConfig,
    check_sample_count,
    make_filtered_controller,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    span_samples,
    verify_plan,
    verify_span_minima,
    write_csv,
)
from .splines import plan_knots
from .tracker import CbfParams, PdGains, ReferencePoint, TrackingState, check_initial_conditions

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_RUNTIME = 5

_NUMBER = {"type": "number"}
_VEC3 = {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3}
_MAT3 = {"type": "array", "items": _VEC3, "minItems": 3, "maxItems": 3}
_REGION = object_schema(
    {
        "name": {"type": "string"},
        "box": object_schema({"lo": _VEC3, "hi": _VEC3}, ["lo", "hi"]),
        "ball": object_schema({"center": _VEC3, "radius": _NUMBER}, ["center", "radius"]),
        "ellipsoid": object_schema({"A": _MAT3, "b": _VEC3}, ["A", "b"]),
        "halfspace": object_schema({"normal": _VEC3, "offset": _NUMBER}, ["normal", "offset"]),
    }
)
_BOUNDS = ["v_max", "tilt_max_deg", "thrust_min", "thrust_max", "omega_max_deg_s"]
_WINDOW = {
    "t_start": _NUMBER,
    "t_end": _NUMBER,
    "kind": {"enum": ["position", "speed"]},
    "region": _REGION,
    "bound": _NUMBER,
}
_TRACKING = {
    "cbf": object_schema(dict.fromkeys(["delta", "a1", "a2"], _NUMBER), ["delta", "a1", "a2"]),
    "gains": object_schema({"kp": _NUMBER, "kd": _NUMBER}, ["kp", "kd"]),
    "control_rate": _NUMBER,
    "substeps": {"type": "integer"},
    "duration": _NUMBER,
    "psi_deg": _NUMBER,
    "initial_position_offset": _VEC3,
    "initial_velocity_offset": _VEC3,
}

SCENARIO_SCHEMA = object_schema(
    {
        "format": {"const": "safeflight-scenario"},
        "version": {"const": 1},
        "name": {"type": "string"},
        "gravity": _NUMBER,
        "spline": object_schema(
            {"t0": _NUMBER, "tf": _NUMBER, "n": {"type": "integer"}, "degree": {"type": "integer"}},
            ["t0", "tf", "degree"],
        ),
        "bounds": object_schema(
            {**dict.fromkeys(_BOUNDS, _NUMBER), "regions": {"type": "array", "items": _REGION}},
            _BOUNDS,
        ),
        "waypoints": {
            "type": "array",
            "items": object_schema(
                {"position": _VEC3, "time": _NUMBER, "radius": _NUMBER}, ["position", "time"]
            ),
        },
        "endpoints": object_schema(
            dict.fromkeys(["initial", "final"], {"type": "array", "items": _VEC3, "minItems": 1}),
            ["initial", "final"],
        ),
        "windows": {"type": "array", "items": object_schema(_WINDOW, ["t_start", "t_end", "kind"])},
        "corridor": {"type": "array", "items": _REGION, "minItems": 1},
        "zeta_mode": {"enum": ["per-span", "scalar"]},
        "apply_tracking_margins": {"type": "boolean"},
        "solver_tol": _NUMBER,
        "tracking": object_schema(_TRACKING, ["cbf", "gains"]),
    },
    ["name", "spline", "bounds", "endpoints"],
)


class ScenarioError(ValueError):
    """Scenario file failed validation or internal consistency checks."""


@dataclass(frozen=True)
class ScenarioFile:
    """A validated scenario: the planning problem plus optional tracking."""

    planning: PlanningScenario
    tracking: TrackingConfig | None
    source: str


def _reported(where: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ValueError it raises becomes a ScenarioError after where.

    Only input objects are built under it: a ValueError from a solve or a
    verification (numpy's LinAlgError is one) stays a runtime failure.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _region_from_spec(spec: dict) -> ConvexRegion:
    """The region of a spec: its one shape key names the ConvexRegion constructor."""
    shapes = [k for k in ("box", "ball", "ellipsoid", "halfspace") if k in spec]
    if len(shapes) != 1:
        raise ValueError(f"region needs exactly one shape key, got {shapes or 'none'}")
    shape = shapes[0]
    return getattr(ConvexRegion, shape)(**spec[shape], name=spec.get("name") or shape)


def bundled_scenarios() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = importlib.resources.files("safeflight") / "scenarios"
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def _read_input(path, what: str) -> str:
    """The text of an input file; a file that cannot be read as UTF-8 exits 2, naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot load {what} '{path}': {exc}") from exc


def _resolve_source(source: str) -> tuple[str, str]:
    """Return (text, description) for a path or a bundled scenario name.

    An existing file comes first, then a bundled name, then any other
    existing path, such as a directory, which exits 2 as unreadable.
    """
    path = Path(source)
    candidate = importlib.resources.files("safeflight") / "scenarios" / f"{source}.yaml"
    if candidate.is_file() and not path.is_file():
        return candidate.read_text(), f"bundled:{source}"
    if path.exists():
        return _read_input(path, "scenario"), str(path)
    raise ScenarioError(
        f"scenario '{source}' is neither a file nor one of {', '.join(bundled_scenarios())}"
    )


def load_scenario(source: str) -> ScenarioFile:
    """Parse and validate a scenario from a path or bundled name.

    A tracking section without a duration runs over the planning horizon.

    Raises:
        ScenarioError: for YAML errors, schema violations, an integer too
            large for a float or, in an integer field, beyond +-2**53, or
            a value that one of the library's dataclasses rejects; the
            message starts with the source and names the field by its YAML
            path.
    """
    text, desc = _resolve_source(source)
    # libyaml's loader parses about ten times faster; PyYAML may be built without it.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: int() past its 4300-digit limit
        raise ScenarioError(f"{desc}: YAML parse error: {exc}") from exc
    doc = _reported(desc, checked, doc, SCENARIO_SCHEMA)
    tr = doc.pop("tracking", None)
    cbf = None if tr is None else _reported(f"{desc}: tracking.cbf", CbfParams, **tr.pop("cbf"))
    planning = _planning_scenario(doc, cbf, desc)
    tracking = None if tr is None else _tracking_config(tr, cbf, planning.tf - planning.t0, desc)
    return ScenarioFile(planning=planning, tracking=tracking, source=desc)


# Angles are written in degrees under these keys; each library field named holds radians.
_DEGREES = {"tilt_max_deg": "tilt_max", "omega_max_deg_s": "omega_max", "psi_deg": "psi"}


def _in_radians(section: dict) -> dict:
    """section with each angle key of _DEGREES given as its library field, in radians."""
    return {_DEGREES.get(k, k): math.radians(v) if k in _DEGREES else v for k, v in section.items()}


def _planning_scenario(doc: dict, cbf: CbfParams | None, desc: str) -> PlanningScenario:
    """The planning problem of a converted scenario document, without its tracking section.

    Each section is passed by field name to the library class that owns it.
    Each region, waypoint, window and corridor set is built on its own, so
    a value that its class rejects is reported under its YAML path.
    """

    def build(where: str, make, *args, **kwargs):
        return _reported(f"{desc}: {where}", make, *args, **kwargs)

    def regions(section: str, specs: list) -> tuple[ConvexRegion, ...]:
        return tuple(build(f"{section}/{i}", _region_from_spec, s) for i, s in enumerate(specs))

    for tag in ("format", "version"):
        doc.pop(tag, None)
    spline, b = doc.pop("spline"), _in_radians(doc.pop("bounds"))
    corridor = regions("corridor", doc.pop("corridor")) if "corridor" in doc else None
    if "n" not in spline:
        if corridor is None:
            raise ScenarioError(f"{desc}: spline.n is required without a corridor")
        spline["n"] = len(corridor) + spline["degree"] - 1  # corridor fixes the control-point count
    if "regions" in b:
        b["regions"] = regions("bounds/regions", b["regions"])
    bounds = build("bounds", SafetyBounds, **b)
    waypoints = doc.pop("waypoints", [])
    waypoints = tuple(build(f"waypoints/{i}", Waypoint, **w) for i, w in enumerate(waypoints))
    pins = build("endpoints", EndpointPins, **doc.pop("endpoints"))
    intervals = []
    for i, w in enumerate(doc.pop("windows", [])):
        if "region" in w:
            w["region"] = build(f"windows/{i}/region", _region_from_spec, w["region"])
        intervals.append(build(f"windows/{i}", IntervalConstraint, **w))
    return _reported(
        desc,
        PlanningScenario,
        **spline,
        **doc,
        bounds=bounds,
        pins=pins,
        waypoints=waypoints,
        intervals=tuple(intervals),
        corridor=corridor,
        cbf=cbf,
    )


def _tracking_config(tr: dict, cbf: CbfParams, horizon: float, desc: str) -> TrackingConfig:
    """The tracking section, without its cbf, run over the horizon unless it gives a duration."""
    tr = _in_radians(tr)
    gains = tr.pop("gains")
    yaw = {"psi": tr.pop("psi")} if "psi" in tr else {}
    sim = _reported(f"{desc}: tracking", SimConfig, **{"duration": horizon, **tr})
    pd = _reported(f"{desc}: tracking.gains", PdGains, **gains)
    return _reported(f"{desc}: tracking", TrackingConfig, cbf=cbf, gains=pd, sim=sim, **yaw)


# ------------------------------------------------------------------- commands


def _solve(planning: PlanningScenario, tol: float | None) -> TrajectoryPlan:
    """plan(planning), at the --tol flag's solver tolerance when one is given."""
    if tol is not None:
        planning = _reported("--tol", dataclasses.replace, planning, solver_tol=tol)
    return plan(planning)


def _load_plan_doc(path: str) -> TrajectoryPlan:
    text = _read_input(path, "plan")
    try:
        return TrajectoryPlan.from_dict(json.loads(text))
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ScenarioError(f"cannot load plan '{path}': {exc}") from exc


def _write_json(path, doc: dict, allow_nan: bool = True) -> None:
    """Write doc as sorted, indented JSON; a plan document is strict JSON, allow_nan=False."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=allow_nan)
        fh.write("\n")


def _write_output(flag: str, path, write, *args) -> None:
    """write(path, *args); a file that cannot be written exits 2, naming the flag and the path."""
    try:
        write(path, *args)
    except OSError as exc:
        raise ScenarioError(f"{flag}: cannot write '{path}': {exc}") from exc


def _plan_for(planning: PlanningScenario, args) -> TrajectoryPlan:
    """The --plan file, which must share planning's spline and gravity, or else a solve of planning.

    --tol sets the tolerance of that solve, so it is refused with a plan file.
    """
    if not args.plan:
        return _solve(planning, args.tol)
    if args.tol is not None:
        raise ScenarioError("--tol: applies only when re-planning, not with --plan")
    pl = _load_plan_doc(args.plan)
    kv, want = pl.curve.knots, plan_knots(planning.t0, planning.tf, planning.n, planning.degree)
    if kv != want:
        raise ScenarioError(
            f"{args.plan}: plan spline (t0={kv.t0}, tf={kv.tf}, n={kv.n}, d={kv.degree}) does not "
            f"match scenario (t0={want.t0}, tf={want.tf}, n={want.n}, d={want.degree})"
        )
    if pl.gravity != planning.gravity:
        raise ScenarioError(
            f"{args.plan}: plan gravity {pl.gravity} does not match scenario gravity "
            f"{planning.gravity}"
        )
    return pl


def cmd_plan(args) -> int:
    if args.list:
        for name in bundled_scenarios():
            print(name)
        return EXIT_OK
    planning = load_scenario(args.scenario).planning
    if args.zeta_mode:
        planning = dataclasses.replace(planning, zeta_mode=args.zeta_mode)
    pl = _solve(planning, args.tol)
    sol = pl.solution
    print(
        f"{planning.name}: {sol.status} in {sol.solve_time * 1e3:.1f} ms, "
        f"{sol.iterations} iterations, residual {sol.max_residual:.2e}"
    )
    print(f"objective {sol.objective:.6f} (snap {pl.snap:.6f})")
    if args.out:
        _write_output("--out", args.out, _write_json, pl.to_dict(), False)
        print(f"plan written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    planning = load_scenario(args.scenario).planning
    count = (planning.n - planning.degree + 1, args.samples_per_span)
    _reported("--samples-per-span", check_sample_count, *count)
    pl = _plan_for(planning, args)
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
    pl = _plan_for(planning, args)

    maker = make_unfiltered_controller if args.no_filter else make_filtered_controller
    controller = maker(tr.cbf, tr.gains, tr.psi, planning.gravity)
    trace = simulate(plan_reference(pl), controller, tr.sim, t0=planning.t0)
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
        f"max |e| {cert.max_position_err:.4g} (tube {cert.position_bound:g}), "
        f"max |de| {cert.max_velocity_err:.4g} (bound {cert.velocity_bound:g}), "
        f"max |mu - ref| {cert.max_input_dev:.4g} (bound {cert.input_bound:g}), "
        f"min barrier {cert.min_barrier:.4g}"
    )
    if args.out:
        _write_output("--out", args.out, trace.to_csv)
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
        _write_output("--report" if args.report else "--out", report_path, _write_json, doc)
        print(f"report written to {report_path}")
    # Written so that a NaN barrier, which fails every comparison, fails the run.
    if not cert.min_barrier >= 0.0:
        print("FAILED: tracking left the safe tube")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_export(args) -> int:
    pl = _load_plan_doc(args.plan)
    kv = pl.curve.knots
    count = (len(kv.nonempty_spans()), args.samples_per_span)
    _reported("--samples-per-span", check_sample_count, *count)
    if args.format == "document":
        _write_output("--out", args.out, _write_json, pl.to_dict(), False)
        print(f"plan document written to {args.out}")
        return EXIT_OK

    ts = span_samples(pl, args.samples_per_span)
    pos, vel, acc, jerk = pl.curve.eval(ts, (0, 1, 2, 3))
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, pl.gravity)
    zeta = pl.span_zeta[kv.span_index(ts) - kv.degree]
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
    _write_output("--out", args.out, write_csv, header, cols)
    print(f"{ts.size} samples written to {args.out}")
    return EXIT_OK


def _margin_tol(text: str) -> float:
    """argparse type of --margin-tol: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


_PLAN_HELP = "plan JSON over the scenario's spline and gravity (re-plans when omitted)"
_REPLAN_TOL_HELP = "solver tolerance override when re-planning (not with --plan)"


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
    p_verify.add_argument("--plan", help=_PLAN_HELP)
    p_verify.add_argument("--samples-per-span", type=int, default=SAMPLES_PER_SPAN)
    p_verify.add_argument("--margin-tol", type=_margin_tol, default=MARGIN_TOL)
    p_verify.add_argument("--tol", type=float, default=None, help=_REPLAN_TOL_HELP)
    p_verify.set_defaults(func=cmd_verify)

    p_track = sub.add_parser("track", help="closed-loop tracking run with the safety filter")
    p_track.add_argument("--scenario", required=True)
    p_track.add_argument("--plan", help=_PLAN_HELP)
    p_track.add_argument("--out", help="trace CSV path")
    p_track.add_argument("--report", help="certificate report JSON path")
    p_track.add_argument("--no-filter", action="store_true", help="bypass the barrier filter")
    p_track.add_argument("--tol", type=float, default=None, help=_REPLAN_TOL_HELP)
    p_track.set_defaults(func=cmd_track)

    p_export = sub.add_parser("export", help="convert a plan document to samples or re-emit it")
    p_export.add_argument("--plan", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--format", choices=["csv", "document"], default="csv")
    p_export.add_argument("--samples-per-span", type=int, default=50)
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
