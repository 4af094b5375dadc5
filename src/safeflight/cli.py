"""Scenario-file driven pipeline: plan, track, verify, export.

Scenarios are YAML documents validated against a schema before use; angles
are written in degrees there and converted on ingestion. A handful of
scenarios ship inside the package and can be named directly (see
`safeflight plan --list`). Exit codes: 0 success, 2 parse or validation
error, 3 infeasible plan, 4 failed verification or tracking certificate,
5 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import importlib.resources
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np
import yaml

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
    SimConfig,
    make_filtered_controller,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    verify_plan,
    verify_span_minima,
)
from .socp import MAX_TOL
from .tracker import CbfParams, PdGains, TrackingState, check_initial_conditions

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_RUNTIME = 5

TOL_ENV_VAR = "SAFEFLIGHT_SOLVER_TOL"

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
            contents (for example a corridor with the wrong n).
    """
    text, desc = _resolve_source(source)
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{desc}: YAML parse error: {exc}") from exc
    try:
        jsonschema.validate(doc, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ScenarioError(f"{desc}: schema violation at {where}: {exc.message}") from exc

    spline = doc["spline"]
    degree = int(spline["degree"])
    corridor = None
    if "corridor" in doc:
        corridor = tuple(_region_from_spec(s) for s in doc["corridor"])
    n = spline.get("n")
    if n is None:
        if corridor is None:
            raise ScenarioError(f"{desc}: spline.n is required without a corridor")
        n = len(corridor) + degree - 1  # corridor fixes the control-point count
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

    tracking = None
    if "tracking" in doc:
        tr = doc["tracking"]
        tracking = TrackingConfig(
            cbf=CbfParams(**{k: float(v) for k, v in tr["cbf"].items()}),
            gains=PdGains(**{k: float(v) for k, v in tr["gains"].items()}),
            sim=SimConfig(
                control_rate=float(tr.get("control_rate", 100.0)),
                substeps=int(tr.get("substeps", 10)),
                duration=float(tr["duration"]) if "duration" in tr else None,
                initial_position_offset=tr.get("initial_position_offset", np.zeros(3)),
                initial_velocity_offset=tr.get("initial_velocity_offset", np.zeros(3)),
            ),
            psi=float(np.deg2rad(tr.get("psi_deg", 0.0))),
        )

    try:
        planning = PlanningScenario(
            name=doc["name"],
            t0=float(spline["t0"]),
            tf=float(spline["tf"]),
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
            gravity=float(doc.get("gravity", 9.81)),
            solver_tol=float(doc.get("solver_tol", 1e-8)),
        )
    except ValueError as exc:
        raise ScenarioError(f"{desc}: {exc}") from exc
    return ScenarioFile(planning=planning, tracking=tracking, source=desc)


# ------------------------------------------------------------------- commands


def _effective_tol(scenario: PlanningScenario, flag: float | None) -> float:
    """The --tol flag, else the environment variable, else the scenario's value.

    Raises:
        ScenarioError: if the chosen value is not a number in (0, MAX_TOL).
    """
    env = os.environ.get(TOL_ENV_VAR)
    if flag is not None:
        source, value = "--tol", flag
    elif env:
        source, value = TOL_ENV_VAR, env
    else:
        source, value = "solver_tol", scenario.solver_tol
    try:
        tol = float(value)
    except ValueError:
        tol = np.nan
    if not 0 < tol < MAX_TOL:
        raise ScenarioError(f"{source} must be a number in (0, {MAX_TOL:g}), got {value!r}")
    return tol


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

    ref = plan_reference(pl)
    start = ref(planning.t0)
    state0 = TrackingState(
        r=start.r + tr.sim.initial_position_offset,
        r1=start.r1 + tr.sim.initial_velocity_offset,
    )
    ic = check_initial_conditions(state0, start, tr.cbf)
    maker = make_unfiltered_controller if args.no_filter else make_filtered_controller
    controller = maker(tr.cbf, tr.gains, tr.psi, planning.gravity)
    duration = tr.sim.duration if tr.sim.duration is not None else planning.tf - planning.t0
    trace = simulate(ref, controller, tr.sim, t0=planning.t0, duration=duration)
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
    if cert.min_barrier < 0.0:
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

    from .flatness import tilt_thrust_rates

    kv = pl.curve.knots
    parts = [
        np.linspace(kv.tau[l], kv.tau[l + 1], args.samples_per_span, endpoint=False)
        for l in kv.nonempty_spans()
    ]
    parts.append(np.array([kv.tf]))
    ts = np.concatenate(parts)
    pos = pl.curve.eval(ts, 0)
    vel = pl.curve.eval(ts, 1)
    acc = pl.curve.eval(ts, 2)
    jerk = pl.curve.eval(ts, 3)
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, pl.gravity)
    zeta = np.array([pl.zeta_for_span(kv.span_index(t)) for t in ts])
    header = [
        "t", "x", "y", "z", "vx", "vy", "vz", "speed",
        "ax", "ay", "az", "thrust", "phi_deg", "theta_deg",
        "p_deg_s", "q_deg_s", "zeta",
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ts.size):
            row = (
                [ts[i], *pos[i], *vel[i], float(np.linalg.norm(vel[i])), *acc[i]]
                + [thrust[i], np.rad2deg(phi[i]), np.rad2deg(theta[i])]
                + [np.rad2deg(p_rate[i]), np.rad2deg(q_rate[i]), zeta[i]]
            )
            writer.writerow([f"{v:.12g}" for v in row])
    print(f"{ts.size} samples written to {args.out}")
    return EXIT_OK


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
    p_verify.add_argument("--samples-per-span", type=int, default=300)
    p_verify.add_argument("--margin-tol", type=float, default=1e-6)
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
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
