"""Seeded inputs, the three operations, and their oracle checks.

Every operation goes through safeflight's public API the way a user of the
package would, and every call into a layer sits inside a tracer span named
after that layer. With the NullTracer the spans cost next to nothing, so the
timed runs and the traced runs execute the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import oracle
from safeflight.cli import TrackingConfig, bundled_scenarios, load_scenario
from safeflight.flatness import tilt_thrust_rates
from safeflight.planner import (
    PlanAssembly,
    PlanningScenario,
    TrajectoryPlan,
    Waypoint,
    compile_tracking_margins,
)
from safeflight.simverify import (
    SimConfig,
    make_filtered_controller,
    plan_reference,
    simulate,
    verify_plan,
    verify_span_minima,
)
from safeflight.splines import clamped_uniform_knots
from safeflight.tracker import ReferencePoint, TrackingState, check_initial_conditions

TRACK_WINDOW_S = 0.5  # one track operation: 50 ticks at the bundled 100 Hz
JITTER = 0.9  # draws stay inside 90% of each admissible radius
RESIDUAL_TOL = 1e-8
MATCH_TOL = 1e-9
TUBE_SLACK = (0.11, -0.01)  # max |e| and min barrier, as tests/test_acceptance.py allows


@dataclass(frozen=True)
class Case:
    """One bundled scenario after seeding: the inputs every workload uses."""

    name: str
    scenario: PlanningScenario
    tracking: TrackingConfig
    ctrl: np.ndarray  # minimum-snap reference control points, (3, n+1)
    plan_doc: dict  # the same reference as a plan document
    point: np.ndarray  # the reference as a cone-program variable vector
    t_start: float  # first tick of the track window
    sim: SimConfig  # tracking section with the seeded initial offsets


def _ball(rng, radius: float) -> np.ndarray:
    direction = rng.normal(size=3)
    return radius * JITTER * rng.uniform() * direction / np.linalg.norm(direction)


def make_cases(seed: int, tracer) -> list[Case]:
    """Load every bundled scenario and derive its seeded inputs."""
    rng = np.random.default_rng(seed)
    cases = []
    for name in bundled_scenarios():
        with tracer.span("cli.load_scenario"):
            sf = load_scenario(name)
        ps, tr = sf.planning, sf.tracking
        waypoints = tuple(
            Waypoint(wp.position + _ball(rng, wp.radius), wp.time, wp.radius)
            for wp in ps.waypoints
        )
        ps = dataclasses.replace(ps, waypoints=waypoints)
        ctrl, snap = oracle.min_snap_reference(ps)
        zeta = np.full(oracle.num_zeta(ps), ps.gravity)
        point = np.concatenate([ctrl.ravel(), zeta, snap])
        plan_doc = {
            "format": "safeflight-plan",
            "version": 1,
            "name": ps.name,
            "t0": ps.t0,
            "tf": ps.tf,
            "n": ps.n,
            "degree": ps.degree,
            "gravity": ps.gravity,
            "zeta_mode": ps.zeta_mode,
            "control_points": ctrl.tolist(),
            "zeta": zeta.tolist(),
        }
        t_start, sim = _track_start(rng, ps, tr, ctrl)
        cases.append(Case(name, ps, tr, ctrl, plan_doc, point, t_start, sim))
    return cases


def _track_start(rng, ps, tr, ctrl) -> tuple[float, SimConfig]:
    """A window start and initial offsets that check_initial_conditions admits.

    The position error is drawn inside the tube and the velocity error so
    that |e1 + lambda e| stays inside lambda * delta for one error pole.
    """
    cbf = tr.cbf
    t_start = float(rng.uniform(ps.t0, ps.tf - TRACK_WINDOW_S))
    e = cbf.delta * JITTER * rng.uniform(-1.0, 1.0, 3)
    lam = cbf.lambda_fast if rng.uniform() < 0.5 else cbf.lambda_slow
    e1 = lam * cbf.delta * JITTER * rng.uniform(-1.0, 1.0, 3) - lam * e
    spl = oracle.spline(oracle.knots(ps.t0, ps.tf, ps.n, ps.degree), ctrl, ps.degree)
    ref = ReferencePoint(*(spl(t_start, nu=r) for r in range(3)))
    if not check_initial_conditions(TrackingState(ref.r + e, ref.r1 + e1), ref, cbf).ok:
        raise RuntimeError(f"{ps.name}: drew an initial offset outside the admitted set")
    sim = dataclasses.replace(tr.sim, initial_position_offset=e, initial_velocity_offset=e1)
    return t_start, sim


# ------------------------------------------------------------------ operations


def op_plan(case: Case, tracer):
    """Build the cone model as plan() does up to the solve, then audit it."""
    ps = case.scenario
    kv = clamped_uniform_knots(ps.t0, ps.tf, ps.n, ps.degree)
    bounds = ps.bounds
    if ps.apply_tracking_margins:
        bounds = compile_tracking_margins(bounds, ps.cbf)
    asm = PlanAssembly(kv, gravity=ps.gravity)
    if bounds.regions:
        with tracer.span("planner.compile_position"):
            asm.compile_position(bounds.regions)
    with tracer.span("planner.compile_velocity"):
        asm.compile_velocity(bounds.v_max)
    with tracer.span("planner.compile_tilt_cone"):
        asm.compile_tilt_cone(bounds.tilt_max, margin=bounds.tilt_margin)
    with tracer.span("planner.compile_thrust"):
        asm.compile_thrust(bounds.thrust_min, bounds.thrust_max)
    with tracer.span("planner.compile_rate"):
        zeta_cols = asm.compile_rate(bounds.omega_max, ps.zeta_mode)
    with tracer.span("planner.compile_waypoints"):
        asm.compile_waypoints(ps.waypoints)
    with tracer.span("planner.compile_endpoints"):
        asm.compile_endpoints(ps.pins)
    if ps.corridor is not None:
        with tracer.span("planner.compile_corridor"):
            asm.compile_corridor(ps.corridor)
    for ic in ps.intervals:
        with tracer.span("planner.compile_interval"):
            asm.compile_interval(ic)
    with tracer.span("planner.compile_objective"):
        asm.compile_objective(zeta_cols)
    with tracer.span("socp.residuals"):
        residuals = asm.cp.residuals(case.point)
    return {
        "residuals": residuals,
        "blocks": asm.cp.block_counts(),
        "num_vars": asm.cp.num_vars,
    }


def op_verify(case: Case, tracer):
    """Load the plan document, sample it densely, and run both verifiers."""
    ps = case.scenario
    with tracer.span("planner.from_dict"):
        pl = TrajectoryPlan.from_dict(case.plan_doc)
    ts = oracle.verify_grid(pl.curve.knots.tau, ps.degree)
    with tracer.span("splines.eval_grid"):
        derivs = [pl.curve.eval(ts, r) for r in range(4)]
    with tracer.span("flatness.tilt_thrust_rates"):
        flat = tilt_thrust_rates(derivs[2], derivs[3], pl.gravity)
    with tracer.span("simverify.verify_plan"):
        report = verify_plan(
            pl,
            ps.bounds,
            waypoints=ps.waypoints,
            pins=ps.pins,
            intervals=ps.intervals,
            corridor=ps.corridor,
            samples_per_span=oracle.SAMPLES_PER_SPAN,
        )
    with tracer.span("simverify.verify_span_minima"):
        spans = verify_span_minima(pl, ps.bounds.omega_max, oracle.SAMPLES_PER_SPAN)
    return {"derivs": derivs, "thrust": flat[0], "report": report, "spans": spans}


def op_track(case: Case, tracer):
    """Load the plan document and fly one filtered closed-loop window."""
    ps, tr = case.scenario, case.tracking
    with tracer.span("planner.from_dict"):
        pl = TrajectoryPlan.from_dict(case.plan_doc)
    reference = tracer.wrap("simverify.reference", plan_reference(pl))
    controller = tracer.wrap(
        "tracker.controller", make_filtered_controller(tr.cbf, tr.gains, tr.psi, ps.gravity)
    )
    with tracer.span("simverify.simulate"):
        trace = simulate(reference, controller, case.sim, t0=case.t_start, duration=TRACK_WINDOW_S)
    return {"trace": trace}


# ---------------------------------------------------------------------- checks


def expect_plan(case: Case) -> dict:
    ps = case.scenario
    return {
        "blocks": oracle.expected_blocks(ps),
        "num_vars": 3 * (ps.n + 1) + oracle.num_zeta(ps) + 3,
    }


def check_plan(case: Case, out: dict, expect: dict) -> list[str]:
    problems = []
    res = out["residuals"]
    for label in ("endpoint", "waypoint"):
        if not res.get(label, 0.0) <= RESIDUAL_TOL:
            problems.append(f"{label} residual {res[label]:.2e} > {RESIDUAL_TOL:g}")
    if out["blocks"] != expect["blocks"]:
        problems.append(f"block census {out['blocks']} != {expect['blocks']}")
    if out["num_vars"] != expect["num_vars"]:
        problems.append(f"{out['num_vars']} variables, expected {expect['num_vars']}")
    return problems


def expect_verify(case: Case) -> dict:
    return oracle.verify_expectations(case.scenario, case.ctrl)


def check_verify(case: Case, out: dict, expect: dict) -> list[str]:
    problems = []
    report = out["report"]
    if report.samples != expect["samples"]:
        problems.append(f"{report.samples} samples, expected {expect['samples']}")
    for r, (got, want) in enumerate(zip(out["derivs"], expect["derivs"])):
        err = float(np.abs(got - want).max())
        if not err <= MATCH_TOL * max(1.0, float(np.abs(want).max())):
            problems.append(f"order-{r} grid differs from scipy by {err:.2e}")
    err = float(np.abs(out["thrust"] - expect["thrust"]).max())
    if not err <= MATCH_TOL:
        problems.append(f"thrust differs from scipy by {err:.2e}")
    margins = {c.name: c.margin for c in report.checks}
    for name, want in expect["margins"].items():
        got = margins.get(name, np.nan)
        if not abs(got - want) <= MATCH_TOL:
            problems.append(f"{name} margin {got:.12g} != scipy {want:.12g}")
    spans = case.scenario.n - case.scenario.degree + 1
    if len(out["spans"].checks) != 2 * spans:
        problems.append(f"{len(out['spans'].checks)} span checks, expected {2 * spans}")
    return problems


def expect_track(case: Case) -> dict:
    ps, tr = case.scenario, case.tracking
    ticks = int(round(TRACK_WINDOW_S * case.sim.control_rate))
    positions = oracle.closed_loop_positions(
        ps,
        case.ctrl,
        tr.cbf,
        tr.gains,
        case.sim.control_rate,
        case.t_start,
        ticks,
        case.sim.initial_position_offset,
        case.sim.initial_velocity_offset,
    )
    return {"ticks": ticks, "positions": positions}


def check_track(case: Case, out: dict, expect: dict) -> list[str]:
    trace = out["trace"]
    if trace.t.size != expect["ticks"] or trace.r.shape != expect["positions"].shape:
        return [f"{trace.t.size} ticks, expected {expect['ticks']}"]
    problems = []
    err = float(np.abs(trace.r - expect["positions"]).max())
    if not err <= MATCH_TOL:
        problems.append(f"position trace differs from the exact-step oracle by {err:.2e}")
    cert = trace.certificate(case.tracking.cbf)
    max_err, min_barrier = TUBE_SLACK
    if not (cert.max_position_err <= max_err and cert.min_barrier >= min_barrier):
        problems.append(
            f"tube certificate max|e| {cert.max_position_err:.4f}, "
            f"min barrier {cert.min_barrier:.4f}"
        )
    return problems


# ---------------------------------------------------------------------- counts


def counts_plan(out: dict) -> dict[str, int]:
    return {"socp.blocks": sum(out["blocks"].values()), "socp.num_vars": out["num_vars"]}


def counts_verify(out: dict) -> dict[str, int]:
    return {"simverify.samples": out["report"].samples}


def counts_track(out: dict) -> dict[str, int]:
    trace = out["trace"]
    return {
        "simverify.ticks": int(trace.t.size),
        "tracker.clamped_ticks": int(trace.active.any(axis=1).sum()),
    }


class Workload(NamedTuple):
    """op(case, tracer) -> output; expect(case); check(case, output, expected); counts(output)."""

    op: Callable
    expect: Callable
    check: Callable
    counts: Callable


WORKLOADS = {
    "plan": Workload(op_plan, expect_plan, check_plan, counts_plan),
    "verify": Workload(op_verify, expect_verify, check_verify, counts_verify),
    "track": Workload(op_track, expect_track, check_track, counts_track),
}
