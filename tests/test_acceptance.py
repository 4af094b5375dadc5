"""Acceptance suite: the eleven guarantees the package is sold on.

Each test prints one PASS/FAIL line with the measured numbers so a plain
pytest run doubles as a certificate. The expensive artifacts (the example1
plan and its 30 s closed-loop runs) are solved once per module.
"""

import time

import numpy as np
import pytest
from scipy.optimize import nnls

from oracles import box_projection_qp, dense_derivative_matrix, virtual_from_attitude
from safeflight.cli import bundled_scenarios, load_scenario
from safeflight.flatness import ReducedInput, attitude_from_virtual
from safeflight.planner import interval_window_columns, plan
from safeflight.simverify import (
    make_filtered_controller,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    verify_plan,
)
from safeflight.splines import (
    SplineCurve,
    clamped_uniform_knots,
    derivative_control_points,
    snap_gram,
)
from safeflight.tracker import (
    CbfParams,
    ReferencePoint,
    SafetyFilter,
    TrackingState,
)

G = 9.81


def conclude(capsys, index: int, label: str, ok: bool, detail: str) -> None:
    """One visible verdict line per acceptance item, then the assertion."""
    line = f"[{index:>2}/11] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(f"\n{line}", end="")
    assert ok, line


@pytest.fixture(scope="module")
def replanned_tour(example1_scenario):
    """A fresh example1 solve with its wall-clock time (the session plan is
    solved elsewhere, so this also feeds the re-solve stability check)."""
    start = time.perf_counter()
    pl = plan(example1_scenario.planning)
    return pl, time.perf_counter() - start


@pytest.fixture(scope="module")
def tour_runs(example1_scenario, example1_plan):
    """Filtered and unfiltered 30 s closed-loop runs on the example1 plan."""
    planning, tr = example1_scenario.planning, example1_scenario.tracking
    ref = plan_reference(example1_plan)
    duration = planning.tf - planning.t0
    runs = {}
    for label, maker in (
        ("filtered", make_filtered_controller),
        ("unfiltered", make_unfiltered_controller),
    ):
        controller = maker(tr.cbf, tr.gains, tr.psi, planning.gravity)
        runs[label] = simulate(ref, controller, tr.sim, t0=planning.t0, duration=duration)
    return runs


def test_tour_plan_and_certificate(capsys, example1_scenario, replanned_tour):
    planning = example1_scenario.planning
    pl, plan_seconds = replanned_tour
    start = time.perf_counter()
    report = verify_plan(
        pl,
        planning.bounds,
        waypoints=planning.waypoints,
        pins=planning.pins,
        intervals=planning.intervals,
        corridor=planning.corridor,
        samples_per_span=278,
    )
    total_seconds = plan_seconds + time.perf_counter() - start

    names = {c.name for c in report.checks}
    expected = {"speed", "tilt", "thrust-upper", "thrust-lower", "body-rate"}
    expected |= {f"waypoint[{k}]" for k in range(8)}
    expected |= {f"pin:start[r{r}]" for r in range(5)}
    expected |= {f"pin:end[r{r}]" for r in range(5)}

    ok = (
        expected <= names
        and report.samples >= 10_000
        and report.min_margin >= -1e-6
        and total_seconds < 30.0
    )
    conclude(
        capsys,
        1,
        "example1 plan + dense certificate",
        ok,
        f"min margin {report.min_margin:.2e} over {report.samples} samples, {total_seconds:.1f} s",
    )


def test_derivative_matrices_match_finite_differences(capsys, rng):
    h = 1e-5
    worst = worst_dense = 0.0
    for n in (10, 40):
        kv = clamped_uniform_knots(0.0, 10.0, n, 5)
        assert np.array_equal(kv.derivative_stencil(0), np.ones((n + 1, 1)))
        ts = rng.uniform(2 * h, 10.0 - 2 * h, size=25)
        for _ in range(10):
            curve = SplineCurve(kv, rng.uniform(-1.0, 1.0, size=(3, n + 1)))
            for r in (1, 2, 3):
                points = derivative_control_points(curve, r)
                assert np.all(points[:, :r] == 0.0) and np.all(points[:, n + 1 :] == 0.0)
                dense = curve.ctrl @ dense_derivative_matrix(kv, r)
                gap = np.abs(points - dense).max() / max(1.0, np.abs(dense).max())
                worst_dense = max(worst_dense, float(gap))
                exact = curve.eval(ts, r)
                fd = (curve.eval(ts + h, r - 1) - curve.eval(ts - h, r - 1)) / (2 * h)
                scale = np.maximum(1.0, np.abs(exact))
                worst = max(worst, float(np.max(np.abs(fd - exact) / scale)))
    conclude(
        capsys,
        2,
        "derivative points vs finite differences and the dense B_r",
        worst < 1e-5 and worst_dense <= 1e-14,
        f"worst relative error {worst:.2e} over 20 curves, {worst_dense:.2e} against "
        "the dense matrices, unit stencil and zero columns exact",
    )


def test_derivative_samples_stay_in_hull(capsys, rng):
    kv = clamped_uniform_knots(0.0, 5.0, 12, 5)
    worst = 0.0
    checked = 0
    for _ in range(10):
        curve = SplineCurve(kv, rng.uniform(-5.0, 5.0, size=(3, 13)))
        points = {r: derivative_control_points(curve, r) for r in range(4)}
        for r in range(4):
            for t in rng.uniform(0.0, 5.0, size=250):
                l = kv.span_index(t)
                hull = points[r][:, l - kv.degree + r : l + 1]
                a = np.vstack([hull, np.ones(hull.shape[1])])
                b = np.concatenate([curve.eval(t, r), [1.0]])
                _, residual = nnls(a, b)
                worst = max(worst, float(residual))
                checked += 1
    assert checked == 10_000
    conclude(
        capsys,
        3,
        "derivative samples in hull of span points",
        worst <= 1e-8,
        f"worst nonnegative least-squares residual {worst:.2e} over {checked} samples",
    )


def test_flatness_round_trip_and_cone_grid(capsys, rng):
    worst = 0.0
    for _ in range(10_000):
        v = ReducedInput(
            thrust=float(rng.uniform(1e-3, 3 * G)),
            phi=float(rng.uniform(-1.3, 1.3)),
            theta=float(rng.uniform(-1.3, 1.3)),
            psi=float(rng.uniform(-np.pi, np.pi)),
        )
        back = attitude_from_virtual(virtual_from_attitude(v), v.psi)
        worst = max(
            worst,
            abs(back.thrust - v.thrust),
            abs(back.phi - v.phi),
            abs(back.theta - v.theta),
        )

    # Cone membership: a virtual input is flyable within the angle box iff
    # the recovered angles stay inside it at every yaw. Inside points are
    # checked across fixed, random, and worst-case yaws; outside points are
    # certified at the worst-case yaw, where theta equals the full tilt.
    eps = 0.6
    counts = [0, 0]
    misclassified = 0
    mu_grid = np.column_stack(
        [
            rng.uniform(-20.0, 20.0, 10_000),
            rng.uniform(-20.0, 20.0, 10_000),
            rng.uniform(-G + 0.05, 2 * G, 10_000),
        ]
    )
    for mu in mu_grid:
        m = mu + np.array([0.0, 0.0, G])
        tilt = np.arccos(m[2] / np.linalg.norm(m))
        margin = eps - tilt
        if abs(margin) <= 1e-9:
            continue
        worst_yaw = float(np.arctan2(m[1], m[0]))
        if margin > 0:
            yaws = (0.0, np.pi / 4, np.pi / 2, float(rng.uniform(-np.pi, np.pi)), worst_yaw)
        else:
            yaws = (worst_yaw,)
        inside = all(
            max(abs(rec.phi), abs(rec.theta)) <= eps
            for rec in (attitude_from_virtual(mu, psi) for psi in yaws)
        )
        counts[int(margin > 0)] += 1
        misclassified += int(inside != (margin > 0))

    ok = worst <= 1e-9 and misclassified == 0 and min(counts) >= 500
    conclude(
        capsys,
        4,
        "flatness round trip + cone grid",
        ok,
        f"worst round-trip error {worst:.2e}, {misclassified} misclassified "
        f"of {counts[1]} inside / {counts[0]} outside",
    )


def test_clamp_matches_qp_and_is_always_feasible(capsys, rng):
    params = CbfParams(delta=0.1, a1=6.0, a2=8.0)
    safety = SafetyFilter(params)
    worst = 0.0
    for _ in range(1000):
        state = TrackingState(r=rng.uniform(-5, 5, 3), r1=rng.uniform(-5, 5, 3))
        ref = ReferencePoint(
            r=rng.uniform(-5, 5, 3), r1=rng.uniform(-5, 5, 3), r2=rng.uniform(-10, 10, 3)
        )
        mu_nominal = ref.r2 + rng.uniform(-20, 20, 3)
        mu = safety(state, ref, mu_nominal).mu
        _, lower, upper = safety.inputs(state, ref)
        oracle = box_projection_qp(mu_nominal, lower, upper)
        worst = max(worst, float(np.abs(mu - oracle).max()))

    m = 1_000_000
    state = TrackingState(rng.uniform(-50, 50, (m, 3)), rng.uniform(-20, 20, (m, 3)))
    ref = ReferencePoint(
        rng.uniform(-50, 50, (m, 3)), rng.uniform(-20, 20, (m, 3)), rng.uniform(-30, 30, (m, 3))
    )
    _, lower, upper = safety.inputs(state, ref)
    width_err = float(np.abs((upper - lower) - 2 * params.a2 * params.delta).max())
    feasible = bool(
        np.all(upper > lower) and np.isfinite(lower).all() and np.isfinite(upper).all()
    )

    ok = worst <= 1e-8 and width_err <= 1e-12 and feasible
    conclude(
        capsys,
        5,
        "input clamp vs QP oracle",
        ok,
        f"worst clamp-oracle gap {worst:.2e}, width error {width_err:.2e}, "
        f"box nonempty on 10^6 states: {feasible}",
    )


def test_closed_loop_tube(capsys, example1_scenario, tour_runs):
    tr = example1_scenario.tracking
    assert tr.sim.control_rate == 100.0 and tr.sim.substeps == 10
    filtered, unfiltered = tour_runs["filtered"], tour_runs["unfiltered"]
    assert filtered.t.size == 3000

    e_max = float(np.abs(filtered.position_err).max())
    h_min = float(filtered.barriers.min())
    h_min_unfiltered = float(unfiltered.barriers.min())

    ok = e_max <= 0.11 and h_min >= -0.01 and h_min_unfiltered < -0.01
    conclude(
        capsys,
        6,
        "closed-loop tube on example1",
        ok,
        f"max |e| {e_max:.4f} <= 0.11, min barrier {h_min:.4f} >= -0.01, "
        f"unfiltered min barrier {h_min_unfiltered:.4f}",
    )


def test_velocity_and_input_deviation_bounds(capsys, tour_runs):
    filtered = tour_runs["filtered"]
    e1_max = float(np.abs(filtered.velocity_err).max())
    dev_max = float(np.abs(filtered.input_dev).max())
    ok = e1_max <= 0.2767 and dev_max <= 3.2
    conclude(
        capsys,
        7,
        "velocity and input deviation bounds",
        ok,
        f"max |de| {e1_max:.4f} <= 0.2767, max |mu - ref| {dev_max:.4f} <= 3.2",
    )


def test_compiled_margins_hold_at_every_tick(capsys):
    sf = load_scenario("margin_demo")
    planning, tr = sf.planning, sf.tracking
    assert planning.apply_tracking_margins
    assert (tr.cbf.delta, tr.cbf.a2) == (0.1, 8.0)
    assert planning.bounds.thrust_max == pytest.approx(2 * G)

    pl = plan(planning)
    controller = make_filtered_controller(tr.cbf, tr.gains, tr.psi, planning.gravity)
    trace = simulate(
        plan_reference(pl), controller, tr.sim, t0=planning.t0, duration=planning.tf - planning.t0
    )

    eps = planning.bounds.tilt_max
    violations = int(
        np.sum(trace.thrust > planning.bounds.thrust_max)
        + np.sum(np.abs(trace.phi) > eps)
        + np.sum(np.abs(trace.theta) > eps)
    )
    conclude(
        capsys,
        8,
        "planned margins absorb the filter",
        violations == 0,
        f"max thrust {trace.thrust.max():.3f} <= {planning.bounds.thrust_max:g}, "
        f"max angle {max(np.abs(trace.phi).max(), np.abs(trace.theta).max()):.4f} "
        f"<= {eps:.4f}, {violations} violations over {trace.t.size} ticks",
    )


def test_slow_zone_window(capsys):
    sf = load_scenario("example2_window")
    pl = plan(sf.planning)
    kv = pl.curve.knots
    position_cols = interval_window_columns(kv, 3.0, 6.0, 0)
    velocity_cols = interval_window_columns(kv, 3.0, 6.0, 1)

    region = next(iv.region for iv in sf.planning.intervals if iv.kind == "position")
    bound = next(iv.bound for iv in sf.planning.intervals if iv.kind == "speed")
    ts = np.linspace(3.0, 6.0, 10_000, endpoint=False)
    speed_max = float(np.linalg.norm(pl.curve.eval(ts, 1), axis=1).max())
    region_min = float(region.margin(pl.curve.eval(ts, 0)).min())

    ok = (
        position_cols == range(13, 33)
        and velocity_cols == range(14, 33)
        and speed_max <= bound + 1e-6
        and region_min >= -1e-6
    )
    conclude(
        capsys,
        9,
        "timed slow-zone window",
        ok,
        f"columns {position_cols} / {velocity_cols}, max speed {speed_max:.4f} <= {bound}, "
        f"zone margin {region_min:.2e}",
    )


def test_corridor_plans_contained_and_fast(capsys):
    names = [n for n in bundled_scenarios() if n.startswith("example3_")]
    assert len(names) == 4
    slowest, worst_margin = 0.0, np.inf
    for name in names:
        sf = load_scenario(name)
        pl = plan(sf.planning)
        report = verify_plan(
            pl, sf.planning.bounds, corridor=sf.planning.corridor, samples_per_span=1000
        )
        checks = [c for c in report.checks if c.name.startswith("corridor[")]
        assert len(checks) == len(sf.planning.corridor)
        slowest = max(slowest, pl.solution.solve_time)
        worst_margin = min(worst_margin, min(c.margin for c in checks))

    ok = slowest < 0.1 and worst_margin >= -1e-6
    conclude(
        capsys,
        10,
        "corridor plans contained and fast",
        ok,
        f"slowest solve {slowest * 1e3:.1f} ms < 100 ms, worst cell margin "
        f"{worst_margin:.2e} over 4 sequences at 1000 samples per cell",
    )


def test_snap_gram_and_objective_stability(capsys, rng, example1_plan, replanned_tour):
    nodes, weights = np.polynomial.legendre.leggauss(4)
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 26))
        kv = clamped_uniform_knots(0.0, float(rng.uniform(2.0, 12.0)), n, 5)
        curve = SplineCurve(kv, rng.uniform(-3.0, 3.0, size=(3, n + 1)))
        G = snap_gram(kv)
        gram = G.T @ G
        quad_form = float(sum(row @ gram @ row for row in curve.ctrl))
        integral = 0.0
        for l in kv.nonempty_spans():
            a, b = kv.tau[l], kv.tau[l + 1]
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            snap = curve.eval(ts, 4)
            integral += 0.5 * (b - a) * float(weights @ (snap**2).sum(axis=1))
        worst_rel = max(worst_rel, abs(quad_form - integral) / integral)

    fresh, _ = replanned_tour
    before, after = example1_plan.solution.objective, fresh.solution.objective
    objective_rel = abs(before - after) / abs(before)

    ok = worst_rel <= 1e-6 and objective_rel <= 1e-6
    conclude(
        capsys,
        11,
        "snap Gram vs quadrature + re-solve stability",
        ok,
        f"worst Gram error {worst_rel:.2e} over 20 curves, "
        f"objective drift {objective_rel:.2e} across independent solves",
    )
