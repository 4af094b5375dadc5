"""Planner: regions, windows, margins, assembly, and full solves."""

import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse

from oracles import (
    dense_compile_plan,
    dense_derivative_matrix,
    dense_snap_gram,
    quadratic_epigraph,
    region_margin_direct,
    soc_margin_direct,
)
from safeflight.cli import bundled_scenarios, load_scenario
from safeflight.flatness import attitude_from_virtual
from safeflight.planner import (
    ConvexRegion,
    EndpointPins,
    IntervalConstraint,
    MarginInfeasibleError,
    PlanAssembly,
    PlanInfeasibleError,
    PlanningScenario,
    SafetyBounds,
    SocSet,
    TrajectoryPlan,
    Waypoint,
    compile_plan,
    compile_tracking_margins,
    interval_window_columns,
    plan,
)
from safeflight.simverify import (
    SimConfig,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    span_samples,
)
from safeflight.socp import MAX_TOL, MIN_TOL, ConeProgram, Solution
from safeflight.splines import (
    MAX_DEGREE,
    MIN_DEGREE,
    SplineCurve,
    clamped_uniform_knots,
    max_span_width,
    min_span_width,
    plan_knots,
    snap_gram,
)
from safeflight.tracker import CbfParams

G = 9.81


def rest_to_rest(p_start, p_end, orders: int = 4) -> EndpointPins:
    """Pin position plus zero derivatives up to the given order at both ends."""
    zeros = [np.zeros(3)] * orders
    return EndpointPins(
        initial=tuple([np.asarray(p_start, dtype=float)] + zeros),
        final=tuple([np.asarray(p_end, dtype=float)] + zeros),
    )


def small_bounds(**over):
    base = dict(v_max=1.0, tilt_max=np.pi / 6, thrust_min=5.0, thrust_max=15.0, omega_max=1.0)
    base.update(over)
    return SafetyBounds(**base)


def small_scenario(**over):
    base = dict(
        name="small",
        t0=0.0,
        tf=4.0,
        n=10,
        degree=5,
        bounds=small_bounds(),
        pins=rest_to_rest([0.0, 0.0, 0.5], [1.0, 0.0, 0.5], orders=2),
    )
    base.update(over)
    return PlanningScenario(**base)


class TestRegions:
    def test_socset_validates_offset_length(self):
        with pytest.raises(ValueError):
            SocSet(np.eye(3), np.zeros(2), np.zeros(3), 1.0)

    def test_box_margin(self):
        box = ConvexRegion.box([-1.0, -1.0, 0.0], [1.0, 1.0, 2.0])
        assert_allclose(box.margin(np.array([0.0, 0.0, 1.0])), 1.0)
        assert_allclose(box.margin(np.array([0.9, 0.0, 1.0])), 0.1)
        assert box.margin(np.array([1.5, 0.0, 1.0])) < 0
        batched = box.margin(np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]]))
        assert batched.shape == (2,)
        assert batched[0] > 0 > batched[1]

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ConvexRegion.box([0.0, 0.0, 0.0], [1.0, -1.0, 1.0])

    def test_ball_margin(self):
        ball = ConvexRegion.ball([1.0, 0.0, 0.0], 0.5)
        assert_allclose(ball.margin(np.array([1.0, 0.0, 0.0])), 0.5)
        assert_allclose(ball.margin(np.array([1.3, 0.0, 0.0])), 0.2)
        with pytest.raises(ValueError):
            ConvexRegion.ball([0.0, 0.0, 0.0], 0.0)

    def test_ellipsoid_margin(self):
        A = np.diag([0.5, 1.0, 2.0])
        ell = ConvexRegion.ellipsoid(A, np.zeros(3))
        assert_allclose(ell.margin(np.zeros(3)), 1.0)
        assert_allclose(ell.margin(np.array([2.0, 0.0, 0.0])), 0.0, atol=1e-15)
        assert ell.margin(np.array([0.0, 0.0, 1.0])) < 0

    def test_halfspace_margin_and_linearity(self):
        hs = ConvexRegion.halfspace([0.0, 0.0, 1.0], 1.5)
        assert_allclose(hs.margin(np.array([5.0, 5.0, 1.0])), 0.5)
        assert hs.cones[0].is_linear
        assert not ConvexRegion.ball([0, 0, 0], 1.0).cones[0].is_linear
        assert ConvexRegion.box([0, 0, 0], [1, 1, 1]).cones[0].is_linear

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="region 'empty' needs at least one cone"):
            ConvexRegion((), "empty")

    def test_no_regions_rejected(self):
        asm = PlanAssembly(clamped_uniform_knots(0.0, 1.0, 6, 5))
        with pytest.raises(ValueError, match="^no regions given"):
            asm.compile_position([])

    def test_region_margin_is_worst_cone(self):
        box = ConvexRegion.box([0.0, 0.0, 0.0], [4.0, 2.0, 2.0])
        # closest face is y at distance 0.3
        assert_allclose(box.margin(np.array([2.0, 0.3, 1.0])), 0.3)
        # Half-spaces go through one stacked product, the rest cone by cone.
        tilted = ConvexRegion.halfspace([0.3, -0.4, 0.5], 0.7).cones
        mixed = ConvexRegion(box.cones + ConvexRegion.ball([1.0, 1.0, 1.0], 1.5).cones + tilted)
        pts = np.random.default_rng(4).uniform(-1.0, 5.0, size=(500, 3))
        want = np.min([c.margin(pts) for c in mixed.cones], axis=0)
        assert_allclose(mixed.margin(pts), want, rtol=0.0, atol=1e-12)
        assert_allclose(mixed.margin(pts[7]), want[7], rtol=0.0, atol=1e-12)


    def test_zero_matrix_cone_compiles_with_its_offset(self, rng):
        # ||0 p + b|| <= c'p + d is the half-space c'p + d - ||b|| >= 0:
        # z >= 3 must not become z >= 0.
        cones = (
            SocSet(np.zeros((1, 3)), [3.0], [0.0, 0.0, 1.0], 0.0),
            SocSet(np.zeros((2, 3)), [3.0, -4.0], [0.2, -0.1, 1.0], 0.5),
        )
        asm = PlanAssembly(clamped_uniform_knots(0.0, 1.0, 6, 5))
        asm.compile_position([ConvexRegion(cones, "zero-A")])
        rows, cols, vals, b, layout = asm.cp._triplets()
        assert (layout.zero, layout.nonneg, layout.soc) == (0, 2 * 7, ())
        for _ in range(5):
            ctrl = rng.normal(scale=4.0, size=(3, 7))
            Ax = np.bincount(rows, vals * ctrl.ravel()[cols], minlength=b.size)
            slack = (b - Ax).reshape(7, 2)  # rows point by point
            want = np.column_stack([cone.margin(ctrl.T) for cone in cones])
            assert_allclose(slack, want, rtol=0.0, atol=1e-13)
            got = ConvexRegion(cones).margin(ctrl.T)
            assert_allclose(got, slack.min(axis=1), rtol=0.0, atol=1e-13)


def scenario_regions(planning) -> list[ConvexRegion]:
    """Every region of a scenario: global regions, corridor sets and window regions."""
    windows = [ic.region for ic in planning.intervals if ic.region is not None]
    return list(planning.bounds.regions) + list(planning.corridor or ()) + windows


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestMarginKernels:
    # The column-wise kernels against their direct forms, .min(axis=-1) and
    # np.linalg.norm(axis=-1), compared as bytes.
    SHAPES = (
        ConvexRegion.box([-1.0, -2.0, 0.0], [3.0, 1.0, 2.5], "box"),
        ConvexRegion.ball([0.5, -0.2, 1.0], 1.7, "ball"),
        ConvexRegion.ellipsoid([[0.7, 0.1, 0.0], [0.0, 1.3, 0.2], [0.3, 0.0, 0.9]], [0.1, 0.2, -0.3]),
        ConvexRegion.halfspace([0.3, -0.4, 0.5], 0.7, "halfspace"),
        ConvexRegion(
            ConvexRegion.box([0.0, 0.0, 0.0], [4.0, 2.0, 2.0]).cones
            + ConvexRegion.ball([1.0, 1.0, 1.0], 1.5).cones
            + ConvexRegion.halfspace([0.3, -0.4, 0.5], 0.7).cones,
            "mixed",
        ),
    )

    @staticmethod
    def assert_matches_direct(region, p):
        assert_same_bits(region.margin(p), region_margin_direct(region, p))
        for cone in region.cones:
            assert_same_bits(cone.margin(p), soc_margin_direct(cone, p))

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_regions_at_the_verify_grid(self, bundled_plan, name):
        pl = bundled_plan(name)
        pos = pl.curve.eval(span_samples(pl, 300), 0)
        for region in scenario_regions(load_scenario(name).planning):
            self.assert_matches_direct(region, pos)

    def test_bundled_scenarios_cover_boxes_and_ellipsoids(self):
        rows = {
            cone.A.shape[0]
            for name in bundled_scenarios()
            for region in scenario_regions(load_scenario(name).planning)
            for cone in region.cones
        }
        assert rows == {0, 3}

    @pytest.mark.parametrize("region", SHAPES, ids=lambda r: r.name or "ellipsoid")
    def test_every_shape_on_points_single_points_and_empty_batches(self, rng, region):
        pts = rng.uniform(-3.0, 5.0, size=(2000, 3))
        self.assert_matches_direct(region, pts)
        single = region.margin(pts[11])
        assert type(single) is np.float64
        assert_same_bits(single, region_margin_direct(region, pts[11]))
        empty = region.margin(np.zeros((0, 3)))
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("rows", range(1, 8))
    def test_norm_matches_for_up_to_seven_rows(self, rng, rows):
        cone = SocSet(rng.normal(size=(rows, 3)), rng.normal(size=rows), rng.normal(size=3), 2.0)
        pts = rng.normal(scale=10.0, size=(3000, 3))
        assert_same_bits(cone.margin(pts), soc_margin_direct(cone, pts))

    def test_squares_are_summed_left_to_right(self, rng):
        # Summed right to left, s0 + (s1 + s2), the norm loses bits that
        # np.linalg.norm keeps; the kernel must keep them too.
        ball = ConvexRegion.ball(np.zeros(3), 1.0)
        pts = rng.normal(size=(5000, 3)) * 10.0 ** rng.uniform(-4, 4, size=(5000, 1))
        sq = pts * pts
        right_to_left = 1.0 - np.sqrt(sq[:, 0] + (sq[:, 1] + sq[:, 2]))
        assert right_to_left.tobytes() != soc_margin_direct(ball.cones[0], pts).tobytes()
        assert_same_bits(ball.margin(pts), soc_margin_direct(ball.cones[0], pts))


class TestIntervalWindows:
    def test_slow_zone_grid_ranges(self):
        # 45+1 points of degree 5 over [0, 9]; the [3, 6) window rounds
        # outward to spans 18..32 and is governed by exactly these columns.
        kv = clamped_uniform_knots(0.0, 9.0, 45, 5)
        assert interval_window_columns(kv, 3.0, 6.0, 0) == range(13, 33)
        assert interval_window_columns(kv, 3.0, 6.0, 1) == range(14, 33)

    def test_full_horizon_covers_all_columns(self):
        kv = clamped_uniform_knots(0.0, 9.0, 45, 5)
        assert interval_window_columns(kv, 0.0, 9.0, 0) == range(0, 46)
        assert interval_window_columns(kv, 0.0, 9.0, 1) == range(1, 46)

    def test_rounding_is_outward(self):
        kv = clamped_uniform_knots(0.0, 9.0, 45, 5)
        d = kv.degree
        for t_start, t_end, r in [(3.0, 6.0, 0), (2.2, 7.7, 1), (0.4, 0.5, 2)]:
            js = interval_window_columns(kv, t_start, t_end, r)
            for l in kv.nonempty_spans():
                if kv.tau[l] < t_end and kv.tau[l + 1] > t_start:
                    span_cols = range(l - d + r, l + 1)
                    assert set(span_cols) <= set(js), (l, js)

    def test_rejects_bad_windows(self):
        kv = clamped_uniform_knots(0.0, 9.0, 45, 5)
        with pytest.raises(ValueError):
            interval_window_columns(kv, 6.0, 3.0, 0)
        with pytest.raises(ValueError):
            interval_window_columns(kv, -1.0, 2.0, 0)
        with pytest.raises(ValueError):
            interval_window_columns(kv, 1.0, 9.5, 0)


class TestTrackingMargins:
    CBF = CbfParams(delta=0.1, a1=6.0, a2=8.0)

    def test_demo_numbers(self):
        bounds = SafetyBounds(
            v_max=2.0, tilt_max=1.0472, thrust_min=0.0, thrust_max=2 * G, omega_max=1.0
        )
        shrunk = compile_tracking_margins(bounds, self.CBF)
        dev = 4 * 0.1 * 8.0
        assert_allclose(dev, 3.2)
        assert_allclose(shrunk.thrust_max, 2 * G - np.sqrt(3.0) * dev)
        assert_allclose(shrunk.thrust_max, 14.0774, atol=1e-4)
        assert shrunk.thrust_min == 0.0  # a zero floor stays zero
        expected_tilt = dev * (1.0 + np.sqrt(2.0) / np.tan(1.0472))
        assert_allclose(shrunk.tilt_margin, expected_tilt)
        assert_allclose(shrunk.tilt_margin, 5.8127, atol=1e-4)
        # untouched fields carry over
        assert shrunk.v_max == bounds.v_max
        assert shrunk.omega_max == bounds.omega_max
        assert shrunk.tilt_max == bounds.tilt_max

    def test_positive_thrust_floor_is_raised(self):
        bounds = SafetyBounds(
            v_max=2.0, tilt_max=1.0472, thrust_min=2.0, thrust_max=2 * G, omega_max=1.0
        )
        shrunk = compile_tracking_margins(bounds, self.CBF)
        assert_allclose(shrunk.thrust_min, 2.0 + np.sqrt(3.0) * 3.2)

    def test_margins_accumulate(self):
        bounds = SafetyBounds(
            v_max=2.0,
            tilt_max=1.0472,
            thrust_min=0.0,
            thrust_max=3 * G,
            omega_max=1.0,
            tilt_margin=0.5,
        )
        shrunk = compile_tracking_margins(bounds, self.CBF)
        assert_allclose(shrunk.tilt_margin, 0.5 + 3.2 * (1 + np.sqrt(2.0) / np.tan(1.0472)))

    def test_infeasible_thrust_ceiling(self):
        bounds = SafetyBounds(
            v_max=2.0, tilt_max=1.0472, thrust_min=0.0, thrust_max=12.0, omega_max=1.0
        )
        with pytest.raises(MarginInfeasibleError, match="thrust_max"):
            compile_tracking_margins(bounds, self.CBF)

    def test_infeasible_thrust_floor(self):
        bounds = SafetyBounds(
            v_max=2.0, tilt_max=1.0472, thrust_min=5.0, thrust_max=3 * G, omega_max=1.0
        )
        with pytest.raises(MarginInfeasibleError, match="thrust_min"):
            compile_tracking_margins(bounds, self.CBF)

    def test_infeasible_tilt_retreat(self):
        bounds = SafetyBounds(
            v_max=2.0, tilt_max=0.05, thrust_min=0.0, thrust_max=3 * G, omega_max=1.0
        )
        with pytest.raises(MarginInfeasibleError, match="tilt"):
            compile_tracking_margins(bounds, self.CBF)

    def test_scenario_gravity_sets_the_hover_check(self):
        # thrust_max - sqrt(3) * 3.2 = 6.457 holds up g = 5 but not g = 9.81;
        # at 80 degrees the tilt cone retreats by 4.0 < 5.
        ps = load_scenario("margin_demo").planning
        bounds = dataclasses.replace(ps.bounds, thrust_max=12.0, tilt_max=np.deg2rad(80.0))
        low = dataclasses.replace(ps, bounds=bounds, gravity=5.0)
        assert plan(low).solution.status == "optimal"
        with pytest.raises(MarginInfeasibleError, match="6.457 < g"):
            plan(dataclasses.replace(low, gravity=G))

    def test_tilt_cone_margin_cannot_reach_gravity(self):
        kv = clamped_uniform_knots(0.0, 4.0, 10, 5)
        asm = PlanAssembly(kv)
        with pytest.raises(MarginInfeasibleError):
            asm.compile_tilt_cone(np.pi / 4, margin=G)


def waypoints_at(*times):
    return tuple(Waypoint([0.0, 0.0, 1.0], t) for t in times)


def speed_window(t_start, t_end):
    return (IntervalConstraint(t_start, t_end, "speed", bound=1.0),)


def plan_document(t0=0.0, tf=4.0, n=10, degree=5):
    """A plan document over small_scenario's spline, or the given one: resting at the origin."""
    return {
        "format": "safeflight-plan",
        "t0": t0,
        "tf": tf,
        "n": n,
        "degree": degree,
        "gravity": G,
        "zeta_mode": "scalar",
        "control_points": [[0.0] * max(n + 1, 0)] * 3,
        "zeta": [G],
    }


DEGREE_RULE = "degree must lie in [4, 28], got "
N_RULE = "n must lie in [degree, MAX_CONTROL_POINTS - 1] = [5, 499], got "
SPAN_RULE = "tf: (tf - t0) / 6 spans = "

# Splines that neither a scenario nor a plan document may hold, with the
# message both give (after "spline." in a scenario). small_scenario and
# plan_document span [0, 4] with n = 10 and degree 5: 6 spans.
BAD_SPLINES = [
    ({"degree": 3}, DEGREE_RULE + "3"),
    ({"degree": 0}, DEGREE_RULE + "0"),
    ({"degree": 29, "n": 36}, DEGREE_RULE + "29"),
    ({"degree": 60, "n": 67}, DEGREE_RULE + "60"),
    ({"degree": 200, "n": 207}, DEGREE_RULE + "200"),
    ({"n": 4}, N_RULE + "4"),
    ({"n": -2}, N_RULE + "-2"),
    ({"n": 500}, N_RULE + "500"),
    ({"t0": 4.0}, SPAN_RULE + "0 s, outside [1e-40, 1e+40] at degree 5"),
    ({"t0": 9.0}, SPAN_RULE + "-0.833333 s, outside [1e-40, 1e+40] at degree 5"),
    ({"tf": float("inf")}, SPAN_RULE + "inf s, outside [1e-40, 1e+40] at degree 5"),
    ({"t0": float("nan")}, SPAN_RULE + "nan s, outside [1e-40, 1e+40] at degree 5"),
    ({"t0": -1.0e308, "tf": 1.0e308}, SPAN_RULE + "inf s, outside [1e-40, 1e+40] at degree 5"),
    ({"tf": 1.0e60}, SPAN_RULE + "1.66667e+59 s, outside [1e-40, 1e+40] at degree 5"),
    ({"tf": 1.0e-300}, SPAN_RULE + "1.66667e-301 s, outside [1e-40, 1e+40] at degree 5"),
    (
        {"degree": 28, "n": 33, "tf": 1.0e7},
        SPAN_RULE + "1.66667e+06 s, outside [1e-10, 5.18e+05] at degree 28",
    ),
]


class TestValidation:
    def test_safety_bounds(self):
        with pytest.raises(ValueError):
            small_bounds(v_max=0.0)
        with pytest.raises(ValueError):
            small_bounds(tilt_max=2.0)
        with pytest.raises(ValueError):
            small_bounds(thrust_min=-1.0)
        with pytest.raises(ValueError):
            small_bounds(thrust_min=16.0)  # above thrust_max
        with pytest.raises(ValueError):
            small_bounds(omega_max=0.0)
        with pytest.raises(ValueError, match="^tilt_margin must be nonnegative$"):
            small_bounds(tilt_margin=-0.1)

    @pytest.mark.parametrize("value", ["fast", [1.0, None, "x"], {"v": 1.0}])
    def test_safety_bounds_reject_values_that_are_not_numbers(self, value):
        with pytest.raises(ValueError, match="^v_max must be numbers: "):
            small_bounds(v_max=value)

    def test_waypoint_radius(self):
        with pytest.raises(ValueError):
            Waypoint(position=[0, 0, 0], time=1.0, radius=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field", ["v_max", "tilt_max", "thrust_min", "thrust_max", "omega_max", "tilt_margin"]
    )
    def test_safety_bounds_reject_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            small_bounds(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field, build",
        [
            ("box lo", lambda v: ConvexRegion.box([v, 0, 0], [1, 1, 1])),
            ("box hi", lambda v: ConvexRegion.box([0, 0, 0], [1, v, 1])),
            ("ball center", lambda v: ConvexRegion.ball([0, 0, v], 1.0)),
            ("ball radius", lambda v: ConvexRegion.ball([0, 0, 0], v)),
            ("ellipsoid A", lambda v: ConvexRegion.ellipsoid([[1, 0, 0], [0, v, 0]], [0, 0])),
            ("ellipsoid b", lambda v: ConvexRegion.ellipsoid(np.eye(3), [0, 0, v])),
            ("halfspace normal", lambda v: ConvexRegion.halfspace([v, 0, 1], 1.0)),
            ("halfspace offset", lambda v: ConvexRegion.halfspace([0, 0, 1], v)),
            ("waypoint position", lambda v: Waypoint([0, 0, v], 1.0, float("inf"))),
            ("waypoint time", lambda v: Waypoint([0, 0, 0], v, 0.1)),
            ("waypoint radius", lambda v: Waypoint([0, 0, 0], 1.0, v)),
        ],
    )
    def test_regions_and_waypoints_reject_non_finite(self, field, build, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            build(value)

    def test_interval_constraint(self):
        region = ConvexRegion.ball([0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            IntervalConstraint(2.0, 1.0, "position", region=region)
        with pytest.raises(ValueError):
            IntervalConstraint(1.0, 2.0, "position")
        with pytest.raises(ValueError):
            IntervalConstraint(1.0, 2.0, "speed", bound=0.0)
        with pytest.raises(ValueError):
            IntervalConstraint(1.0, 2.0, "altitude", bound=1.0)
        # A field its kind does not read: nothing would compile or verify it.
        with pytest.raises(ValueError, match="^a speed interval reads no region, but one"):
            IntervalConstraint(1.0, 2.0, "speed", region=region, bound=1.0)
        with pytest.raises(ValueError, match="^a position interval reads no bound, but one"):
            IntervalConstraint(1.0, 2.0, "position", region=region, bound=1e-4)

    @pytest.mark.parametrize(
        "message, build",
        [
            (
                "interval bound must be finite, got nan",
                lambda v: IntervalConstraint(2.0, 4.0, "speed", bound=v),
            ),
            (
                "interval t_start must be finite, got nan",
                lambda v: IntervalConstraint(v, 4.0, "speed", bound=1.0),
            ),
            (
                "interval t_end must be finite, got nan",
                lambda v: IntervalConstraint(2.0, v, "speed", bound=1.0),
            ),
            (
                "pins.initial[0] must be finite, got nan at 0",
                lambda v: EndpointPins(initial=(np.array([v, 0, 0]),), final=()),
            ),
            (
                "pins.final[1] must be finite, got nan at 2",
                lambda v: EndpointPins(initial=(), final=(np.zeros(3), [0, 0, v])),
            ),
        ],
        ids=["bound", "t_start", "t_end", "initial_pin", "final_pin"],
    )
    def test_intervals_and_pins_reject_non_finite(self, message, build):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(float("nan"))

    def test_scenario_zeta_mode(self):
        with pytest.raises(ValueError):
            small_scenario(zeta_mode="diagonal")

    def test_margins_require_cbf(self):
        with pytest.raises(ValueError):
            small_scenario(apply_tracking_margins=True)

    def test_corridor_point_count(self):
        sets = tuple(ConvexRegion.ball([0, 0, 0], 2.0) for _ in range(4))
        with pytest.raises(ValueError):
            small_scenario(corridor=sets)  # 4 sets need n = 8, not 10
        kv = clamped_uniform_knots(0.0, 4.0, 10, 5)
        with pytest.raises(ValueError):
            PlanAssembly(kv).compile_corridor(sets)

    def test_endpoint_order_beyond_degree(self):
        kv = clamped_uniform_knots(0.0, 4.0, 10, 2)
        pins = rest_to_rest([0, 0, 0], [1, 0, 0], orders=4)
        with pytest.raises(ValueError):
            PlanAssembly(kv).compile_endpoints(pins)

    # PlanningScenario holds each scenario-wide check once and names the
    # field by its path in a scenario file; small_scenario spans [0, 4].
    @pytest.mark.parametrize(
        "message, over",
        [
            ("waypoints/1/time = 4.5 lies outside", {"waypoints": waypoints_at(1.0, 4.5)}),
            ("waypoints/0/time = -0.5 lies outside", {"waypoints": waypoints_at(-0.5)}),
            ("windows/0/t_start = -1.0 lies outside", {"intervals": speed_window(-1.0, 1.0)}),
            ("windows/0/t_end = 5.0 lies outside", {"intervals": speed_window(1.0, 5.0)}),
            ("solver_tol must be a number in [1e-10, 0.01), got nan", {"solver_tol": float("nan")}),
            ("solver_tol must be a number in [1e-10, 0.01), got 0.0", {"solver_tol": 0.0}),
            ("solver_tol must be a number in [1e-10, 0.01), got -1e-08", {"solver_tol": -1e-8}),
            ("solver_tol must be a number in [1e-10, 0.01), got 0.01", {"solver_tol": MAX_TOL}),
            ("solver_tol must be a number in [1e-10, 0.01), got 0.5", {"solver_tol": 0.5}),
            ("solver_tol must be a number in [1e-10, 0.01), got 1e-12", {"solver_tol": 1e-12}),
        ],
    )
    def test_scenario_names_the_field(self, message, over):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            small_scenario(**over)

    @pytest.mark.parametrize("entry", ["scenario", "document"])
    @pytest.mark.parametrize(
        "spline, message",
        BAD_SPLINES,
        ids=[",".join(f"{k}={v:g}" for k, v in spline.items()) for spline, _ in BAD_SPLINES],
    )
    def test_one_spline_rule_for_scenarios_and_plan_documents(self, entry, spline, message):
        # The same message, naming the same field: spline.<field> in a
        # scenario, the bare field in a plan document.
        if entry == "scenario":
            with pytest.raises(ValueError, match=rf"^spline\.{re.escape(message)}$"):
                small_scenario(**spline)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TrajectoryPlan.from_dict(plan_document(**spline))

    def test_scenarios_and_plan_documents_share_the_rule_s_knot_vector(self):
        kv = plan_knots(0.0, 4.0, 10, 5)
        assert kv is clamped_uniform_knots(0.0, 4.0, 10, 5)
        assert compile_plan(small_scenario())[0].kv is kv
        assert TrajectoryPlan.from_dict(plan_document()).curve.knots is kv

    @pytest.mark.parametrize("degree", range(MIN_DEGREE, MAX_DEGREE + 1))
    def test_span_width_limits_are_accepted(self, degree):
        # Both limits load; at the widest spans the snap Gram's factor has as
        # many rows as over 1 s spans, d - 3 per span. Four spans, a power of
        # two, give back each limit exactly as (tf - t0) / spans.
        n, spans = degree + 3, 4
        small_scenario(tf=min_span_width(degree) * spans, n=n, degree=degree)
        widest = small_scenario(tf=max_span_width(degree) * spans, n=n, degree=degree)
        factor = snap_gram(clamped_uniform_knots(widest.t0, widest.tf, n, degree))
        assert factor.shape[0] == snap_gram(clamped_uniform_knots(0.0, 4.0, n, degree)).shape[0]
        with pytest.raises(ValueError, match=r"^spline\.tf: "):
            small_scenario(tf=2.0 * max_span_width(degree) * spans, n=n, degree=degree)


class TestAssemblyLayout:
    def test_point_and_axis_columns(self):
        kv = clamped_uniform_knots(0.0, 4.0, 10, 5)
        asm = PlanAssembly(kv)
        assert asm.ctrl_cols.tolist() == list(range(33))
        assert asm.ctrl_cols.reshape(3, -1)[2].tolist() == list(range(22, 33))
        rows, cols = asm.point_rows(1, range(1, 11))
        assert rows.shape == (10, 3, 6)
        # Velocity point j reads control points j-1 and j of each axis.
        assert cols[0].tolist() == [0, 1, 11, 12, 22, 23]
        assert cols[-1].tolist() == [9, 10, 20, 21, 31, 32]
        with pytest.raises(ValueError):
            asm.point_rows(2, [1])

    def test_point_rows_pick_derivative_points(self, rng):
        kv = clamped_uniform_knots(0.0, 4.0, 10, 5)
        asm = PlanAssembly(kv)
        ctrl = rng.uniform(-1, 1, size=(3, 11))
        for r, js in [(0, range(11)), (1, range(1, 11)), (2, [2, 7, 10]), (3, [4]), (4, [])]:
            rows, cols = asm.point_rows(r, js)
            want = ctrl @ dense_derivative_matrix(kv, r)[:, list(js)]
            assert rows.shape == (len(js), 3, 3 * (r + 1))
            assert cols.shape == (len(js), 3 * (r + 1))
            got = np.einsum("kac,kc->ka", rows, ctrl.reshape(-1)[cols])
            assert_allclose(got, want.T, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("radius, unused", [(0.1, "add_equality"), (0.0, "add_soc")])
    def test_waypoints_send_no_empty_batch(self, monkeypatch, radius, unused):
        # All balls send no equality batch, and all pins no cone batch.
        asm = PlanAssembly(clamped_uniform_knots(0.0, 4.0, 10, 5))
        calls = []
        monkeypatch.setattr(asm.cp, unused, lambda *args: calls.append(args))
        asm.compile_waypoints([Waypoint([0.5, 0.0, 0.5], t, radius) for t in (1.0, 3.0)])
        assert calls == []
        assert asm.cp.block_counts() == {"waypoint": 2}


class TestPointBlocks:
    """Each derivative order's point block is built once per assembly."""

    @staticmethod
    def orders_built(monkeypatch, scenarios):
        """Orders whose stencil reached _axis_blocks, per compile_plan call."""
        built = []
        axis_blocks = PlanAssembly._axis_blocks

        def counted(asm, W, first):
            stencils = [asm.kv.derivative_stencil(r) for r in range(asm.kv.degree + 1)]
            built[-1] += [r for r, S in enumerate(stencils) if W is S]
            return axis_blocks(asm, W, first)

        monkeypatch.setattr(PlanAssembly, "_axis_blocks", counted)
        for ps in scenarios:
            built.append([])
            compile_plan(ps)
        return built

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_once_per_order_in_a_bundled_plan(self, monkeypatch, name):
        # Velocity builds order 1; tilt, thrust and the rate floors share
        # order 2; the rate cones build order 3.
        ps = load_scenario(name).planning
        assert self.orders_built(monkeypatch, [ps]) == [[1, 2, 3]]

    @pytest.mark.parametrize("zeta_mode", ["per-span", "scalar"])
    def test_windows_reuse_the_block_and_assemblies_do_not_share(self, monkeypatch, zeta_mode):
        # The speed window picks its rows from the velocity block; a second
        # assembly over the same knots builds its own blocks.
        ps = TestCensus().scenario(zeta_mode)
        assert self.orders_built(monkeypatch, [ps, ps]) == [[1, 2, 3], [1, 2, 3]]

    def test_rows_are_picked_from_a_read_only_block(self):
        asm = PlanAssembly(clamped_uniform_knots(0.0, 4.0, 10, 5))
        rows, cols = asm.point_rows(2, [9, 2, 9])
        full_rows, full_cols = asm.point_rows(2, np.arange(2, 11))
        assert_array_equal(rows, full_rows[[7, 0, 7]], strict=True)
        assert_array_equal(cols, full_cols[[7, 0, 7]], strict=True)
        block = asm._point_blocks[2]
        assert not any(part.flags.writeable for part in block)
        rows[:] = 0.0  # the picked rows are the caller's own
        assert_array_equal(asm.point_rows(2, [9])[0], full_rows[[7]], strict=True)


class TestDenseReference:
    """The stencil compile builds the model that dense rows build."""

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_same_model_as_dense_rows(self, name):
        self.assert_same_model(load_scenario(name).planning)

    @pytest.mark.parametrize("zeta_mode", ["per-span", "scalar"])
    def test_mixed_cone_families(self, zeta_mode):
        # Half-spaces, balls and two-row cones in one family, each batched
        # separately in order of first use.
        self.assert_same_model(TestCensus().scenario(zeta_mode))

    @staticmethod
    def labels(cp):
        """The label of each constraint, in row order: equalities, inequalities, then cones."""
        names = list(cp._labels)
        return [names[batch.code] for batch in cp._store for _ in range(batch.k)]

    def assert_same_model(self, ps):
        asm, _ = compile_plan(ps)
        ref = dense_compile_plan(ps)
        assert asm.cp.block_counts() == ref.cp.block_counts()
        assert self.labels(asm.cp) == self.labels(ref.cp)
        assert asm.cp.num_vars == ref.cp.num_vars
        # The triplets of both, ordered by row and then column.
        (rows, cols, vals, b, cones), (ref_rows, ref_cols, ref_vals, b_ref, cones_ref) = (
            cp._triplets() for cp in (asm.cp, ref.cp)
        )
        assert cones == cones_ref
        assert_array_equal(b, b_ref)
        assert_array_equal(asm.cp._f, ref.cp._f)
        order, ref_order = np.lexsort((cols, rows)), np.lexsort((ref_cols, ref_rows))
        assert_array_equal(rows[order], ref_rows[ref_order])
        assert_array_equal(cols[order], ref_cols[ref_order])
        # Outside the three snap epigraphs, the last cones, the values agree
        # to roundoff; the epigraphs factor the same Gram matrix.
        end = np.searchsorted(rows[order], b.size - sum(cones.soc[-3:]))
        assert_allclose(vals[order][:end], ref_vals[ref_order][:end], rtol=1e-14, atol=0.0)
        factor = snap_gram(asm.kv)
        Q_ref, _ = dense_snap_gram(ref.kv)
        assert_allclose(factor.T @ factor, Q_ref, rtol=0.0, atol=1e-14 * np.abs(Q_ref).max())


class TestSnapEpigraph:
    """compile_objective's cones ||G P_a||^2 <= s_a, one add_soc batch over the three axes."""

    @pytest.mark.parametrize("zeta_mode", ["per-span", "scalar"])
    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bitwise_the_reference_encoding(self, name, zeta_mode):
        ps = dataclasses.replace(load_scenario(name).planning, zeta_mode=zeta_mode)
        asm, _ = compile_plan(ps)
        cp = asm.cp
        # The reference adds the same three variables after the same columns.
        ref = ConeProgram(cp.num_vars - 3)
        s = quadratic_epigraph(ref, snap_gram(asm.kv), asm.ctrl_cols.reshape(3, -1))
        assert s.tolist() == list(range(ref.num_vars - 3, cp.num_vars))
        (got,) = [batch for batch in cp._store if batch.code == cp._labels["snap-epigraph"]]
        (want,) = ref._store
        assert (got.kind, got.k, got.m) == (want.kind, want.k, want.m)
        for field in ("rows", "cols", "vals", "rhs"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
        assert cp._f[s].tolist() == [1.0, 1.0, 1.0]

    def test_forces_s_nonnegative(self):
        # At P = 0 the cone reads ||(0, s - 1)|| <= s + 1, which holds for s >= 0 only.
        asm = PlanAssembly(clamped_uniform_knots(0.0, 4.0, 10, 5))
        asm.compile_objective(np.zeros(0, dtype=int))
        x = np.zeros(asm.cp.num_vars)
        for value, violation in [(0.0, 0.0), (2.5, 0.0), (-0.5, 1.0)]:
            x[-3:] = value
            assert asm.cp.residuals(x) == {"snap-epigraph": violation}

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_s_is_the_snap_at_the_optimum(self, name):
        # Hover's snap is 0, so its s sits on the bound s >= 0.
        asm, _ = compile_plan(load_scenario(name).planning)
        x = asm.cp.solve().x
        snap = np.square(snap_gram(asm.kv) @ x[asm.ctrl_cols].reshape(3, -1).T).sum(axis=0)
        assert (x[-3:] >= -1e-8).all()
        assert_allclose(x[-3:], snap, rtol=1e-7, atol=1e-8)


class TestCensus:
    """Constraint counts of a model with every family, in closed form.

    n = 10, degree 5 over [0, 4]: six spans of 2/3 s, spans l = 5..10. The
    [1.0, 1.9] window rounds out to spans 6 and 7, so it is governed by
    position points 1..7 (7) and velocity points 2..7 (6).
    """

    BOX = ConvexRegion.box([-5.0, -5.0, -5.0], [5.0, 5.0, 5.0])  # 6 linear cones
    BALL = ConvexRegion.ball([0.0, 0.0, 0.0], 5.0)  # 1 cone of 3 rows
    TUBE = ConvexRegion(  # cones of 3 and 2 rows, batched separately
        BALL.cones + (SocSet(np.eye(3)[:2], np.zeros(2), np.zeros(3), 4.0),)
    )

    def scenario(self, zeta_mode):
        return small_scenario(
            n=10,
            zeta_mode=zeta_mode,
            bounds=small_bounds(regions=(self.BOX,)),
            waypoints=(
                Waypoint(position=[0.5, 0.0, 0.5], time=2.0),
                Waypoint(position=[0.5, 0.0, 0.5], time=3.0, radius=0.1),
            ),
            intervals=(
                IntervalConstraint(1.0, 1.9, "position", region=self.TUBE),
                IntervalConstraint(1.0, 1.9, "speed", bound=0.5),
            ),
            corridor=(self.BOX, self.BALL, self.BOX, self.BALL, self.BOX, self.BALL),
        )

    @pytest.mark.parametrize("zeta_mode, zeta", [("per-span", 6), ("scalar", 1)])
    def test_counts_in_closed_form(self, zeta_mode, zeta):
        n, d = 10, 5
        asm, zeta_cols = compile_plan(self.scenario(zeta_mode))
        rate = (n - 1, n - 2) if zeta_mode == "scalar" else ((d - 1) * zeta, (d - 2) * zeta)
        assert asm.cp.block_counts() == {
            "position": (n + 1) * 6,
            "velocity": n,
            "tilt": n - 1,
            "thrust-upper": n - 1,
            "thrust-lower": n - 1,
            "rate-floor": rate[0],
            "rate-jerk": rate[1],
            "waypoint": 2,
            "endpoint": 6,
            "corridor": (d + 1) * 3 * (6 + 1),
            "window-position": 7 * 2,
            "window-speed": 6,
            "snap-epigraph": 3,
        }
        assert zeta_cols.size == zeta
        assert asm.cp.num_vars == 3 * (n + 1) + zeta + 3
        # Linear cones and the thrust and rate floors are inequalities.
        *_, cones = asm.cp._triplets()
        soc = n + (n - 1) + (n - 1) + rate[1] + 1 + (d + 1) * 3 + 7 * 2 + 6 + 3
        nonneg = (n + 1) * 6 + (n - 1) + rate[0] + (d + 1) * 3 * 6
        assert (cones.zero, cones.nonneg, len(cones.soc)) == (3 * (1 + 6), nonneg, soc)


class TestScaledMatrix:
    """The solve scales the stored triplets as the sparse-product reference does, bit for bit."""

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_models(self, assert_reference_scaling, name):
        assert_reference_scaling(compile_plan(load_scenario(name).planning)[0].cp)

    @pytest.mark.parametrize("zeta_mode", ["per-span", "scalar"])
    def test_census_model(self, assert_reference_scaling, zeta_mode):
        assert_reference_scaling(compile_plan(TestCensus().scenario(zeta_mode))[0].cp)


class TestFullSolves:
    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_scenarios_plan_at_the_tolerance_floor(self, name):
        planning = dataclasses.replace(load_scenario(name).planning, solver_tol=MIN_TOL)
        pl = plan(planning)
        assert pl.solution.status == "optimal"
        assert pl.solution.max_residual <= 1e-8

    @pytest.mark.parametrize("degree", range(MIN_DEGREE, MAX_DEGREE + 1))
    def test_hover_plans_at_every_degree_the_rule_admits(self, hover_scenario, degree):
        hover = dataclasses.replace(hover_scenario.planning, degree=degree, n=degree + 7)
        assert plan(hover).solution.status == "optimal"

    def test_small_rest_to_rest(self):
        pl = plan(small_scenario())
        assert pl.solution.status == "optimal"
        assert pl.solution.max_residual <= 1e-7
        assert_allclose(pl.curve.eval(0.0), [0.0, 0.0, 0.5], atol=1e-8)
        assert_allclose(pl.curve.eval(4.0), [1.0, 0.0, 0.5], atol=1e-8)
        assert_allclose(pl.curve.eval(0.0, 1), 0.0, atol=1e-8)
        assert_allclose(pl.curve.eval(4.0, 2), 0.0, atol=1e-7)

    def test_plan_assembles_the_model_once(self, monkeypatch):
        # The residual audit reads the stored triplets; only the solve
        # builds a sparse matrix from them, the solver's CSR, once. Later
        # CSR matrices come from arrays that the solve lays out itself.
        built = []

        class Spy(sparse.csr_matrix):
            def __init__(self, arg1, *args, **kwargs):
                if isinstance(arg1, tuple) and len(arg1) == 2 and isinstance(arg1[1], tuple):
                    built.append(arg1[1])
                super().__init__(arg1, *args, **kwargs)

        monkeypatch.setattr(sparse, "csr_matrix", Spy)
        pl = plan(small_scenario())
        assert pl.solution.status == "optimal"
        assert pl.solution.max_residual <= 1e-7
        assert len(built) == 1

    def test_deterministic_replan(self):
        a = plan(small_scenario())
        b = plan(small_scenario())
        assert np.array_equal(a.curve.ctrl, b.curve.ctrl)
        assert a.solution.objective == b.solution.objective

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_snap_is_the_integral_of_squared_snap(self, bundled_plan, name):
        # Gauss-Legendre with d nodes per span integrates |r''''|**2, a
        # polynomial of degree 2d - 8 there, exactly. Hover's snap is
        # roundoff (4e-19), so an absolute 1e-15 covers it; a quadratic form
        # x'Qx, which cancels, read -1.5e-13 there.
        pl = bundled_plan(name)
        kv = pl.curve.knots
        nodes, weights = np.polynomial.legendre.leggauss(kv.degree)
        l = np.array(kv.nonempty_spans())[:, None]
        half, mid = 0.5 * (kv.tau[l + 1] - kv.tau[l]), 0.5 * (kv.tau[l + 1] + kv.tau[l])
        snap = pl.curve.eval((half * nodes + mid).ravel(), 4)
        integral = float((half * weights).ravel() @ np.square(snap).sum(axis=1))
        assert pl.snap == pytest.approx(integral, rel=1e-10, abs=1e-15)
        assert pl.snap >= 0.0

    def test_hover_rate_floors_reach_gravity(self, hover_plan):
        # At zero acceleration the floor constraint zeta <= g + V_z is tight
        # at g, and the objective pushes every floor to its cap.
        assert_allclose(hover_plan.zeta, G, atol=1e-6)
        assert hover_plan.snap <= 1e-6
        spans = list(hover_plan.curve.knots.nonempty_spans())
        assert hover_plan.zeta.size == len(spans)
        assert_array_equal(hover_plan.span_zeta, hover_plan.zeta, strict=True)
        assert not hover_plan.span_zeta.flags.writeable

    def test_rate_floor_optimality(self, example1_plan):
        # Each per-span floor rises to the smallest g + V_z over the span's
        # acceleration points unless the jerk cone already binds; on this
        # gentle mission the cap is always the active side.
        kv = example1_plan.curve.knots
        d = kv.degree
        vz = (example1_plan.curve.ctrl @ dense_derivative_matrix(kv, 2))[2]
        for k, l in enumerate(kv.nonempty_spans()):
            cap = G + vz[range(l - d + 2, l + 1)].min()
            assert example1_plan.zeta[k] <= cap + 1e-7
            assert example1_plan.zeta[k] >= cap - 1e-5

    def test_scalar_rate_floor(self, hover_scenario):
        pl = plan(dataclasses.replace(hover_scenario.planning, zeta_mode="scalar"))
        assert pl.zeta.size == 1
        spans = pl.curve.knots.nonempty_spans()
        assert_array_equal(pl.span_zeta, np.full(len(spans), pl.zeta[0]), strict=True)
        assert not pl.span_zeta.flags.writeable
        assert_allclose(pl.zeta[0], G, atol=1e-6)

    def test_exact_waypoint_becomes_equality(self):
        wp = Waypoint(position=[0.4, 0.1, 0.5], time=2.0, radius=0.0)
        scenario = small_scenario(waypoints=(wp,))
        cp = compile_plan(scenario)[0].cp
        assert cp.block_counts()["waypoint"] == 1
        (batch,) = [batch for batch in cp._store if batch.code == cp._labels["waypoint"]]
        assert batch.kind == "eq"
        assert_allclose(plan(scenario).curve.eval(2.0), wp.position, atol=1e-8)

    def test_waypoint_ball_is_respected(self):
        wp = Waypoint(position=[0.5, 0.3, 0.5], time=2.0, radius=0.05)
        pl = plan(small_scenario(waypoints=(wp,)))
        assert np.linalg.norm(pl.curve.eval(2.0) - wp.position) <= 0.05 + 1e-8

    def test_global_region_holds_all_control_points(self):
        box = ConvexRegion.box([-0.2, -0.2, 0.0], [1.2, 0.2, 1.0])
        pl = plan(small_scenario(bounds=small_bounds(regions=(box,))))
        margins = box.margin(pl.curve.ctrl.T)
        assert margins.min() >= -1e-7

    def test_infeasible_carries_block_census(self):
        box = ConvexRegion.box([-2.0, -2.0, -2.0], [2.0, 2.0, 2.0])
        wp = Waypoint(position=[10.0, 10.0, 10.0], time=2.0, radius=0.01)
        scenario = small_scenario(waypoints=(wp,), bounds=small_bounds(regions=(box,)))
        with pytest.raises(PlanInfeasibleError) as exc:
            plan(scenario)
        err = exc.value
        assert err.status == "infeasible"
        assert err.block_counts["waypoint"] == 1
        assert "position=" in str(err)

    def test_corridor_membership(self):
        # Each zone repeated so the pinned start and end points only have to
        # sit in their own zone, while the middle points cross the overlap.
        a = ConvexRegion.box([-0.1, -0.1, 0.0], [0.7, 0.6, 1.0], name="a")
        b = ConvexRegion.box([0.3, -0.1, 0.0], [1.1, 0.6, 1.0], name="b")
        sets = (a, a, b, b)
        scenario = small_scenario(
            n=8,
            corridor=sets,
            pins=rest_to_rest([0.0, 0.0, 0.5], [1.0, 0.0, 0.5], orders=1),
        )
        pl = plan(scenario)
        d = scenario.degree
        for l, region in enumerate(sets, start=1):
            pts = pl.curve.ctrl[:, l - 1 : l + d].T
            assert region.margin(pts).min() >= -1e-7


class TestPlanDocument:
    def test_round_trip(self, hover_plan):
        doc = hover_plan.to_dict()
        assert doc["format"] == "safeflight-plan"
        back = TrajectoryPlan.from_dict(doc)
        assert np.array_equal(back.curve.ctrl, hover_plan.curve.ctrl)
        assert np.array_equal(back.zeta, hover_plan.zeta)
        assert back.zeta_mode == hover_plan.zeta_mode
        assert back.solution.objective == hover_plan.solution.objective
        ts = np.linspace(0.0, 10.0, 7)
        assert_allclose(back.curve.eval(ts), hover_plan.curve.eval(ts), atol=0)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            TrajectoryPlan.from_dict({"format": "something-else"})

    @pytest.mark.parametrize("key", ["objective", "snap", "max_residual"])
    @pytest.mark.parametrize(
        "text, shown",
        [("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"), ("NaN", "nan")],
    )
    def test_refuses_non_finite_optional_numbers(self, hover_plan, key, text, shown):
        # json reads 1e400 as inf; to_dict would leave such a field out.
        doc = hover_plan.to_dict()
        doc[key] = json.loads(text)
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {shown}$"):
            TrajectoryPlan.from_dict(doc)

    def test_integral_floats_load_as_integers(self, hover_plan):
        # JSON Schema's integer: 12.0 is one, as in a scenario's spline.n.
        doc = hover_plan.to_dict()
        doc.update(n=float(doc["n"]), degree=float(doc["degree"]), version=1.0)
        back = TrajectoryPlan.from_dict(doc)
        assert back.curve.knots == hover_plan.curve.knots
        assert type(back.curve.knots.n) is int and type(back.curve.knots.degree) is int

    def test_each_load_reads_the_whole_document(self, hover_plan):
        # Nothing is kept from one load of a dict to the next: an edit in place
        # between two loads of the same object is seen by the second.
        doc = hover_plan.to_dict()
        first = TrajectoryPlan.from_dict(doc)
        doc["control_points"][2][3] = float("nan")
        with pytest.raises(ValueError, match=r"control_points must be finite, got nan at \(2, 3\)"):
            TrajectoryPlan.from_dict(doc)
        doc["control_points"][2][3] = 1.5
        second = TrajectoryPlan.from_dict(doc)
        assert second.curve.ctrl[2, 3] == 1.5 != first.curve.ctrl[2, 3]
        del doc["zeta"]
        with pytest.raises(ValueError, match="'zeta' is a required property"):
            TrajectoryPlan.from_dict(doc)

    def test_equality_and_hash_go_by_identity(self, hover_plan):
        # Each holds arrays, whose == is elementwise: a field-wise == would raise.
        # A loaded scenario compares field by field, so through its pins and
        # its run settings by identity: a second load of the file differs.
        sf, again = load_scenario("hover"), load_scenario("hover")
        tr = sf.tracking
        controller = make_unfiltered_controller(tr.cbf, tr.gains, tr.psi, hover_plan.gravity)
        held = [
            hover_plan,
            SocSet(np.eye(3), np.zeros(3), np.zeros(3), 1.0),
            Waypoint([0.0, 0.0, 1.0], 1.0),
            sf.planning.pins,
            SimConfig(),
            simulate(plan_reference(hover_plan), controller, tr.sim, duration=0.05),
            attitude_from_virtual(np.zeros((2, 3)), 0.0),
            Solution("optimal", np.zeros(2), 0.0, 0.0, 0.0, 1, "solved"),
        ]
        curve = hover_plan.curve
        pairs = [(item, dataclasses.replace(item)) for item in held] + [
            (curve, SplineCurve(curve.knots, curve.ctrl)),
            (sf, again),
            (sf.planning, again.planning),
            (tr, again.tracking),
        ]
        for item, twin in pairs:
            assert item == item and item != twin
            assert hash(item) == hash(item)
            assert len({item, twin}) == 2
