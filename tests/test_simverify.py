"""Closed-loop simulation mechanics and the dense plan verifier."""

import csv
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import direct_controller, simulate_per_tick, verify_plan_per_point
from safeflight.cli import bundled_scenarios, load_scenario
from safeflight.flatness import InvertedFlightError
from safeflight.planner import (
    ConvexRegion,
    EndpointPins,
    IntervalConstraint,
    TrajectoryPlan,
    Waypoint,
    plan,
)
from safeflight.simverify import (
    MAX_SAMPLES,
    MAX_TICKS,
    SimConfig,
    SimTrace,
    make_filtered_controller,
    make_unfiltered_controller,
    plan_reference,
    simulate,
    span_samples,
    verify_plan,
    verify_span_minima,
)
from safeflight.splines import SplineCurve
from safeflight.tracker import (
    CbfParams,
    PdGains,
    ReferencePoint,
    SafeCommand,
    SafetyFilter,
    TrackingState,
    barrier_values,
)

PARAMS = CbfParams(delta=0.1, a1=6.0, a2=8.0)
GAINS = PdGains(kp=2.0, kd=3.0)
# Bundled plans whose thrust a 0.05 jitter of every control point turns down.
INVERTED_BY_JITTER = ("example2_window", "margin_demo")


def still_air(t):
    return ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(control_rate=0.0)
        with pytest.raises(ValueError):
            SimConfig(substeps=0)

    def test_tick_cap(self):
        # SimConfig and simulate share one cap, _tick_count's.
        assert SimConfig(control_rate=1000.0, duration=MAX_TICKS / 1000.0).duration == 1000.0
        past = "^control_rate 1000 Hz over 1000 s is 1000001 ticks, more than MAX_TICKS"
        with pytest.raises(ValueError, match=past):
            SimConfig(control_rate=1000.0, duration=(MAX_TICKS + 1) / 1000.0)

    def test_offsets_become_vectors(self):
        cfg = SimConfig(initial_position_offset=[0.1, 0.0, 0.0])
        assert cfg.initial_position_offset.shape == (3,)


class TestSimulate:
    def test_tick_count_and_time_grid(self):
        cfg = SimConfig(control_rate=100.0, substeps=5)
        ctrl = make_filtered_controller(PARAMS, GAINS)
        trace = simulate(still_air, ctrl, cfg, t0=1.0, duration=2.5)
        assert trace.t.size == 250
        assert trace.t[0] == 1.0
        assert_allclose(np.diff(trace.t), 0.01)

    def test_duration_fallback_to_config(self):
        cfg = SimConfig(control_rate=50.0, duration=1.0)
        ctrl = make_filtered_controller(PARAMS, GAINS)
        assert simulate(still_air, ctrl, cfg).t.size == 50
        with pytest.raises(ValueError):
            simulate(still_air, ctrl, SimConfig(control_rate=50.0))

    def test_sub_tick_duration_rejected(self):
        ctrl = make_filtered_controller(PARAMS, GAINS)
        with pytest.raises(ValueError):
            simulate(still_air, ctrl, SimConfig(control_rate=50.0), duration=0.001)

    @pytest.mark.parametrize("duration", [np.inf, np.nan])
    def test_non_finite_duration_rejected(self, duration):
        # As SimConfig rejects its own duration, naming the field.
        ctrl = make_filtered_controller(PARAMS, GAINS)
        with pytest.raises(ValueError, match="^duration must be finite"):
            simulate(still_air, ctrl, SimConfig(), duration=duration)

    def test_tick_cap_checked_before_the_grid(self):
        # One tick past MAX_TICKS is refused before the grid exists, so the
        # reference, which receives that grid, is never called.
        def never(ts):
            pytest.fail("reference called past the tick cap")

        ctrl = make_filtered_controller(PARAMS, GAINS)
        cfg = SimConfig(control_rate=1000.0)
        with pytest.raises(ValueError, match="MAX_TICKS"):
            simulate(never, ctrl, cfg, duration=(MAX_TICKS + 1) / 1000.0)

    def test_reference_called_once_with_the_tick_grid(self, hover_plan):
        calls = []
        inner = plan_reference(hover_plan)

        def counting(t):
            calls.append(np.array(t, copy=True))
            return inner(t)

        cfg = SimConfig(control_rate=50.0, initial_position_offset=[0.05, 0.0, 0.0])
        ctrl = make_filtered_controller(PARAMS, GAINS)
        trace = simulate(counting, ctrl, cfg, t0=1.0, duration=1.0)
        assert len(calls) == 1
        assert_array_equal(calls[0], 1.0 + np.arange(50) * 0.02)
        assert_array_equal(trace.t, calls[0])
        want = inner(calls[0])
        assert_array_equal(trace.ref_r, want.r)
        assert_array_equal(trace.ref_r1, want.r1)
        assert_array_equal(trace.ref_r2, want.r2)
        assert_array_equal(trace.r[0], want.r[0] + cfg.initial_position_offset)

    def test_constant_reference_fields_broadcast(self):
        ctrl = make_filtered_controller(PARAMS, GAINS)
        trace = simulate(still_air, ctrl, SimConfig(control_rate=10.0), duration=0.5)
        for name in ("ref_r", "ref_r1", "ref_r2"):
            assert_array_equal(getattr(trace, name), np.zeros((5, 3)))

    def test_zero_order_hold_between_ticks(self):
        # Between rows, the state must advance exactly under the recorded
        # command: r_{i+1} = r_i + v_i h + mu_i h^2 / 2.
        cfg = SimConfig(
            control_rate=20.0,
            substeps=7,
            initial_position_offset=[0.09, -0.05, 0.02],
            initial_velocity_offset=[0.1, 0.2, -0.1],
        )
        ctrl = make_filtered_controller(PARAMS, GAINS)
        trace = simulate(still_air, ctrl, cfg, duration=1.0)
        h = 0.05
        for i in range(trace.t.size - 1):
            want_r = trace.r[i] + trace.r1[i] * h + 0.5 * trace.mu[i] * h * h
            want_r1 = trace.r1[i] + trace.mu[i] * h
            assert_allclose(trace.r[i + 1], want_r, atol=1e-12)
            assert_allclose(trace.r1[i + 1], want_r1, atol=1e-12)

    def test_substeps_do_not_change_the_trace(self, hover_plan):
        # Ticks take the exact step, so substeps is read but inert.
        def run(substeps):
            cfg = SimConfig(
                control_rate=100.0,
                substeps=substeps,
                initial_position_offset=[0.05, -0.03, 0.02],
                initial_velocity_offset=[0.1, 0.0, -0.1],
            )
            ctrl = make_filtered_controller(PARAMS, GAINS)
            return simulate(plan_reference(hover_plan), ctrl, cfg, t0=1.0, duration=1.0)

        one, ten = run(1), run(10)
        for name in ("r", "r1", "mu", "thrust", "barriers"):
            np.testing.assert_array_equal(getattr(one, name), getattr(ten, name))

    def test_thrust_follows_the_given_gravity(self):
        # thrust = |mu + g e3| at every tick, for the g the controller is built with.
        cfg = SimConfig(control_rate=50.0, initial_position_offset=[0.05, -0.05, 0.08])
        ctrl = make_filtered_controller(PARAMS, GAINS, g=5.0)
        trace = simulate(still_air, ctrl, cfg, duration=1.0)
        want = np.linalg.norm(trace.mu + np.array([0.0, 0.0, 5.0]), axis=1)
        assert_allclose(trace.thrust, want, rtol=1e-12)
        assert np.abs(trace.mu).max() > 0.1  # the controller did work

    def test_offsets_set_the_start_on_a_still_reference(self):
        cfg = SimConfig(
            control_rate=10.0,
            initial_position_offset=[1.0, 2.0, 3.0],
            initial_velocity_offset=[0.1, 0.0, 0.0],
        )
        ctrl = make_unfiltered_controller(PARAMS, PdGains(kp=0.0, kd=0.0))
        trace = simulate(still_air, ctrl, cfg, duration=0.5)
        assert_allclose(trace.r[0], [1.0, 2.0, 3.0])
        assert_allclose(trace.r1[0], [0.1, 0.0, 0.0])

    def test_offsets_shift_the_reference_start(self, hover_plan):
        cfg = SimConfig(
            control_rate=10.0,
            initial_position_offset=[0.05, 0.0, 0.0],
            initial_velocity_offset=[0.0, -0.1, 0.0],
        )
        ctrl = make_filtered_controller(PARAMS, GAINS)
        trace = simulate(plan_reference(hover_plan), ctrl, cfg, t0=0.0, duration=0.5)
        assert_allclose(trace.r[0], [0.05, 0.0, 0.5], atol=1e-9)
        assert_allclose(trace.r1[0], [0.0, -0.1, 0.0], atol=1e-9)

    def test_inverted_input_leaves_nan_attitude(self):
        def falling(t):
            return ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.array([0.0, 0.0, -30.0]))

        ctrl = make_unfiltered_controller(PARAMS, PdGains(kp=0.0, kd=0.0))
        trace = simulate(falling, ctrl, SimConfig(control_rate=10.0), duration=0.3)
        assert np.isnan(trace.thrust).all()
        assert np.isnan(trace.phi).all()
        assert np.isfinite(trace.r).all()  # the run itself continues


    def test_inverted_input_raises_when_filtered(self):
        def falling(t):
            return ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.array([0.0, 0.0, -30.0]))

        ctrl = make_filtered_controller(PARAMS, GAINS)
        with pytest.raises(InvertedFlightError):
            simulate(falling, ctrl, SimConfig(control_rate=10.0), duration=0.3)

    def test_controller_called_per_tick_then_once_on_the_run(self, hover_plan):
        # Each tick passes a Python float t, state (r, r1) and ref (r, r1, r2)
        # as float triples and reads mu as three floats; the call after the
        # loop passes the (M,) grid and (M, 3) arrays, and its mu rows are
        # the ticks' mu, bit for bit.
        calls, ticks = [], []
        inner = make_filtered_controller(PARAMS, PdGains(kp=50.0, kd=1.0))

        def floats(x):
            return len(x) == 3 and all(type(v) is float for v in x)

        def recording(t, state, ref):
            out = inner(t, state, ref)
            if type(t) is float:
                calls.append(len(state) == 2 and len(ref) == 3 and all(map(floats, (*state, *ref))))
                assert type(out) is tuple and floats(out)
                ticks.append(out)
            else:
                calls.append((t.shape, *(f.shape for f in (*state, *ref))))
            return out

        cfg = SimConfig(control_rate=50.0, initial_position_offset=[0.09, 0.0, 0.0])
        trace = simulate(plan_reference(hover_plan), recording, cfg, t0=1.0, duration=1.0)
        assert calls == [True] * 50 + [((50,), (50, 3), (50, 3), (50, 3), (50, 3), (50, 3))]
        assert trace.active.any()  # some ticks clamp
        assert np.array(ticks).tobytes() == trace.mu.tobytes()


class TestPerTickOracle:
    # The float ticks and the batched record call after the loop must
    # reproduce, bit for bit, the trace of the array loop that calls the
    # batched form on each tick's (1, 3) row and records its whole command.
    @pytest.mark.parametrize("maker", [make_filtered_controller, make_unfiltered_controller])
    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_every_field_matches_bitwise(self, bundled_plan, name, maker):
        sf = load_scenario(name)
        planning, tr = sf.planning, sf.tracking
        pl = bundled_plan(name)
        ctrl = maker(tr.cbf, tr.gains, tr.psi, planning.gravity)
        duration = tr.sim.duration
        args = (plan_reference(pl), ctrl, tr.sim, planning.t0, duration)
        got, want = simulate(*args), simulate_per_tick(*args)
        assert got.t.size == round(duration * tr.sim.control_rate)
        for field in SimTrace.__dataclass_fields__:
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert_array_equal(a, b, err_msg=field, strict=True)

    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_traces_match_the_direct_filter_bitwise(self, bundled_plan, name, filtered):
        # The package filter forms each error difference once and runs each
        # tick in Python floats; the direct form, array code throughout and
        # on every tick, must give the same trace: over a 0.5 s window from
        # an offset start and over the whole tracking section.
        sf = load_scenario(name)
        planning, tr = sf.planning, sf.tracking
        ref = plan_reference(bundled_plan(name))
        maker = make_filtered_controller if filtered else make_unfiltered_controller
        full = tr.sim.duration
        offset = dataclasses.replace(
            tr.sim,
            initial_position_offset=[0.03, -0.02, 0.01],
            initial_velocity_offset=[0.0, 0.05, -0.04],
        )
        window_start = planning.t0 + 0.4 * (planning.tf - planning.t0)
        for cfg, t0, duration in ((offset, window_start, 0.5), (tr.sim, planning.t0, full)):
            args = (tr.cbf, tr.gains, tr.psi, planning.gravity)
            got = simulate(ref, maker(*args), cfg, t0, duration)
            want = simulate(ref, direct_controller(*args, filtered=filtered), cfg, t0, duration)
            for field in SimTrace.__dataclass_fields__:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("rate", [20.0, 100.0, 300.0])
    def test_steps_from_rest_match_bitwise(self, rng, rate):
        # From rest the first step is 0.5*mu*h*h and mu*h alone, so an
        # evaluation order other than the array form's shows in the last bit.
        def constant(mu0):
            def controller(t, state, ref):
                if type(t) is float:
                    return tuple(mu0.tolist())
                mu = np.broadcast_to(mu0, np.shape(state.r)).copy()
                return SafeCommand(mu, mu, state, ref, PARAMS)

            return controller

        rest = SimConfig(control_rate=rate)
        for mu0 in rng.uniform(-5.0, 5.0, (100, 3)):
            args = (still_air, constant(mu0), rest, 0.0, 2.0 / rate)
            got, want = simulate(*args), simulate_per_tick(*args)
            for field in ("r", "r1"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_inverted_ticks_match_as_nan_rows(self):
        def dipping(t):
            r2 = np.zeros((np.size(t), 3))
            r2[:, 2] = np.where(np.arange(np.size(t)) % 3 == 1, -30.0, 0.0)
            return ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=r2)

        ctrl = make_unfiltered_controller(PARAMS, PdGains(kp=0.0, kd=0.0))
        args = (dipping, ctrl, SimConfig(control_rate=10.0), 0.0, 0.9)
        got, want = simulate(*args), simulate_per_tick(*args)
        assert np.isnan(got.thrust).sum() == 3
        for field in SimTrace.__dataclass_fields__:
            assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


class TestReferenceAndControllers:
    def test_plan_reference_clamps_to_horizon(self, hover_plan):
        ref = plan_reference(hover_plan)
        for t in (-1.0, 0.0, 11.0):
            point = ref(t)
            assert_allclose(point.r, [0.0, 0.0, 0.5], atol=1e-9)
            assert_allclose(point.r1, 0.0, atol=1e-9)
        mid = ref(5.0)
        assert_allclose(mid.r, hover_plan.curve.eval(5.0))

    def test_plan_reference_clamps_arrays_elementwise(self, example1_plan):
        ref = plan_reference(example1_plan)
        kv = example1_plan.curve.knots
        ts = np.concatenate([[kv.t0 - 2.0, kv.t0], kv.tau, np.linspace(kv.t0, kv.tf, 23)])
        ts = np.concatenate([ts, [kv.tf, kv.tf + 0.5]])
        batch = ref(ts)
        for i, t in enumerate(ts):
            point = ref(float(t))
            for name in ("r", "r1", "r2"):
                assert_array_equal(getattr(batch, name)[i], getattr(point, name))
        assert_array_equal(batch.r[0], example1_plan.curve.eval(kv.t0))
        # At tf the curve's own velocity, which the solve pins to 0 only up
        # to roundoff; past tf the held reference is exactly at rest.
        assert_array_equal(batch.r1[-2], example1_plan.curve.eval(kv.tf, 1))
        assert_array_equal(batch.r[-1], example1_plan.curve.eval(kv.tf))
        for i in (0, -1):
            assert_array_equal(batch.r1[i], 0.0)
            assert_array_equal(batch.r2[i], 0.0)

    def test_filtered_controller_clamps(self):
        ctrl = make_filtered_controller(PARAMS, PdGains(kp=50.0, kd=0.0))
        state = TrackingState(r=np.array([0.09, 0.0, 0.0]), r1=np.zeros(3))
        cmd = ctrl(np.array(0.0), state, still_air(0.0))  # an array t: the array form
        zero = (0.0, 0.0, 0.0)
        assert ctrl(0.0, ((0.09, 0.0, 0.0), zero), (zero,) * 3) == tuple(cmd.mu.tolist())
        # nominal asks for -4.5 on x; the box at e=0.09 allows at most
        # -a1*0 - a2*0.09 +- a2*delta = [-1.52, 0.08]
        assert_allclose(cmd.mu_nominal[0], -4.5)
        assert_allclose(cmd.mu[0], -1.52)
        assert cmd.active[1]  # x lower face

    def test_unfiltered_controller_passes_through(self):
        ctrl = make_unfiltered_controller(PARAMS, GAINS)
        state = TrackingState(r=np.array([0.3, 0.0, 0.0]), r1=np.zeros(3))
        ref = still_air(0.0)
        cmd = ctrl(np.array(0.0), state, ref)
        zero = (0.0, 0.0, 0.0)
        assert ctrl(0.0, ((0.3, 0.0, 0.0), zero), (zero,) * 3) == tuple(cmd.mu.tolist())
        assert_allclose(cmd.mu, SafetyFilter(PARAMS, GAINS).inputs(state, ref)[0])
        assert not cmd.active.any()
        assert_allclose(cmd.barriers, barrier_values(state, ref, PARAMS))


class TestSpanSamples:
    @pytest.mark.parametrize("samples", [1, 7, 300])
    def test_matches_the_per_span_grid_bitwise(self, example1_plan, hover_plan, samples):
        for pl in (example1_plan, hover_plan):
            kv = pl.curve.knots
            parts = [
                np.linspace(kv.tau[l], kv.tau[l + 1], samples, endpoint=False)
                for l in kv.nonempty_spans()
            ]
            want = np.concatenate(parts + [np.array([kv.tf])])
            assert_array_equal(span_samples(pl, samples), want, strict=True)

    def test_grid_cap(self, hover_plan, hover_scenario):
        # A grid of exactly MAX_SAMPLES interior samples is built, and one
        # more sample per span is refused.
        spans = len(hover_plan.curve.knots.nonempty_spans())
        assert span_samples(hover_plan, MAX_SAMPLES // spans).size == MAX_SAMPLES + 1
        with pytest.raises(ValueError, match="MAX_SAMPLES"):
            span_samples(hover_plan, MAX_SAMPLES // spans + 1)
        # The verifiers are refused 10**15 per span, which numpy refuses at
        # once, so nothing is allocated even without the cap.
        sc = hover_scenario.planning
        for call in (
            lambda s: span_samples(hover_plan, s),
            lambda s: verify_plan(hover_plan, sc.bounds, samples_per_span=s),
            lambda s: verify_span_minima(hover_plan, sc.bounds.omega_max, s),
        ):
            with pytest.raises(ValueError, match=f"^{10**15} samples per span .* MAX_SAMPLES"):
                call(10**15)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one(self, example1_plan, example1_scenario, count):
        # At 0 per span the grid held only tf, where example1 is at rest, so
        # the plan verified under a 1e-3 speed cap that it breaks by 0.49;
        # the minima raised numpy's unnamed empty-argmin error.
        bounds = dataclasses.replace(example1_scenario.planning.bounds, v_max=1e-3)
        message = f"^samples_per_span must be at least 1, got {count}$"
        for call in (
            lambda s: span_samples(example1_plan, s),
            lambda s: verify_plan(example1_plan, bounds, samples_per_span=s),
            lambda s: verify_span_minima(example1_plan, bounds.omega_max, s),
        ):
            with pytest.raises(ValueError, match=message):
                call(count)
        assert verify_plan(example1_plan, bounds).min_margin < -0.4


class TestTrace:
    def make_trace(self, hover_plan, rate=50.0, duration=1.0):
        cfg = SimConfig(control_rate=rate, initial_position_offset=[0.08, 0.0, 0.0])
        ctrl = make_filtered_controller(PARAMS, PdGains(kp=40.0, kd=1.0))
        return simulate(plan_reference(hover_plan), ctrl, cfg, duration=duration)

    def test_error_arrays(self, hover_plan):
        trace = self.make_trace(hover_plan)
        assert_allclose(trace.position_err, trace.r - trace.ref_r)
        assert_allclose(trace.velocity_err, trace.r1 - trace.ref_r1)
        assert_allclose(trace.input_dev, trace.mu - trace.ref_r2)

    def test_certificate_matches_direct_call(self, hover_plan):
        trace = self.make_trace(hover_plan)
        rep = trace.certificate(PARAMS)
        assert rep.max_position_err == np.abs(trace.position_err).max()
        assert rep.min_barrier == trace.barriers.min()
        assert rep.input_bound == 3.2

    def test_csv_round_trip(self, hover_plan, tmp_path):
        trace = self.make_trace(hover_plan)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[:7] == ["t", "x", "y", "z", "vx", "vy", "vz"]
        assert header[-7:] == ["h_xu", "h_xl", "h_yu", "h_yl", "h_zu", "h_zl", "active_faces"]
        assert len(data) == trace.t.size
        ts = np.array([float(row[0]) for row in data])
        assert_allclose(ts, trace.t, atol=1e-10)
        hx = np.array([float(row[header.index("h_xu")]) for row in data])
        assert_allclose(hx, trace.barriers[:, 0], atol=1e-10)
        # the aggressive nominal gets clamped at least once
        assert any("x-" in row[-1] or "x+" in row[-1] for row in data)

    def test_closed_loop_stays_in_tube(self, hover_plan):
        trace = self.make_trace(hover_plan, rate=100.0, duration=2.0)
        rep = trace.certificate(PARAMS)
        assert rep.max_position_err <= PARAMS.delta + 0.01
        assert rep.min_barrier >= -0.01
        assert rep.max_input_dev <= PARAMS.input_deviation_bound + 1e-9


class TestVerifyPlan:
    def test_hover_is_clean(self, hover_plan, hover_scenario):
        sc = hover_scenario.planning
        report = verify_plan(
            hover_plan,
            sc.bounds,
            waypoints=sc.waypoints,
            pins=sc.pins,
            samples_per_span=200,
        )
        assert report.ok(1e-6)
        assert report.failing() == []
        assert report.min_margin >= -1e-6
        names = [c.name for c in report.checks]
        for expected in ("speed", "tilt", "thrust-upper", "thrust-lower", "body-rate"):
            assert expected in names
        assert "pin:start[r0]" in names and "pin:end[r4]" in names
        spans = len(list(hover_plan.curve.knots.nonempty_spans()))
        assert report.samples == spans * 200 + 1
        text = report.summary()
        assert "constraint" in text and "speed" in text

    def test_flags_violated_bound(self, hover_plan, hover_scenario):
        import dataclasses

        tight = dataclasses.replace(hover_scenario.planning.bounds, thrust_min=9.9)
        report = verify_plan(hover_plan, tight)
        bad = report.failing()
        assert [c.name for c in bad] == ["thrust-lower"]
        assert bad[0].margin == pytest.approx(9.81 - 9.9, abs=1e-6)
        assert not report.ok()

    def test_region_window_and_corridor_families(self, hover_plan, hover_scenario):
        import dataclasses

        sc = hover_scenario.planning
        ball = ConvexRegion.ball([0.0, 0.0, 0.5], 0.3, name="keep-in")
        bounds = dataclasses.replace(sc.bounds, regions=(ball,))
        window = IntervalConstraint(2.0, 6.0, "position", region=ball)
        slow = IntervalConstraint(1.0, 3.0, "speed", bound=0.2)
        corridor = tuple(
            ConvexRegion.ball([0.0, 0.0, 0.5], 0.4, name=f"cell{k}") for k in range(8)
        )
        report = verify_plan(
            hover_plan,
            bounds,
            intervals=(window, slow),
            corridor=corridor,
            samples_per_span=100,
        )
        names = [c.name for c in report.checks]
        assert "region:keep-in" in names
        assert "window[0]:position" in names and "window[1]:speed" in names
        assert "corridor[1]:cell0" in names and "corridor[8]:cell7" in names
        assert report.ok(1e-6)
        by_name = {c.name: c for c in report.checks}
        # hover never moves: the ball margins are the full radii
        assert by_name["region:keep-in"].margin == pytest.approx(0.3, abs=1e-8)
        assert by_name["window[1]:speed"].margin == pytest.approx(0.2, abs=1e-8)

    def test_corridor_matches_the_per_span_loop_bitwise(self):
        # Reference: one grid and one curve evaluation per corridor span, as
        # the verifier used to run.
        sc = load_scenario("example3_c2_s1_c3").planning
        pl = plan(sc)
        kv = pl.curve.knots
        want = []
        for l, region in enumerate(sc.corridor, start=1):
            span = l + kv.degree - 1
            seg = np.linspace(kv.tau[span], kv.tau[span + 1], 120)
            margins = region.margin(pl.curve.eval(seg, 0))
            i = int(np.argmin(margins))
            want.append((f"corridor[{l}]:{region.name or 'set'}", float(margins[i]), float(seg[i])))
        report = verify_plan(pl, sc.bounds, corridor=sc.corridor, samples_per_span=120)
        got = [(c.name, c.margin, c.worst_t) for c in report.checks if c.name.startswith("corridor")]
        assert got == want

    @pytest.mark.parametrize("name", [n for n in bundled_scenarios() if n.startswith("example3")])
    def test_equal_corridor_sets_share_one_margin_call(self, bundled_plan, monkeypatch, name):
        # The corridor's sets are built one by one from the file, so equal
        # sets are distinct objects; their equal cone tables still share one
        # margin call, on a (spans, samples, 3) block of all their rows.
        sc, pl = load_scenario(name).planning, bundled_plan(name)
        shapes = []
        margin = ConvexRegion.margin

        def counted(region, p):
            shapes.append(np.shape(p))
            return margin(region, p)

        monkeypatch.setattr(ConvexRegion, "margin", counted)
        verify_plan(pl, sc.bounds, corridor=sc.corridor, samples_per_span=50)
        shapes = [shape for shape in shapes if len(shape) == 3]  # the corridor's calls
        distinct = {
            tuple((c.A.tobytes(), c.b.tobytes(), c.c.tobytes(), c.d) for c in region.cones)
            for region in sc.corridor
        }
        assert len(shapes) == len(distinct) < len(sc.corridor)
        assert sum(shape[0] for shape in shapes) == len(sc.corridor)
        assert all(shape[1:] == (50, 3) for shape in shapes)

    def test_corridor_needs_one_set_per_span(self, bundled_plan):
        sc = load_scenario("example3_c2_s1_c3").planning
        pl = bundled_plan("example3_c2_s1_c3")
        assert len(sc.corridor) == len(pl.curve.knots.nonempty_spans()) == 9
        for sets in (sc.corridor[:3], sc.corridor * 2):
            with pytest.raises(ValueError, match=f"^corridor has {len(sets)} sets for 9 spans$"):
                verify_plan(pl, sc.bounds, corridor=sets)

    @pytest.mark.parametrize("kind", ["position", "speed"])
    def test_window_between_grid_samples_is_checked_at_its_ends(self, example1_plan, kind):
        # At 3 samples per span no grid sample falls inside [2.001, 2.002]:
        # the check rests on the window's two ends alone.
        pl = example1_plan
        ball = ConvexRegion.ball(pl.curve.eval(2.0), 0.5, name="near")
        ic = IntervalConstraint(2.001, 2.002, kind, region=ball, bound=0.5)
        report = verify_plan(pl, small_bounds_for(pl), intervals=(ic,), samples_per_span=3)
        assert report.samples == span_samples(pl, 3).size
        (check,) = [c for c in report.checks if c.name == f"window[0]:{kind}"]
        ends = np.array([2.001, 2.002])
        if kind == "position":
            margins = ball.margin(pl.curve.eval(ends, 0))
        else:
            margins = 0.5 - np.linalg.norm(pl.curve.eval(ends, 1), axis=1)
        assert check.margin == margins.min()
        assert check.worst_t == ends[np.argmin(margins)]

    @pytest.mark.parametrize("name", bundled_scenarios())
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_matches_the_per_point_oracle_bitwise(self, bundled_plan, name, jitter):
        # The solved plan, and the same plan with its control points moved so
        # that the point checks and the windows report nonzero errors.
        # A jittered z row turns some plans' thrust down (see
        # test_jitter_that_inverts_the_thrust_raises); x and y alone keep it
        # up and still move the windows and waypoints.
        args = jittered_verify_args(bundled_plan, name, jitter, name not in INVERTED_BY_JITTER)
        got, want = verify_plan(*args), verify_plan_per_point(*args)
        assert got.samples == want.samples
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("name", INVERTED_BY_JITTER)
    def test_jitter_that_inverts_the_thrust_raises(self, bundled_plan, name):
        # With its z row jittered too, the plan's acc_z + g drops to zero or
        # below somewhere: both verifiers refuse it rather than read the
        # folded small angles.
        args = jittered_verify_args(bundled_plan, name, 0.05)
        for check in (verify_plan, verify_plan_per_point):
            with pytest.raises(InvertedFlightError):
                check(*args)

    def test_speed_windows_and_reordered_times_match_the_oracle(self, example1_plan):
        # Windows of both kinds, out of time order and past the plan's ends,
        # and waypoints out of time order: one evaluation per family still
        # gives every point the bits of its own evaluation.
        pl = example1_plan
        kv = pl.curve.knots
        ball = ConvexRegion.ball(pl.curve.eval(2.0), 0.5, name="near")
        intervals = (
            IntervalConstraint(5.0, 7.5, "speed", bound=0.4),
            IntervalConstraint(kv.t0 - 1.0, 2.5, "position", region=ball),
            IntervalConstraint(2.001, 2.002, "speed", bound=0.5),
            IntervalConstraint(6.0, kv.tf + 1.0, "position", region=ball),
        )
        waypoints = tuple(
            Waypoint(pl.curve.eval(t) + 0.01, t, 0.02) for t in (7.0, 1.0, kv.tf, kv.t0, 3.3)
        )
        pins = EndpointPins(initial=(np.ones(3), np.zeros(3)), final=(np.zeros(3),) * 4)
        args = (pl, small_bounds_for(pl), waypoints, pins, intervals, None, 3)
        assert report_bits(verify_plan(*args)) == report_bits(verify_plan_per_point(*args))

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_point_checks_share_one_curve_evaluation(self, bundled_plan, monkeypatch, name):
        # The grid, every point check together and, given a corridor, the
        # corridor grid: one curve evaluation each.
        sc, pl = load_scenario(name).planning, bundled_plan(name)
        calls = []
        evaluate = SplineCurve.eval

        def counted(curve, t, r=0):
            calls.append(r)
            return evaluate(curve, t, r)

        monkeypatch.setattr(SplineCurve, "eval", counted)
        verify_plan(pl, sc.bounds, sc.waypoints, sc.pins, sc.intervals, sc.corridor)
        assert len(calls) == (2 if sc.corridor is None else 3)

    def test_waypoint_margin_is_radius_minus_error(self, hover_plan):
        wp = Waypoint(position=[0.0, 0.0, 0.45], time=5.0, radius=0.08)
        report = verify_plan(hover_plan, small_bounds_for(hover_plan), waypoints=(wp,))
        check = [c for c in report.checks if c.name == "waypoint[0]"][0]
        assert check.margin == pytest.approx(0.08 - 0.05, abs=1e-8)
        assert check.worst_t == 5.0


def jittered_verify_args(bundled_plan, name, jitter, move_z=True):
    """verify_plan's arguments for a bundled scenario and its plan, the plan's
    control points moved by jitter times seeded normal draws (x and y only
    unless move_z)."""
    sc = load_scenario(name).planning
    doc = bundled_plan(name).to_dict()
    ctrl = np.asarray(doc["control_points"])
    noise = np.random.default_rng(3).normal(size=ctrl.shape)
    noise[2] *= move_z
    doc["control_points"] = (ctrl + jitter * noise).tolist()
    pl = TrajectoryPlan.from_dict(doc)
    return (pl, sc.bounds, sc.waypoints, sc.pins, sc.intervals, sc.corridor, 300)


def report_bits(report):
    """Every check of a report with its floats as exact hex strings."""
    return [(c.name, c.margin.hex(), c.worst_t.hex(), c.detail) for c in report.checks]


def small_bounds_for(plan):
    from safeflight.planner import SafetyBounds

    return SafetyBounds(v_max=1.0, tilt_max=0.5, thrust_min=5.0, thrust_max=15.0, omega_max=1.0)


class TestVerifySpanMinima:
    def test_hover_floors_are_tight_and_clean(self, hover_plan):
        report = verify_span_minima(hover_plan, omega_max=np.pi, samples_per_span=100)
        assert report.ok(1e-6)
        names = [c.name for c in report.checks]
        spans = list(hover_plan.curve.knots.nonempty_spans())
        assert f"span[{spans[0]}]:thrust-floor" in names
        assert f"span[{spans[-1]}]:jerk-cone" in names
        assert len(report.checks) == 2 * len(spans)
        floors = [c for c in report.checks if "thrust-floor" in c.name]
        for c in floors:  # zeta == g == sampled thrust at hover
            assert abs(c.margin) <= 1e-6

    def test_samples_count_the_grid_each_verifier_evaluated(self, example1_plan, example1_scenario):
        # verify_plan samples every span left-closed plus the final knot;
        # verify_span_minima samples every span with both of its ends.
        pl, bounds = example1_plan, example1_scenario.planning.bounds
        spans = len(pl.curve.knots.nonempty_spans())
        assert verify_plan(pl, bounds).samples == spans * 300 + 1 == 10_801
        assert verify_span_minima(pl, bounds.omega_max).samples == spans * 300
        assert verify_span_minima(pl, bounds.omega_max, samples_per_span=7).samples == spans * 7

    def test_detects_inflated_floor(self, hover_plan):
        import dataclasses

        bad = dataclasses.replace(hover_plan, zeta=hover_plan.zeta + 0.5)
        report = verify_span_minima(bad, omega_max=np.pi)
        assert not report.ok(1e-6)
        assert all("thrust-floor" in c.name for c in report.failing())

    def test_matches_the_per_span_loop_bitwise(self, example1_plan, example1_scenario):
        # Reference: one evaluation per span, as the verifier used to run.
        pl, omega_max = example1_plan, example1_scenario.planning.bounds.omega_max
        kv = pl.curve.knots
        want = []
        for l in kv.nonempty_spans():
            z = pl.zeta_for_span(l)
            seg = np.linspace(kv.tau[l], kv.tau[l + 1], 300)
            acc, jerk = pl.curve.eval(seg, (2, 3))
            thrust = np.linalg.norm(acc + np.array([0.0, 0.0, pl.gravity]), axis=1)
            for margins in (thrust - z, omega_max * z - np.linalg.norm(jerk, axis=1)):
                i = int(np.argmin(margins))
                want.append((float(margins[i]), float(seg[i])))
        report = verify_span_minima(pl, omega_max)
        assert [(c.margin, c.worst_t) for c in report.checks] == want
