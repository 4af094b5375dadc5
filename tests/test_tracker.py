"""Tracking filter: admissible box, clamp vs QP, barriers, certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import (
    box_projection_qp,
    cbf_faces,
    face_bounds_direct,
    filter_input,
    nominal_mu_direct,
    safe_step_direct,
)

from safeflight.flatness import attitude_from_virtual
from safeflight.simverify import make_filtered_controller, make_unfiltered_controller
from safeflight.socp import OPTIMAL, ConeProgram
from safeflight.tracker import (
    CbfParams,
    PdGains,
    ReferencePoint,
    SafeCommand,
    SafetyFilter,
    TrackingState,
    barrier_values,
    certificates,
    check_initial_conditions,
)

PARAMS = CbfParams(delta=0.1, a1=6.0, a2=8.0)


def random_instance(rng):
    state = TrackingState(r=rng.uniform(-5, 5, 3), r1=rng.uniform(-5, 5, 3))
    ref = ReferencePoint(
        r=rng.uniform(-5, 5, 3), r1=rng.uniform(-5, 5, 3), r2=rng.uniform(-10, 10, 3)
    )
    mu_nom = ref.r2 + rng.uniform(-20, 20, 3)
    return state, ref, mu_nom


def conic_projection(mu_nom, lower, upper):
    """min ||mu - mu_nom|| over the box, via the interior-point solver.

    Only accurate to roughly sqrt(gap) in the argument, so this serves as a
    loose cross-check of the exact active-set oracle, not as the oracle.
    """
    prog = ConeProgram(4)  # mu, then the distance epigraph s
    # mu_a <= upper_a and -mu_a <= -lower_a, axis by axis.
    rows, axes = np.tile([[1.0], [-1.0]], (3, 1)), np.repeat(np.arange(3), 2)[:, None]
    prog.add_inequality(rows, axes, np.column_stack([upper, np.negative(lower)]).ravel())
    A = np.hstack([np.eye(3), np.zeros((3, 1))])
    mu_nom = np.asarray(mu_nom, dtype=float)
    prog.add_soc(A[None], -mu_nom[None], [[0.0, 0.0, 0.0, 1.0]], [0.0], [[0, 1, 2, 3]])
    prog.add_objective([3], [1.0])
    sol = prog.solve(tol=1e-9)
    assert sol.status == OPTIMAL
    return sol.x[:3]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CbfParams(delta=0.0, a1=6.0, a2=8.0)
        with pytest.raises(ValueError):
            CbfParams(delta=0.1, a1=-6.0, a2=8.0)
        with pytest.raises(ValueError):
            CbfParams(delta=0.1, a1=6.0, a2=0.0)
        with pytest.raises(ValueError):
            CbfParams(delta=0.1, a1=2.0, a2=8.0)  # complex poles

    @pytest.mark.parametrize("a1", [1.0e300, 1.4e154])
    def test_a1_whose_square_overflows(self, a1):
        # a1 ** 2 on a Python float raises OverflowError; the check names a1.
        with pytest.raises(ValueError, match=r"^a1\^2 must be finite, got a1 = "):
            CbfParams(delta=0.1, a1=a1, a2=8.0)
        big = CbfParams(delta=0.1, a1=1.3e154, a2=8.0)
        assert np.isfinite([big.lambda_fast, big.lambda_slow]).all()

    def test_error_poles(self):
        assert_allclose(PARAMS.lambda_fast, 4.0)
        assert_allclose(PARAMS.lambda_slow, 2.0)
        assert_allclose(PARAMS.lambda_fast + PARAMS.lambda_slow, PARAMS.a1)
        assert_allclose(PARAMS.lambda_fast * PARAMS.lambda_slow, PARAMS.a2)

    def test_derived_bounds(self):
        assert_allclose(PARAMS.velocity_bound, 2 * 0.1 * 8.0 / 6.0)
        assert_allclose(PARAMS.input_deviation_bound, 3.2)


class TestAdmissibleBox:
    def test_width_is_structural(self, rng):
        # upper - lower == 2 a2 delta no matter the state: feasibility of the
        # filter never depends on where the vehicle is.
        m = 100_000
        state = TrackingState(rng.uniform(-10, 10, (m, 3)), rng.uniform(-10, 10, (m, 3)))
        ref = ReferencePoint(
            rng.uniform(-10, 10, (m, 3)), rng.uniform(-10, 10, (m, 3)), rng.uniform(-20, 20, (m, 3))
        )
        _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
        width = upper - lower
        assert np.max(np.abs(width - 1.6)) <= 1e-12
        assert np.all(upper >= lower)

    def test_center_is_error_feedback(self, rng):
        state, ref, _ = random_instance(rng)
        _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
        e = state.r - ref.r
        e1 = state.r1 - ref.r1
        assert_allclose((lower + upper) / 2, ref.r2 - 6.0 * e1 - 8.0 * e)

    def test_faces_order_and_bounds(self, rng):
        state, ref, _ = random_instance(rng)
        faces = cbf_faces(state, ref, PARAMS)
        _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
        assert [f.axis for f in faces] == [0, 0, 1, 1, 2, 2]
        assert [f.side for f in faces] == [+1, -1, +1, -1, +1, -1]
        for f in faces:
            expect = upper[f.axis] if f.side > 0 else lower[f.axis]
            assert f.bound == expect


class TestClamp:
    def test_matches_qp_oracle(self, rng):
        for _ in range(200):
            state, ref, mu_nom = random_instance(rng)
            mu = SafetyFilter(PARAMS)(state, ref, mu_nom).mu
            _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
            mu_qp = box_projection_qp(mu_nom, lower, upper)
            assert np.max(np.abs(mu - mu_qp)) <= 1e-9

    def test_oracle_agrees_with_conic_solver(self, rng):
        # Validates the active-set oracle itself against an unrelated
        # solver, at the accuracy the interior-point method can deliver.
        for _ in range(20):
            state, ref, mu_nom = random_instance(rng)
            _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
            mu_as = box_projection_qp(mu_nom, lower, upper)
            mu_ip = conic_projection(mu_nom, lower, upper)
            assert np.max(np.abs(mu_as - mu_ip)) <= 1e-3

    def test_interior_input_passes_through(self, rng):
        state, ref, _ = random_instance(rng)
        _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
        mu_nom = (lower + upper) / 2
        assert_allclose(SafetyFilter(PARAMS)(state, ref, mu_nom).mu, mu_nom, atol=0)

    def test_output_always_admissible(self, rng):
        for _ in range(100):
            state, ref, mu_nom = random_instance(rng)
            mu = SafetyFilter(PARAMS)(state, ref, mu_nom).mu
            _, lower, upper = SafetyFilter(PARAMS).inputs(state, ref)
            assert np.all(mu >= lower - 1e-12)
            assert np.all(mu <= upper + 1e-12)

    def test_deviation_from_reference_is_bounded(self, rng):
        # The filtered input never strays more than 4 delta a2 per axis from
        # the reference acceleration while the state is inside the tube.
        for _ in range(200):
            ref = ReferencePoint(
                r=rng.uniform(-5, 5, 3), r1=rng.uniform(-2, 2, 3), r2=rng.uniform(-10, 10, 3)
            )
            state = TrackingState(
                r=ref.r + rng.uniform(-0.1, 0.1, 3),
                r1=ref.r1 + rng.uniform(-PARAMS.velocity_bound, PARAMS.velocity_bound, 3),
            )
            mu = SafetyFilter(PARAMS)(state, ref, rng.uniform(-50, 50, 3)).mu
            assert np.abs(mu - ref.r2).max() <= PARAMS.input_deviation_bound + 1e-12


class TestSafeStep:
    def test_active_faces_flag_the_clamped_axes(self):
        ref = ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))
        state = TrackingState(r=np.zeros(3), r1=np.zeros(3))
        cmd = SafetyFilter(PARAMS)(state, ref, np.array([50.0, -50.0, 0.0]))
        assert cmd.active.tolist() == [True, False, False, True, False, False]
        assert_allclose(cmd.mu, [0.8, -0.8, 0.0])  # a2 * delta on each side
        assert_allclose(cmd.mu_nominal, [50.0, -50.0, 0.0])

    def test_converts_to_reduced_input(self, rng):
        state, ref, mu_nom = random_instance(rng)
        state = TrackingState(r=ref.r + 0.05, r1=ref.r1)
        ref = ReferencePoint(r=ref.r, r1=ref.r1, r2=np.array([1.0, 0.0, 2.0]))
        cmd = SafetyFilter(PARAMS, psi=0.3)(state, ref, mu_nom)
        want = attitude_from_virtual(cmd.mu, 0.3)
        assert cmd.v.thrust == want.thrust
        assert cmd.v.phi == want.phi
        assert cmd.v.theta == want.theta
        assert cmd.v.psi == 0.3

    def test_matches_the_face_path_bitwise(self, rng):
        # The filter reads the clamp, the active flags and the barriers off
        # its box arrays; the per-face path must agree exactly, also
        # when the nominal input sits on a face or just inside its 1e-9
        # activity tolerance.
        for k in range(200):
            ref = ReferencePoint(
                r=rng.uniform(-5, 5, 3), r1=rng.uniform(-2, 2, 3), r2=rng.uniform(-2, 2, 3)
            )
            state = TrackingState(
                r=ref.r + rng.uniform(-0.2, 0.2, 3), r1=ref.r1 + rng.uniform(-0.5, 0.5, 3)
            )
            faces = cbf_faces(state, ref, PARAMS)
            mu_nom = ref.r2 + rng.uniform(-2, 2, 3)
            on = int(rng.integers(6))
            if k % 2:
                inset = 5e-10 if k % 4 == 3 else 0.0
                mu_nom[faces[on].axis] = faces[on].bound - faces[on].side * inset
            cmd = SafetyFilter(PARAMS)(state, ref, mu_nom)
            mu = filter_input(mu_nom, faces)
            assert_array_equal(cmd.mu, mu)
            active = [abs(float(mu[f.axis]) - float(f.bound)) <= 1e-9 for f in faces]
            assert cmd.active.tolist() == active
            assert cmd.active[on] or not k % 2
            e = state.r - ref.r
            assert_array_equal(cmd.barriers, [PARAMS.delta - f.side * e[f.axis] for f in faces])
            assert_array_equal(cmd.barriers, barrier_values(state, ref, PARAMS))

    def test_reports_barriers(self):
        ref = ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))
        state = TrackingState(r=np.array([0.04, -0.02, 0.0]), r1=np.zeros(3))
        cmd = SafetyFilter(PARAMS)(state, ref, np.zeros(3))
        assert_allclose(cmd.barriers, [0.06, 0.14, 0.12, 0.08, 0.1, 0.1])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestDirectForm:
    # The filter forms dr = ref.r - r and dv = ref.r1 - r1 once, in Python
    # floats on a tick and as arrays on a call; the direct form, with
    # the box centre ref_r2 - a1 (r1 - ref_r1) - a2 (r - ref_r), must give
    # the same bits, signs of zero included. Some rows have zero errors and a
    # -0.0 reference acceleration, where only the centre's zero sign differs.
    @pytest.mark.parametrize("shape", [(3,), (500, 3)])
    def test_matches_bitwise(self, rng, shape):
        for k in range(40):
            a2 = rng.uniform(0.5, 20.0)
            a1 = rng.uniform(2.0, 3.0) * a2**0.5  # real error poles: a1^2 >= 4 a2
            params = CbfParams(delta=rng.uniform(0.01, 0.5), a1=a1, a2=a2)
            gains = PdGains(kp=rng.uniform(0.0, 50.0), kd=rng.uniform(0.0, 20.0))
            ref = ReferencePoint(*rng.uniform(-5.0, 5.0, (3,) + shape))
            r = ref.r + rng.uniform(-0.2, 0.2, shape)
            r1 = ref.r1 + rng.uniform(-1.0, 1.0, shape)
            still = rng.uniform(size=shape) < 0.3
            r[still], r1[still], ref.r2[still] = ref.r[still], ref.r1[still], -0.0
            state = TrackingState(r, r1)

            args = (state.r, state.r1, ref.r, ref.r1, ref.r2, params)
            safety = SafetyFilter(params, gains, psi=0.2)
            mu_nom, *box = safety.inputs(state, ref)
            for got, want in zip(box, face_bounds_direct(*args)):
                assert_same_bits(got, want)
            assert_same_bits(mu_nom, nominal_mu_direct(state, ref, gains))
            if k % 2:  # some nominal inputs exactly on a face
                lower, upper = face_bounds_direct(*args)
                on = rng.uniform(size=shape) < 0.3
                mu_nom = np.where(on, np.where(rng.uniform(size=shape) < 0.5, lower, upper), mu_nom)
            got = safety(state, ref, mu_nom)
            want = safe_step_direct(state, ref, mu_nom, params, psi=0.2)
            for name in ("mu_nominal", "mu", "lower", "upper", "active", "barriers"):
                assert_same_bits(getattr(got, name), getattr(want, name))


def tick_rows(rng, K, params):
    """K >= 40 rows of (r, r1, ref_r, ref_r1, ref_r2, mu_nominal), each field (K, 3).

    The states lie near the reference. The first 40 rows are built to reach
    the clamp's edge cases: signed zeros everywhere, bounds of exactly 0.0
    with a nominal of -0.0 or 0.0 on them, nominals exactly on a face, and
    NaN or infinities in the state, the reference and the nominal; the rest
    are left as drawn. Every filtered command stays on the invertible
    branch, so that cmd.v reads.
    """
    p, p1, p2 = rng.uniform(-2.0, 2.0, (3, K, 3))
    r = p + rng.uniform(-0.1, 0.1, (K, 3))
    r1 = p1 + rng.uniform(-0.2, 0.2, (K, 3))
    nominal = p2 + rng.uniform(-3.0, 3.0, (K, 3))
    half = params.a2 * params.delta
    # Signed zeros: ref_r - r = -0.0 and a PD nominal of -0.0.
    r[0:4], r1[0:4], p[0:4], p1[0:4], p2[0:4] = 0.0, 0.0, -0.0, -0.0, -0.0
    nominal[0:4] = [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0] * 3, [0.0] * 3]
    # On the reference with r2 = +-a2 delta, one bound of each axis is 0.0.
    r[4:8], r1[4:8] = p[4:8], p1[4:8]
    p2[4:8] = [[half, -half, half], [-half, half, -half], [half] * 3, [-half] * 3]
    nominal[4:8] = [[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [0.0] * 3, [-0.0] * 3]
    # Nominals exactly on a face, lower or upper per entry.
    lower, upper = face_bounds_direct(r[8:16], r1[8:16], p[8:16], p1[8:16], p2[8:16], params)
    nominal[8:16] = np.where(rng.uniform(size=(8, 3)) < 0.5, lower, upper)
    # Non-finite entries; infinities only in x and y, where no row inverts.
    nan, inf = np.nan, np.inf
    for k, (field, axis, value) in enumerate(
        (f, a, v)
        for f in (r, r1, p, p1, p2, nominal)
        for a, v in ((0, nan), (2, nan), (0, inf), (1, -inf))
    ):
        field[16 + k, axis] = value
    return r, r1, p, p1, p2, nominal


def command_bytes(cmd: SafeCommand, k: int | None = None) -> dict:
    """Every output of a command as bytes: of row k of a batch, or of a whole (3,) command."""
    v = cmd.v
    out = dict(mu_nominal=cmd.mu_nominal, mu=cmd.mu, lower=cmd.lower, upper=cmd.upper)
    if k is None:
        for name, x in out.items():
            assert x is None or (type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (3,))
    out.update(barriers=cmd.barriers, active=cmd.active, thrust=v.thrust, phi=v.phi, theta=v.theta)
    if k is not None:
        out = {name: None if x is None else x[k] for name, x in out.items()}
    return {name: None if x is None else np.asarray(x).tobytes() for name, x in out.items()}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in active
class TestSingleTickPath:
    # SafetyFilter.tick runs one tick in Python floats; a call and inputs()
    # run array code. Each row of a (K, 3) batch must give the bits of the
    # tick on that row, NaN payloads and signs of zero included.
    K = 60

    @pytest.fixture(params=range(6))
    def setting(self, request):
        rng = np.random.default_rng([91, request.param])
        a2 = rng.uniform(0.5, 10.0)
        a1 = rng.uniform(2.0, 3.0) * a2**0.5  # real error poles: a1^2 >= 4 a2
        params = CbfParams(delta=rng.uniform(0.01, 0.2), a1=a1, a2=a2)
        gains = PdGains(kp=rng.uniform(0.0, 50.0), kd=rng.uniform(0.0, 20.0))
        return params, gains, rng.uniform(-1.0, 1.0), tick_rows(rng, self.K, params)

    @staticmethod
    def split(rows, k=None):
        r, r1, p, p1, p2, nominal = rows if k is None else (f[k] for f in rows)
        return TrackingState(r, r1), ReferencePoint(p, p1, p2), nominal

    @staticmethod
    def triples(rows, k):
        """Row k as a tick takes it: (r, r1) and (r, r1, r2), each three floats."""
        r, r1, p, p1, p2 = (tuple(f[k].tolist()) for f in rows[:5])
        return (r, r1), (p, p1, p2)

    @staticmethod
    def tick_bytes(mu) -> bytes:
        assert type(mu) is tuple and len(mu) == 3 and all(type(x) is float for x in mu)
        return np.array(mu).tobytes()

    @pytest.mark.parametrize("clamp", [True, False], ids=["clamped", "nominal"])
    def test_tick_matches_the_call(self, setting, clamp):
        # A clamped tick is the call's mu, an unclamped one inputs()' mu_nominal.
        params, gains, psi, rows = setting
        safety = SafetyFilter(params, gains, psi)
        state, ref, _ = self.split(rows)
        batch = safety(state, ref).mu if clamp else safety.inputs(state, ref)[0]
        for k in range(self.K):
            got = safety.tick(*self.triples(rows, k), clamp=clamp)
            assert self.tick_bytes(got) == batch[k].tobytes(), k

    @pytest.mark.parametrize("kd", [0.0, 3.0])
    def test_tick_edge_cases(self, kd):
        # With kp = 0 the PD nominal can be -0.0 on an upper bound of 0.0,
        # where the clamp gives the bound's 0.0, and 0 * inf makes a NaN
        # nominal in an infinite box, which the clamp keeps. Each row puts
        # its case on all three axes.
        params = CbfParams(delta=0.1, a1=6.0, a2=8.0)
        safety = SafetyFilter(params, PdGains(kp=0.0, kd=kd))
        inf, nan = np.inf, np.nan
        cases = [  # r, r1, ref_r, ref_r1, ref_r2
            (params.delta, 0.0, 0.0, -0.0, -0.0),  # dr = -delta, dv = -0.0
            (inf, 0.0, 0.0, 0.0, 0.0),
            (-inf, 0.0, 0.0, 0.0, 0.0),
            (0.0, inf, 0.0, 0.0, 0.0),
            (0.0, 0.0, nan, 0.0, 0.0),
        ]
        rows = [np.array([[v] * 3 for v in field]) for field in zip(*cases)]
        state, ref = TrackingState(*rows[:2]), ReferencePoint(*rows[2:])
        with np.errstate(invalid="ignore"):
            nominal, _, upper = safety.inputs(state, ref)
            batch = safety(state, ref).mu
        assert np.signbit(nominal[0]).all() and (upper[0] == 0.0).all()
        assert not np.signbit(batch[0]).any() and np.isnan(batch[[1, 2, 4]]).all()
        for k in range(len(cases)):
            got = safety.tick(*self.triples(rows, k))
            assert self.tick_bytes(got) == batch[k].tobytes(), k

    @pytest.mark.parametrize("maker", [make_filtered_controller, make_unfiltered_controller])
    def test_controllers(self, setting, maker):
        # A float t is one tick and gives mu as three floats; an array t runs
        # the array form, and a (3,) row gives every field of the batch row.
        params, gains, psi, rows = setting
        controller = maker(params, gains, psi)
        state, ref, _ = self.split(rows)
        batch = controller(np.zeros(self.K), state, ref)
        for k in range(self.K):
            mu = controller(0.1, *self.triples(rows, k))
            assert self.tick_bytes(mu) == batch.mu[k].tobytes(), k
            state, ref, _ = self.split(rows, k)
            assert command_bytes(controller(np.array(0.1), state, ref)) == command_bytes(batch, k), k

    def test_safe_step_with_a_given_nominal(self, setting):
        params, _, psi, rows = setting
        safety = SafetyFilter(params, psi=psi)
        batch = safety(*self.split(rows))
        for k in range(self.K):
            got = safety(*self.split(rows, k))
            assert command_bytes(got) == command_bytes(batch, k), k

    def test_face_bounds_and_nominal_mu(self, setting):
        params, gains, _, rows = setting
        safety = SafetyFilter(params, gains)
        batch = safety.inputs(*self.split(rows)[:2])
        for k in range(self.K):
            for a, b in zip(safety.inputs(*self.split(rows, k)[:2]), batch):
                assert_same_bits(a, b[k])


class TestBarriers:
    def test_ordering_and_pairs(self, rng):
        ref = ReferencePoint(r=rng.uniform(-5, 5, 3), r1=np.zeros(3), r2=np.zeros(3))
        state = TrackingState(r=ref.r + rng.uniform(-0.2, 0.2, 3), r1=np.zeros(3))
        h = barrier_values(state, ref, PARAMS)
        e = state.r - ref.r
        for axis in range(3):
            assert_allclose(h[2 * axis], PARAMS.delta - e[axis])
            assert_allclose(h[2 * axis + 1], PARAMS.delta + e[axis])
            assert_allclose(h[2 * axis] + h[2 * axis + 1], 2 * PARAMS.delta)

    def test_nonnegative_inside_tube(self, rng):
        ref = ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))
        state = TrackingState(r=rng.uniform(-0.1, 0.1, 3), r1=np.zeros(3))
        assert np.all(barrier_values(state, ref, PARAMS) >= 0)

    def test_tube_invariant_under_adversarial_nominal(self):
        # Worst case in closed loop: a nominal that always slams into the
        # box. Integrating the double integrator at 10 kHz, the position
        # error never leaves the tube once started inside it.
        ref = ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))
        r = np.array([0.08, -0.05, 0.0])
        r1 = np.array([0.05, -0.1, 0.02])
        assert check_initial_conditions(TrackingState(r, r1), ref, PARAMS).ok
        dt = 1e-4
        worst = 0.0
        safety = SafetyFilter(PARAMS)
        for k in range(20_000):
            mu = safety(TrackingState(r, r1), ref, np.array([50.0, -50.0, 30.0])).mu
            r = r + r1 * dt + 0.5 * mu * dt * dt
            r1 = r1 + mu * dt
            worst = max(worst, float(np.abs(r).max()))
        assert worst <= PARAMS.delta + 1e-6


class TestNominal:
    def test_pd_law(self, rng):
        gains = PdGains(kp=2.0, kd=3.0)
        state, ref, _ = random_instance(rng)
        mu = SafetyFilter(PARAMS, gains).inputs(state, ref)[0]
        assert_allclose(mu, ref.r2 + 2.0 * (ref.r - state.r) + 3.0 * (ref.r1 - state.r1))

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PdGains(kp=-1.0, kd=0.0)

    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["tick", "batch"])
    def test_gainless_filter_needs_a_nominal(self, shape):
        # inputs() still gives the box without a nominal; a command needs one.
        zeros = np.zeros(shape)
        state, ref = TrackingState(zeros, zeros), ReferencePoint(zeros, zeros, zeros)
        safety = SafetyFilter(CbfParams(0.1, 4.0, 2.0))
        assert safety.inputs(state, ref)[0] is None
        with pytest.raises(ValueError, match="^a SafetyFilter without gains needs mu_nominal$"):
            safety(state, ref)

    def test_gainless_filter_has_no_tick(self):
        zero = (0.0, 0.0, 0.0)
        safety = SafetyFilter(CbfParams(0.1, 4.0, 2.0))
        for clamp in (True, False):
            with pytest.raises(ValueError, match="^a SafetyFilter without gains has no PD law to tick$"):
                safety.tick((zero, zero), (zero, zero, zero), clamp)


class TestInitialConditions:
    REF = ReferencePoint(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3))

    def test_zero_error_passes_everything(self):
        rep = check_initial_conditions(TrackingState(np.zeros(3), np.zeros(3)), self.REF, PARAMS)
        assert rep.ok and rep.tube_ok and rep.slope_ok and rep.velocity_ok
        assert isinstance(rep.ok, bool)

    def test_fast_pole_alone_can_admit(self):
        # e = 0.1, de = -0.45: the slow-pole mix |de + 2 e| = 0.25 exceeds
        # its cap 0.2, but the fast-pole mix |de + 4 e| = 0.05 <= 0.4 admits
        # the state (either pole suffices for the tube).
        state = TrackingState(np.array([0.1, 0.0, 0.0]), np.array([-0.45, 0.0, 0.0]))
        rep = check_initial_conditions(state, self.REF, PARAMS)
        assert_allclose(rep.slope_fast, 0.05)
        assert_allclose(rep.slope_slow, 0.25)
        assert rep.slope_ok and rep.ok
        assert not rep.velocity_ok  # 0.45 > 2 delta a2 / a1

    def test_outside_tube_fails(self):
        state = TrackingState(np.array([0.12, 0.0, 0.0]), np.zeros(3))
        rep = check_initial_conditions(state, self.REF, PARAMS)
        assert not rep.tube_ok and not rep.ok

    def test_both_slopes_failing_fails(self):
        state = TrackingState(np.array([0.1, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))
        rep = check_initial_conditions(state, self.REF, PARAMS)
        assert rep.tube_ok
        assert not rep.slope_ok and not rep.ok


class TestCertificates:
    def test_summary_and_bounds(self):
        pos = np.array([[0.05, -0.02, 0.0], [0.08, 0.0, 0.01]])
        vel = np.array([[0.1, 0.0, 0.0], [-0.2, 0.05, 0.0]])
        dev = np.array([[1.0, -3.0, 0.5], [0.0, 2.0, 0.0]])
        h = np.array([[0.02, 0.18, 0.1, 0.1, 0.1, 0.1]])
        rep = certificates(pos, vel, dev, h, PARAMS)
        assert_allclose(rep.max_position_err, 0.08)
        assert_allclose(rep.max_velocity_err, 0.2)
        assert_allclose(rep.max_input_dev, 3.0)
        assert_allclose(rep.min_barrier, 0.02)
        assert rep.ok(velocity_slack=0.01)
        assert isinstance(rep.ok(), bool)

    def test_ok_flags_violations(self):
        pos = np.array([[0.15, 0.0, 0.0]])
        vel = np.zeros((1, 3))
        dev = np.zeros((1, 3))
        h = np.array([[-0.05, 0.25, 0.1, 0.1, 0.1, 0.1]])
        rep = certificates(pos, vel, dev, h, PARAMS)
        assert not rep.ok()
        assert rep.ok(position_slack=0.06)

    def test_to_dict_is_json_plain(self):
        rep = certificates(
            np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 6)), PARAMS
        )
        doc = rep.to_dict()
        assert all(type(v) is float for v in doc.values())
        assert doc["position_bound"] == 0.1
        assert doc["input_bound"] == 3.2
