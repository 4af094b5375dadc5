"""B-spline layer: knots, basis, derivative control points, hulls, snap Gram."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import BSpline
from scipy.optimize import nnls

from oracles import cox_de_boor_matrix, dense_derivative_matrix, dense_snap_gram
from safeflight.cli import bundled_scenarios, load_scenario
from safeflight.splines import (
    MAX_CONTROL_POINTS,
    MAX_DEGREE,
    MIN_DEGREE,
    KnotVector,
    SplineCurve,
    _build_snap_gram,
    clamped_uniform_knots,
    derivative_control_points,
    max_span_width,
    min_span_width,
    plan_knots,
    snap_gram,
)


def random_curve(rng, n, degree=5, t0=0.0, tf=10.0, dim=3):
    kv = clamped_uniform_knots(t0, tf, n, degree)
    ctrl = rng.uniform(-1.0, 1.0, size=(dim, n + 1))
    return SplineCurve(kv, ctrl)


def dense_basis(kv, ts):
    """basis_values scattered into one column per degree-d basis function."""
    l, vals = kv.basis_values(ts)
    B = np.zeros((l.size, kv.n + 1))
    B[np.arange(l.size)[:, None], l[:, None] + np.arange(-kv.degree, 1)] = vals
    return B


class TestKnotConstruction:
    def test_minimal_degree_one(self):
        kv = clamped_uniform_knots(0.0, 1.0, 1, 1)
        assert_allclose(kv.tau, [0.0, 0.0, 1.0, 1.0])
        assert kv.tau.size == 4
        assert kv.n == 1

    def test_counts_and_clamping(self):
        kv = clamped_uniform_knots(2.0, 5.0, 8, 3)
        assert kv.tau.size == 8 + 3 + 2
        assert_allclose(kv.tau[:4], 2.0)
        assert_allclose(kv.tau[-4:], 5.0)
        interior = kv.tau[3:-3]
        assert_allclose(np.diff(interior), interior[1] - interior[0])

    def test_example2_grid(self):
        # n=45, d=5 over [0, 9]: span width 9/41, and [3, 6) sits inside
        # the half-open knot range [tau_18, tau_33).
        kv = clamped_uniform_knots(0.0, 9.0, 45, 5)
        assert_allclose(kv.tau[18], 2.8536585365853657)
        assert_allclose(kv.tau[33], 6.146341463414634)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            clamped_uniform_knots(0.0, 0.0, 5, 2)
        with pytest.raises(ValueError):
            clamped_uniform_knots(0.0, 1.0, 1, 2)
        with pytest.raises(ValueError, match="scalar"):
            clamped_uniform_knots([0.0], 1.0, 5, 2)

    def test_a_knot_vector_is_its_four_numbers(self):
        kv, shared = KnotVector(0.0, 1.0, 6, 5), clamped_uniform_knots(0.0, 1.0, 6, 5)
        assert kv == shared and hash(kv) == hash(shared)
        assert kv != KnotVector(0.0, 1.0, 7, 5)
        assert_array_equal(kv.tau, shared.tau, strict=True)
        assert not kv.tau.flags.writeable
        with pytest.raises(AttributeError):
            kv.tau = np.zeros(13)

    # Each rejected by clamped_uniform_knots, and so by a direct construction.
    BAD_KNOTS = [
        (0.0, 1.0, 4, 5),  # n < degree
        (1.0, 1.0, 6, 5),
        (2.0, 1.0, 6, 5),
        (np.nan, 1.0, 6, 5),
        (0.0, np.nan, 6, 5),
        (0.0, np.inf, 6, 5),
        (-np.inf, 1.0, 6, 5),
        ([0.0], 1.0, 6, 5),
        (0.0, np.array([1.0, 2.0]), 6, 5),
        (0.0, 1.0, 6, 0),  # degree 0
    ]

    @pytest.mark.parametrize("args", BAD_KNOTS)
    def test_direct_construction_checks_like_the_factory(self, args):
        for build in (clamped_uniform_knots, KnotVector):
            with pytest.raises(ValueError):
                build(*args)

    @pytest.mark.parametrize("degree", [MIN_DEGREE, MAX_DEGREE])
    def test_plan_knots_admits_the_edges_of_its_rule(self, degree):
        # One span of either limit width at n = degree, and the most control points.
        for width in (min_span_width(degree), max_span_width(degree)):
            assert plan_knots(0.0, width, degree, degree) is clamped_uniform_knots(
                0.0, width, degree, degree
            )
        kv = plan_knots(0.0, 1.0 * (MAX_CONTROL_POINTS - degree), MAX_CONTROL_POINTS - 1, degree)
        assert kv.n + 1 == MAX_CONTROL_POINTS

    def test_signed_zero_start_is_one_vector(self):
        # -0.0 == 0.0 share a cache key, so both build the +0.0 vector.
        kv = clamped_uniform_knots(-0.0, 3.0, 7, 3)
        assert kv is clamped_uniform_knots(0.0, 3.0, 7, 3)
        assert not np.signbit(kv.tau).any()

    def test_span_index_batched(self):
        kv = clamped_uniform_knots(0.0, 4.0, 8, 2)
        ts = np.concatenate([kv.tau, np.linspace(0.0, 4.0, 33)])
        assert_array_equal(kv.span_index(ts), [kv.span_index(float(t)) for t in ts])
        with pytest.raises(ValueError):
            kv.span_index(np.array([1.0, 4.0001]))

    def test_nan_times_rejected(self):
        # NaN fails every comparison, so the range check must be written to
        # fail for it; scalar, sorted and unsorted batches alike.
        kv = clamped_uniform_knots(0.0, 4.0, 8, 5)
        curve = SplineCurve(kv, np.ones((3, 9)))
        for ts in (np.nan, np.array([0.5, 1.0, np.nan]), np.array([2.0, np.nan, 1.0])):
            with pytest.raises(ValueError, match="outside"):
                kv.span_index(ts)
            with pytest.raises(ValueError, match="outside"):
                kv.basis_values(ts)
            with pytest.raises(ValueError, match="outside"):
                curve.eval(ts)
            with pytest.raises(ValueError, match="outside"):
                curve.eval(ts, (0, 1, 2))

    def test_span_index_half_open_and_final(self):
        kv = clamped_uniform_knots(0.0, 4.0, 7, 2)
        assert kv.span_index(0.0) == 2
        assert kv.span_index(4.0) == kv.n
        mid = kv.tau[4]
        assert kv.span_index(mid) == 4
        with pytest.raises(ValueError):
            kv.span_index(4.0001)


class TestBasis:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_partition_of_unity(self, rng, degree):
        kv = clamped_uniform_knots(0.0, 3.0, 9, degree)
        ts = rng.uniform(0.0, 3.0, size=200)
        lam = dense_basis(kv, ts)
        assert lam.shape == (200, kv.n + 1)
        assert np.all(lam >= 0.0)
        assert_allclose(lam.sum(axis=1), 1.0, atol=1e-12)

    def test_endpoint_rows_are_unit_vectors(self):
        # On a degree-5 clamped grid, the degree-k basis active at t0 is
        # index 5-k and the one active at tf is index n; columns past n
        # are supported entirely inside the clamped tail and stay zero.
        for degree in (1, 3, 5):
            kv = clamped_uniform_knots(0.0, 2.0, 8, 5)
            m = kv.tau.size - 1 - degree
            lam = cox_de_boor_matrix(kv.tau, degree, np.array([0.0, 2.0]))
            assert lam.shape == (2, m)
            start = np.zeros(m)
            start[5 - degree] = 1.0
            end = np.zeros(m)
            end[kv.n] = 1.0
            assert_allclose(lam[0], start, atol=1e-14)
            assert_allclose(lam[1], end, atol=1e-14)

    def test_local_support(self, rng):
        degree, n = 3, 10
        kv = clamped_uniform_knots(0.0, 5.0, n, degree)
        ts = rng.uniform(0.0, 5.0, size=300)
        lam = dense_basis(kv, ts)
        for i, t in enumerate(ts):
            l = kv.span_index(t)
            outside = np.ones(n + 1, dtype=bool)
            outside[l - degree : l + 1] = False
            assert np.all(lam[i, outside] == 0.0)

    @pytest.mark.parametrize("t0", [0.0, 1000.0])
    @pytest.mark.parametrize(
        "n, degree",
        dict.fromkeys(
            [(12, 5), (45, 5), (9, 3), (4, 1)]
            + [(n, d) for d in range(4, 10) for n in (d, d + 7, 40)]
        ),
    )
    def test_matches_dense_recursion_bit_for_bit(self, rng, n, degree, t0):
        kv = clamped_uniform_knots(t0, t0 + 9.0, n, degree)
        ts = np.concatenate([rng.uniform(t0, t0 + 9.0, 300), kv.tau])
        assert_array_equal(dense_basis(kv, ts), cox_de_boor_matrix(kv.tau, degree, ts))

    @pytest.mark.parametrize("t0", [0.0, 1000.0])
    @pytest.mark.parametrize("degree", range(4, 10))
    @pytest.mark.parametrize("extra", [0, 7, None], ids=["n=d", "n=d+7", "n=40"])
    def test_span_polynomials_match_values(self, rng, t0, degree, extra):
        # Both come from one triangle: anchored at the span midpoints with
        # d + 1 powers, Horner at s = t - mid gives the values that the run
        # anchored at t itself returns.
        n = 40 if extra is None else degree + extra
        kv = clamped_uniform_knots(t0, t0 + 9.0, n, degree)
        ts = np.concatenate([rng.uniform(kv.t0, kv.tf, 300), kv.tau])
        l, want = kv.basis_values(ts)
        i = l - degree
        coef = kv._span_power_basis[i]
        s = ts - kv._span_midpoints[i]
        got = coef[..., -1]
        for k in range(degree - 1, -1, -1):
            got = got * s[:, None] + coef[..., k]
        assert_allclose(got, want, rtol=0, atol=1e-14)


class TestAgainstScipy:
    """Local evaluation against scipy's BSpline on a degree-5 clamped grid."""

    def times(self, rng, kv):
        # Random times, every knot (interior ones are right-continuous), and
        # the two ends; tf is a left limit in both implementations.
        return np.concatenate([rng.uniform(kv.t0, kv.tf, 400), kv.tau, [kv.t0, kv.tf]])

    @pytest.mark.parametrize("degree", range(6))
    def test_dense_basis_oracle(self, rng, degree):
        # The degree-k functions over a degree-5 clamped vector are scipy's
        # clamped degree-k basis on the same breakpoints, padded by 5 - k
        # functions at each end that live on the repeated end knots.
        kv = clamped_uniform_knots(0.0, 7.0, 13, 5)
        ts = self.times(rng, kv)
        pad = 5 - degree
        inner = kv.tau[pad : kv.tau.size - pad]
        want = BSpline(inner, np.eye(inner.size - degree - 1), degree)(ts)
        want = np.pad(want, ((0, 0), (pad, pad)))
        assert_allclose(cox_de_boor_matrix(kv.tau, degree, ts), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("r", range(6))
    def test_curve_eval(self, rng, r):
        curve = random_curve(rng, 13, tf=7.0)
        ts = self.times(rng, curve.knots)
        want = BSpline(curve.knots.tau, curve.ctrl.T, 5)(ts, nu=r)
        scale = max(1.0, float(np.abs(want).max()))
        assert_allclose(curve.eval(ts, r), want, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("degree", [5, 7, 9])
    def test_curve_eval_far_from_zero(self, rng, degree):
        # Span polynomials are centred on the span midpoint; expanded about
        # the left knot instead, degree 9 misses this bound.
        curve = random_curve(rng, 20, degree=degree, t0=1000.0, tf=1012.0)
        ts = self.times(rng, curve.knots)
        for r in range(degree + 1):
            want = BSpline(curve.knots.tau, curve.ctrl.T, degree)(ts, nu=r)
            scale = max(1.0, float(np.abs(want).max()))
            assert_allclose(curve.eval(ts, r), want, rtol=0, atol=1e-14 * scale)


class TestDerivativeMatrices:
    # derivative_control_points contracts the stencils with the control
    # points. Its oracle is P @ B_r, where dense_derivative_matrix builds B_r
    # as the product of bidiagonal difference factors, padded to n + r + 1
    # columns.
    def test_zeroth_is_identity(self, rng):
        kv = clamped_uniform_knots(0.0, 10.0, 12, 5)
        assert_array_equal(kv.derivative_stencil(0), np.ones((13, 1)))
        curve = SplineCurve(kv, rng.uniform(-1.0, 1.0, size=(3, 13)))
        assert_array_equal(derivative_control_points(curve, 0).points, curve.ctrl)

    @pytest.mark.parametrize("n", [10, 40])
    def test_boundary_columns_vanish(self, rng, n):
        curve = random_curve(rng, n)
        for r in (1, 2, 3):
            points = derivative_control_points(curve, r).points
            # The degree d-r basis on the same knot vector has n+1+r
            # members; the r outermost on each side live entirely in the
            # clamped tails, so their derivative points must be zero.
            assert points.shape == (3, n + 1 + r)
            assert np.all(points[:, :r] == 0.0)
            assert np.all(points[:, points.shape[1] - r :] == 0.0)

    @pytest.mark.parametrize("n", [10, 40])
    def test_matches_finite_differences(self, rng, n):
        kv = clamped_uniform_knots(0.0, 10.0, n, 5)
        h = 1e-5
        ts = rng.uniform(2 * h, 10.0 - 2 * h, size=25)
        for _ in range(10):
            curve = SplineCurve(kv, rng.uniform(-1.0, 1.0, size=(3, n + 1)))
            for r in (1, 2, 3):
                exact = curve.eval(ts, r)
                fd = (curve.eval(ts + h, r - 1) - curve.eval(ts - h, r - 1)) / (2 * h)
                scale = np.maximum(1.0, np.abs(exact))
                assert np.max(np.abs(fd - exact) / scale) < 1e-5

    def test_order_out_of_range(self, rng):
        curve = random_curve(rng, 8)
        for r in (-1, 6):
            with pytest.raises(ValueError):
                derivative_control_points(curve, r)

    @pytest.mark.parametrize("degree", [4, 5, 6, 7])
    def test_stencil_matches_dense_product_chain(self, degree):
        # The stencil is the band of the product of bidiagonal difference
        # factors: column j holds row j - r of it in rows j - r .. j, with
        # the same nonzeros and values to roundoff, and nothing else.
        for n in (degree, degree + 3, 30):
            kv = clamped_uniform_knots(0.3, 7.1, n, degree)
            for r in range(degree + 1):
                S = kv.derivative_stencil(r)
                assert S.shape == (n - r + 1, r + 1)
                want = dense_derivative_matrix(kv, r)
                cols = np.arange(r, n + 1)[:, None]
                rows = cols - r + np.arange(r + 1)
                assert_array_equal(S != 0.0, want[rows, cols] != 0.0)
                assert_allclose(S, want[rows, cols], rtol=1e-14, atol=0.0)
                band = np.zeros(want.shape, dtype=bool)
                band[rows, cols] = True
                assert np.all(want[~band] == 0.0)

    @pytest.mark.parametrize("degree", [4, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("t0", [0.0, 1000.0])
    def test_points_match_dense_product_chain(self, rng, degree, t0):
        # The stencil contraction sums in its own order, so it matches
        # P @ B_r to roundoff relative to the largest point, not bitwise.
        for n in (degree, degree + 3, 25):
            curve = random_curve(rng, n, degree=degree, t0=t0, tf=t0 + 7.3)
            for r in range(degree + 1):
                got = derivative_control_points(curve, r).points
                want = curve.ctrl @ dense_derivative_matrix(curve.knots, r)
                scale = max(1.0, float(np.abs(want).max()))
                assert got.shape == want.shape and not got.flags.writeable
                assert_allclose(got, want, rtol=0, atol=1e-14 * scale)

    def test_stencil_memoized_and_read_only(self):
        kv = clamped_uniform_knots(0.0, 1.0, 8, 5)
        assert kv.derivative_stencil(3) is kv.derivative_stencil(3)
        assert not kv.derivative_stencil(3).flags.writeable
        assert not kv.end_weights.flags.writeable
        for r in (-1, 6):
            with pytest.raises(ValueError):
                kv.derivative_stencil(r)

    @pytest.mark.parametrize("degree", [4, 5, 7])
    def test_end_weights_are_end_derivatives(self, rng, degree):
        # The order-r derivative at t0 and tf is the first and last
        # derivative point: the end weights reproduce the curve there.
        curve = random_curve(rng, 12, degree=degree)
        kv, d = curve.knots, degree
        for r in range(d + 1):
            at_t0 = curve.ctrl[:, : d + 1] @ kv.end_weights[0, r]
            at_tf = curve.ctrl[:, kv.n - d :] @ kv.end_weights[1, r]
            scale = np.abs(curve.eval(np.array([kv.t0, kv.tf]), r)).max() + 1.0
            assert_allclose(at_t0, curve.eval(kv.t0, r), rtol=0, atol=1e-12 * scale)
            assert_allclose(at_tf, curve.eval(kv.tf, r), rtol=0, atol=1e-12 * scale)

    def test_derivative_of_straight_line_is_constant(self):
        # A curve whose control points sit on a line has exactly that slope.
        kv = clamped_uniform_knots(0.0, 4.0, 9, 3)
        greville = np.array(
            [kv.tau[j + 1 : j + 4].mean() for j in range(10)]
        )
        curve = SplineCurve(kv, (2.5 * greville - 1.0)[None, :])
        ts = np.linspace(0.0, 4.0, 50)
        assert_allclose(curve.eval(ts, 1)[:, 0], 2.5, atol=1e-12)
        assert_allclose(curve.eval(ts, 2)[:, 0], 0.0, atol=1e-12)


class TestConvexHulls:
    def hull_residual(self, points, target):
        # Feasibility of target = points @ lam, lam >= 0, sum lam = 1,
        # solved as a nonnegative least-squares on the augmented system.
        k = points.shape[1]
        A = np.vstack([points, np.ones((1, k))])
        b = np.concatenate([target, [1.0]])
        _, res = nnls(A, b)
        return res

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_sampled_derivative_inside_span_hull(self, rng, r):
        # Every sampled point of the r-th derivative must be a convex
        # combination of the d - r + 1 derivative control points active on
        # its span.
        for n in (10, 17):
            curve = random_curve(rng, n)
            dp = derivative_control_points(curve, r)
            ts = rng.uniform(0.0, 10.0, size=600)
            vals = curve.eval(ts, r)
            for t, val in zip(ts, vals):
                l = curve.knots.span_index(t)
                pts = dp.span_points(l)
                assert pts.shape == (3, 5 - r + 1)
                assert self.hull_residual(pts, val) <= 1e-8

    def test_span_columns_indexing(self, rng):
        curve = random_curve(rng, 12)
        dp = derivative_control_points(curve, 2)
        cols = dp.span_columns(7)
        assert list(cols) == [4, 5, 6, 7]

    def test_derivative_points_match_curve_limits(self, rng):
        # The first and last non-phantom derivative points equal the
        # endpoint derivative values (clamped knots).
        curve = random_curve(rng, 9)
        for r in range(6):
            dp = derivative_control_points(curve, r)
            assert_allclose(dp.points[:, r], curve.eval(0.0, r), atol=1e-10)
            assert_allclose(dp.points[:, -1 - r], curve.eval(10.0, r), atol=1e-10)


class TestCurveEval:
    def test_scalar_and_array_agree(self, rng):
        # Single times and grids run the same code, so they agree exactly.
        curve = random_curve(rng, 11)
        ts = np.concatenate([rng.uniform(0.0, 10.0, 50), curve.knots.tau])
        for r in range(6):
            batch = curve.eval(ts, r)
            assert_array_equal(np.array([curve.eval(float(t), r) for t in ts]), batch)

    def test_out_of_range_rejected(self, rng):
        curve = random_curve(rng, 8)
        with pytest.raises(ValueError):
            curve.eval(-0.1)
        with pytest.raises(ValueError):
            curve.eval(np.array([5.0, 10.0 + 1e-9]), 2)
        with pytest.raises(ValueError):
            curve.eval(1.0, 6)
        with pytest.raises(ValueError):
            curve.eval(np.array([1.0, 2.0]), 6)

    @pytest.mark.parametrize("degree", [5, 7])
    @pytest.mark.parametrize("orders", [(0, 1, 2), (0, 1, 2, 3), (2, 3), (3, 1)])
    def test_several_orders_match_single_calls(self, rng, degree, orders):
        # One triangle serves every order, bitwise, at a scalar time, on a
        # grid, at every knot and at both ends.
        curve = random_curve(rng, 14, degree=degree)
        kv = curve.knots
        for t in (4.2, kv.t0, kv.tf, rng.uniform(kv.t0, kv.tf, 60), kv.tau):
            got = curve.eval(t, orders)
            assert isinstance(got, tuple) and len(got) == len(orders)
            for q, vals in zip(orders, got):
                assert_array_equal(vals, curve.eval(t, q))

    def test_order_sequence_validated(self, rng):
        curve = random_curve(rng, 8)
        with pytest.raises(ValueError):
            curve.eval(1.0, (0, 6))
        with pytest.raises(ValueError):
            curve.eval(np.array([1.0, 2.0]), ())

    def test_span_polynomials_memoized_per_curve(self, rng):
        # One stacked table per curve holds every order; each order's
        # coefficients are a read-only view of it.
        curve = random_curve(rng, 12)
        curve.eval(3.0, (0, 2))
        table = curve._span_table
        d, spans = curve.knots.degree, len(curve.knots.nonempty_spans())
        assert table.shape == ((d + 1) * (d + 2) // 2, 3, spans)
        curve.eval(np.linspace(0.0, 10.0, 9), (2, 0))
        assert curve._span_table is table and not table.flags.writeable
        for q in range(d + 1):
            coef = curve._span_polynomials(q)
            assert coef.shape == (d - q + 1, 3, spans) and coef.base is table
            assert not coef.flags.writeable
        twin = SplineCurve(curve.knots, curve.ctrl)
        assert twin._span_table is not table
        assert_array_equal(twin._span_table, table)

    @pytest.mark.parametrize("orders", [0, 1, 3, 5, (0, 1, 2), (0, 1, 2, 3), (3, 1)])
    def test_sorted_and_shuffled_times_agree_bitwise(self, rng, orders):
        # Sorted times gather span runs by repeat, shuffled ones by span
        # index; both must give the same bits, sample for sample.
        curve = random_curve(rng, 14)
        kv = curve.knots
        l = np.array(kv.nonempty_spans())
        both_ends = np.linspace(kv.tau[l], kv.tau[l + 1], 7, axis=1).ravel()
        grids = {
            "knots": kv.tau,
            "both ends": both_ends,
            "grid and tf": np.append(rng.uniform(kv.t0, kv.tf, 90), kv.tf),
            "one span": np.linspace(kv.tau[8] + 0.01, kv.tau[9] - 0.01, 25),
        }
        for name, ts in grids.items():
            ts = np.sort(ts)
            perm = rng.permutation(ts.size)
            back = np.argsort(perm)
            runs, taken = curve.eval(ts, orders), curve.eval(ts[perm], orders)
            scalars = [curve.eval(float(ts[k]), orders) for k in (0, ts.size // 2, -1)]
            if not isinstance(orders, tuple):
                runs, taken, scalars = (runs,), (taken,), [(x,) for x in scalars]
            for q, (a, b) in enumerate(zip(runs, taken)):
                assert a.tobytes() == b[back].tobytes(), name
                for k, single in zip((0, ts.size // 2, -1), scalars):
                    assert single[q].tobytes() == a[k].tobytes(), name

    def test_control_point_shape_validated(self):
        kv = clamped_uniform_knots(0.0, 1.0, 8, 5)
        with pytest.raises(ValueError):
            SplineCurve(kv, np.zeros((3, 7)))


class TestSnapGram:
    def dense_snap(self, curve):
        # Per-span Simpson integration of ||snap||^2; snap is piecewise
        # linear for degree 5, so its square is quadratic and Simpson on a
        # span-aligned grid is exact up to roundoff.
        kv = curve.knots
        total = 0.0
        from scipy.integrate import simpson

        for l in kv.nonempty_spans():
            ts = np.linspace(kv.tau[l], kv.tau[l + 1], 41)
            vals = curve.eval(ts, 4)
            total += simpson((vals**2).sum(axis=1), x=ts)
        return total

    @pytest.mark.parametrize("t0", [0.0, 1000.0])
    def test_quadratic_form_matches_integral(self, rng, t0):
        for trial in range(20):
            n = int(rng.integers(8, 20))
            curve = random_curve(rng, n, t0=t0, tf=t0 + float(rng.uniform(3.0, 12.0)))
            Q, _ = snap_gram(curve.knots)
            qform = sum(curve.ctrl[a] @ Q @ curve.ctrl[a] for a in range(3))
            dense = self.dense_snap(curve)
            assert qform == pytest.approx(dense, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("degree", range(4, 10))
    def test_closed_form_matches_quadrature(self, degree):
        # The span moments against the dense Gauss-Legendre Gram matrix.
        # Far from t = 0 the quadrature oracle is the less accurate of the
        # two, so the comparison stays on [0, 12].
        for n in (degree, degree + 7, 40):
            kv = clamped_uniform_knots(0.0, 12.0, n, degree)
            Q, _ = snap_gram(kv)
            Q_ref, _ = dense_snap_gram(kv)
            assert_allclose(Q, Q_ref, rtol=0.0, atol=1e-13 * np.abs(Q_ref).max())

    def test_closed_form_matches_quadrature_at_max_degree(self):
        # Over hover's eight spans. On a single span the closed form at this
        # degree is 1.9e-11 (relative) off the exact rational Gram, which the
        # quadrature meets to 4e-14.
        kv = clamped_uniform_knots(0.0, 10.0, MAX_DEGREE + 7, MAX_DEGREE)
        Q, _ = snap_gram(kv)
        Q_ref, _ = dense_snap_gram(kv)
        assert_allclose(Q, Q_ref, rtol=0.0, atol=1e-13 * np.abs(Q_ref).max())

    def test_factor_reproduces_quadratic_form(self, rng):
        kv = clamped_uniform_knots(0.0, 6.0, 14, 5)
        Q, G = snap_gram(kv)
        for _ in range(5):
            x = rng.normal(size=15)
            assert x @ Q @ x == pytest.approx(np.sum((G @ x) ** 2), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("degree", range(4, 10))
    def test_factor_is_banded_per_span(self, degree):
        # d - 3 rows per nonempty span, each reading only that span's d + 1
        # control points l - d .. l.
        for n in (degree, degree + 7, 40):
            kv = clamped_uniform_knots(0.0, 12.0, n, degree)
            _, G = snap_gram(kv)
            assert G.shape == ((degree - 3) * (n - degree + 1), n + 1)
            for i, l in enumerate(kv.nonempty_spans()):
                band = np.zeros(n + 1, dtype=bool)
                band[l - degree : l + 1] = True
                rows = G[i * (degree - 3) : (i + 1) * (degree - 3)]
                assert not rows[:, ~band].any()

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_factor_does_not_move_with_the_knots(self, name):
        # Shifting a mission in time changes the knots' last bits only, and
        # the factor, like the Gram matrix, must move by as little.
        ps = load_scenario(name).planning
        _, G = snap_gram(clamped_uniform_knots(ps.t0, ps.tf, ps.n, ps.degree))
        for shift in (1.0, 1000.0):
            kv = clamped_uniform_knots(ps.t0 + shift, ps.tf + shift, ps.n, ps.degree)
            _, moved = snap_gram(kv)
            assert moved.shape == G.shape
            assert np.abs(moved - G).max() <= 1e-11 * np.abs(G).max()

    def test_degree_limits_are_min_and_max_degree(self):
        # The limits that plan_knots also reads. Past MAX_DEGREE a caller gets
        # a ValueError, not numpy's LinAlgError (29) or an OverflowError (171).
        for degree in (MIN_DEGREE, MAX_DEGREE):
            snap_gram(clamped_uniform_knots(0.0, 5.0, degree + 6, degree))
        with pytest.raises(ValueError, match=f"^snap Gram needs degree >= {MIN_DEGREE}, got 3$"):
            snap_gram(clamped_uniform_knots(0.0, 5.0, 10, MIN_DEGREE - 1))
        for degree in (MAX_DEGREE + 1, 171):
            kv = clamped_uniform_knots(0.0, 5.0, degree + 6, degree)
            with pytest.raises(ValueError, match=f"^snap Gram needs degree <= 28, got {degree}$"):
                snap_gram(kv)

    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 60, 171])
    def test_a_failed_factor_of_the_moments_is_a_value_error(self, degree):
        # Built past snap_gram's check, as the cached table is, the moments'
        # Cholesky factor fails, and the build says so as for a Q that is not finite.
        kv = clamped_uniform_knots(0.0, 5.0, degree + 6, degree)
        message = f"^snap Gram has no Cholesky factor of its moments at degree {degree}$"
        with pytest.raises(ValueError, match=message):
            _build_snap_gram(kv)

    def test_gram_is_psd_and_symmetric(self):
        kv = clamped_uniform_knots(0.0, 5.0, 10, 5)
        Q, _ = snap_gram(kv)
        assert_allclose(Q, Q.T, atol=1e-12)
        evals = np.linalg.eigvalsh(Q)
        assert evals.min() > -1e-9

    def test_memoized_per_knot_vector_and_read_only(self):
        kv = clamped_uniform_knots(0.0, 6.0, 14, 5)
        Q, G = snap_gram(kv)
        again = snap_gram(kv)
        assert again[0] is Q and again[1] is G
        assert not Q.flags.writeable and not G.flags.writeable
        # Equal arguments give the same knot vector, and with it the same
        # tables; different arguments do not.
        assert clamped_uniform_knots(0.0, 6.0, 14, 5) is kv
        assert clamped_uniform_knots(0, 6, 14, 5) is kv
        for other in ((0.0, 6.5, 14, 5), (0.5, 6.0, 14, 5), (0.0, 6.0, 15, 5), (0.0, 6.0, 14, 4)):
            assert clamped_uniform_knots(*other) is not kv
        basis = kv._span_power_basis
        assert kv._span_power_basis is basis and not basis.flags.writeable

    @pytest.mark.parametrize("degree", range(MIN_DEGREE, MAX_DEGREE + 1))
    def test_finite_down_to_the_minimum_span_width(self, degree):
        for n in (degree, degree + 7):
            kv = clamped_uniform_knots(0.0, min_span_width(degree) * (n - degree + 1), n, degree)
            Q, G = snap_gram(kv)
            assert np.isfinite(Q).all() and np.isfinite(G).all() and G.shape[0] > 0
        # Far narrower spans overflow, and the build says so.
        kv = clamped_uniform_knots(0.0, 1e-300, degree + 3, degree)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^snap Gram is not finite"):
            snap_gram(kv)

    def test_quartic_curve_has_zero_snap_cost(self):
        # Control points sampled from a cubic in the Greville abscissae
        # give a cubic curve, whose snap vanishes identically.
        kv = clamped_uniform_knots(0.0, 2.0, 9, 5)
        g = np.array([kv.tau[j + 1 : j + 6].mean() for j in range(10)])
        # A degree-5 spline reproduces polynomials up to degree 5 from
        # their blossom; for a straight line Greville sampling is exact.
        ctrl = (0.3 - 1.7 * g)[None, :]
        Q, _ = snap_gram(kv)
        roundoff = np.abs(Q).max() * np.sum(ctrl**2) * 1e-14
        assert abs(ctrl[0] @ Q @ ctrl[0]) < roundoff
