"""Cone program model: block assembly, solve statuses, residual checks."""

import io
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import sparse
from scipy.optimize import linprog

from oracles import quadratic_epigraph
from safeflight import socp
from safeflight.socp import (
    INFEASIBLE,
    MIN_TOL,
    NUMERICAL_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    ConeProgram,
    _batch,
    _ConeAlgebra,
    _ScaledMatrix,
)


def ball_soc(prog, cols, radius):
    dim = len(cols)
    zeros = np.zeros((1, dim))
    prog.add_soc(np.eye(dim)[None], zeros, zeros, [radius], [cols], label="ball")


def stored(prog):
    """The stored model as comparable values: its triplets, b and the cone layout."""
    rows, cols, vals, b, cones = prog._triplets()
    return [a.tolist() for a in (rows, cols, vals, b)] + [cones]


def batches(prog):
    """(kind, label code, k, m) of every batch, in the row order of _triplets."""
    return [batch[:4] for batch in prog._store]


class TestModelValidation:
    def test_needs_a_variable(self):
        with pytest.raises(ValueError):
            ConeProgram(0)

    def test_add_variables_extends_index_range(self):
        prog = ConeProgram(2)
        idx = prog.add_variables(3)
        assert idx.tolist() == [2, 3, 4]
        assert prog.num_vars == 5

    def test_add_variables_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConeProgram(2).add_variables(0)

    def test_rejects_out_of_range_columns(self):
        prog = ConeProgram(3)
        with pytest.raises(ValueError):
            prog.add_inequality([[1.0]], [[3]], [0.0])
        with pytest.raises(ValueError):
            prog.add_inequality([[1.0]], [[-1]], [0.0])

    def test_rejects_duplicate_columns(self):
        prog = ConeProgram(3)
        with pytest.raises(ValueError):
            prog.add_equality(np.ones((1, 1, 2)), [[1, 1]], [[0.0]])

    def test_shape_mismatches(self):
        prog = ConeProgram(4)
        with pytest.raises(ValueError):
            prog.add_objective([0, 1], [1.0])
        with pytest.raises(ValueError):
            prog.add_equality(np.ones((1, 2, 3)), [[0, 1]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            prog.add_inequality(np.ones((2, 2)), [[0, 1]], [0.0])
        with pytest.raises(ValueError):
            prog.add_soc(np.eye(2)[None], np.zeros((1, 3)), np.zeros((1, 2)), [1.0], [[0, 1]])

    # One constraint in the shapes of a single call, and single-call parts
    # inside an otherwise batched call: k is always the leading axis.
    SINGLE_SHAPES = [
        ("add_equality", (np.ones((1, 2)), [0, 1], [0.0])),
        ("add_equality", (np.ones((1, 2)), [[0, 1]], [0.0])),
        ("add_equality", (np.ones((1, 1, 2)), [0, 1], [[0.0]])),
        ("add_inequality", ([1.0, 1.0], [0, 1], 0.0)),
        ("add_inequality", ([[1.0, 1.0]], [[0, 1]], 0.0)),
        ("add_inequality", ([[1.0, 1.0]], [0, 1], [0.0])),
        ("add_soc", (np.eye(2), np.zeros(2), np.zeros(2), 1.0, [0, 1])),
        ("add_soc", (np.eye(2)[None], np.zeros((1, 2)), np.zeros((1, 2)), 1.0, [[0, 1]])),
        ("add_soc", (np.eye(2)[None], np.zeros((1, 2)), np.zeros(2), [1.0], [[0, 1]])),
        ("add_soc", (np.eye(2)[None], np.zeros((1, 2)), np.zeros((1, 2)), [1.0], [0, 1])),
    ]

    @pytest.mark.parametrize("method, args", SINGLE_SHAPES, ids=[m for m, _ in SINGLE_SHAPES])
    def test_single_constraint_shapes_leave_the_model_unchanged(self, method, args):
        prog = ConeProgram(3)
        prog.add_inequality([[1.0, 2.0]], [[0, 2]], [1.0], label="lid")
        ball_soc(prog, [0, 1], 2.0)
        before = prog.num_vars, prog.block_counts(), stored(prog)
        with pytest.raises(ValueError):
            getattr(prog, method)(*args)
        assert (prog.num_vars, prog.block_counts(), stored(prog)) == before

    def test_solve_requires_constraints(self):
        with pytest.raises(ValueError):
            ConeProgram(1).solve()

    def test_solve_rejects_bad_tolerance(self):
        prog = ConeProgram(1)
        prog.add_inequality([[1.0]], [[0]], [1.0])
        for tol in (0.5, 1e-12, 0.5 * MIN_TOL):
            with pytest.raises(ValueError, match=r"out of range \[1e-10, 0.01\)"):
                prog.solve(tol=tol)
        assert prog.solve(tol=MIN_TOL).status == OPTIMAL

    def test_block_bookkeeping(self):
        # Labels follow the stored rows: equalities, inequalities, cones.
        prog = ConeProgram(3)
        prog.add_inequality([[1.0]], [[0]], [1.0], label="box")
        prog.add_inequality([[1.0]], [[1]], [1.0], label="box")
        prog.add_equality(np.ones((1, 1, 1)), [[2]], [[0.5]], label="pin")
        ball_soc(prog, [0, 1], 2.0)
        assert prog.block_counts() == {"box": 2, "pin": 1, "ball": 1}
        # (kind, label code, constraints, rows each): codes 0, 1, 2 are box, pin, ball.
        want = [("eq", 1, 1, 1), ("ineq", 0, 1, 1), ("ineq", 0, 1, 1), ("soc", 2, 1, 3)]
        assert batches(prog) == want


class TestResiduals:
    def test_per_label_worst_violation(self):
        prog = ConeProgram(2)
        prog.add_equality(np.eye(2)[None], [[0, 1]], [[1.0, 2.0]], label="pin")
        prog.add_inequality([[1.0]], [[0]], [0.5], label="lid")
        ball_soc(prog, [0, 1], 1.0)
        x = np.array([2.0, 2.0])
        res = prog.residuals(x)
        assert_allclose(res["pin"], 1.0)  # worst row of |x - (1, 2)|
        assert_allclose(res["lid"], 1.5)
        assert_allclose(res["ball"], np.hypot(2.0, 2.0) - 1.0)
        assert_allclose(prog.max_residual(x), np.hypot(2.0, 2.0) - 1.0)

    def test_satisfied_point_has_zero_residual(self):
        prog = ConeProgram(2)
        prog.add_inequality([[1.0]], [[0]], [1.0])
        ball_soc(prog, [0, 1], 1.0)
        assert prog.max_residual(np.array([0.2, 0.3])) == 0.0

    def test_batch_without_rows_has_no_violation(self):
        # A batch of two equalities with no rows sits before a violated
        # equality: each batch's worst is its own.
        prog = ConeProgram(2)
        prog.add_inequality([[1.0]], [[0]], [0.5], label="lid")
        prog.add_equality(np.ones((2, 0, 1)), [[1], [1]], np.zeros((2, 0)), label="none")
        prog.add_equality(np.ones((1, 1, 1)), [[1]], [[1.0]], label="pin")
        res = prog.residuals(np.array([2.0, 4.0]))
        assert res == {"lid": 1.5, "none": 0.0, "pin": 3.0}
        assert prog.block_counts() == {"lid": 1, "none": 2, "pin": 1}

    @pytest.mark.parametrize("x", [[2.0], [2.0, 0.0, 0.0, 0.0, 0.0], [[2.0, 0.0, 0.0]], 2.0])
    def test_point_needs_one_entry_per_variable(self, x):
        # Only column 0 has a coefficient, so a short or long point would
        # otherwise be audited as if it fit.
        prog = ConeProgram(3)
        prog.add_inequality([[1.0]], [[0]], [1.0], label="a")
        assert prog.residuals(np.array([2.0, 0.0, 0.0])) == {"a": 1.0}
        for audit in (prog.residuals, prog.max_residual):
            with pytest.raises(ValueError, match=r"num_vars = \(3,\)"):
                audit(np.array(x))


class TestRowsAdd:
    """One flat nonzero gives the triplets that np.nonzero gives, in its order, rows from 0."""

    @staticmethod
    def reference(coeffs, cols):
        k, m, _ = coeffs.shape
        i, r, c = np.nonzero(coeffs)
        return i * m + r, cols[i, c], coeffs[i, r, c]

    @staticmethod
    def batches(rng):
        """Coefficient batches (k, m, c) and their columns, in the shapes the adds pass."""
        for k, m, c in [(1, 1, 1), (4, 1, 6), (7, 3, 9), (5, 4, 13), (3, 74, 22)]:
            coeffs = rng.normal(size=(k, m, c))
            coeffs[rng.uniform(size=coeffs.shape) < 0.4] = 0.0
            coeffs[rng.uniform(size=coeffs.shape) < 0.1] = -0.0
            cols = np.argsort(rng.uniform(size=(k, 40)), axis=1)[:, :c]
            yield coeffs, cols
            # A single column row broadcast over the batch.
            yield coeffs, np.broadcast_to(cols[0], (k, c))
            # Non-contiguous views: every other column, and a swapped axis.
            wide = np.repeat(coeffs, 2, axis=2)
            yield wide[:, :, ::2], cols
            yield np.swapaxes(np.swapaxes(coeffs, 0, 2).copy(), 0, 2), cols

    def test_same_triplets_as_nonzero(self):
        rng = np.random.default_rng(11)
        for coeffs, cols in self.batches(rng):
            k, m, _ = coeffs.shape
            rhs = rng.normal(size=(k, m))
            part = _batch("soc", 3, coeffs, cols, rhs)
            rows, want_cols, vals = self.reference(coeffs, cols)
            assert_array_equal(part.rows, rows, strict=True)
            assert_array_equal(part.cols, want_cols, strict=True)
            assert [v.hex() for v in part.vals.tolist()] == [v.hex() for v in vals.tolist()]
            assert part[:4] == ("soc", 3, k, m)
            assert_array_equal(part.rhs, rhs.ravel(), strict=True)


class TestBatches:
    """k alike constraints on a leading axis: one batch per call."""

    def test_census_and_cone_layout(self):
        rng = np.random.default_rng(5)
        E, g = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 2))
        rows, ub = rng.normal(size=(4, 4)), rng.normal(size=4)
        A, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3))
        c, d = rng.normal(size=(2, 4)), rng.uniform(1.0, 2.0, size=2)
        cols = np.array([[0, 1, 2, 3], [3, 4, 5, 0]])  # one row per second-order cone
        pin_cols, lid_cols = np.tile([0, 2, 4, 5], (3, 1)), np.tile([1, 2, 3, 4], (4, 1))
        prog = ConeProgram(6)
        prog.add_soc(A, b, c, d, cols, label="cone")
        prog.add_equality(E, pin_cols, g, label="pin")
        prog.add_inequality(rows, lid_cols, ub, label="lid")
        *_, cones = prog._triplets()
        assert (cones.zero, cones.nonneg, cones.soc) == (6, 4, (4, 4))
        assert prog.block_counts() == {"cone": 2, "pin": 3, "lid": 4}
        assert batches(prog) == [("eq", 1, 3, 2), ("ineq", 2, 4, 1), ("soc", 0, 2, 4)]
        # Each label's worst violation, constraint by constraint.
        x = rng.normal(size=6)
        cone = [np.linalg.norm(A[k] @ x[cols[k]] + b[k]) - c[k] @ x[cols[k]] - d[k] for k in (0, 1)]
        want = {
            "cone": max(0.0, *cone),
            "pin": max(np.abs(E[k] @ x[pin_cols[k]] - g[k]).max() for k in range(3)),
            "lid": max(0.0, *(rows[k] @ x[lid_cols[k]] - ub[k] for k in range(4))),
        }
        assert prog.residuals(x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_rejects_mismatched_batch_lengths(self):
        prog = ConeProgram(3)
        cols = np.tile([0, 1, 2], (2, 1))
        with pytest.raises(ValueError):
            prog.add_equality(np.ones((2, 1, 3)), cols, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            prog.add_inequality(np.ones((3, 3)), np.tile([0, 1, 2], (3, 1)), np.zeros(2))
        A, b, c = np.ones((2, 2, 3)), np.zeros((2, 2)), np.zeros((2, 3))
        for args in ((A[[0, 1, 1]], b, c, np.ones(2)), (A, b[[0, 1, 1]], c, np.ones(2))):
            with pytest.raises(ValueError):
                prog.add_soc(*args, cols)
        with pytest.raises(ValueError):
            prog.add_soc(A, b, c, np.ones(3), cols)
        with pytest.raises(ValueError):  # three rows of columns for a batch of two
            prog.add_inequality(np.ones((2, 1)), [[0], [1], [2]], np.zeros(2))
        assert prog.block_counts() == {}

    def test_rejects_bad_columns_in_any_row(self):
        prog = ConeProgram(3)
        with pytest.raises(ValueError):
            prog.add_inequality(np.ones((2, 2)), [[0, 1], [1, 3]], np.zeros(2))
        with pytest.raises(ValueError):
            prog.add_inequality(np.ones((2, 2)), [[0, 1], [-1, 2]], np.zeros(2))
        with pytest.raises(ValueError):
            prog.add_inequality(np.ones((2, 2)), [[0, 1], [2, 2]], np.zeros(2))

    def test_empty_batch_adds_nothing(self):
        prog = ConeProgram(3)
        no_cols = np.zeros((0, 3), dtype=int)
        prog.add_soc(np.ones((0, 2, 3)), np.zeros((0, 2)), np.zeros((0, 3)), np.ones(0), no_cols)
        assert prog.block_counts() == {}
        assert prog.residuals(np.zeros(3)) == {}


class TestLinearPrograms:
    def test_matches_reference_lp_solver(self, rng):
        for _ in range(20):
            m, n = 8, 4
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            x0 = rng.uniform(-1.0, 1.0, size=n)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
            f = rng.uniform(-1.0, 1.0, size=n)

            prog = ConeProgram(n)
            cols = np.arange(n)
            prog.add_objective(cols, f)
            prog.add_inequality(A, np.tile(cols, (m, 1)), b)
            # The box: x_j <= 10 and -x_j <= 10 for each j in turn.
            box = np.tile([[1.0], [-1.0]], (n, 1))
            prog.add_inequality(box, np.repeat(cols, 2)[:, None], np.full(2 * n, 10.0))
            sol = prog.solve(tol=1e-9)

            ref = linprog(f, A_ub=A, b_ub=b, bounds=[(-10.0, 10.0)] * n, method="highs")
            assert sol.status == OPTIMAL
            assert ref.status == 0
            assert abs(sol.objective - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
            assert sol.max_residual <= 1e-7

    def test_objective_accumulates(self):
        prog = ConeProgram(2)
        prog.add_objective([0, 1], [1.0, 1.0])
        prog.add_objective([0], [1.0])  # column 0 now weighted 2
        prog.add_inequality([[1.0], [-1.0], [1.0], [-1.0]], [[0], [0], [1], [1]], np.ones(4))
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert_allclose(sol.objective, -3.0, atol=1e-7)
        assert_allclose(sol.x, [-1.0, -1.0], atol=1e-7)


class TestSecondOrderBlocks:
    def test_linear_functional_over_ball(self, rng):
        # max c'x over ||x|| <= r is attained at r c/||c||.
        for _ in range(10):
            c = rng.uniform(-2.0, 2.0, size=3)
            r = rng.uniform(0.5, 2.0)
            prog = ConeProgram(3)
            prog.add_objective([0, 1, 2], -c)
            ball_soc(prog, [0, 1, 2], r)
            sol = prog.solve(tol=1e-10)
            assert sol.status == OPTIMAL
            assert_allclose(sol.objective, -r * np.linalg.norm(c), atol=1e-7)
            assert_allclose(sol.x, r * c / np.linalg.norm(c), atol=1e-6)

    def test_affine_cone_with_linear_rhs(self):
        # ||x - p|| <= x_3 describes a shifted ice-cream cone; minimizing
        # x_3 lands on its apex.
        p = np.array([1.0, -2.0, 0.0])
        prog = ConeProgram(3)
        prog.add_objective([2], [1.0])
        A = np.eye(3)
        c = np.array([0.0, 0.0, 1.0])
        prog.add_soc(A[None, :2], -p[None, :2], c[None], [0.0], [[0, 1, 2]])
        sol = prog.solve(tol=1e-10)
        assert sol.status == OPTIMAL
        assert_allclose(sol.x[:2], p[:2], atol=1e-6)
        assert_allclose(sol.objective, 0.0, atol=1e-7)

    def test_projection_onto_ball(self, rng):
        # min ||x - p||^2 over ||x|| <= 1 with ||p|| > 1: closest point is
        # the radial projection. Exercises epigraph + equality + ball.
        for _ in range(5):
            p = rng.uniform(-3.0, 3.0, size=3)
            p *= (1.5 + rng.uniform(0.0, 1.0)) / np.linalg.norm(p)
            prog = ConeProgram(6)  # x then y = x - p
            x_cols, y_cols = np.arange(3), np.arange(3, 6)
            E = np.hstack([np.eye(3), -np.eye(3)])
            prog.add_equality(E[None], [np.arange(6)], p[None], label="shift")
            ball_soc(prog, x_cols.tolist(), 1.0)
            s = quadratic_epigraph(prog, np.eye(3), [y_cols])
            prog.add_objective(s, [1.0])
            sol = prog.solve()
            assert sol.status == OPTIMAL
            assert_allclose(sol.x[:3], p / np.linalg.norm(p), atol=1e-6)
            assert_allclose(sol.objective, (np.linalg.norm(p) - 1.0) ** 2, atol=1e-6)


class TestQuadraticEpigraph:
    def test_equality_constrained_least_squares(self, rng):
        # min x' G'G x s.t. E x = g, against the KKT system.
        for _ in range(10):
            n, m, p = 6, 8, 2
            G = rng.uniform(-1.0, 1.0, size=(m, n))
            E = rng.uniform(-1.0, 1.0, size=(p, n))
            g = rng.uniform(-1.0, 1.0, size=p)

            prog = ConeProgram(n)
            cols = np.arange(n)
            prog.add_equality(E[None], [cols], g[None], label="pin")
            (s,) = quadratic_epigraph(prog, G, [cols])
            prog.add_objective([s], [1.0])
            sol = prog.solve(tol=1e-10)
            assert sol.status == OPTIMAL

            H = G.T @ G
            kkt = np.block([[2.0 * H, E.T], [E, np.zeros((p, p))]])
            rhs = np.concatenate([np.zeros(n), g])
            x_ref = np.linalg.solve(kkt, rhs)[:n]
            obj_ref = x_ref @ H @ x_ref
            assert_allclose(sol.x[:n], x_ref, atol=1e-6)
            assert abs(sol.objective - obj_ref) <= 1e-6 * max(1.0, obj_ref)
            # the epigraph variable is tight at the optimum
            assert_allclose(sol.x[s], sol.x[:n] @ H @ sol.x[:n], atol=1e-7)


class TestStatuses:
    def test_infeasible(self):
        prog = ConeProgram(1)
        prog.add_inequality([[1.0], [-1.0]], [[0], [0]], [-1.0, -1.0])  # x <= -1 and x >= 1
        sol = prog.solve()
        assert sol.status == INFEASIBLE
        assert sol.x is None
        assert np.isnan(sol.objective)
        assert np.isinf(sol.max_residual)

    def test_unbounded(self):
        prog = ConeProgram(1)
        prog.add_objective([0], [1.0])
        prog.add_inequality([[1.0]], [[0]], [0.0])  # min x, x <= 0
        sol = prog.solve()
        assert sol.status == UNBOUNDED
        assert sol.x is None

    def test_optimal_metadata(self):
        prog = ConeProgram(1)
        prog.add_objective([0], [1.0])
        prog.add_inequality([[-1.0]], [[0]], [0.0])  # x >= 0
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert sol.solver_status == "Solved"
        assert sol.iterations > 0
        assert sol.solve_time >= 0.0
        assert_allclose(sol.objective, 0.0, atol=1e-8)

    def test_deterministic_resolve(self, rng):
        G = rng.uniform(-1.0, 1.0, size=(8, 5))
        E = rng.uniform(-1.0, 1.0, size=(2, 5))
        g = rng.uniform(-1.0, 1.0, size=2)

        def build_and_solve():
            prog = ConeProgram(5)
            cols = np.arange(5)
            prog.add_equality(E[None], [cols], g[None])
            s = quadratic_epigraph(prog, G, [cols])
            prog.add_objective(s, [1.0])
            return prog.solve()

        a, b = build_and_solve(), build_and_solve()
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


class TestAssembly:
    def test_rows_follow_the_cone_layout(self):
        prog = ConeProgram(3)
        ball_soc(prog, [0, 1], 2.0)
        prog.add_inequality([[1.0, -2.0]], [[0, 2]], [3.0], label="lid")
        prog.add_equality(np.array([[[1.0, 1.0]]]), [[1, 2]], [[0.5]], label="pin")
        rows, cols, vals, b, cones = prog._triplets()
        assert (cones.zero, cones.nonneg, cones.soc) == (1, 1, (3,))
        # Each entry is stored once, so the solver's CSR build sums nothing.
        assert np.unique(rows * prog.num_vars + cols).size == rows.size
        A = np.zeros((b.size, prog.num_vars))
        A[rows, cols] = vals
        assert_allclose(A, [[0, 1, 1], [1, 0, -2], [0, 0, 0], [-1, 0, 0], [0, -1, 0]])
        assert_allclose(b, [0.5, 3.0, 2.0, 0.0, 0.0])

    def test_scaled_matrix_is_the_reference(self, assert_reference_scaling):
        # Variable 2 appears in no constraint, so its column is empty, and
        # each batch lists its columns out of order.
        prog = ConeProgram(5)
        prog.add_soc(
            [[[1.0, 0.0, 2.0], [0.0, -3.0, 0.5]]], [[0.1, 0.2]], [[0.0, 0.5, 1.0]], [4.0], [[4, 0, 3]]
        )
        prog.add_inequality([[2.0, -1.0], [0.5, 4.0]], [[3, 1], [4, 0]], [1.0, 2.0])
        prog.add_equality([[[1.0, 1.0, 7.0]]], [[4, 1, 0]], [[0.5]])
        s = quadratic_epigraph(prog, [[1.0, 2.0], [0.0, 3.0]], [[1, 0]])
        prog.add_objective(s, [1.0])
        assert_reference_scaling(prog)


class TestConeAlgebra:
    """The Nesterov-Todd machinery against its defining identities."""

    @pytest.fixture()
    def alg(self):
        return _ConeAlgebra(3, (3, 1, 5))

    @staticmethod
    def interior(alg, rng):
        u = rng.normal(size=alg.identity.size)
        return u + (rng.uniform(0.1, 1.0) - alg.min_eig(u)) * alg.identity

    def test_scaling_maps_z_and_s_to_lam(self, alg, rng):
        for _ in range(10):
            s, z = self.interior(alg, rng), self.interior(alg, rng)
            scal = alg.scaling(s, z)
            assert_allclose(scal.apply(z), scal.apply(s, inverse=True), atol=1e-12)
            u = rng.normal(size=(s.size, 2))
            assert_allclose(scal.apply(scal.apply(u), inverse=True), u, atol=1e-12)
            assert alg.min_eig(scal.lam) > 0.0

    def test_divide_inverts_the_jordan_product(self, alg, rng):
        for _ in range(10):
            scal = alg.scaling(self.interior(alg, rng), self.interior(alg, rng))
            d = rng.normal(size=alg.identity.size)
            assert_allclose(alg.product(scal.lam, scal.divide(d)), d, atol=1e-12)

    def test_max_step_reaches_the_boundary(self, alg, rng):
        for _ in range(10):
            scal = alg.scaling(self.interior(alg, rng), self.interior(alg, rng))
            du = 3.0 * rng.normal(size=(alg.identity.size, 2))
            a = scal.max_step(du)
            steps = [alg.min_eig(scal.lam + a * du[:, j]) for j in range(2)]
            assert min(steps) == pytest.approx(0.0, abs=1e-9)
            assert all(alg.min_eig(scal.lam + 0.999 * a * du[:, j]) > 0.0 for j in range(2))

    # lengths, where given, fixes the pattern of the nonnegative rows: row i
    # holds entries in its first lengths[i] columns.
    @pytest.mark.parametrize(
        "nonneg, dims, lengths",
        [
            pytest.param(3, (3, 1, 5), None, id="mixed"),
            pytest.param(3, (3, 1, 5), (2, 0, 3), id="empty-nonnegative-row"),
            pytest.param(4, (), None, id="nonnegative-only"),
            pytest.param(0, (3, 2, 4), None, id="cones-only"),
            pytest.param(5, (2,), (1, 4, 2, 4, 3), id="nonnegative-lengths"),
        ],
    )
    def test_scaled_matrix_and_its_gram(self, rng, nonneg, dims, lengths):
        alg = _ConeAlgebra(nonneg, dims)
        G = rng.normal(size=(alg.identity.size, 4))
        G[rng.uniform(size=G.shape) < 0.4] = 0.0
        if lengths is not None:
            G[:nonneg] = rng.uniform(0.5, 1.5, (nonneg, 4)) * (np.arange(4) < np.array(lengths)[:, None])
        scaled = _ScaledMatrix(sparse.csr_matrix(G), alg)
        scal = alg.scaling(self.interior(alg, rng), self.interior(alg, rng))
        M, H = scaled(scal)
        # A nonnegative row of M keeps the pattern of its row of G.
        assert_array_equal(np.diff(M.indptr)[:nonneg], np.count_nonzero(G[:nonneg], axis=1))
        assert_allclose(M.toarray(), scal.apply(G, inverse=True), atol=1e-12)
        assert_allclose(H, M.toarray().T @ M.toarray(), atol=1e-12)


class TestSolverEdgeCases:
    def test_equalities_only(self):
        prog = ConeProgram(2)
        prog.add_equality(np.eye(2)[None], [[0, 1]], [[1.0, 2.0]])
        prog.add_objective([0], [3.0])
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)

    def test_variable_outside_every_constraint(self):
        prog = ConeProgram(3)
        prog.add_inequality([[1.0]], [[0]], [1.0])
        prog.add_objective([0], [-1.0])
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert_allclose(sol.objective, -1.0, atol=1e-8)
        prog.add_objective([2], [1.0])
        assert prog.solve().status == UNBOUNDED

    def test_repeated_equalities(self):
        prog = ConeProgram(2)
        for _ in range(2):
            prog.add_equality(np.ones((1, 1, 2)), [[0, 1]], [[1.0]])
        prog.add_inequality([[-1.0], [-1.0]], [[0], [1]], [0.0, 0.0])
        prog.add_objective([0], [1.0])
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert_allclose(sol.x, [0.0, 1.0], atol=1e-7)

    def test_equality_outside_the_ball_is_infeasible(self):
        prog = ConeProgram(2)
        prog.add_equality(np.ones((1, 1, 2)), [[0, 1]], [[5.0]])
        ball_soc(prog, [0, 1], 1.0)
        assert prog.solve().status == INFEASIBLE

    def test_iteration_cap(self):
        prog = ConeProgram(2)
        ball_soc(prog, [0, 1], 1.0)
        prog.add_objective([0, 1], [1.0, 1.0])
        sol = prog.solve(max_iter=2)
        assert sol.status == NUMERICAL_FAILURE
        assert sol.solver_status == "MaxIterations"
        assert sol.iterations == 2

    def test_negative_iteration_cap_is_refused(self):
        prog = ConeProgram(2)
        ball_soc(prog, [0, 1], 1.0)
        with pytest.raises(ValueError, match="^max_iter -1 is negative$"):
            prog.solve(max_iter=-1)

    def test_vanishing_step_ends_in_numerical_failure(self, monkeypatch):
        # A step of length 0 would leave the iterate where it is forever.
        monkeypatch.setattr(socp._NTScaling, "max_step", lambda self, du: 0.0)
        prog = ConeProgram(2)
        ball_soc(prog, [0, 1], 1.0)
        prog.add_objective([0, 1], [1.0, 1.0])
        sol = prog.solve()
        assert (sol.status, sol.solver_status, sol.iterations) == (
            NUMERICAL_FAILURE,
            "NumericalError",
            1,
        )
        assert sol.x is None


class TestOneBlasThread:
    """The solve caps each OpenBLAS at one thread and gives back the count it found."""

    @pytest.mark.parametrize("fails", [False, True], ids=["solves", "raises"])
    def test_caps_each_library_and_restores_its_count(self, monkeypatch, fails):
        calls, counts = [], {"numpy": 2, "scipy": 4}

        def setter(name):
            def set_threads(count):
                calls.append((name, count))
                previous, counts[name] = counts[name], count
                return previous

            return set_threads

        monkeypatch.setattr(socp, "_BLAS_SETTERS", [setter("numpy"), setter("scipy")])
        def fault(*args):
            raise RuntimeError("solver fault")

        if fails:
            monkeypatch.setattr(socp, "_interior_point", fault)
        prog = ConeProgram(2)
        ball_soc(prog, [0, 1], 1.0)
        if fails:
            with pytest.raises(RuntimeError, match="solver fault"):
                prog.solve()
        else:
            assert prog.solve().status == OPTIMAL
        assert calls == [("numpy", 1), ("scipy", 1), ("numpy", 2), ("scipy", 4)]
        assert counts == {"numpy": 2, "scipy": 4}

    @pytest.mark.parametrize(
        "maps",
        [None, "7f00-7f01 r-xp 00000000 08:01 1 /no/such/libscipy_openblas.so\n"],
        ids=["no-memory-map", "unloadable"],
    )
    def test_finds_no_setter_without_a_loadable_library(self, monkeypatch, maps):
        def fake_open(path, *args):
            if maps is None:
                raise OSError("no memory map")
            return io.StringIO(maps)

        monkeypatch.setattr(socp, "open", fake_open, raising=False)
        assert list(socp._openblas_setters()) == []

    def test_solve_time_leaves_out_the_setter_search(self, monkeypatch):
        # The first solve in a process finds the setters; its clock starts after.
        find = socp._openblas_setters

        def slow_find():
            time.sleep(0.2)
            return find()

        monkeypatch.setattr(socp, "_BLAS_SETTERS", None)
        monkeypatch.setattr(socp, "_openblas_setters", slow_find)
        prog = ConeProgram(2)
        ball_soc(prog, [0, 1], 1.0)
        prog.add_objective([0], [1.0])
        sol = prog.solve()
        assert sol.status == OPTIMAL
        assert sol.solve_time < 0.2
