"""Second-order cone programs: a canonical constraint store and a conic solve.

The planner compiles every mission constraint into one of three kinds over
a flat variable vector x:

- equality        E x = g
- inequality      a' x <= beta
- second-order    ||A x + b|| <= c' x + d

ConeProgram stores each constraint on arrival in the form the solver reads,
A x + s = b with s in K: one list of batches in row order, each with its cone
kind, label, (row, column, value) triplets and right-hand sides. Each add_*
method takes k alike constraints on a leading axis, so a constraint family
is stored in one call. Variables can be appended after constraints exist:
the planner's snap epigraph adds its three and then one add_soc batch over
them. The numerical solve is the primal-dual interior-point method at the
end of this module. It reads the same triplets and builds its one scipy CSR
matrix from them, equilibrated as it is built. Solution quality is always
re-checked by direct residual evaluation, never taken from the solver's own
report. The residuals read the stored triplets with numpy alone; scipy is
imported only by the solve, so building and auditing a model never loads it.
"""

from __future__ import annotations

import bisect
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

#: Solution statuses, in the package's vocabulary.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical-failure"

#: Solver tolerances must lie in [MIN_TOL, MAX_TOL); a solve or scenario that
#: names none uses DEFAULT_TOL. Below MIN_TOL the solve may not reach the
#: tolerance: at 1e-11 example2_window ends in numerical failure, and at 1e-12
#: five of the bundled scenarios do.
MIN_TOL = 1e-10
MAX_TOL = 1e-2
DEFAULT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Solution:
    """Outcome of a conic solve.

    max_residual is computed by this module from the returned point and the
    stored constraints; it is meaningful only when status is "optimal".
    """

    status: str
    x: np.ndarray | None
    objective: float
    max_residual: float
    solve_time: float
    iterations: int
    solver_status: str


#: One add: k constraints of one cone kind and label code, m rows each, as the
#: (row, column, value) triplets of A x + s = b and the right-hand sides b.
_Batch = namedtuple("_Batch", "kind code k m rows cols vals rhs")


def _batch(kind: str, code: int, coeffs: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> _Batch:
    """The batch of coeffs (k, m, c) over cols (k, c) and rhs (k, m), rows counted from its first.

    One flat nonzero gives the triplets in np.nonzero's order: entry at of the
    flat coeffs lies on row at // c, and its column is entry at of cols with
    each row repeated m times.
    """
    k, m, c = coeffs.shape
    flat = coeffs.reshape(-1)
    at = flat.nonzero()[0]
    return _Batch(
        kind, code, k, m, at // c, cols.repeat(m, axis=0).take(at), flat.take(at), rhs.reshape(-1)
    )


class ConeProgram:
    """Mutable SOCP model: minimize f'x subject to A x + s = b, s in K."""

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = int(num_vars)
        self._f = np.zeros(self.num_vars)
        self._store: list[_Batch] = []  # by kind, then in the order of the adds
        self._labels: dict[str, int] = {}  # label -> code, in order of first use

    # ------------------------------------------------------------------ model

    def add_variables(self, count: int) -> np.ndarray:
        """Append variables, returning their indices."""
        if count < 1:
            raise ValueError("count must be positive")
        idx = np.arange(self.num_vars, self.num_vars + count)
        self.num_vars += count
        self._f = np.concatenate([self._f, np.zeros(count)])
        return idx

    def add_objective(self, cols, coeffs) -> None:
        """Accumulate linear objective terms f[cols] += coeffs, both of shape (c,)."""
        cols, coeffs = np.asarray(cols, dtype=int), np.asarray(coeffs, dtype=float)
        if cols.ndim != 1 or coeffs.shape != cols.shape:
            raise ValueError(f"objective coeffs {coeffs.shape} and cols {cols.shape} must match")
        np.add.at(self._f, self._check_cols(cols[None])[0], coeffs)

    def add_equality(self, A, cols, rhs, label: str = "eq") -> None:
        """Add k constraints A[i] x[cols[i]] = rhs[i]: A (k, m, c), cols (k, c), rhs (k, m)."""
        A, rhs = np.asarray(A, dtype=float), np.asarray(rhs, dtype=float)
        cols = self._check_cols(cols)
        if A.ndim != 3 or rhs.shape != A.shape[:2] or A.shape[::2] != cols.shape:
            raise ValueError(f"equality A {A.shape}, rhs {rhs.shape}, cols {cols.shape}")
        self._add("eq", A, cols, rhs, label)

    def add_inequality(self, rows, cols, ub, label: str = "ineq") -> None:
        """Add k rows rows[i]' x[cols[i]] <= ub[i]: rows and cols (k, c), ub (k,)."""
        rows, ub = np.asarray(rows, dtype=float), np.asarray(ub, dtype=float)
        cols = self._check_cols(cols)
        if rows.shape != cols.shape or ub.shape != cols.shape[:1]:
            raise ValueError(f"inequality rows {rows.shape}, ub {ub.shape}, cols {cols.shape}")
        self._add("ineq", rows[:, None], cols, ub[:, None], label)

    def add_soc(self, A, b, c, d, cols, label: str = "soc") -> None:
        """Add k cones ||A[i] x[cols[i]] + b[i]|| <= c[i]' x[cols[i]] + d[i].

        A is (k, m, c), b (k, m), c and cols (k, c), and d (k,).
        """
        A, b, c, d = (np.asarray(v, dtype=float) for v in (A, b, c, d))
        cols = self._check_cols(cols)
        if A.ndim != 3 or (b.shape, d.shape) != (A.shape[:2], cols.shape[:1]) or not (
            A.shape[::2] == c.shape == cols.shape
        ):
            raise ValueError("second-order constraint dimensions do not match")
        coeffs = -np.concatenate([c[:, None], A], axis=1)  # s = (c'x + d, A x + b)
        self._add("soc", coeffs, cols, np.concatenate([d[:, None], b], axis=1), label)

    def _check_cols(self, cols) -> np.ndarray:
        """Column indices as a (k, c) array, each row in range and free of repeats."""
        cols = np.asarray(cols, dtype=int)
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError(f"column indices must have shape (k, c) with c >= 1, got {cols.shape}")
        # One sort serves both checks: the range reads the ends of the sorted rows.
        ordered = np.sort(cols, axis=1)
        if cols.size and (ordered[:, 0].min() < 0 or ordered[:, -1].max() >= self.num_vars):
            raise ValueError(f"column indices out of range [0, {self.num_vars})")
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("column indices must be unique within a constraint")
        return cols

    def _add(self, kind: str, coeffs, cols, rhs, label: str) -> None:
        if not rhs.shape[0]:
            return
        code = self._labels.setdefault(label, len(self._labels))
        # "eq" < "ineq" < "soc": the store stays in the row order of _triplets.
        bisect.insort(self._store, _batch(kind, code, coeffs, cols, rhs), key=lambda b: b.kind)

    # ------------------------------------------------------------- inspection

    def block_counts(self) -> dict[str, int]:
        """Number of constraints per label, in order of first use, for infeasibility diagnostics."""
        counts = [0] * len(self._labels)
        for batch in self._store:
            counts[batch.code] += batch.k
        return dict(zip(self._labels, counts))

    def residuals(self, x: np.ndarray) -> dict[str, float]:
        """Worst violation per label at the point x, which must have shape (num_vars,).

        With s = b - A x, equality rows contribute |s|, inequality rows (-s)+
        and each second-order cone (||s_1|| - s_0)+, which for its constraint
        is (||A x + b|| - c'x - d)+. Each label's worst is one reduction.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ValueError(f"point has shape {x.shape}, expected num_vars = ({self.num_vars},)")
        rows, cols, vals, b, cones = self._triplets()
        s = b - np.bincount(rows, vals * x[cols], minlength=b.size)
        lin = cones.zero + cones.nonneg
        alg = _ConeAlgebra(0, cones.soc)
        cone = np.sqrt(alg.tail_dot(s[lin:], s[lin:])) - s[lin:][alg.starts]
        # One violation per linear row and one per cone, batch after batch.
        violation = np.concatenate([np.abs(s[: cones.zero]), -s[cones.zero : lin], cone])
        codes = np.array([batch.code for batch in self._store], dtype=int)
        sizes = [b.k if b.kind == "soc" else b.k * b.m for b in self._store]
        worst = np.zeros(len(self._labels))
        np.maximum.at(worst, codes.repeat(sizes), violation)
        return dict(zip(self._labels, worst.tolist()))

    def max_residual(self, x: np.ndarray) -> float:
        return max(self.residuals(x).values(), default=0.0)

    # ------------------------------------------------------------------ solve

    def solve(self, tol: float = DEFAULT_TOL, max_iter: int = 200) -> Solution:
        """Solve with the interior-point method below and re-check residuals.

        Returns a Solution; never raises for infeasible or unbounded models,
        only for malformed input.
        """
        if not MIN_TOL <= tol < MAX_TOL:
            raise ValueError(f"tolerance {tol} out of range [{MIN_TOL:g}, {MAX_TOL:g})")
        if max_iter < 0:
            raise ValueError(f"max_iter {max_iter} is negative")
        if not self._labels:
            raise ValueError("cone program has no constraints")

        triplets = self._triplets()
        # One-off setup stays off the clock: the imports and the BLAS setters.
        from scipy import sparse  # noqa: F401
        from scipy.linalg import lapack  # noqa: F401

        # Breakdowns, an overflow among them, are detected and reported.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"), _one_blas_thread():
            t0 = time.perf_counter()
            raw_status, x, iterations = _interior_point(self._f, *triplets, tol, int(max_iter))
            dt = time.perf_counter() - t0

        mapping = {"Solved": OPTIMAL, "PrimalInfeasible": INFEASIBLE, "DualInfeasible": UNBOUNDED}
        status = mapping.get(raw_status, NUMERICAL_FAILURE)
        if status == OPTIMAL:
            objective, max_residual = float(self._f @ x), self.max_residual(x)
        else:
            x, objective, max_residual = None, np.nan, np.inf
        return Solution(status, x, objective, max_residual, dt, iterations, raw_status)

    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, _Cones]:
        """The canonical A x + s = b, s in K, as (rows, cols, vals, b, cones).

        Rows come in the order of _Cones: all equality rows, then all
        inequality rows, then one second-order cone per constraint, written
        as s = (c'x + d, A x + b). Each kind keeps the order of its adds.
        """
        sizes = [batch.k * batch.m for batch in self._store]
        zero = sum(n for batch, n in zip(self._store, sizes) if batch.kind == "eq")
        soc = [batch for batch in self._store if batch.kind == "soc"]
        dims = np.repeat([b.m for b in soc], [b.k for b in soc]).astype(int).tolist()
        cones = _Cones(zero, sum(sizes) - zero - sum(dims), tuple(dims))
        first = np.cumsum([0] + sizes).tolist()
        empty = (np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 2
        parts = [(b.rows + f, b.cols, b.vals, b.rhs) for b, f in zip(self._store, first)]
        return (*map(np.concatenate, zip(empty, *parts)), cones)


_BLAS_SETTERS: list | None = None  # thread-count setters of the loaded OpenBLAS libraries


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, and restore each library's count after.

    Threaded kernels split their sums by the thread count, so without the cap
    a plan's last bits would depend on the machine. The solve calls two
    libraries: numpy's matmul and scipy's LAPACK each have their own OpenBLAS.
    Those loaded at the first solve are found in the process's memory map;
    where none is found, or one lacks openblas_set_num_threads_local, nothing
    changes. The count is the library's own, so while a solve runs, other
    threads' calls into it are capped too.
    """
    global _BLAS_SETTERS
    if _BLAS_SETTERS is None:
        _BLAS_SETTERS = list(_openblas_setters())
    previous = [set_threads(1) for set_threads in _BLAS_SETTERS]
    try:
        yield
    finally:
        for set_threads, count in zip(_BLAS_SETTERS, previous):
            set_threads(count)


def _openblas_setters():
    """Each loaded OpenBLAS's openblas_set_num_threads_local; it returns the count it replaces."""
    import ctypes

    from scipy.linalg import lapack  # noqa: F401 - the solve's LAPACK, loaded before the search

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "/" in line}
    except OSError:
        return
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        yield setter


# ------------------------------------------------------------ conic solver
#
# A primal-dual interior-point method for
#
#     minimize q'x  subject to  A x + s = b,  s in K,
#
# where K is the zero cone (the first rows), the nonnegative orthant and a
# product of second-order cones {(t, u) : ||u|| <= t}. It follows ECOS
# (Domahidi, Chu and Boyd, ECC 2013): the homogeneous self-dual embedding,
# so that infeasible and unbounded models end in certificates instead of
# diverging; Nesterov-Todd scaling; a Mehrotra predictor-corrector; and a
# regularized KKT solve polished by iterative refinement. As in Clarabel
# (Goulart and Chen, 2024) the data are equilibrated first. The KKT system
# is reduced to dense normal equations of order num_vars + equality rows,
# which is small for the planner's models. Statuses use Clarabel's words.


@dataclass(frozen=True)
class _Cones:
    """Row layout of K: zero rows, nonnegative rows, then second-order cones."""

    zero: int
    nonneg: int
    soc: tuple[int, ...]


class _ConeAlgebra:
    """Jordan algebra of R+^l x SOC(d_1) x ... on vectors over the cone rows.

    Vectors hold the l nonnegative entries first, then each second-order
    cone with its axis entry (the head) first. Cones are handled as
    segments, so every operation is a few array calls for any cone count.
    """

    def __init__(self, nonneg: int, soc_dims: tuple[int, ...]):
        self.dims = np.asarray(soc_dims, dtype=int)
        self.l = int(nonneg)
        self.degree = self.l + self.dims.size
        self.starts = np.cumsum(self.dims) - self.dims  # head row of each cone

    @cached_property
    def cone(self) -> np.ndarray:
        """The cone of each SOC row."""
        return np.repeat(np.arange(self.dims.size), self.dims)

    @cached_property
    def identity(self) -> np.ndarray:
        head = np.zeros(int(self.dims.sum()))
        head[self.starts] = 1.0
        return np.concatenate([np.ones(self.l), head])

    def seg(self, v: np.ndarray) -> np.ndarray:
        """Per-cone sums over the rows of SOC vectors (axis 0)."""
        if not self.starts.size:
            return np.zeros((0,) + v.shape[1:])
        return np.add.reduceat(v, self.starts, axis=0)

    def tail_dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        prod = u * v
        prod[self.starts] = 0.0
        return self.seg(prod)

    def soc_det(self, u: np.ndarray) -> np.ndarray:
        """u0^2 - ||u1||^2 per cone, factored to stay accurate near the boundary."""
        n1 = np.sqrt(self.tail_dot(u, u))
        u0 = u[self.starts]
        return (u0 - n1) * (u0 + n1)

    def min_eig(self, u: np.ndarray) -> float:
        us = u[self.l :]
        eig = us[self.starts] - np.sqrt(self.tail_dot(us, us))
        return float(np.concatenate([u[: self.l], eig]).min(initial=np.inf))

    def product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jordan product u o v."""
        l, us, vs = self.l, u[self.l :], v[self.l :]
        soc = us[self.starts][self.cone] * vs + vs[self.starts][self.cone] * us
        soc[self.starts] = self.seg(us * vs)
        return np.concatenate([u[:l] * v[:l], soc])

    def scaling(self, s: np.ndarray, z: np.ndarray) -> _NTScaling:
        """Nesterov-Todd scaling W at (s, z), with W z = W^-1 s = lam."""
        l = self.l
        ss, zs = s[l:], z[l:]
        s_norm = np.sqrt(self.soc_det(ss))
        z_norm = np.sqrt(self.soc_det(zs))
        sb = ss / s_norm[self.cone]
        zb = zs / z_norm[self.cone]
        gamma = np.sqrt(0.5 * (1.0 + self.seg(sb * zb)))
        w1 = (sb - zb) / (2.0 * gamma[self.cone])
        w1[self.starts] = 0.0
        w0 = np.sqrt(1.0 + self.seg(w1 * w1))
        return _NTScaling(self, np.sqrt(s[:l] / z[:l]), w0, w1, np.sqrt(s_norm / z_norm), z)


class _NTScaling:
    """Nesterov-Todd scaling: diag(w) on R+, eta * Wbar(w0, w1) per cone.

    Wbar = [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] with w0^2 - ||w1||^2 = 1,
    and Wbar^-1 = J Wbar J for J = diag(1, -I). W is applied, never formed;
    w1 is stored over all SOC rows, zero on the heads. The scaled point
    lam = W z = W^-1 s is kept with its cone determinants and its
    normalization to unit determinant, which divide and max_step reuse.
    """

    def __init__(self, alg: _ConeAlgebra, w_lin, w0, w1, eta, z):
        self.alg, self.w_lin, self.w0, self.w1, self.eta = alg, w_lin, w0, w1, eta
        self.lam = self.apply(z)
        ls = self.lam[alg.l :]
        self.lam_det = alg.soc_det(ls)
        self.lam_norm = np.sqrt(self.lam_det)
        self.lam_unit = ls / self.lam_norm[alg.cone]

    def apply(self, u: np.ndarray, inverse: bool = False) -> np.ndarray:
        """W u (or W^-1 u) for u of shape (rows,) or (rows, k)."""
        alg = self.alg
        u2 = u[:, None] if u.ndim == 1 else u
        sign = -1.0 if inverse else 1.0
        us, w1 = u2[alg.l :], self.w1[:, None]
        zeta = alg.seg(w1 * us)
        u0 = us[alg.starts]
        coef = sign * u0 + zeta / (1.0 + self.w0)[:, None]
        soc = us + coef[alg.cone] * w1
        soc[alg.starts] = self.w0[:, None] * u0 + sign * zeta
        soc *= (self.eta**sign)[alg.cone, None]
        out = np.concatenate([u2[: alg.l] * (self.w_lin**sign)[:, None], soc])
        return out[:, 0] if u.ndim == 1 else out

    def divide(self, d: np.ndarray) -> np.ndarray:
        """The x with lam o x = d."""
        alg, lam = self.alg, self.lam
        ls, ds = lam[alg.l :], d[alg.l :]
        l0 = ls[alg.starts]
        x0 = (l0 * ds[alg.starts] - alg.tail_dot(ls, ds)) / self.lam_det
        soc = (ds - x0[alg.cone] * ls) / l0[alg.cone]
        soc[alg.starts] = x0
        return np.concatenate([d[: alg.l] / lam[: alg.l], soc])

    def max_step(self, du: np.ndarray) -> float:
        """Largest a with lam + a du[:, j] in K for every column j of du.

        A Lorentz boost maps lam to the identity; the step then reads off
        the boosted direction rho as 1 / (||rho_1|| - rho_0), and as
        1 / max(-du / lam) on the nonnegative rows.
        """
        alg, l = self.alg, self.alg.l
        ds, ub, norm = du[l:], self.lam_unit[:, None], self.lam_norm[:, None]
        u0, d0 = ub[alg.starts], ds[alg.starts]
        dot = u0 * d0 - alg.tail_dot(ub, ds)
        rho1 = (ds - ((dot + d0) / (u0 + 1.0))[alg.cone] * ub) / norm[alg.cone]
        rho = np.sqrt(alg.tail_dot(rho1, rho1)) - dot / norm
        top = max((-du[:l] / self.lam[:l, None]).max(initial=0.0), rho.max(initial=0.0))
        return 1.0 / top if top > 0.0 else np.inf


class _ScaledMatrix:
    """M = W^-1 G and M'M for the cone rows G of A, on patterns fixed at setup.

    M is laid out in dense blocks. A nonnegative row is a block of one row
    over its own entries, valued g / w_lin. W^-1 mixes the rows of one cone,
    so each cone's rows share the union of their column patterns and form
    one block, valued by the formula of _NTScaling.apply. M'M sums the Gram
    matrices of the blocks, batched by block shape: nonnegative rows first,
    grouped by length, then the cones. Squaring M keeps the accuracy that
    forming W^-2 would lose near the cone boundary.
    """

    def __init__(self, G: sparse.csr_matrix, alg: _ConeAlgebra):
        n = G.shape[1]
        self.shape, self.n = G.shape, n
        lin = G[: alg.l]
        self.lin_rows = np.repeat(np.arange(alg.l), np.diff(lin.indptr))
        self.lin_data = lin.data
        soc = G[alg.l :].tocoo()
        keys = alg.cone[soc.row] * n + soc.col
        pairs = np.unique(keys)  # (cone, column) pairs of the block patterns
        self.pair_cone = pairs // n
        width = np.bincount(self.pair_cone, minlength=alg.dims.size)
        pair_start = np.cumsum(width) - width
        row_len = width[alg.cone]
        row_ptr = np.concatenate([[0], np.cumsum(row_len)]).astype(int)
        # Block entries in row-major order: row, (cone, column) pair, cone.
        self.e_row = np.repeat(np.arange(alg.cone.size), row_len)
        self.e_cone = alg.cone[self.e_row]
        column = np.arange(row_ptr[-1]) - row_ptr[self.e_row]
        self.e_pair = pair_start[self.e_cone] + column
        column = np.arange(pairs.size) - pair_start[self.pair_cone]
        self.head = row_ptr[alg.starts[self.pair_cone]] + column  # head-row entries
        self.values = np.zeros(row_ptr[-1])
        at = np.searchsorted(pairs, keys) - pair_start[alg.cone[soc.row]] + row_ptr[soc.row]
        self.values[at] = soc.data
        self.indices = np.concatenate([lin.indices, pairs[self.e_pair] % n]).astype(np.int32)
        self.indptr = np.concatenate([lin.indptr, lin.nnz + row_ptr[1:]]).astype(np.int32)

        # Targets in M'M: the Gram matrix of each block, in the order above;
        # a (d, c) block's entries start at its first and run row by row.
        cols, lengths = self.indices.astype(int), np.diff(lin.indptr)
        shapes = [(1, k, lin.indptr[:-1][lengths == k]) for k in np.unique(lengths).tolist()]
        for d, c in sorted(set(zip(alg.dims.tolist(), width.tolist()))):
            shapes.append((d, c, lin.nnz + row_ptr[alg.starts[(alg.dims == d) & (width == c)]]))
        self.blocks, targets = [], [np.zeros(0, int)]
        for d, c, first in shapes:
            self.blocks.append(first[:, None, None] + np.arange(d * c).reshape(d, c))
            block_cols = cols[self.blocks[-1][:, 0, :]]
            targets.append((block_cols[:, :, None] * n + block_cols[:, None, :]).ravel())
        self.targets = np.concatenate(targets)

    def __call__(self, scal: _NTScaling) -> tuple[sparse.csr_matrix, np.ndarray]:
        """M as a sparse matrix and M'M as a dense one."""
        from scipy import sparse

        g, pc = self.values, self.pair_cone
        w1 = scal.w1[self.e_row]
        zeta = np.bincount(self.e_pair, weights=w1 * g, minlength=pc.size)
        u0 = g[self.head]
        soc = g + (zeta / (1.0 + scal.w0[pc]) - u0)[self.e_pair] * w1
        soc[self.head] = scal.w0[pc] * u0 - zeta
        soc /= scal.eta[self.e_cone]
        data = np.concatenate([self.lin_data / scal.w_lin[self.lin_rows], soc])
        grams = [np.zeros(0)]
        for idx in self.blocks:
            block = data[idx]
            grams.append(np.matmul(block.transpose(0, 2, 1), block).ravel())
        H = np.bincount(self.targets, np.concatenate(grams), minlength=self.n**2)
        M = sparse.csr_matrix((data, self.indices, self.indptr), self.shape)
        return M, H.reshape(self.n, self.n)


class _KKT:
    """Solves the scaled KKT system of one iteration.

        [[0, E', M'], [E, 0, 0], [M, 0, -I]] [x; y; v] = [r1; r2; r3]

    with M = W^-1 G, y the duals of the equality rows E and v = W z the
    scaled duals of the cone rows. Eliminating v leaves the dense normal
    system [[H, E'], [E, 0]] with H = M'M. It is factored with a static
    regularization d, [[H + dI, E'], [E, -dI]], that iterative refinement
    against the unregularized system removes again.
    """

    DELTA = 1e-8
    REFINE_STEPS = 8
    REFINE_TOL = 1e-13

    def __init__(self, M: sparse.csr_matrix, H: np.ndarray, E: np.ndarray):
        from scipy.linalg import lapack

        p, n = E.shape
        self.M, self.MT, self.H, self.E = M, M.T, H, E
        K = np.zeros((n + p, n + p))
        K[:n, :n] = H
        K[:n, n:] = E.T
        K[n:, :n] = E
        K[np.diag_indices(n + p)] += np.repeat([self.DELTA, -self.DELTA], [n, p])
        self.lu, self.piv, info = lapack.dgetrf(K)
        if info != 0 or not np.all(np.isfinite(self.lu)):
            raise np.linalg.LinAlgError("KKT factorization failed")

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        # One column at a time, so a column's bits do not depend on the
        # others: on one thread, a two-column getrs differed from single-column
        # solves in 82 of 82 random systems of order 50 to 250.
        from scipy.linalg import lapack

        if rhs.ndim == 1:
            return lapack.dgetrs(self.lu, self.piv, rhs)[0]
        return np.column_stack([self._lu_solve(col) for col in rhs.T])

    def solve(self, r1: np.ndarray, r2: np.ndarray, r3: np.ndarray):
        """Solve for one or more right-hand sides as columns; returns (x, y, v).

        v = M x - r3 holds by construction, so refinement corrects the first
        two block rows. Their residual applies M' as a sparse matrix: near the
        cone boundary M'(M x) and (M'M) x differ by more than the accuracy
        that the final iterations need.
        """
        n = self.H.shape[0]
        rhs = np.concatenate([r1 + self.MT @ r3, r2])
        sol = self._lu_solve(rhs)
        x, y = sol[:n], sol[n:]
        v = self.M @ x - r3
        scale = 1.0 + np.abs(rhs).max(initial=0.0)
        best = np.inf
        for _ in range(self.REFINE_STEPS):
            res = np.concatenate([r1 - self.E.T @ y - self.MT @ v, r2 - self.E @ x])
            err = np.abs(res).max(initial=0.0)
            if err <= self.REFINE_TOL * scale or err > 0.5 * best:
                break
            best = err
            step = self._lu_solve(res)
            x, y, v = x + step[:n], y + step[n:], v + self.M @ step[:n]
        return x, y, v


def _equilibrate(rows, cols, vals, shape, cones: _Cones, alg: _ConeAlgebra):
    """Ruiz equilibration: scalings d, c that bring the rows and columns of
    diag(d) A diag(c) towards unit infinity norm, for the triplets of A with
    vals = |a|. d is constant on each second-order cone, so that diag(d)
    maps K onto itself. An empty row or column keeps its scale of 1.
    """
    (m, n), first = shape, cones.zero + cones.nonneg

    def peak(at, size, scaled):
        out = np.zeros(size)
        np.maximum.at(out, at, scaled)
        return np.where(out > 0.0, out, 1.0)

    d, c = np.ones(m), np.ones(n)
    for _ in range(10):
        scaled = vals * d[rows] * c[cols]
        row_max = peak(rows, m, scaled)
        if alg.starts.size:
            row_max[first:] = np.maximum.reduceat(row_max[first:], alg.starts)[alg.cone]
        d /= np.sqrt(row_max)
        c /= np.sqrt(peak(cols, n, scaled))
    return d, c


def _interior_point(q, rows, cols, vals, b, cones: _Cones, tol: float, max_iter: int):
    """Solve min q'x s.t. A x + s = b, s in K; returns (status, x, iterations).

    A comes as its (row, column, value) triplets. The iterate (x, z, s, tau,
    kappa) approaches the homogeneous embedding A'z + q tau = 0,
    b tau - A x - s = 0, kappa = -q'x - b'z; z holds the duals of all rows,
    s lives on the cone rows only (it is 0 on zero rows). The iteration runs
    on equilibrated data, diag(d) A diag(c), the one CSR matrix built here;
    termination is judged on the original data.
    """
    from scipy import sparse

    p = cones.zero
    alg = _ConeAlgebra(cones.nonneg, cones.soc)
    shape = (b.size, q.size)
    nb, nq = np.abs(b).max(initial=0.0), np.abs(q).max(initial=0.0)
    d, c = _equilibrate(rows, cols, np.abs(vals), shape, cones, alg)
    A = sparse.csr_matrix((vals * d[rows] * c[cols], (rows, cols)), shape)
    q, b = q * c, b * d
    AT = A.T.tocsr()
    E, be, bc = A[:p].toarray(), b[:p], b[p:]
    scaled = _ScaledMatrix(A[p:], alg)
    e = alg.identity

    # Start from least-squares primal and least-norm dual points, shifted
    # into the cone interior (Vandenberghe, "The CVXOPT linear and quadratic
    # cone program solvers", 2010).
    X, Y, V = _KKT(*scaled(alg.scaling(e, e)), E).solve(
        np.column_stack([np.zeros_like(q), -q]),
        np.column_stack([be, np.zeros(p)]),
        np.column_stack([bc, np.zeros_like(bc)]),
    )
    x, s, z = X[:, 0], -V[:, 0], np.concatenate([Y[:, 1], V[:, 1]])
    for v in (s, z[p:]):
        shift = -alg.min_eig(v)
        if shift >= -1e-8 * max(1.0, np.abs(v).max(initial=0.0)):
            v += (1.0 + shift) * e
    tau = kappa = 1.0
    fallback = None  # last iterate that passed Clarabel's own test

    def stop(status, it):
        return ("Solved", fallback, it) if fallback is not None else (status, None, it)

    for it in range(max_iter + 1):
        zc = z[p:]
        rx = AT @ z + q * tau
        rp = b * tau - A @ x
        rp[p:] -= s
        qx, bz = float(q @ x), float(b @ z)
        rtau = -qx - bz - kappa
        mu = (float(s @ zc) + tau * kappa) / (alg.degree + 1)

        # Termination, on the original data. Clarabel measures residuals
        # against the data and the size of the iterate; here they must also
        # be small against the data alone, as the planner's large snap
        # epigraph slacks would otherwise let violations near 1e-6 pass. An
        # iterate that passes only Clarabel's test is kept as the answer in
        # case the iteration breaks down before it passes both.
        pcost, dcost = qx / tau, -bz / tau
        gap = abs(pcost - dcost)
        res_p = np.abs(rp / d).max(initial=0.0) / tau
        res_d = np.abs(rx / c).max(initial=0.0) / tau
        if gap <= tol or gap <= tol * max(1.0, min(abs(pcost), abs(dcost))):
            if res_p <= tol * max(1.0, nb) and res_d <= tol * max(1.0, nq):
                return "Solved", x * c / tau, it
            xn, sn, zn = (np.abs(v).max(initial=0.0) / tau for v in (x * c, s / d[p:], z * d))
            if res_p <= tol * max(1.0, nb + xn + sn) and res_d <= tol * max(1.0, nq + xn + zn):
                fallback = x * c / tau
        if bz < 0.0 and np.abs((rx - q * tau) / c).max() <= tol * -bz:
            return "PrimalInfeasible", None, it
        if qx < 0.0 and np.abs((b * tau - rp) / d).max() <= tol * -qx:
            return "DualInfeasible", None, it
        if it == max_iter:
            return stop("MaxIterations", it)

        scal = alg.scaling(s, zc)
        try:
            kkt = _KKT(*scaled(scal), E)
        except np.linalg.LinAlgError:
            return stop("NumericalError", it)
        rp_scaled, b_scaled = scal.apply(np.column_stack([rp[p:], bc]), inverse=True).T
        tau_col = None

        def direction(sigma, ds, dkappa):
            """Newton step for residual weight 1 - sigma and targets ds, dkappa.

            The cone parts come back scaled, as W^-1 ds and W dz, and the
            step length is found in that frame, from lam. The first call
            also solves for the tau column [-q; b] that both calls share.
            """
            nonlocal tau_col
            u = scal.divide(ds)
            rhs = ((sigma - 1.0) * rx, (1.0 - sigma) * rp[:p], (1.0 - sigma) * rp_scaled + u)
            if tau_col is None:
                both = kkt.solve(*map(np.column_stack, zip(rhs, (-q, be, b_scaled))))
                (x2, y2, v2), tau_col = zip(*(part.T for part in both))
            else:
                x2, y2, v2 = kkt.solve(*rhs)
            x1, y1, v1 = tau_col
            dtau = ((sigma - 1.0) * rtau - dkappa / tau + q @ x2 + be @ y2 + b_scaled @ v2) / (
                kappa / tau - q @ x1 - be @ y1 - b_scaled @ v1
            )
            dv = v2 + dtau * v1
            ds_scaled = -(u + dv)
            dkap = -(dkappa + kappa * dtau) / tau
            alpha = min(
                scal.max_step(np.column_stack([ds_scaled, dv])),
                -tau / dtau if dtau < 0 else np.inf,
                -kappa / dkap if dkap < 0 else np.inf,
            )
            return x2 + dtau * x1, y2 + dtau * y1, dv, ds_scaled, dtau, dkap, alpha

        lam2 = alg.product(scal.lam, scal.lam)
        _, _, dv, ds_scaled, dtau, dkap, alpha = direction(0.0, lam2, tau * kappa)
        sigma = (1.0 - min(1.0, alpha)) ** 3
        ds = lam2 + alg.product(ds_scaled, dv) - sigma * mu * e
        dx, dy, dv, ds_scaled, dtau, dkap, alpha = direction(
            sigma, ds, tau * kappa + dtau * dkap - sigma * mu
        )
        if not (np.isfinite(dtau) and alpha > 1e-10):
            return stop("NumericalError", it + 1)
        alpha = min(1.0, 0.99 * alpha)
        x = x + alpha * dx
        z = z + alpha * np.concatenate([dy, scal.apply(dv, inverse=True)])
        s = s + alpha * scal.apply(ds_scaled)
        tau, kappa = tau + alpha * dtau, kappa + alpha * dkap
