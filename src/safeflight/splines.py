"""Clamped uniform B-splines: knots, basis evaluation, derivative control points.

Flat-output trajectories are stored as degree-d B-splines over a clamped
uniform knot vector. The r-th derivative of such a curve is again a spline
over the same knots, one degree lower per derivative order, and its control
points are a fixed linear image of the original ones. That image is what
makes the whole planner convex: every derivative bound becomes a constraint
on finitely many derivative control points.

Conventions. A knot vector is its four numbers (t0, tf, n, degree). Its
knots tau_0 <= ... <= tau_{n+d+1} repeat t0 and tf d + 1 times each, with
uniform breakpoints between, and a curve of degree d over it has n + 1
control points. Basis functions of degree d are indexed 0..n and follow
the Cox-de Boor recursion. Only the d + 1 functions l-d..l are nonzero on a
span [tau_l, tau_{l+1}), and one routine builds just those, on the nonempty
spans d..n: de Boor's triangle, run on power-series coefficients about an
anchor. Anchored at sample times with one coefficient it gives basis values
(the waypoint rows); anchored at the span midpoints with d + 1 it gives the
basis on every span as polynomials, built once per knot vector. Each curve
contracts those with its control points into one stacked read-only table of
the coefficients of every order 0..d, evaluated with one Horner pass per
order after one gather: a repeat of each span's coefficients over its run of
samples when the times are sorted, a take otherwise.
Evaluation at the right endpoint returns left limits, so curves are defined
on all of [t0, tf].

Derivative control points are banded: the order-r point j is a weighted
difference of control points j - r .. j. Those r + 1 weights per point, the
derivative stencil, come from one bidiagonal difference recursion per knot
vector, vectorized over the points, and build the derivative control points.
The snap Gram matrix Q = G'G is built from an exact banded factor G: on
each span, the fourth derivative of the span power basis times a Cholesky
factor of the moments of s over the span. Equal knot arguments give equal
knot vectors, and clamped_uniform_knots hands out one shared instance from
a bounded cache, so plans over the same knots build each of these tables once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import perm
from operator import index
from typing import Sequence

import numpy as np


# Knot vectors held by clamped_uniform_knots; each carries its memoized tables.
KNOT_CACHE_SIZE = 32

# Least degree of a snap Gram, and so of a plan: the objective integrates squared snap.
MIN_DEGREE = 4

# Greatest degree of a snap Gram, and so of a plan: at 29 its moments' Cholesky fails (cond 4e17).
MAX_DEGREE = 28

# Most control points per axis (n + 1) of a plan. Its solve factors dense normal equations of
# order about 4 (n + 1): hover at n = 499 took 59 s and 415 MB (2-CPU Intel Xeon, one BLAS thread).
MAX_CONTROL_POINTS = 500


def clamped_uniform_knots(t0: float, tf: float, n: int, degree: int) -> "KnotVector":
    """The clamped uniform knot vector over [t0, tf], one shared instance per value.

    Equal arguments give the same KnotVector, held in a bounded LRU cache of
    KNOT_CACHE_SIZE entries, so every plan over one (t0, tf, n, degree)
    shares its stencils, snap Gram matrix and span power basis.

    Args:
        t0: Start time (first knot, multiplicity degree + 1).
        tf: End time (last knot, multiplicity degree + 1).
        n: Index of the last control point; the curve has n + 1 of them.
        degree: Spline degree d >= 1. Requires n >= degree.

    Returns:
        KnotVector with n + degree + 2 knots.
    """
    try:
        return _shared(t0, tf, n, degree)
    except TypeError:  # unhashable ends, such as arrays, which KnotVector names
        return KnotVector(t0, tf, n, degree)


@dataclass(frozen=True)
class KnotVector:
    """Clamped uniform knots over [t0, tf] for a degree-d curve with n + 1 control points.

    A knot vector is these four numbers, so equal arguments give equal
    vectors with equal hashes. It needs finite scalar ends t0 < tf, degree
    >= 1 and n >= degree, and stores -0.0 as 0.0. Every table that depends
    on the knots alone is memoized per instance and read-only: the knots
    tau, the derivative stencils, the snap Gram matrix and the span power
    basis. Curves over one KnotVector share them, and clamped_uniform_knots
    hands out one instance per value, so a second plan over the same knots
    builds none of them again.
    """

    t0: float
    tf: float
    n: int
    degree: int

    def __post_init__(self) -> None:
        t0, tf, n, degree = self.t0, self.tf, self.n, self.degree
        if np.ndim(t0) or np.ndim(tf):
            raise ValueError(f"need scalar t0 and tf, got {t0!r} and {tf!r}")
        if not np.isfinite(t0) or not np.isfinite(tf) or tf <= t0:
            raise ValueError(f"need finite t0 < tf, got [{t0}, {tf}]")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if n < degree:
            raise ValueError(f"need n >= degree for a clamped spline, got n={n}, degree={degree}")
        # Adding 0.0 stores -0.0 as 0.0, so a shared vector's knots never depend on
        # which of the equal ends came first; index() takes numpy ints and refuses floats.
        fields = float(t0) + 0.0, float(tf) + 0.0, index(n), index(degree)
        for name, value in zip(("t0", "tf", "n", "degree"), fields):
            object.__setattr__(self, name, value)

    @cached_property
    def tau(self) -> np.ndarray:
        """The n + d + 2 knots: t0 and tf each d + 1 times, uniform in between (read-only)."""
        d = self.degree
        interior = np.linspace(self.t0, self.tf, self.n - d + 2)
        tau = np.concatenate([np.full(d, self.t0), interior, np.full(d, self.tf)])
        tau.setflags(write=False)
        return tau

    def nonempty_spans(self) -> range:
        """Indices l of the nonempty spans [tau_l, tau_{l+1}) of a clamped vector."""
        return range(self.degree, self.n + 1)

    def span_index(self, t):
        """Index of the nonempty span containing t; tf maps to the last one.

        An int for scalar t, else an integer array shaped like t.
        """
        self._check_range(t)
        l = self._spans(np.asarray(t, dtype=float))
        return int(l) if np.ndim(l) == 0 else l

    def _spans(self, ts: np.ndarray) -> np.ndarray:
        """Nonempty span index of every time in ts (unchecked)."""
        l = self.tau.searchsorted(ts, side="right") - 1
        return np.minimum(np.maximum(l, self.degree), self.n)

    def basis_values(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Span indices and the d + 1 nonzero degree-d basis values at times ts.

        _de_boor anchored at the samples themselves, keeping one coefficient:
        the value at s = 0.

        Returns:
            (l, B) for the m times of ts in [t0, tf], any shape, flattened:
            l of shape (m,) and B of shape (m, d + 1), where B[i, a] is basis
            function l[i] - d + a at ts[i]. At tf the values are left limits.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float)).ravel()
        self._check_range(ts)
        l = self._spans(ts)
        return l, self._de_boor(l, ts, 1)[..., 0]

    def _de_boor(self, l: np.ndarray, at: np.ndarray, powers: int) -> np.ndarray:
        """De Boor's triangle on spans l, in power-series coefficients of s = t - at.

        Vectorized over the spans: row j holds the degree-j functions l-j..l
        on span l, and every denominator covers span l, so there is no 0/0.
        Each step forms ((at - tau_p) / den) * lam and ((tau_q - at) / den) *
        lam in the dense recursion's order, so one power gives its values at
        t = at bitwise; more powers add the s terms +-lam / den one power up.

        Returns:
            Shape (m, d + 1, powers); [i, a, k] is the coefficient of s**k in
            basis function l[i] - d + a.
        """
        d = self.degree
        # Knots tau[l-d+1 .. l+d] of each span, the only ones the triangle reads,
        # and the distances it takes: anchor minus left half, right half minus anchor.
        win = self.tau[l[:, None] + np.arange(1 - d, d + 1)][..., None]
        before, after = at[:, None, None] - win[:, :d], win[:, d:] - at[:, None, None]
        lam = np.eye(1, powers)[None]  # degree 0: the constant 1 on span l
        for j in range(1, d + 1):
            # Degree-(j-1) function p = l-j+1..l feeds degree-j functions p and p-1
            # through the knot pair (tau_p, tau_{p+j}).
            lo, hi = slice(d - j, d), slice(d, d + j)
            den = win[:, hi] - win[:, lo]
            nxt = np.zeros((l.size, j + 1, powers))
            nxt[:, 1:] = before[:, lo] / den * lam
            nxt[:, :-1] += after[:, :j] / den * lam
            if powers > 1:
                # The degree-(j-1) rows have nothing in the top power.
                a = lam[..., :-1] / den
                nxt[:, 1:, 1:] += a
                nxt[:, :-1, 1:] -= a
            lam = nxt
        return lam

    @cached_property
    def _span_midpoints(self) -> np.ndarray:
        """Midpoint (tau_l + tau_{l+1}) / 2 of each nonempty span l = d..n (read-only)."""
        mid = 0.5 * (self.tau[self.degree : self.n + 1] + self.tau[self.degree + 1 : self.n + 2])
        mid.setflags(write=False)
        return mid

    @cached_property
    def _span_power_basis(self) -> np.ndarray:
        """The degree-d basis on every nonempty span, as polynomials in s = t - mid.

        _de_boor anchored at the span midpoints, keeping all d + 1
        coefficients. Centring keeps |s| <= h / 2, so the coefficients stay
        well scaled even far from t = 0. Curves contract it with their
        control points for evaluation, and snap_gram integrates its fourth
        derivative in closed form.

        Returns:
            Read-only array of shape (S, d + 1, d + 1) for the S = n - d + 1
            nonempty spans; [i, a, k] is the coefficient of s**k in basis
            function l - d + a on span l = d + i.
        """
        lam = self._de_boor(np.array(self.nonempty_spans()), self._span_midpoints, self.degree + 1)
        lam.setflags(write=False)
        return lam

    def derivative_stencil(self, r: int) -> np.ndarray:
        """Weights of each order-r derivative point on the control points it uses.

        Row i, of r + 1 weights, makes derivative point j = i + r (in the
        original column indexing) from control points j - r .. j. Shape
        (n - r + 1, r + 1); memoized and read-only.
        """
        if not 0 <= r <= self.degree:
            raise ValueError(f"derivative order must lie in [0, {self.degree}], got {r}")
        return self._stencils[0][r]

    @property
    def end_weights(self) -> np.ndarray:
        """Weights of the order-r derivative at t0 and tf, for r = 0..d (read-only).

        Shape (2, d + 1, d + 1): [0, r] weighs control points 0..d, [1, r]
        control points n - d..n. On clamped knots the order-r derivative at
        t0 is the first order-r derivative point and at tf the last, so these
        are the end rows of derivative_stencil(r), zero-padded.
        """
        return self._stencils[1]

    @cached_property
    def _stencils(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """derivative_stencil(r) for r = 0..d, and end_weights, by one recursion.

        The bidiagonal difference factor of order i takes point k of order
        i - 1 and its successor to a_k (P_{k+1} - P_k), with
        a_k = (d - i + 1) / (tau_{k+d+1} - tau_{k+i}); on the stencils that
        is one shifted difference of all rows at once.
        """
        d, n, tau = self.degree, self.n, self.tau
        S = np.ones((n + 1, 1))
        stencils = [S]
        ends = np.zeros((2, d + 1, d + 1))
        ends[0, 0, 0] = ends[1, 0, d] = 1.0
        for i in range(1, d + 1):
            k = np.arange(n - i + 1)
            a = ((d - i + 1) / (tau[k + d + 1] - tau[k + i]))[:, None]
            nxt = np.zeros((n - i + 1, i + 1))
            nxt[:, 1:] = a * S[1:]
            nxt[:, :-1] -= a * S[:-1]
            S = nxt
            stencils.append(S)
            ends[0, i, : i + 1] = S[0]
            ends[1, i, d - i :] = S[-1]
        for arr in (*stencils, ends):
            arr.setflags(write=False)
        return tuple(stencils), ends

    @cached_property
    def _snap_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """snap_gram(self), built on first use."""
        return _build_snap_gram(self)

    def _check_range(self, t) -> None:
        t = np.asarray(t)
        # Written so that NaN, which fails every comparison, is out of range.
        if not ((t >= self.t0) & (t <= self.tf)).all():
            raise ValueError(f"evaluation time outside [{self.t0}, {self.tf}]")


_shared = lru_cache(maxsize=KNOT_CACHE_SIZE)(KnotVector)


def plan_knots(t0: float, tf: float, n: int, degree: int, path: str = "") -> KnotVector:
    """The shared knot vector of a plan's spline, by the one rule scenarios and plan documents meet.

    A plan needs MIN_DEGREE <= degree <= MAX_DEGREE, the degrees whose snap
    Gram builds, degree <= n < MAX_CONTROL_POINTS, and uniform spans from
    min_span_width(degree) to max_span_width(degree) wide, which refuses
    reversed, non-finite or overflowing ends too; a ValueError names the
    first of degree, n and tf that breaks it, after path (as "spline.").
    """
    if not MIN_DEGREE <= degree <= MAX_DEGREE:
        raise ValueError(f"{path}degree must lie in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
    if not degree <= n < MAX_CONTROL_POINTS:
        raise ValueError(
            f"{path}n must lie in [degree, MAX_CONTROL_POINTS - 1] = "
            f"[{degree}, {MAX_CONTROL_POINTS - 1}], got {n}"
        )
    spans = n - degree + 1
    width = (tf - t0) / spans
    least, most = min_span_width(degree), max_span_width(degree)
    # Written so that a NaN width, which fails every comparison, is refused.
    if not least <= width <= most:
        raise ValueError(
            f"{path}tf: (tf - t0) / {spans} spans = {width:g} s, "
            f"outside [{least:.3g}, {most:.3g}] at degree {degree}"
        )
    return clamped_uniform_knots(t0, tf, n, degree)


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """A vector-valued spline: knots plus control points of shape (dim, n+1).

    Equality and hash go by identity: the control points are an array.
    """

    knots: KnotVector
    ctrl: np.ndarray

    def __post_init__(self) -> None:
        ctrl = np.asarray(self.ctrl, dtype=float)
        if ctrl.ndim != 2 or ctrl.shape[1] != self.knots.n + 1:
            raise ValueError(
                f"control points must have shape (dim, {self.knots.n + 1}), got {ctrl.shape}"
            )
        ctrl = ctrl.copy()
        ctrl.setflags(write=False)
        object.__setattr__(self, "ctrl", ctrl)

    @property
    def dim(self) -> int:
        return self.ctrl.shape[0]

    @cached_property
    def _span_table(self) -> np.ndarray:
        """Power-series coefficients of every derivative order, stacked per span.

        Shape ((d + 1)(d + 2) / 2, dim, S), read-only: the rows of order q
        are _order_rows(d, q), and within them row k is the coefficient of
        s**k, s = t - mid, of the q-th derivative; [.., :, i] belongs to
        nonempty span d + i. Order 0 contracts the span's power basis, which
        the knot vector holds, with its d + 1 control points; order q takes
        rows q..d of that and scales row k + q by (k + q)! / k!. Spans run
        along the last axis, so one gather along it serves every order, and
        each Horner step then reads one contiguous (dim, samples) row.
        """
        kv = self.knots
        d = kv.degree
        cols = np.arange(d, kv.n + 1)[:, None] + np.arange(-d, 1)
        coef = (kv._span_power_basis.transpose(0, 2, 1) @ self.ctrl.T[cols]).transpose(1, 2, 0)
        rows, scale = _table_layout(d)
        table = coef.take(rows, axis=0)
        table *= scale[:, None, None]
        table.setflags(write=False)
        return table

    def _span_polynomials(self, q: int) -> np.ndarray:
        """The q-th derivative's rows of _span_table, shape (d - q + 1, dim, S), as a view."""
        return self._span_table[_order_rows(self.knots.degree, q)]

    def eval(self, t, r: int | Sequence[int] = 0):
        """Evaluate the r-th derivative of the curve, or several at once.

        Each sample takes s = t - mid from its span's midpoint and runs one
        Horner pass per order over that span's power-series coefficients.
        One gather from the stacked table fetches the coefficient rows of
        all requested orders for every sample. When two or more times are
        non-decreasing, as on every dense grid and tick window, each span's
        samples form one run: one searchsorted of the span edges into the
        times finds the runs and a repeat copies each span's coefficients
        over its run. Other times take them by span index. Both give the
        same coefficients in the same Horner arithmetic, so results are
        bitwise those of single-order calls, of scalar calls and of any
        reordering of the times.

        Args:
            t: Scalar time or array of times in [t0, tf].
            r: Derivative order 0 <= r <= degree, or a nonempty sequence of
                such orders.

        Returns:
            For an int r, shape (dim,) for scalar t, else (len(t), dim). For
            a sequence, a tuple of such arrays, one per order in the order
            given.
        """
        kv = self.knots
        d = kv.degree
        orders = (r,) if (single := np.ndim(r) == 0) else tuple(r)
        low, high = (min(orders), max(orders)) if orders else (0, -1)
        if not 0 <= low <= high <= d:
            raise ValueError(f"need derivative orders in [0, {d}], got {r!r}")
        ts = np.asarray(t, dtype=float)
        scalar, ts = ts.ndim == 0, ts.reshape(-1)
        first = _order_rows(d, low).start
        table = self._span_table[first : _order_rows(d, high).stop]
        flat = table.reshape(-1, table.shape[-1])
        mid = kv._span_midpoints
        # A NaN fails every comparison, so times holding one are never taken
        # as sorted and the span path's full range check rejects them; sorted
        # times are in range when their ends are (the full check words the error).
        if ts.size > 1 and (ts[1:] >= ts[:-1]).all():
            if not kv.t0 <= ts[0] <= ts[-1] <= kv.tf:
                kv._check_range(ts)
            edges = ts.searchsorted(kv.tau[d : kv.n + 2])
            edges[-1] = ts.size  # samples at tf belong to the last span
            runs = edges[1:] - edges[:-1]
            coef = flat.repeat(runs, axis=1)
            s = ts - mid.repeat(runs)
        else:
            kv._check_range(ts)
            i = kv._spans(ts) - d
            coef = flat.take(i, axis=1)
            s = ts - mid[i]
        coef = coef.reshape(table.shape[0], self.dim, ts.size)
        out = []
        for q in orders:
            rows = _order_rows(d, q)
            c = coef[rows.start - first : rows.stop - first]
            val = c[-1].copy()
            for row in c[-2::-1]:
                val *= s
                val += row
            out.append(val[:, 0] if scalar else val.T)
        return out[0] if single else tuple(out)


@lru_cache(maxsize=None)
def _table_layout(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """For each stacked-table row (order q, power k): order-0 row k + q and scale (k + q)! / k!."""
    pairs = [(k, q) for q in range(degree + 1) for k in range(degree - q + 1)]
    rows = np.array([k + q for k, q in pairs])
    scale = np.array([perm(k + q, q) for k, q in pairs], dtype=float)
    rows.setflags(write=False)
    scale.setflags(write=False)
    return rows, scale


def _order_rows(degree: int, q: int) -> slice:
    """The rows of order q in a stacked table of orders 0..degree (d - q + 1 of them)."""
    start = q * (degree + 1) - q * (q - 1) // 2
    return slice(start, start + degree - q + 1)


@dataclass(frozen=True, eq=False)
class DerivativePoints:
    """Control points of the r-th derivative curve, in original column indexing.

    points[:, j] is nonzero only for r <= j <= n; on span [tau_l, tau_{l+1})
    the derivative curve lies in the convex hull of columns l-d+r .. l.
    Equality and hash go by identity, as for SplineCurve.
    """

    r: int
    points: np.ndarray
    knots: KnotVector

    def span_columns(self, l: int) -> np.ndarray:
        """The d - r + 1 column indices whose hull bounds the curve on span l."""
        kv = self.knots
        if l not in kv.nonempty_spans():
            raise ValueError(f"span {l} is empty or out of range")
        return np.arange(l - kv.degree + self.r, l + 1)

    def span_points(self, l: int) -> np.ndarray:
        """Shape (dim, d - r + 1) slice of the hull points for span l."""
        return self.points[:, self.span_columns(l)]


def derivative_control_points(curve: SplineCurve, r: int) -> DerivativePoints:
    """Control points of the r-th derivative, each a stencil row over its r + 1 control points.

    Point j, for r <= j <= n, contracts row j - r of derivative_stencil(r)
    with control points j - r .. j. The first r and last r of the n + r + 1
    columns are exactly zero: they pad the points into the original column
    indexing. The points are read-only.
    """
    kv = curve.knots
    stencil = kv.derivative_stencil(r)
    windows = np.lib.stride_tricks.sliding_window_view(curve.ctrl, r + 1, axis=1)
    points = np.zeros((curve.dim, kv.n + r + 1))
    points[:, r : kv.n + 1] = np.einsum("ajk,jk->aj", windows, stencil)
    points.setflags(write=False)
    return DerivativePoints(r=r, points=points, knots=kv)


def snap_gram(knots: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of fourth-derivative inner products, and its banded square-root factor.

    For a single-axis curve with coefficients x over these knots,
    x @ Q @ x equals the integral of the squared fourth derivative over
    [t0, tf]. Built in closed form, span by span: the fourth derivative of
    the span's power basis, P4 (columns 4..d, column k + 4 scaled by
    (k + 4)! / k!), is a polynomial in s = t - mid of degree d - 4. The
    moments of s over the span [-h/2, h/2] are D H D, with D =
    diag((h/2)**(i + 1/2)) and H the moments of u on [-1, 1] (2 / (i + j + 1)
    for even i + j, else 0), so chol(H)' D P4' factors the span's share.

    Returns:
        (Q, G) with Q = G.T @ G of shape (n+1, n+1), positive semidefinite,
        and G stacking the span factors: d - 3 rows per nonempty span l,
        nonzero only in columns l - d .. l. Both are memoized per knot
        vector and read-only.

    Raises:
        ValueError: for a degree outside [MIN_DEGREE, MAX_DEGREE], or a Q that
            is not finite, as over spans narrower than min_span_width(degree).
    """
    if not MIN_DEGREE <= knots.degree <= MAX_DEGREE:
        bound = f">= {MIN_DEGREE}" if knots.degree < MIN_DEGREE else f"<= {MAX_DEGREE}"
        raise ValueError(f"snap Gram needs degree {bound}, got {knots.degree}")
    return knots._snap_gram


def min_span_width(degree: int) -> float:
    """Narrowest span, in seconds, over which the snap Gram is built in float64.

    Over spans w wide the Gram's entries grow as w**-7 and the span power
    basis' as w**-degree, and both stay finite while w**max(7, degree) is
    at least 1e-280.
    """
    return 10.0 ** (-280.0 / max(7, degree))


def max_span_width(degree: int) -> float:
    """Widest span, in seconds, over which the snap Gram is built in float64.

    Over spans w wide the Gram's entries shrink as w**-7 and the moments of
    s over a span grow up to w**(2 degree - 7), and neither leaves the
    normal float64 range while w**max(7, 2 degree - 7) is at most 1e280.
    """
    return 10.0 ** (280.0 / max(7, 2 * degree - 7))


def _build_snap_gram(knots: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    d, n = knots.degree, knots.n
    k = np.arange(d - 3)  # the snap's powers of s on a span: 0 .. d - 4
    e = k[:, None] + k
    H = np.where(e % 2 == 0, 2.0 / (e + 1), 0.0)  # moments of u**e on [-1, 1]
    try:
        chol = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise ValueError(f"snap Gram has no Cholesky factor of its moments at degree {d}") from None
    rows, scale = (a[_order_rows(d, 4)] for a in _table_layout(d))
    P4 = knots._span_power_basis[:, :, rows] * scale
    half = 0.5 * np.diff(knots.tau[d : n + 2])[:, None, None]
    F = P4 * half ** (k + 0.5) @ chol  # span l's factor, transposed
    i = np.arange(n - d + 1)[:, None]
    G = np.zeros((n - d + 1, d - 3, n + 1))
    G[i, :, i + np.arange(d + 1)] = F
    G = G.reshape(-1, n + 1)
    Q = G.T @ G
    if not np.isfinite(Q).all():
        raise ValueError(f"snap Gram is not finite over spans {2.0 * half.min():g} s wide")
    Q.setflags(write=False)
    G.setflags(write=False)
    return Q, G
