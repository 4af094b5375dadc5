"""Independent oracles: everything here uses scipy and numpy, not safeflight.

The reference spline, the expected block census, the verification margins
and the closed-loop trace are all recomputed from the scenario data alone,
so a defect in the package's splines, compilers, verifier or simulator shows
up as a mismatch instead of being compared against itself.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.interpolate import BSpline

SAMPLES_PER_SPAN = 300  # the CLI default for `safeflight verify`


def knots(t0: float, tf: float, n: int, degree: int) -> np.ndarray:
    """Clamped uniform knot vector with n + 1 control points."""
    interior = np.linspace(t0, tf, n - degree + 2)
    return np.concatenate([np.full(degree, t0), interior, np.full(degree, tf)])


def spline(tau: np.ndarray, ctrl: np.ndarray, degree: int) -> BSpline:
    """scipy BSpline of control points shaped (3, n+1); values come out (..., 3)."""
    return BSpline(tau, np.asarray(ctrl, dtype=float).T, degree)


def min_snap_reference(ps) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-snap control points (3, n+1) through the pins and waypoints.

    One equality-constrained least-squares solve: the KKT system of
    min sum_a c_a' Q c_a s.t. E c_a = g_a, with Q the snap Gram matrix from
    Gauss-Legendre quadrature of scipy basis derivatives. Rows of E and the
    Gram matrix are scaled to unit size first; unscaled, the short spans of
    example2_window leave 4e-8 of pin error.

    Returns the control points and the integrated squared snap per axis.
    """
    d, n = ps.degree, ps.n
    tau = knots(ps.t0, ps.tf, n, d)
    basis = BSpline(tau, np.eye(n + 1), d)
    rows, rhs = [], []
    for t, values in ((ps.t0, ps.pins.initial), (ps.tf, ps.pins.final)):
        for r, value in enumerate(values):
            rows.append(basis(t, nu=r))
            rhs.append(value)
    for wp in ps.waypoints:
        rows.append(basis(wp.time))
        rhs.append(wp.position)
    E, G = np.array(rows), np.array(rhs, dtype=float)
    Q = snap_gram(tau, d)
    scale = np.abs(E).max(axis=1)
    E, G = E / scale[:, None], G / scale[:, None]
    m = E.shape[0]
    kkt = np.block([[2.0 * Q / np.abs(Q).max(), E.T], [E, np.zeros((m, m))]])
    ctrl = np.linalg.solve(kkt, np.vstack([np.zeros((n + 1, 3)), G]))[: n + 1].T
    return ctrl, np.einsum("ai,ij,aj->a", ctrl, Q, ctrl)


def snap_gram(tau: np.ndarray, degree: int) -> np.ndarray:
    """Integral of squared fourth derivatives of the basis, span by span."""
    n = tau.size - degree - 2
    basis = BSpline(tau, np.eye(n + 1), degree)
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    Q = np.zeros((n + 1, n + 1))
    for l in range(degree, n + 1):
        a, b = tau[l], tau[l + 1]
        D = basis(0.5 * (b - a) * nodes + 0.5 * (a + b), nu=4)
        Q += D.T @ (0.5 * (b - a) * weights[:, None] * D)
    return Q


def num_zeta(ps) -> int:
    return 1 if ps.zeta_mode == "scalar" else ps.n - ps.degree + 1


def expected_blocks(ps) -> dict[str, int]:
    """Cone-block census per label, derived from the scenario's structure."""
    n, d = ps.n, ps.degree
    tau = knots(ps.t0, ps.tf, n, d)
    counts: Counter = Counter()
    counts["position"] += (n + 1) * sum(len(reg.cones) for reg in ps.bounds.regions)
    counts["velocity"] += n
    counts["tilt"] += n - 1
    counts["thrust-upper"] += n - 1
    counts["thrust-lower"] += n - 1
    if ps.zeta_mode == "scalar":
        counts["rate-floor"] += n - 1
        counts["rate-jerk"] += n - 2
    else:
        counts["rate-floor"] += (d - 1) * num_zeta(ps)
        counts["rate-jerk"] += (d - 2) * num_zeta(ps)
    counts["waypoint"] += len(ps.waypoints)
    counts["endpoint"] += len(ps.pins.initial) + len(ps.pins.final)
    for region in ps.corridor or ():
        counts["corridor"] += (d + 1) * len(region.cones)
    for ic in ps.intervals:
        r = 0 if ic.kind == "position" else 1
        lo = min(max(int(np.searchsorted(tau, ic.t_start, side="right")) - 1, d), n)
        hi = int(np.searchsorted(tau, ic.t_end, side="left"))
        columns = hi - (lo - d + r)
        if ic.kind == "position":
            counts["window-position"] += columns * len(ic.region.cones)
        else:
            counts["window-speed"] += columns
    counts["snap-epigraph"] += 3
    return {k: v for k, v in counts.items() if v}


def verify_grid(tau: np.ndarray, degree: int) -> np.ndarray:
    """Left-closed per-span grids plus tf, as `safeflight verify` samples."""
    n = tau.size - degree - 2
    parts = [
        np.linspace(tau[l], tau[l + 1], SAMPLES_PER_SPAN, endpoint=False)
        for l in range(degree, n + 1)
    ]
    return np.concatenate(parts + [np.array([tau[-1]])])


def verify_expectations(ps, ctrl: np.ndarray) -> dict:
    """Grid derivatives and the speed, thrust and pin margins of a plan."""
    tau = knots(ps.t0, ps.tf, ps.n, ps.degree)
    spl = spline(tau, ctrl, ps.degree)
    ts = verify_grid(tau, ps.degree)
    derivs = [spl(ts, nu=r) for r in range(4)]
    speed = np.linalg.norm(derivs[1], axis=1)
    thrust = np.linalg.norm(derivs[2] + np.array([0.0, 0.0, ps.gravity]), axis=1)
    b = ps.bounds
    margins = {
        "speed": b.v_max - speed.max(),
        "thrust-upper": b.thrust_max - thrust.max(),
        "thrust-lower": thrust.min() - b.thrust_min,
    }
    for t_m, values, side in ((ps.t0, ps.pins.initial, "start"), (ps.tf, ps.pins.final, "end")):
        for r, value in enumerate(values):
            margins[f"pin:{side}[r{r}]"] = -float(np.abs(spl(t_m, nu=r) - value).max())
    return {
        "grid": ts,
        "derivs": derivs,
        "thrust": thrust,
        "margins": margins,
        "samples": (ps.n - ps.degree + 1) * SAMPLES_PER_SPAN + 1,
    }


def closed_loop_positions(ps, ctrl, cbf, gains, rate, t_start, ticks, pos_offset, vel_offset):
    """Position trace of the filtered loop with exact double-integrator steps.

    The reference is held at the plan's ends, the nominal input is
    feedforward plus PD, and the filter clamps it to
    ref_a - a1 e1 - a2 e +- a2 delta on each axis.
    """
    tau = knots(ps.t0, ps.tf, ps.n, ps.degree)
    spl = spline(tau, ctrl, ps.degree)
    h = 1.0 / rate
    ts = np.clip(t_start + np.arange(ticks) * h, ps.t0, ps.tf)
    R, V, A = (spl(ts, nu=r) for r in range(3))
    r = R[0] + pos_offset
    r1 = V[0] + vel_offset
    out = np.empty((ticks, 3))
    for i in range(ticks):
        out[i] = r
        e, e1 = r - R[i], r1 - V[i]
        base = A[i] - cbf.a1 * e1 - cbf.a2 * e
        nominal = A[i] + gains.kp * (R[i] - r) + gains.kd * (V[i] - r1)
        mu = np.clip(nominal, base - cbf.a2 * cbf.delta, base + cbf.a2 * cbf.delta)
        r, r1 = r + r1 * h + 0.5 * mu * h * h, r1 + mu * h
    return out
