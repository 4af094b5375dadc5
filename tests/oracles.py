"""Reference solvers used only by the test suite.

The spline basis has a dense reference here too: the textbook Cox-de Boor
recursion over every basis function, in the same arithmetic as the local
triangle, so the two must agree bit for bit.

The tracking filter claims to solve its safety QP in closed form, so the
tests need an independent QP method accurate enough to check 1e-8 in the
argument. Interior-point solves cannot do that: an epsilon-suboptimal point
of a quadratic can sit sqrt(epsilon) away from the minimizer along flat
directions, which is 1e-3 territory at realistic gap tolerances. A primal
active-set method terminates finitely with an exact KKT solve instead.

The closed loop has a per-tick reference too: the simulation loop as it
was before the trace moved to one batched controller call after the loop,
recording each tick's whole command as it goes.
"""

import numpy as np

from safeflight.simverify import SimTrace
from safeflight.tracker import ReferencePoint, TrackingState


def active_set_qp(H, f, G, h, x0, tol=1e-12, max_iter=100):
    """Minimize 1/2 x'Hx + f'x subject to G x <= h.

    Textbook primal active-set iteration for small dense problems. x0 must
    be feasible; the result is exact up to linear-solve roundoff.
    """
    x = np.asarray(x0, dtype=float).copy()
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m = G.shape[0]
    work = [i for i in range(m) if G[i] @ x >= h[i] - tol]
    for _ in range(max_iter):
        Gw = G[work]
        k = len(work)
        kkt = np.block([[H, Gw.T], [Gw, np.zeros((k, k))]]) if k else H
        rhs = np.concatenate([-(H @ x + f), np.zeros(k)])
        sol = np.linalg.solve(kkt, rhs)
        p, lam = sol[: x.size], sol[x.size :]
        if np.abs(p).max() <= tol:
            if k == 0 or lam.min() >= -tol:
                return x
            work.pop(int(np.argmin(lam)))
            continue
        alpha, blocker = 1.0, None
        for i in range(m):
            if i in work:
                continue
            gp = G[i] @ p
            if gp > tol:
                a = (h[i] - G[i] @ x) / gp
                if a < alpha:
                    alpha, blocker = a, i
        x = x + alpha * p
        if blocker is not None:
            work.append(blocker)
    raise RuntimeError("active-set iteration did not converge")


def box_projection_qp(mu_nom, lower, upper):
    """Projection of mu_nom onto the box [lower, upper] as a generic QP."""
    mu_nom = np.asarray(mu_nom, dtype=float)
    n = mu_nom.size
    H = 2.0 * np.eye(n)
    f = -2.0 * mu_nom
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([upper, -np.asarray(lower, dtype=float)])
    x0 = 0.5 * (np.asarray(lower, dtype=float) + np.asarray(upper, dtype=float))
    return active_set_qp(H, f, G, h, x0)


def cox_de_boor_matrix(tau, degree, ts):
    """All degree-k basis functions over the knots tau at times ts, densely.

    One column per function, the 0/0 := 0 convention, and the last nonempty
    span closed on the right so that tf returns left limits.
    """
    tau = np.asarray(tau, dtype=float)
    ts = np.asarray(ts, dtype=float)
    B = ((tau[:-1] <= ts[:, None]) & (ts[:, None] < tau[1:])).astype(float)
    last = int(np.flatnonzero(np.diff(tau) > 0.0)[-1])
    B[ts == tau[-1], last] = 1.0
    for k in range(1, degree + 1):
        Bk = np.zeros((ts.size, tau.size - 1 - k))
        for i in range(Bk.shape[1]):
            den_l, den_r = tau[i + k] - tau[i], tau[i + k + 1] - tau[i + 1]
            if den_l > 0.0:
                Bk[:, i] += (ts - tau[i]) / den_l * B[:, i]
            if den_r > 0.0:
                Bk[:, i] += (tau[i + k + 1] - ts) / den_r * B[:, i + 1]
        B = Bk
    return B


def simulate_per_tick(reference, controller, cfg, t0=0.0, duration=None):
    """simulate() recording every field of each tick's command inside the loop."""
    span = duration if duration is not None else cfg.duration
    M = int(round((span or 0.0) * cfg.control_rate))
    h = 1.0 / cfg.control_rate
    ts = t0 + np.arange(M) * h
    ref = reference(ts)
    ref_r, ref_r1, ref_r2 = (
        np.broadcast_to(np.asarray(f, dtype=float), (M, 3)).copy() for f in (ref.r, ref.r1, ref.r2)
    )
    start = cfg.initial_state or TrackingState(
        r=ref_r[0] + cfg.initial_position_offset, r1=ref_r1[0] + cfg.initial_velocity_offset
    )
    r, r1 = np.array(start.r, dtype=float), np.array(start.r1, dtype=float)

    states, cmds = [], []
    for i in range(M):
        state = TrackingState(r=r, r1=r1)
        cmd = controller(ts[i], state, ReferencePoint(r=ref_r[i], r1=ref_r1[i], r2=ref_r2[i]))
        states.append(state)
        cmds.append(cmd)
        r, r1 = r + r1 * h + 0.5 * cmd.mu * h * h, r1 + cmd.mu * h

    thrust, phi, theta = np.array([(c.v.thrust, c.v.phi, c.v.theta) for c in cmds]).T
    return SimTrace(
        t=ts,
        r=np.array([s.r for s in states]),
        r1=np.array([s.r1 for s in states]),
        ref_r=ref_r,
        ref_r1=ref_r1,
        ref_r2=ref_r2,
        mu_nominal=np.array([c.mu_nominal for c in cmds]),
        mu=np.array([c.mu for c in cmds]),
        thrust=thrust,
        phi=phi,
        theta=theta,
        barriers=np.array([c.barriers for c in cmds]),
        active=np.array([c.active for c in cmds], dtype=bool),
    )
