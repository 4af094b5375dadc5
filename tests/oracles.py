"""Reference implementations used only by the test suite.

The spline basis has a dense reference here too: the textbook Cox-de Boor
recursion over every basis function, in the same arithmetic as the local
triangle, so the two must agree bit for bit.

The flatness map has a scalar reference at any yaw: flat_to_state_input
builds the full rotation matrix from the thrust axis and the yaw heading
and reads roll, pitch and the body rates off it, one sample at a time.
virtual_from_attitude is the forward map mu = T z_B(phi, theta, psi) - g z_W
that attitude_from_virtual inverts. The package's batched zero-yaw map,
tilt_thrust_rates, is checked against the first, and attitude_from_virtual
against both. tilt_thrust_rates_vectors is the batched map as it was written
on (..., 3) axis vectors, with a stacked x_B, a cross product for y_B and
the jerk projected off z_B; the componentwise map must match it bitwise in
thrust and angles.

The tracking filter claims to solve its safety QP in closed form, so the
tests need an independent QP method accurate enough to check 1e-8 in the
argument. Interior-point solves cannot do that: an epsilon-suboptimal point
of a quadratic can sit sqrt(epsilon) away from the minimizer along flat
directions, which is 1e-3 territory at realistic gap tolerances. A primal
active-set method terminates finitely with an exact KKT solve instead.
Beside it sits the filter's face path: cbf_faces lists the six half-spaces
of the admissible box one by one, ordered x+, x-, y+, y-, z+, z-, and
filter_input clamps onto them face by face. The package's SafetyFilter
reads the same clamp straight off its box arrays and must match it bit for
bit. The filter's direct form is kept too: face_bounds_direct,
nominal_mu_direct and safe_step_direct compute the box centre as
ref_r2 - a1 (r1 - ref_r1) - a2 (r - ref_r) with scalar coefficients, and
the package's filter, which forms each error difference once and holds its
coefficients as plain floats, must match them bit for bit, on single ticks
and on whole closed loops.

The export command's samples CSV and the closed loop's trace CSV have
per-row writers here, csv.writer over one formatted list per row, each
export speed from its own np.linalg.norm call; the package's one CSV
writer must produce the same bytes for both.

The membership margins have their direct forms: soc_margin_direct takes
the norm with np.linalg.norm along the last axis and region_margin_direct
the half-space minimum with .min(axis=-1), and the package's column-wise
kernels must match them bit for bit. verify_plan_per_point is the dense
verifier as it was before its point checks were batched: one curve
evaluation per waypoint, per pin and per window, with the direct region
margins and one np.argmin of its own (worst_sample) per family, window
and corridor set. The package's report must equal it in every name,
margin, worst time and detail, each detail number written to four
significant digits.

The closed loop has a per-tick reference too: simulate_per_tick steps the
state as (1, 3) arrays and calls the controller's batched form on each
tick's row, recording the row's whole command as it goes, where simulate
steps Python floats through the controller's one-tick form and records the
run with one batched call after the loop. direct_controller gives its
one-tick form through its array code.

The snap epigraph has its reference encoding: quadratic_epigraph adds k
variables s and the cones x' G'G x <= s, each written out by hand as one
block of rows (s + 1, 2 G x, s - 1) and stored without add_soc. The
planner's snap-epigraph family, which add_soc stores, must equal it in
every triplet and right-hand side, bit for bit, and the solver's quadratic
tests build their objectives through it.

The cone model has a dense reference. dense_derivative_matrix is the
product of bidiagonal difference factors that the derivative stencils
replace, and DensePlanAssembly compiles every family as rows over all
3(n + 1) control-point columns, with waypoints and endpoint pins read off
cox_de_boor_matrix rows, each cone of a membership family placed one by
one, and the snap epigraph of each axis added on its own over
dense_snap_gram: the dense B_4 rows at the Gauss-Legendre nodes of every
span, each scaled by the square root of its weight, which factor the Gram
matrix that the package builds from the span power basis in closed form.
dense_compile_plan runs the families in compile_plan's order, so the two
models must agree in census, rows, nonzero pattern and right-hand side.

The solver's equilibrated matrix has its sparse-product reference:
csc_scaled_matrix assembles the stored triplets as a CSC matrix, converts
it to CSR, takes the Ruiz scalings of equilibrate_csr from its row pointers
and an argsort of its columns, and scales it by two products with
sparse.diags. The solver builds its one CSR from the triplets, scaled as
they are read, and must match the scalings and the CSR bit for bit.

The document checker has its two-walk reference: schema_violation finds the
shallowest place where a document breaks its schema in one walk, and
schema_converted makes every schema number a float and every integer an int
in a second walk of a valid document; schema_checked runs both, as the
package's checker did before it compiled each schema into one walk that
checks and converts at once. The package's violation and checked must agree
with them in every path, message, value and Python type.
"""

import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np

from safeflight.flatness import (
    GRAVITY,
    ReducedInput,
    SingularAttitudeError,
    SingularThrustError,
    tilt_thrust_rates,
)
from safeflight.planner import (
    EndpointPins,
    PlanAssembly,
    PlanningScenario,
    compile_tracking_margins,
)
from safeflight.simverify import (
    ConstraintCheck,
    ConstraintReport,
    SimTrace,
    span_samples,
)
from safeflight.socp import ConeProgram
from safeflight.splines import KnotVector, clamped_uniform_knots
from safeflight.tracker import (
    CbfParams,
    PdGains,
    ReferencePoint,
    SafeCommand,
    SafetyFilter,
    TrackingState,
)

_Z_W = np.array([0.0, 0.0, 1.0])


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
    """simulate() in array code: each tick calls the controller's batched form
    on one (1, 3) row and records that row's whole command."""
    span = duration if duration is not None else cfg.duration
    M = int(round((span or 0.0) * cfg.control_rate))
    h = 1.0 / cfg.control_rate
    ts = t0 + np.arange(M) * h
    ref = reference(ts)
    ref_r, ref_r1, ref_r2 = (
        np.broadcast_to(np.asarray(f, dtype=float), (M, 3)).copy() for f in (ref.r, ref.r1, ref.r2)
    )
    r, r1 = ref_r[:1] + cfg.initial_position_offset, ref_r1[:1] + cfg.initial_velocity_offset

    states, cmds = [], []
    for i in range(M):
        row = slice(i, i + 1)
        state = TrackingState(r=r, r1=r1)
        cmd = controller(ts[row], state, ReferencePoint(ref_r[row], ref_r1[row], ref_r2[row]))
        states.append(state)
        cmds.append(cmd)
        r, r1 = r + r1 * h + 0.5 * cmd.mu * h * h, r1 + cmd.mu * h

    def rows(read):
        return np.concatenate([read(c) for c in cmds])

    vs = [c.v for c in cmds]
    return SimTrace(
        t=ts,
        r=np.concatenate([s.r for s in states]),
        r1=np.concatenate([s.r1 for s in states]),
        ref_r=ref_r,
        ref_r1=ref_r1,
        ref_r2=ref_r2,
        mu_nominal=rows(lambda c: c.mu_nominal),
        mu=rows(lambda c: c.mu),
        thrust=np.concatenate([v.thrust for v in vs]),
        phi=np.concatenate([v.phi for v in vs]),
        theta=np.concatenate([v.theta for v in vs]),
        barriers=rows(lambda c: c.barriers),
        active=rows(lambda c: c.active),
    )


@dataclass(frozen=True)
class FlatOutput:
    """Flat outputs at one instant: position derivatives plus yaw."""

    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    psi: float = 0.0
    psi1: float = 0.0


@dataclass(frozen=True)
class StateInput:
    """Full state and input reconstructed from flat outputs."""

    position: np.ndarray
    velocity: np.ndarray
    rotation: np.ndarray
    phi: float
    theta: float
    psi: float
    thrust: float
    omega: np.ndarray


def flat_to_state_input(flat: FlatOutput, g: float = GRAVITY) -> StateInput:
    """Reconstruct state and input from flat outputs.

    Raises:
        SingularThrustError: near free fall (thrust vector below 1e-6).
        SingularAttitudeError: thrust axis within 1e-6 of the yaw axis
            direction, or a degenerate roll/pitch extraction.
    """
    r2 = np.asarray(flat.r2, dtype=float)
    r3 = np.asarray(flat.r3, dtype=float)
    t_vec = r2 + g * _Z_W
    thrust = float(np.linalg.norm(t_vec))
    if thrust < 1e-6:
        raise SingularThrustError(f"thrust vector norm {thrust:.2e} is numerically zero")
    z_b = t_vec / thrust

    c_psi, s_psi = np.cos(flat.psi), np.sin(flat.psi)
    y_c = np.array([-s_psi, c_psi, 0.0])
    x_raw = np.cross(y_c, z_b)
    nx = float(np.linalg.norm(x_raw))
    if nx < 1e-6:
        raise SingularAttitudeError("thrust axis parallel to the yaw heading plane normal")
    x_b = x_raw / nx
    y_b = np.cross(z_b, x_b)

    if abs(x_b[2]) > 1.0 - 1e-12:
        raise SingularAttitudeError("roll/pitch extraction degenerate at 90 degree pitch")
    theta = -np.arcsin(np.clip(x_b[2], -1.0, 1.0))
    phi = np.arcsin(np.clip(y_b[2] / np.cos(theta), -1.0, 1.0))

    h_omega = (r3 - np.dot(z_b, r3) * z_b) / thrust
    p = -float(np.dot(y_b, h_omega))
    q = float(np.dot(x_b, h_omega))
    rr = float(flat.psi1) * float(z_b[2])

    rotation = np.column_stack([x_b, y_b, z_b])
    return StateInput(
        position=np.asarray(flat.r, dtype=float),
        velocity=np.asarray(flat.r1, dtype=float),
        rotation=rotation,
        phi=float(phi),
        theta=float(theta),
        psi=float(flat.psi),
        thrust=thrust,
        omega=np.array([p, q, rr]),
    )


def tilt_thrust_rates_vectors(acc, jerk, g: float = GRAVITY):
    """Zero-yaw thrust, roll, pitch and body rates p, q on (..., 3) axis vectors."""
    acc = np.asarray(acc, dtype=float)
    jerk = np.asarray(jerk, dtype=float)
    t_vec = acc + g * _Z_W
    thrust = np.linalg.norm(t_vec, axis=-1)
    if np.any(thrust < 1e-6):
        raise SingularThrustError("free-fall sample in batch")
    z_b = t_vec / thrust[..., None]
    nx = np.sqrt(z_b[..., 0] ** 2 + z_b[..., 2] ** 2)
    if np.any(nx < 1e-9):
        raise SingularAttitudeError("thrust axis parallel to e_y in batch")
    x_b = np.stack([z_b[..., 2] / nx, np.zeros_like(nx), -z_b[..., 0] / nx], axis=-1)
    y_b = np.cross(z_b, x_b)
    theta = -np.arcsin(np.clip(x_b[..., 2], -1.0, 1.0))
    phi = np.arcsin(np.clip(y_b[..., 2] / np.cos(theta), -1.0, 1.0))
    h = (jerk - np.sum(z_b * jerk, axis=-1, keepdims=True) * z_b) / thrust[..., None]
    p = -np.sum(y_b * h, axis=-1)
    q = np.sum(x_b * h, axis=-1)
    return thrust, phi, theta, p, q


def virtual_from_attitude(v: ReducedInput, g: float = GRAVITY) -> np.ndarray:
    """Virtual acceleration mu = T z_B(phi, theta, psi) - g z_W."""
    c_phi, s_phi = np.cos(v.phi), np.sin(v.phi)
    c_th, s_th = np.cos(v.theta), np.sin(v.theta)
    c_psi, s_psi = np.cos(v.psi), np.sin(v.psi)
    z_b = np.array(
        [
            c_phi * s_th * c_psi + s_phi * s_psi,
            c_phi * s_th * s_psi - s_phi * c_psi,
            c_phi * c_th,
        ]
    )
    return v.thrust * z_b - g * _Z_W


@dataclass(frozen=True)
class CbfFace:
    """One half-space of the admissible-input box.

    side +1 encodes mu_q <= bound (upper face, from h_q^up); side -1
    encodes mu_q >= bound (lower face, from h_q^low). bound may be an
    array when the faces were built from batched states.
    """

    axis: int
    side: int
    bound: float | np.ndarray


def cbf_faces(state: TrackingState, ref: ReferencePoint, params: CbfParams) -> tuple[CbfFace, ...]:
    """The six input-box faces at the current state, ordered x+, x-, y+, y-, z+, z-."""
    _, lower, upper = SafetyFilter(params).inputs(state, ref)
    faces = []
    for axis in range(3):
        faces.append(CbfFace(axis=axis, side=+1, bound=upper[..., axis]))
        faces.append(CbfFace(axis=axis, side=-1, bound=lower[..., axis]))
    return tuple(faces)


def filter_input(mu_nominal: np.ndarray, faces: tuple[CbfFace, ...]) -> np.ndarray:
    """Project the nominal virtual input onto the admissible box, face by face.

    The QP min ||mu - mu_nominal||^2 over the box separates by axis, so the
    exact solution is a clamp. Feasibility is structural: each axis interval
    has positive width 2 * a2 * delta by construction.
    """
    mu = np.array(mu_nominal, dtype=float, copy=True)
    lower = np.empty_like(mu)
    upper = np.empty_like(mu)
    for face in faces:
        if face.side > 0:
            upper[..., face.axis] = face.bound
        else:
            lower[..., face.axis] = face.bound
    return np.clip(mu, lower, upper)


def face_bounds_direct(r, r1, ref_r, ref_r1, ref_r2, params: CbfParams):
    """The admissible box, SafetyFilter.inputs' lower and upper, with scalar coefficients."""
    base = ref_r2 - params.a1 * (r1 - ref_r1) - params.a2 * (r - ref_r)
    half = params.a2 * params.delta
    return base - half, base + half


def nominal_mu_direct(state: TrackingState, ref: ReferencePoint, gains: PdGains) -> np.ndarray:
    """The PD nominal, SafetyFilter.inputs' mu_nominal, with scalar gains."""
    return ref.r2 + gains.kp * (ref.r - state.r) + gains.kd * (ref.r1 - state.r1)


def safe_step_direct(state, ref, mu_nominal, params, psi=0.0, g=GRAVITY) -> SafeCommand:
    """The clamp, a SafetyFilter call on a given nominal, off face_bounds_direct."""
    lower, upper = face_bounds_direct(state.r, state.r1, ref.r, ref.r1, ref.r2, params)
    mu = np.minimum(np.maximum(mu_nominal, lower), upper)
    return SafeCommand(mu_nominal, mu, state, ref, params, psi, g, lower, upper)


def direct_controller(params, gains, psi=0.0, g=GRAVITY, filtered=True):
    """A controller for simulate built from the direct filter, filtered or not."""

    def controller(t, state, ref):
        if type(t) is float:  # one tick: float triples in, mu as three floats out
            state, ref = TrackingState(*map(np.array, state)), ReferencePoint(*map(np.array, ref))
            return tuple(controller(np.array(t), state, ref).mu.tolist())
        mu = nominal_mu_direct(state, ref, gains)
        if filtered:
            return safe_step_direct(state, ref, mu, params, psi, g)
        return SafeCommand(mu, mu, state, ref, params, psi, g)

    return controller


def export_csv_per_row(pl, samples_per_span: int, path) -> None:
    """The export command's samples CSV, written row by row through csv.writer."""
    kv = pl.curve.knots
    ts = span_samples(pl, samples_per_span)
    pos, vel, acc, jerk = pl.curve.eval(ts, (0, 1, 2, 3))
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, pl.gravity)
    spans = kv.span_index(ts) - kv.degree
    zeta = pl.zeta[np.zeros_like(spans) if pl.zeta_mode == "scalar" else spans]
    header = [
        "t", "x", "y", "z", "vx", "vy", "vz", "speed",
        "ax", "ay", "az", "thrust", "phi_deg", "theta_deg",
        "p_deg_s", "q_deg_s", "zeta",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ts.size):
            row = (
                [ts[i], *pos[i], *vel[i], float(np.linalg.norm(vel[i])), *acc[i]]
                + [thrust[i], np.rad2deg(phi[i]), np.rad2deg(theta[i])]
                + [np.rad2deg(p_rate[i]), np.rad2deg(q_rate[i]), zeta[i]]
            )
            writer.writerow([f"{v:.12g}" for v in row])


def trace_csv_per_row(trace, path) -> None:
    """SimTrace.to_csv's file, written row by row through csv.writer."""
    header = [
        "t", "x", "y", "z", "vx", "vy", "vz", "ref_x", "ref_y", "ref_z",
        "ref_vx", "ref_vy", "ref_vz", "ref_ax", "ref_ay", "ref_az",
        "mu_nom_x", "mu_nom_y", "mu_nom_z", "mu_x", "mu_y", "mu_z",
        "thrust", "phi_deg", "theta_deg",
        "h_xu", "h_xl", "h_yu", "h_yl", "h_zu", "h_zl", "active_faces",
    ]
    faces = ("x+", "x-", "y+", "y-", "z+", "z-")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(trace.t.size):
            row = (
                [trace.t[i], *trace.r[i], *trace.r1[i], *trace.ref_r[i], *trace.ref_r1[i]]
                + [*trace.ref_r2[i], *trace.mu_nominal[i], *trace.mu[i], trace.thrust[i]]
                + [np.rad2deg(trace.phi[i]), np.rad2deg(trace.theta[i]), *trace.barriers[i]]
            )
            active = ";".join(face for face, on in zip(faces, trace.active[i]) if on)
            writer.writerow([f"{v:.12g}" for v in row] + [active])


def soc_margin_direct(cone, p):
    """SocSet.margin with the norm taken by np.linalg.norm along the last axis."""
    p = np.asarray(p, dtype=float)
    lhs = 0.0
    if cone.A.shape[0]:
        lhs = np.linalg.norm(p @ cone.A.T + cone.b, axis=-1)
    return p @ cone.c + cone.d - lhs


def region_margin_direct(region, p):
    """ConvexRegion.margin with the half-space minimum taken by .min(axis=-1)."""
    p = np.asarray(p, dtype=float)
    sizes, c, d = region._stacked[:3]
    worst = [soc_margin_direct(cone, p) for cone, m in zip(region.cones, sizes) if m >= 0]
    flat = sizes < 0
    if flat.any():
        worst.append((p @ c[flat].T + d[flat]).min(axis=-1))
    return reduce(np.minimum, worst)


def worst_sample(ts, margins):
    """The least margin and its time, by one np.argmin over the whole family."""
    i = int(np.argmin(margins))
    return float(margins[i]), float(ts[i])


def verify_plan_per_point(
    plan, bounds, waypoints=(), pins=None, intervals=(), corridor=None, samples_per_span=300
):
    """verify_plan with one curve evaluation per point check and the direct margins."""
    kv = plan.curve.knots
    g = plan.gravity
    ts = span_samples(plan, samples_per_span)
    pos, vel, acc, jerk = plan.curve.eval(ts, (0, 1, 2, 3))
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, g)

    checks = []

    speed = np.linalg.norm(vel, axis=1)
    m, wt = worst_sample(ts, bounds.v_max - speed)
    checks.append(ConstraintCheck("speed", m, wt, f"max {speed.max():.4g} <= {bounds.v_max:.4g}"))

    tilt = np.maximum(np.abs(phi), np.abs(theta))
    m, wt = worst_sample(ts, bounds.tilt_max - tilt)
    checks.append(ConstraintCheck("tilt", m, wt, f"max {np.rad2deg(tilt.max()):.4g} deg"))

    m, wt = worst_sample(ts, bounds.thrust_max - thrust)
    checks.append(ConstraintCheck("thrust-upper", m, wt, f"max {thrust.max():.4g}"))
    m, wt = worst_sample(ts, thrust - bounds.thrust_min)
    checks.append(ConstraintCheck("thrust-lower", m, wt, f"min {thrust.min():.4g}"))

    rate = np.maximum(np.abs(p_rate), np.abs(q_rate))
    m, wt = worst_sample(ts, bounds.omega_max - rate)
    checks.append(ConstraintCheck("body-rate", m, wt, f"max {np.rad2deg(rate.max()):.4g} deg/s"))

    for region in bounds.regions:
        m, wt = worst_sample(ts, region_margin_direct(region, pos))
        checks.append(ConstraintCheck(f"region:{region.name or 'set'}", m, wt))

    for k, wp in enumerate(waypoints):
        err = float(np.linalg.norm(plan.curve.eval(wp.time) - wp.position))
        checks.append(
            ConstraintCheck(f"waypoint[{k}]", wp.radius - err, wp.time, f"err {err:.4g}")
        )

    if pins is not None:
        for t_m, values, side in ((kv.t0, pins.initial, "start"), (kv.tf, pins.final, "end")):
            for r, value in enumerate(values):
                err = float(np.abs(plan.curve.eval(t_m, r) - value).max())
                checks.append(ConstraintCheck(f"pin:{side}[r{r}]", -err, t_m, f"err {err:.4g}"))

    for k, ic in enumerate(intervals):
        ends = np.clip([ic.t_start, ic.t_end], kv.t0, kv.tf)
        inside = (ts >= ic.t_start) & (ts <= ic.t_end)
        if ic.kind == "position":
            at_ends = region_margin_direct(ic.region, plan.curve.eval(ends, 0))
            margins = region_margin_direct(ic.region, pos[inside])
        else:
            at_ends = ic.bound - np.linalg.norm(plan.curve.eval(ends, 1), axis=1)
            margins = ic.bound - speed[inside]
        m, wt = worst_sample(
            np.concatenate((ends[:1], ts[inside], ends[1:])),
            np.concatenate((at_ends[:1], margins, at_ends[1:])),
        )
        checks.append(ConstraintCheck(f"window[{k}]:{ic.kind}", m, wt))

    if corridor is not None:
        regions = tuple(corridor)
        spans = kv.degree + np.arange(len(regions))
        seg = np.linspace(kv.tau[spans], kv.tau[spans + 1], samples_per_span, axis=1)
        seg_pos = plan.curve.eval(seg.ravel(), 0)
        for l, region in enumerate(regions, start=1):
            rows = slice((l - 1) * samples_per_span, l * samples_per_span)
            m, wt = worst_sample(seg[l - 1], region_margin_direct(region, seg_pos[rows]))
            checks.append(ConstraintCheck(f"corridor[{l}]:{region.name or 'set'}", m, wt))

    return ConstraintReport(checks=tuple(checks), samples=ts.size)


def dense_derivative_matrix(knots: KnotVector, r: int) -> np.ndarray:
    """B_r as the product of r bidiagonal difference factors, padded to (n+1, n+r+1)."""
    d, n, tau = knots.degree, knots.n, knots.tau
    M = np.eye(n + 1)
    for i in range(1, r + 1):
        F = np.zeros((n - i + 2, n - i + 1))
        for k in range(n - i + 1):
            a = (d - i + 1) / (tau[k + d + 1] - tau[k + i])
            F[k, k] = -a
            F[k + 1, k] = a
        M = M @ F
    C = np.zeros((n - r + 1, n + r + 1))
    C[:, r : n + 1] = np.eye(n - r + 1)
    return M @ C


def dense_snap_gram(knots: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Snap Gram matrix G'G and G, each node's fourth-derivative row times sqrt(its weight)."""
    k = knots.degree - 4
    nodes, weights = np.polynomial.legendre.leggauss(k + 1)
    l = np.array(knots.nonempty_spans())[:, None]
    a, b = knots.tau[l], knots.tau[l + 1]
    lam = cox_de_boor_matrix(knots.tau, k, (0.5 * (b - a) * nodes + 0.5 * (a + b)).ravel())
    G = np.sqrt(0.5 * (b - a) * weights).reshape(-1, 1) * lam @ dense_derivative_matrix(knots, 4).T
    return G.T @ G, G


def quadratic_epigraph(cp: ConeProgram, G, cols, label: str = "epigraph") -> np.ndarray:
    """Add k variables s with x[cols[i]]' G'G x[cols[i]] <= s[i], cols (k, c); returns s.

    Each is encoded as the second-order constraint ||(2 G x, s - 1)||
    <= s + 1, which is equivalent for s >= 0 (and forces s >= 0), stored
    as one batch of the cone program's rows s = (s + 1, 2 G x, s - 1).
    """
    cols = cp._check_cols(cols)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    k, width = cols.shape
    if G.shape[1] != width:
        raise ValueError(f"factor has {G.shape[1]} columns, expected {width}")
    s_idx = cp.add_variables(k)
    m = G.shape[0]
    block, rhs = np.zeros((m + 2, width + 1)), np.zeros(m + 2)
    block[1:-1, :-1] = -2.0 * G  # s = (s + 1, 2 G x, s - 1) = rhs - block (x, s)
    block[[0, -1], -1] = -1.0
    rhs[[0, -1]] = 1.0, -1.0
    coeffs = np.broadcast_to(block, (k,) + block.shape)
    cols = np.column_stack([cols, s_idx])
    cp._add("soc", coeffs, cols, np.broadcast_to(rhs, (k, m + 2)), label)
    return s_idx


class DensePlanAssembly(PlanAssembly):
    """Every constraint family compiled as rows over all 3(n+1) control-point columns."""

    def _axis_rows(self, W):
        rows = np.zeros((W.shape[0], 3, 3, self.n + 1))
        rows[:, [0, 1, 2], [0, 1, 2]] = W[:, None]
        return rows.reshape(W.shape[0], 3, self.ctrl_cols.size)

    def _all_cols(self, k):
        """The row of every control-point column, shared by the k constraints of a batch."""
        return np.broadcast_to(self.ctrl_cols, (k, self.ctrl_cols.size))

    def point_rows(self, r, js):
        js = np.asarray(js, dtype=int)
        rows = self._axis_rows(dense_derivative_matrix(self.kv, r)[:, js].T)
        return rows, self._all_cols(js.size)

    def _membership(self, js, cones, label):
        rows = self.point_rows(0, js)[0]
        groups = {}  # row count (-1 if linear) -> indices, in order of first use
        for i, cone in enumerate(cones):
            groups.setdefault(-1 if cone.is_linear else cone.A.shape[0], []).append(i)
        for m, pick in groups.items():
            sets, picked = [cones[i] for i in pick], rows[pick]
            c_rows = (np.array([s.c for s in sets])[:, None] @ picked)[:, 0]
            d = np.array([s.d for s in sets])
            cols = self._all_cols(len(pick))
            if m < 0:
                self.cp.add_inequality(-c_rows, cols, d, label)
            else:
                A = np.array([s.A for s in sets]) @ picked
                b = np.array([s.b for s in sets])
                self.cp.add_soc(A, b, c_rows, d, cols, label)

    def compile_position(self, regions, js=None, label="position"):
        js = np.arange(self.n + 1) if js is None else np.asarray(js, dtype=int)
        cones = [cone for region in regions for cone in region.cones]
        self._membership(np.repeat(js, len(cones)), cones * js.size, label)

    def compile_corridor(self, sets):
        d = self.kv.degree
        js, cones = [], []
        for l, region in enumerate(sets, start=1):
            js.append(np.repeat(np.arange(l - 1, l + d), len(region.cones)))
            cones += list(region.cones) * (d + 1)
        self._membership(np.concatenate(js), cones, "corridor")

    def compile_waypoints(self, waypoints):
        if not waypoints:
            return
        times = np.array([wp.time for wp in waypoints])
        rows = self._axis_rows(cox_de_boor_matrix(self.kv.tau, self.kv.degree, times))
        pos = np.array([wp.position for wp in waypoints])
        radius = np.array([wp.radius for wp in waypoints])
        pin, ball = radius == 0.0, radius != 0.0
        self.cp.add_equality(rows[pin], self._all_cols(pin.sum()), pos[pin], "waypoint")
        c = np.zeros((int(ball.sum()), self.ctrl_cols.size))
        cols = self._all_cols(ball.sum())
        self.cp.add_soc(rows[ball], -pos[ball], c, radius[ball], cols, "waypoint")

    def compile_endpoints(self, pins: EndpointPins):
        kv = self.kv
        weights, values = [], []
        for t_m, pinned in ((kv.t0, pins.initial), (kv.tf, pins.final)):
            for r, value in enumerate(pinned):
                basis = cox_de_boor_matrix(kv.tau, kv.degree - r, np.array([t_m]))[0]
                weights.append(dense_derivative_matrix(kv, r) @ basis)
                values.append(value)
        rows = self._axis_rows(np.reshape(weights, (-1, self.n + 1)))
        cols = self._all_cols(rows.shape[0])
        self.cp.add_equality(rows, cols, np.reshape(values, (-1, 3)), "endpoint")

    def compile_objective(self, zeta_cols):
        _, G = dense_snap_gram(self.kv)
        for cols in self.ctrl_cols.reshape(3, 1, -1):
            s = quadratic_epigraph(self.cp, G, cols, "snap-epigraph")
            self.cp.add_objective(s, [1.0])
        if zeta_cols.size:
            self.cp.add_objective(zeta_cols, -np.ones(zeta_cols.size))


def dense_compile_plan(scenario: PlanningScenario) -> DensePlanAssembly:
    """compile_plan's families, in its order, on DensePlanAssembly."""
    kv = clamped_uniform_knots(scenario.t0, scenario.tf, scenario.n, scenario.degree)
    bounds = scenario.bounds
    if scenario.apply_tracking_margins:
        bounds = compile_tracking_margins(bounds, scenario.cbf, scenario.gravity)
    asm = DensePlanAssembly(kv, gravity=scenario.gravity)
    if bounds.regions:
        asm.compile_position(bounds.regions)
    asm.compile_velocity(bounds.v_max)
    asm.compile_tilt_cone(bounds.tilt_max, margin=bounds.tilt_margin)
    asm.compile_thrust(bounds.thrust_min, bounds.thrust_max)
    zeta_cols = asm.compile_rate(bounds.omega_max, scenario.zeta_mode)
    asm.compile_waypoints(scenario.waypoints)
    asm.compile_endpoints(scenario.pins)
    if scenario.corridor is not None:
        asm.compile_corridor(scenario.corridor)
    for ic in scenario.intervals:
        asm.compile_interval(ic)
    asm.compile_objective(zeta_cols)
    return asm


def equilibrate_csr(A, cones, passes: int = 10):
    """Ruiz scalings d, c of the CSR matrix A over segment maxima of its rows and columns."""
    (m, n), first = A.shape, cones.zero + cones.nonneg
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    by_col = np.argsort(A.indices, kind="stable")
    col_ptr = np.searchsorted(A.indices[by_col], np.arange(n + 1))

    def seg_max(vals, ptr):
        out = np.zeros(ptr.size - 1)
        full = np.diff(ptr) > 0
        if full.any():
            out[full] = np.maximum.reduceat(vals, ptr[:-1][full])
        return np.where(out > 0.0, out, 1.0)

    d, c = np.ones(m), np.ones(n)
    data = np.abs(A.data)
    for _ in range(passes):
        vals = data * d[rows] * c[A.indices]
        row_max = seg_max(vals, A.indptr)
        if cones.starts.size:
            row_max[first:] = np.maximum.reduceat(row_max[first:], cones.starts)[cones.cone]
        d /= np.sqrt(row_max)
        c /= np.sqrt(seg_max(vals[by_col], col_ptr))
    return d, c


def csc_scaled_matrix(prog: ConeProgram):
    """(d, c, diag(d) A diag(c)) of a cone program, A assembled as CSC and scaled by sparse products."""
    from scipy import sparse

    rows, cols, vals, b, cones = prog._triplets()
    A = sparse.csc_matrix((vals, (rows, cols)), shape=(b.size, prog.num_vars)).tocsr()
    d, c = equilibrate_csr(A, cones)
    return d, c, sparse.diags(d) @ A @ sparse.diags(c)


# ------------------------------------------------------------ document checker

_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}
_JSON_TYPES.update(number=(int, float), integer=int)
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
_JSON_NAMES.update({int: "an integer", float: "a number", type(None): "null"})
# Exact types a node holding its type alone accepts, and of those, the ones converted keeps.
_PLAIN_TYPES = {"string": {str}, "boolean": {bool}, "number": {int, float}, "integer": {int}}
_KEPT_TYPES = {"string": {str}, "boolean": {bool}, "number": {float}}


def _plain(schema: dict, table: dict) -> set:
    return table.get(schema.get("type"), set()) if len(schema) == 1 else set()


def _json_name(value) -> str:
    return _JSON_NAMES.get(type(value)) or f"a {type(value).__name__}"


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:21]}..."


def _same(value, expected) -> bool:
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _where(path: tuple) -> str:
    return "/".join(map(str, path)) or "<root>"


def _is_json_type(value, kind: str) -> bool:
    if type(value) is bool:
        return kind == "boolean"
    return isinstance(value, _JSON_TYPES[kind]) or (
        kind == "integer" and isinstance(value, float) and value.is_integer()
    )


def _schema_errors(value, schema: dict, path: tuple, found: list) -> list:
    kind = schema.get("type")
    if kind is not None and not _is_json_type(value, kind):
        found.append((path, f"{_json_name(value)} is not of type {kind!r}"))
    if "const" in schema and not _same(value, schema["const"]):
        found.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        found.append((path, f"{_brief(value)} is not one of {schema['enum']!r}"))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                found.append((path, f"{key!r} is a required property"))
        if schema.get("additionalProperties") is False and not value.keys() <= props.keys():
            extra = ", ".join(_brief(key) for key in value if key not in props)
            found.append((path, f"unknown field(s) {extra}"))
        for key, sub in props.items():
            if key in value and type(value[key]) not in _plain(sub, _PLAIN_TYPES):
                _schema_errors(value[key], sub, path + (key,), found)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            found.append((path, f"{len(value)} items, fewer than the minimum {schema['minItems']}"))
        if len(value) > schema.get("maxItems", len(value)):
            found.append((path, f"{len(value)} items, more than the maximum {schema['maxItems']}"))
        items = schema.get("items", {})
        if not _plain(items, _PLAIN_TYPES).issuperset(map(type, value)):
            for i, item in enumerate(value):
                _schema_errors(item, items, path + (i,), found)
    return found


def schema_violation(doc, schema: dict):
    """The shallowest (path, message) where doc breaks schema, or None: the first walk."""
    return min(_schema_errors(doc, schema, (), []), key=lambda e: len(e[0]), default=None)


def schema_converted(value, schema: dict, path: tuple = ()):
    """A schema-valid value with every number a float and every integer an int: the second walk."""
    kind = schema.get("type")
    if kind == "number":
        try:
            return float(value)
        except OverflowError:
            digits = len(str(abs(value)))
            raise ValueError(f"{_where(path)}: a {digits}-digit integer is too large for a float")
    if kind == "integer":
        value = int(value)
        if abs(value) > 2**53:
            digits = len(str(abs(value)))
            raise ValueError(f"{_where(path)}: a {digits}-digit integer is beyond 2**53")
        return value
    if kind == "object":
        props = schema["properties"]
        return {
            k: v
            if type(v) in _plain(props[k], _KEPT_TYPES)
            else schema_converted(v, props[k], path + (k,))
            for k, v in value.items()
        }
    if kind == "array":
        items = schema["items"]
        if _plain(items, _KEPT_TYPES).issuperset(map(type, value)):
            return value
        return [schema_converted(v, items, path + (i,)) for i, v in enumerate(value)]
    return value


def schema_checked(doc, schema: dict):
    """schema_converted(doc, schema), or a ValueError naming the shallowest violation."""
    error = schema_violation(doc, schema)
    if error is not None:
        raise ValueError(f"schema violation at {_where(error[0])}: {error[1]}")
    return schema_converted(doc, schema)
