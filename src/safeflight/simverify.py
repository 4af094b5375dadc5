"""Closed-loop simulation and dense constraint verification.

Simulation advances the translational double integrator exactly under a
zero-order-hold virtual input, r += r1 h + mu h^2 / 2 and r1 += mu h per
control tick. Verification re-derives every planned bound from curve
samples and the flatness maps alone -- no planner data structures are
trusted -- and reports the worst signed margin per constraint family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .flatness import GRAVITY, tilt_thrust_rates
from .planner import ConvexRegion, EndpointPins, IntervalConstraint, SafetyBounds, TrajectoryPlan, Waypoint
from .tracker import (
    CbfParams,
    CertificateReport,
    PdGains,
    ReferencePoint,
    SafeCommand,
    SafetyFilter,
    TrackingState,
    certificates,
)

# ------------------------------------------------------------------ simulation

# Most control ticks one run may hold; simulate stores a few (3,) rows per tick.
MAX_TICKS = 10**6
# Most samples one dense verification grid may hold: spans times samples per
# span. A sample takes about 0.5 kB while a verifier runs.
MAX_SAMPLES = 10**6


def _tick_count(duration: float | None, control_rate: float) -> int:
    """Control ticks in duration; a ValueError unless it is finite and holds 1 to MAX_TICKS."""
    ticks = math.nan if duration is None else duration * control_rate
    if not (math.isfinite(ticks) and round(ticks) >= 1):
        raise ValueError(
            f"duration must be finite and at least one control tick "
            f"({1.0 / control_rate:g} s), got {duration}"
        )
    ticks = round(ticks)
    if ticks > MAX_TICKS:
        raise ValueError(
            f"control_rate {control_rate:g} Hz over {duration:g} s is {ticks} ticks, "
            f"more than MAX_TICKS = {MAX_TICKS}"
        )
    return ticks


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Closed-loop timing plus the starting offsets from the reference.

    The command is held constant between control ticks, and each tick
    advances the state by the exact double-integrator step in one piece, so
    the loop does not read `substeps`: the field keeps scenarios that name
    it loading, and must be >= 1. A duration, when given, must be finite and
    cover at least one tick and at most MAX_TICKS. The run starts on the
    reference, shifted by the two offsets.
    """

    control_rate: float = 100.0
    substeps: int = 10
    duration: float | None = None
    initial_position_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    initial_velocity_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not 0.0 < self.control_rate < np.inf:
            raise ValueError(f"control_rate must be positive and finite, got {self.control_rate}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.duration is not None:
            _tick_count(self.duration, self.control_rate)
        for attr in ("initial_position_offset", "initial_velocity_offset"):
            value = np.asarray(getattr(self, attr), dtype=float).reshape(3)
            if not np.isfinite(value).all():
                raise ValueError(f"{attr} must be finite, got {value.tolist()}")
            object.__setattr__(self, attr, value)


@dataclass(frozen=True)
class TrackingConfig:
    """Closed-loop settings attached to a scenario; psi must be finite."""

    cbf: CbfParams
    gains: PdGains
    sim: SimConfig
    psi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.psi):
            raise ValueError(f"psi must be finite, got {self.psi}")


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Per-tick record of a closed-loop run (everything shaped (M, ...))."""

    t: np.ndarray
    r: np.ndarray
    r1: np.ndarray
    ref_r: np.ndarray
    ref_r1: np.ndarray
    ref_r2: np.ndarray
    mu_nominal: np.ndarray
    mu: np.ndarray
    thrust: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    barriers: np.ndarray
    active: np.ndarray

    @property
    def position_err(self) -> np.ndarray:
        return self.r - self.ref_r

    @property
    def velocity_err(self) -> np.ndarray:
        return self.r1 - self.ref_r1

    @property
    def input_dev(self) -> np.ndarray:
        return self.mu - self.ref_r2

    def certificate(self, params: CbfParams) -> CertificateReport:
        return certificates(
            self.position_err, self.velocity_err, self.input_dev, self.barriers, params
        )

    def to_csv(self, path) -> None:
        """Columnar dump, one row per control tick."""
        header = (
            ["t", "x", "y", "z", "vx", "vy", "vz", "ref_x", "ref_y", "ref_z", "ref_vx", "ref_vy"]
            + ["ref_vz", "ref_ax", "ref_ay", "ref_az", "mu_nom_x", "mu_nom_y", "mu_nom_z"]
            + ["mu_x", "mu_y", "mu_z", "thrust", "phi_deg", "theta_deg"]
            + ["h_xu", "h_xl", "h_yu", "h_yl", "h_zu", "h_zl", "active_faces"]
        )
        face_names = np.array(["x+", "x-", "y+", "y-", "z+", "z-"])
        cols = np.column_stack(
            [self.t, self.r, self.r1, self.ref_r, self.ref_r1, self.ref_r2, self.mu_nominal]
            + [self.mu, self.thrust, np.rad2deg(self.phi), np.rad2deg(self.theta), self.barriers]
        )
        # One format string per row; the lines end in "\r\n" as csv.writer's do.
        line = ",".join(["%.12g"] * cols.shape[1]) + ",%s\r\n"
        faces = [";".join(face_names[act]) for act in self.active]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write("".join(line % (*row, act) for row, act in zip(cols.tolist(), faces)))


def plan_reference(plan: TrajectoryPlan) -> Callable[[np.ndarray], ReferencePoint]:
    """Reference sampler that holds the plan's end states outside its time range.

    A scalar time gives (3,) fields and an array of times (len(t), 3) ones.
    Inside [t0, tf] one curve evaluation gives all three derivatives, each
    by a Horner pass over the curve's centred per-span polynomials. Before
    t0 the reference hovers at r(t0) and after tf at r(tf): r is clamped in
    time, and r1 and r2 are zero there, so the held reference is a state the
    vehicle can stay in.
    """
    kv = plan.curve.knots

    def ref(t) -> ReferencePoint:
        t = np.asarray(t, dtype=float)
        clamped = np.minimum(np.maximum(t, kv.t0), kv.tf)
        r, r1, r2 = plan.curve.eval(clamped, (0, 1, 2))
        held = clamped != t
        if held.any():
            held = held.reshape((-1, 1) if t.ndim else 1)
            r1, r2 = np.where(held, 0.0, r1), np.where(held, 0.0, r2)
        return ReferencePoint(r, r1, r2)

    return ref


def make_filtered_controller(
    params: CbfParams, gains: PdGains, psi: float = 0.0, g: float = GRAVITY
) -> Callable:
    """Nominal PD wrapped in the barrier filter.

    With a Python float t it is one tick, SafetyFilter.tick, and returns mu
    as three floats; otherwise it returns the SafetyFilter call's command.
    """
    safety = SafetyFilter(params, gains, psi, g)
    tick = safety.tick

    def controller(t, state, ref):
        return tick(state, ref) if type(t) is float else safety(state, ref)

    return controller


def make_unfiltered_controller(
    params: CbfParams, gains: PdGains, psi: float = 0.0, g: float = GRAVITY
) -> Callable:
    """Nominal PD passed straight through; barriers still recorded.

    A tick (a Python float t) returns the PD nominal as three floats and
    computes no box.
    """
    safety = SafetyFilter(params, gains, psi, g)
    tick = safety.tick

    def controller(t, state, ref):
        if type(t) is float:
            return tick(state, ref, clamp=False)
        mu = safety.inputs(state, ref)[0]
        return SafeCommand(mu, mu, state, ref, params, psi, g)

    return controller


def simulate(
    reference: Callable[[np.ndarray], ReferencePoint],
    controller: Callable,
    cfg: SimConfig,
    t0: float = 0.0,
    duration: float | None = None,
) -> SimTrace:
    """Run the closed loop and record one row per control tick.

    The reference is called once per run, with the (M,) tick grid t0 + i h,
    and its fields must broadcast to (M, 3), or a ValueError leaves before
    the loop runs. The controller must be a pure function of (t, state, ref)
    with two forms. On one tick, t is a Python float, state is (r, r1) and
    ref is (r, r1, r2), each a triple of Python floats, and it returns mu as
    three floats. On the whole run, t is the (M,) grid and state and ref are
    a TrackingState and a ReferencePoint of (M, 3) arrays, and it returns a
    SafeCommand whose rows are the ticks' commands. Each tick calls the first
    form once, so the loop builds no arrays; the command computed at tick i
    acts on [t_i, t_{i+1}), where the state takes the exact zero-order-hold
    step r + r1*h + 0.5*mu*h*h, r1 + mu*h per axis, evaluated left to right,
    and the recorded state, three floats per tick, is the one the controller
    saw at t_i; one np.fromiter each makes the (M, 3) positions and
    velocities. One call of the second form after the loop, on every
    recorded state at once, supplies mu_nominal, mu, the reduced input (v),
    barriers and active faces for the trace; an InvertedFlightError or
    SingularThrustError raised there leaves simulate. The duration, else
    cfg.duration, must be finite and cover at least one tick and at most
    MAX_TICKS, as SimConfig requires of its own; a ValueError is raised
    before the grid is built otherwise.
    """
    M = _tick_count(duration if duration is not None else cfg.duration, cfg.control_rate)
    h = 1.0 / cfg.control_rate
    ts = t0 + np.arange(M) * h
    ref = reference(ts)
    ref_r, ref_r1, ref_r2 = np.empty((3, M, 3))
    ref_r[...], ref_r1[...], ref_r2[...] = ref.r, ref.r1, ref.r2

    q = tuple((ref_r[0] + cfg.initial_position_offset).tolist())
    q1 = tuple((ref_r1[0] + cfg.initial_velocity_offset).tolist())
    rows, rows1 = [], []
    for t, p, p1, p2 in zip(ts.tolist(), ref_r.tolist(), ref_r1.tolist(), ref_r2.tolist()):
        rows += q
        rows1 += q1
        ax, ay, az = controller(t, (q, q1), (p, p1, p2))
        (x, y, z), (vx, vy, vz) = q, q1
        q = (
            x + vx * h + 0.5 * ax * h * h,
            y + vy * h + 0.5 * ay * h * h,
            z + vz * h + 0.5 * az * h * h,
        )
        q1 = (vx + ax * h, vy + ay * h, vz + az * h)

    R, R1 = (np.fromiter(flat, float, 3 * M).reshape(M, 3) for flat in (rows, rows1))
    cmd = controller(ts, TrackingState(R, R1), ReferencePoint(ref_r, ref_r1, ref_r2))
    v = cmd.v
    return SimTrace(
        t=ts,
        r=R,
        r1=R1,
        ref_r=ref_r,
        ref_r1=ref_r1,
        ref_r2=ref_r2,
        mu_nominal=cmd.mu_nominal,
        mu=cmd.mu,
        thrust=v.thrust,
        phi=v.phi,
        theta=v.theta,
        barriers=cmd.barriers,
        active=cmd.active,
    )


# ---------------------------------------------------------------- verification

# The verifiers' default grid density, and the most negative margin, as -tol,
# that still passes a check.
SAMPLES_PER_SPAN = 300
MARGIN_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintCheck:
    """Worst signed margin of one constraint family (nonnegative = satisfied)."""

    name: str
    margin: float
    worst_t: float
    detail: str = ""

    def ok(self, tol: float = MARGIN_TOL) -> bool:
        return self.margin >= -tol


@dataclass(frozen=True)
class ConstraintReport:
    """The checks of one verifier, and the size of the grid it sampled.

    samples counts the grid times at which the verifier evaluated the
    curve: for verify_plan the span grid, spans * samples_per_span plus the
    final knot (its point checks and corridor grid not included); for
    verify_span_minima spans * samples_per_span, both ends of each span.
    """

    checks: tuple[ConstraintCheck, ...]
    samples: int

    @property
    def min_margin(self) -> float:
        return min((c.margin for c in self.checks), default=np.inf)

    def ok(self, tol: float = MARGIN_TOL) -> bool:
        return all(c.ok(tol) for c in self.checks)

    def failing(self, tol: float = MARGIN_TOL) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.ok(tol)]

    def summary(self) -> str:
        lines = [f"{'constraint':<24} {'margin':>12}   worst t"]
        for c in self.checks:
            lines.append(f"{c.name:<24} {c.margin:>12.3e}   {c.worst_t:.3f}s {c.detail}")
        return "\n".join(lines)


def check_sample_count(spans: int, samples_per_span: int) -> None:
    """Raise a ValueError unless samples_per_span makes a usable grid over spans.

    It must be at least 1, or the error names samples_per_span, and spans *
    samples_per_span may not exceed MAX_SAMPLES.
    """
    if samples_per_span < 1:
        raise ValueError(f"samples_per_span must be at least 1, got {samples_per_span}")
    if spans * samples_per_span > MAX_SAMPLES:
        raise ValueError(
            f"{samples_per_span} samples per span over {spans} spans exceeds "
            f"MAX_SAMPLES = {MAX_SAMPLES}"
        )


def span_samples(plan: TrajectoryPlan, samples_per_span: int) -> np.ndarray:
    """Left-closed per-span grids, one linspace over every span, plus the exact final time.

    A count that check_sample_count refuses is a ValueError, raised before the grid is built.
    """
    kv = plan.curve.knots
    l = np.array(kv.nonempty_spans())
    check_sample_count(l.size, samples_per_span)
    grid = np.linspace(kv.tau[l], kv.tau[l + 1], samples_per_span, endpoint=False, axis=1)
    return np.append(grid.ravel(), kv.tf)


def _worst(ts: np.ndarray, margins: np.ndarray) -> tuple[float, float]:
    i = int(np.argmin(margins))
    return float(margins[i]), float(ts[i])


def verify_plan(
    plan: TrajectoryPlan,
    bounds: SafetyBounds,
    waypoints: Iterable[Waypoint] = (),
    pins: EndpointPins | None = None,
    intervals: Iterable[IntervalConstraint] = (),
    corridor: Iterable[ConvexRegion] | None = None,
    samples_per_span: int = SAMPLES_PER_SPAN,
) -> ConstraintReport:
    """Dense-sampling audit of a plan against the original requirements.

    Uses only curve evaluation and the flatness maps, so it cross-checks the
    compiled cone constraints rather than restating them. Margins are signed
    slacks; the continuous-time guarantee says none should be negative. A
    corridor needs one set per nonempty span, and samples_per_span a count
    that check_sample_count accepts, else it is a ValueError.
    """
    kv = plan.curve.knots
    g = plan.gravity
    regions = None if corridor is None else tuple(corridor)
    if regions is not None and len(regions) != len(kv.nonempty_spans()):
        raise ValueError(f"corridor has {len(regions)} sets for {len(kv.nonempty_spans())} spans")
    ts = span_samples(plan, samples_per_span)
    pos, vel, acc, jerk = plan.curve.eval(ts, (0, 1, 2, 3))
    thrust, phi, theta, p_rate, q_rate = tilt_thrust_rates(acc, jerk, g)

    checks: list[ConstraintCheck] = []

    speed = np.linalg.norm(vel, axis=1)
    m, wt = _worst(ts, bounds.v_max - speed)
    checks.append(ConstraintCheck("speed", m, wt, f"max {speed.max():.4f} <= {bounds.v_max}"))

    tilt = np.maximum(np.abs(phi), np.abs(theta))
    m, wt = _worst(ts, bounds.tilt_max - tilt)
    checks.append(
        ConstraintCheck("tilt", m, wt, f"max {np.rad2deg(tilt.max()):.3f} deg")
    )

    m, wt = _worst(ts, bounds.thrust_max - thrust)
    checks.append(ConstraintCheck("thrust-upper", m, wt, f"max {thrust.max():.4f}"))
    m, wt = _worst(ts, thrust - bounds.thrust_min)
    checks.append(ConstraintCheck("thrust-lower", m, wt, f"min {thrust.min():.4f}"))

    rate = np.maximum(np.abs(p_rate), np.abs(q_rate))
    m, wt = _worst(ts, bounds.omega_max - rate)
    checks.append(
        ConstraintCheck("body-rate", m, wt, f"max {np.rad2deg(rate.max()):.4f} deg/s")
    )

    for region in bounds.regions:
        m, wt = _worst(ts, region.margin(pos))
        checks.append(ConstraintCheck(f"region:{region.name or 'set'}", m, wt))

    # One curve evaluation serves every point check: the waypoints, both ends
    # of the plan and both ends of every window (clipped to the plan, they
    # bracket the window's grid samples, so a window narrower than the grid
    # spacing is still checked). Each time keeps the bits of its own evaluation.
    waypoints, intervals = tuple(waypoints), tuple(intervals)
    pinned = (pins.initial, pins.final) if pins is not None else ((), ())
    ends = np.clip([[ic.t_start, ic.t_end] for ic in intervals], kv.t0, kv.tf)
    w = len(waypoints)
    times = np.concatenate(([wp.time for wp in waypoints], [kv.t0, kv.tf], ends.ravel()))
    at = plan.curve.eval(times, range(max(2, *map(len, pinned))))
    for k, (wp, p) in enumerate(zip(waypoints, at[0])):
        err = float(np.linalg.norm(p - wp.position))
        checks.append(ConstraintCheck(f"waypoint[{k}]", wp.radius - err, wp.time, f"err {err:.5f}"))

    for i, (t_m, values, side) in enumerate(zip((kv.t0, kv.tf), pinned, ("start", "end"))):
        for r, value in enumerate(values):
            err = float(np.abs(at[r][w + i] - value).max())
            checks.append(ConstraintCheck(f"pin:{side}[r{r}]", -err, t_m, f"err {err:.2e}"))

    end_pos, end_vel = (v[w + 2 :].reshape(-1, 2, 3) for v in at[:2])
    for k, ic in enumerate(intervals):
        # The grid is sorted, so a window's samples are one slice of it.
        inside = slice(ts.searchsorted(ic.t_start), ts.searchsorted(ic.t_end, "right"))
        if ic.kind == "position":
            at_ends = ic.region.margin(end_pos[k])
            margins = ic.region.margin(pos[inside])
        else:
            at_ends = ic.bound - np.linalg.norm(end_vel[k], axis=1)
            margins = ic.bound - speed[inside]
        m, wt = _worst(
            np.concatenate((ends[k, :1], ts[inside], ends[k, 1:])),
            np.concatenate((at_ends[:1], margins, at_ends[1:])),
        )
        checks.append(ConstraintCheck(f"window[{k}]:{ic.kind}", m, wt))

    if regions is not None:
        # Region l covers span d + l - 1: one (regions, samples) grid, both
        # span ends included, and one curve evaluation for all of them. Sets
        # with equal cone tables share one margin call over all their spans'
        # rows, which still multiplies each span's (samples, 3) block alone.
        spans = kv.degree + np.arange(len(regions))
        seg = np.linspace(kv.tau[spans], kv.tau[spans + 1], samples_per_span, axis=1)
        seg_pos = plan.curve.eval(seg.ravel(), 0).reshape(seg.shape + (3,))
        same: dict[tuple[bytes, ...], list[int]] = {}
        for l, region in enumerate(regions):
            same.setdefault(region._table_key, []).append(l)
        margins = np.empty(seg.shape)
        for rows in same.values():
            margins[rows] = regions[rows[0]].margin(seg_pos[rows])
        worst = margins.argmin(axis=1)
        for l, (region, i) in enumerate(zip(regions, worst.tolist()), start=1):
            m, wt = float(margins[l - 1, i]), float(seg[l - 1, i])
            checks.append(ConstraintCheck(f"corridor[{l}]:{region.name or 'set'}", m, wt))

    return ConstraintReport(checks=tuple(checks), samples=ts.size)


def verify_span_minima(
    plan: TrajectoryPlan, omega_max: float, samples_per_span: int = SAMPLES_PER_SPAN
) -> ConstraintReport:
    """Check the per-span thrust floors zeta against sampled truth.

    For each span: zeta may not exceed the sampled minimum thrust, and the
    sampled maximum jerk may not exceed omega_max * zeta. Row k of the
    sample grid holds span l = d + k, both ends included, and one curve
    evaluation covers every row. A count that check_sample_count refuses is
    a ValueError, raised before the grid is built.
    """
    kv = plan.curve.knots
    spans = kv.nonempty_spans()
    check_sample_count(len(spans), samples_per_span)
    l = np.array(spans)
    seg = np.linspace(kv.tau[l], kv.tau[l + 1], samples_per_span, axis=1)
    acc, jerk = plan.curve.eval(seg.ravel(), (2, 3))
    zeta = plan.span_zeta
    thrust = np.linalg.norm(acc + np.array([0.0, 0.0, plan.gravity]), axis=1).reshape(seg.shape)
    floor = thrust - zeta[:, None]
    cone = omega_max * zeta[:, None] - np.linalg.norm(jerk, axis=1).reshape(seg.shape)
    # One argmin per family along the span axis gives every span's worst sample.
    rows = np.arange(len(spans))
    i, j = floor.argmin(axis=1), cone.argmin(axis=1)
    worst = zip(
        spans,
        zeta.tolist(),
        floor[rows, i].tolist(),
        seg[rows, i].tolist(),
        cone[rows, j].tolist(),
        seg[rows, j].tolist(),
    )
    checks = []
    for span, z, m1, wt1, m2, wt2 in worst:
        checks.append(ConstraintCheck(f"span[{span}]:thrust-floor", m1, wt1, f"zeta {z:.4f}"))
        checks.append(ConstraintCheck(f"span[{span}]:jerk-cone", m2, wt2))
    return ConstraintReport(checks=tuple(checks), samples=seg.size)
