"""Barrier-based safety filter for trajectory tracking.

The tracked vehicle is treated as a double integrator in the virtual input
mu (commanded acceleration). Six barrier functions, two per axis, keep the
position error inside the tube ||r - r_ref||_inf <= delta:

    h_q^up = delta - (q - q_ref),    h_q^low = delta + (q - q_ref).

Enforcing both at relative degree two yields, per axis, a closed interval
of admissible mu_q whose width is identically 2 * a2 * delta. The safety QP,
min ||mu - mu_nominal||^2 over that box, separates by axis, so its exact
solution is a per-axis clamp of the nominal input: ``safe_step`` applies it,
and no numerical solve is needed. ``face_bounds`` gives the box. Both, and
the PD nominal, are computed by ``SafetyFilter``, the one definition of the
filter, which a closed-loop controller builds once and calls every tick. The six
faces, like the six barriers, are always ordered x+, x-, y+, y-, z+, z-:
the upper face (from h^up) then the lower face (from h^low) of each axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flatness import GRAVITY, ReducedInput, attitude_from_virtual


@dataclass(frozen=True)
class CbfParams:
    """Tube half-width delta and the class-K chain coefficients a1, a2.

    The error dynamics under the filter admit the decomposition
    s^2 + a1 s + a2 = (s + lambda_fast)(s + lambda_slow); real roots are
    required (a1^2 >= 4 a2) for the tube guarantee.
    """

    delta: float
    a1: float
    a2: float

    def __post_init__(self):
        for name in ("delta", "a1", "a2"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.a1**2 < 4.0 * self.a2:
            raise ValueError(
                f"a1^2 = {self.a1 ** 2:.3f} < 4 a2 = {4 * self.a2:.3f}: complex error poles"
            )

    @property
    def lambda_fast(self) -> float:
        return 0.5 * (self.a1 + np.sqrt(self.a1**2 - 4.0 * self.a2))

    @property
    def lambda_slow(self) -> float:
        return 0.5 * (self.a1 - np.sqrt(self.a1**2 - 4.0 * self.a2))

    @property
    def velocity_bound(self) -> float:
        """Steady-state bound on ||de/dt||_inf inside the tube: 2 delta a2 / a1."""
        return 2.0 * self.delta * self.a2 / self.a1

    @property
    def input_deviation_bound(self) -> float:
        """Bound on ||mu* - ddot r_ref||_inf inside the tube: 4 delta a2."""
        return 4.0 * self.delta * self.a2


class TrackingState(NamedTuple):
    """Translational state of the tracked vehicle, shaped (..., 3)."""

    r: np.ndarray
    r1: np.ndarray


class ReferencePoint(NamedTuple):
    """Reference position, velocity, and acceleration, shaped (..., 3)."""

    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


_SIDES = np.array([1.0, -1.0])  # upper face, then lower face, of each axis
_FLOAT = np.dtype(float)


def face_bounds(r, r1, ref_r, ref_r1, ref_r2, params: CbfParams) -> tuple[np.ndarray, np.ndarray]:
    """Admissible interval [lower, upper] of mu per axis; arrays batched over (..., 3).

    upper - lower == 2 * a2 * delta holds identically, so the filter is
    always feasible regardless of the state.
    """
    state, ref = TrackingState(r, r1), ReferencePoint(ref_r, ref_r1, ref_r2)
    _, lower, upper = SafetyFilter(params).inputs(state, ref)
    return lower, upper


def barrier_values(state: TrackingState, ref: ReferencePoint, params: CbfParams) -> np.ndarray:
    """The six tube barriers h, ordered x+, x-, y+, y-, z+, z-; nonnegative inside."""
    e = np.asarray(state.r, dtype=float) - np.asarray(ref.r, dtype=float)
    return (params.delta - e[..., None] * _SIDES).reshape(e.shape[:-1] + (6,))


@dataclass(frozen=True)
class PdGains:
    """Proportional-derivative tracking gains for the nominal controller."""

    kp: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "kd"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def nominal_mu(state: TrackingState, ref: ReferencePoint, gains: PdGains) -> np.ndarray:
    """Feedforward-plus-PD virtual input, before filtering; arrays batched over (..., 3)."""
    return SafetyFilter(gains=gains).inputs(state, ref)[0]


class SafeCommand(NamedTuple):
    """Output of the filter, batched over the leading axes of mu.

    mu_nominal and mu are computed when the command is built; v, barriers
    and active are derived from the stored inputs only when read, so a loop
    that needs only mu pays for nothing else. lower and upper are the clamp's
    face bounds, None for a command that passes mu_nominal through unfiltered.
    """

    mu_nominal: np.ndarray
    mu: np.ndarray
    state: TrackingState
    ref: ReferencePoint
    params: CbfParams
    psi: float = 0.0
    g: float = GRAVITY
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @property
    def v(self) -> ReducedInput:
        """Thrust and attitude for mu.

        Raises:
            InvertedFlightError: for a filtered command with any row off the
                invertible branch; unfiltered commands read NaN on those rows.
        """
        mu = self.mu
        if self.lower is None:
            # NaN rows pass attitude_from_virtual's check and come back NaN.
            mu = np.where(mu[..., 2:] + self.g <= 0.0, np.nan, mu)
        return attitude_from_virtual(mu, self.psi, self.g)

    @property
    def barriers(self) -> np.ndarray:
        """The six tube barriers at the commanded state, ordered x+, x-, y+, y-, z+, z-."""
        return barrier_values(self.state, self.ref, self.params)

    @property
    def active(self) -> np.ndarray:
        """Which of the six faces clamp mu, ordered x+, x-, y+, y-, z+, z-.

        A face is active when mu lies within 1e-9 of its bound; all are
        False for an unfiltered command.
        """
        if self.lower is None:
            return np.zeros(self.mu.shape[:-1] + (6,), dtype=bool)
        faces = np.stack([self.upper, self.lower], axis=-1)
        return (np.abs(self.mu[..., None] - faces) <= 1e-9).reshape(self.mu.shape[:-1] + (6,))


def safe_step(
    state: TrackingState,
    ref: ReferencePoint,
    mu_nominal: np.ndarray,
    params: CbfParams,
    psi: float = 0.0,
    g: float = GRAVITY,
) -> SafeCommand:
    """Filter a nominal input, an array batched over (..., 3) like the state.

    Clamps each axis of mu_nominal to [lower, upper] from face_bounds: the
    exact solution of the safety QP. The box is never empty, since each
    axis interval has width 2 * a2 * delta > 0 whatever the state.
    """
    return SafetyFilter(params, psi=psi, g=g)(state, ref, mu_nominal)


class SafetyFilter:
    """The PD nominal and the barrier clamp: the one definition of the filter.

    nominal_mu, face_bounds and safe_step build one per call; a controller
    builds one and calls it every tick. kp, kd, a1, a2 and a2 * delta are
    held as plain floats. A call on one tick, where every state and
    reference field and any given mu_nominal is a (3,) float64 array, runs
    per axis in Python floats and returns fresh (3,) arrays; any other call,
    a batch over leading axes included, runs as array code. The input's
    shape alone selects the path, and both take the same operations in the
    same order, so they agree bit for bit. Without gains the filter clamps
    only a given nominal input; without params it computes only the
    nominal one, through inputs, and cannot be called.
    """

    def __init__(
        self,
        params: CbfParams | None = None,
        gains: PdGains | None = None,
        psi: float = 0.0,
        g: float = GRAVITY,
    ):
        self.params, self.psi, self.g = params, psi, g
        self.kp = self.kd = self.a1 = self.a2 = self.half = None
        if gains is not None:
            self.kp, self.kd = float(gains.kp), float(gains.kd)
        if params is not None:
            self.a1, self.a2 = float(params.a1), float(params.a2)
            self.half = float(params.a2 * params.delta)

    def inputs(
        self, state: TrackingState, ref: ReferencePoint, mu_nominal: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(mu_nominal, lower, upper) from one pair of error differences.

        mu_nominal is the one given, else the PD law when the filter has
        gains; lower and upper are None when it has no params. The box
        centre is ref_r2 - a1 (r1 - ref_r1) - a2 (r - ref_r), written with
        dr = ref_r - r and dv = ref_r1 - r1 as ref_r2 + a1 dv + a2 dr, which
        is the same in IEEE arithmetic: a - b = -(b - a), c (-x) = -(c x) and
        x - (-y) = x + y are exact. Only the sign of a zero centre can
        differ, and adding or subtracting a2 * delta > 0 removes it.
        """
        tick = self._tick(state, ref, mu_nominal)
        if tick is not None:
            mu_nominal, _, lower, upper = tick
            return tuple(None if x is None else np.array(x) for x in (mu_nominal, lower, upper))
        dr = ref.r - state.r
        dv = ref.r1 - state.r1
        if mu_nominal is None and self.kp is not None:
            mu_nominal = ref.r2 + self.kp * dr + self.kd * dv
        if self.a1 is None:
            return mu_nominal, None, None
        base = ref.r2 + self.a1 * dv + self.a2 * dr
        return mu_nominal, base - self.half, base + self.half

    def __call__(
        self, state: TrackingState, ref: ReferencePoint, mu_nominal: np.ndarray | None = None
    ) -> SafeCommand:
        """The filtered command: mu_nominal, or the PD law, clamped per axis to the box."""
        tick = self._tick(state, ref, mu_nominal)
        if tick is not None and tick[1] is not None:
            mu_nominal, mu, lower, upper = [np.array(x) for x in tick]
        else:
            mu_nominal, lower, upper = self.inputs(state, ref, mu_nominal)
            mu = np.minimum(np.maximum(mu_nominal, lower), upper)
        return SafeCommand(mu_nominal, mu, state, ref, self.params, self.psi, self.g, lower, upper)

    def _tick(self, state, ref, mu_nominal) -> tuple[list | None, ...] | None:
        """(mu_nominal, mu, lower, upper) of one tick as lists of three floats.

        None unless every field, and mu_nominal if given, is a (3,) float64
        array. An entry is None where inputs() gives None, and mu is None
        unless there are both a nominal input and a box. Each axis takes the
        array code's operations in its order: (r2 + kp dr) + kd dv, then
        (r2 + a1 dv) + a2 dr, then base -/+ a2 delta, then the clamp.
        """
        fields = (*state, *ref) if mu_nominal is None else (*state, *ref, mu_nominal)
        for f in fields:
            if type(f) is not np.ndarray or f.dtype is not _FLOAT or f.shape != (3,):
                return None
        (x, y, z), (vx, vy, vz), (px, py, pz), (ux, uy, uz), (ax, ay, az), *given = [
            f.tolist() for f in fields
        ]
        drx, dry, drz = px - x, py - y, pz - z
        dvx, dvy, dvz = ux - vx, uy - vy, uz - vz
        kp, kd, a1, a2, half = self.kp, self.kd, self.a1, self.a2, self.half
        if given:
            nominal = given[0]
        elif kp is not None:
            nominal = [ax + kp * drx + kd * dvx, ay + kp * dry + kd * dvy, az + kp * drz + kd * dvz]
        else:
            nominal = None
        if a1 is None:
            return nominal, None, None, None
        bx, by, bz = ax + a1 * dvx + a2 * drx, ay + a1 * dvy + a2 * dry, az + a1 * dvz + a2 * drz
        lower, upper = [bx - half, by - half, bz - half], [bx + half, by + half, bz + half]
        mu = None if nominal is None else list(map(_clamp, nominal, lower, upper))
        return nominal, mu, lower, upper


def _clamp(x: float, lower: float, upper: float) -> float:
    """np.minimum(np.maximum(x, lower), upper) on floats, bit for bit.

    Both numpy functions return a NaN first argument, and otherwise the
    second argument unless the first lies strictly beyond it: NaN
    propagates, and x = -0.0 against a 0.0 bound gives the bound's 0.0.
    """
    x = x if (x > lower or x != x) else lower
    return x if (x < upper or x != x) else upper


@dataclass(frozen=True)
class InitialConditionReport:
    """Checks on the starting state against the tube guarantee hypotheses.

    The tube guarantee needs the state inside the tube and the mixed error
    ||de/dt + lambda e||_inf within lambda * delta for one of the two error
    poles; the velocity bound additionally needs
    ||de/dt||_inf <= 2 delta a2 / a1.
    """

    e_inf: float
    e1_inf: float
    slope_fast: float
    slope_slow: float
    params: CbfParams

    @property
    def tube_ok(self) -> bool:
        return bool(self.e_inf <= self.params.delta + 1e-12)

    @property
    def slope_ok(self) -> bool:
        lf, ls = self.params.lambda_fast, self.params.lambda_slow
        d = self.params.delta
        return bool(self.slope_fast <= lf * d + 1e-12 or self.slope_slow <= ls * d + 1e-12)

    @property
    def velocity_ok(self) -> bool:
        return bool(self.e1_inf <= self.params.velocity_bound + 1e-12)

    @property
    def ok(self) -> bool:
        return self.tube_ok and self.slope_ok


def check_initial_conditions(
    state: TrackingState, ref: ReferencePoint, params: CbfParams
) -> InitialConditionReport:
    e = np.asarray(state.r, dtype=float) - np.asarray(ref.r, dtype=float)
    e1 = np.asarray(state.r1, dtype=float) - np.asarray(ref.r1, dtype=float)
    return InitialConditionReport(
        e_inf=float(np.abs(e).max()),
        e1_inf=float(np.abs(e1).max()),
        slope_fast=float(np.abs(e1 + params.lambda_fast * e).max()),
        slope_slow=float(np.abs(e1 + params.lambda_slow * e).max()),
        params=params,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Worst-case tracking quantities over a run, next to their bounds."""

    max_position_err: float
    max_velocity_err: float
    max_input_dev: float
    min_barrier: float
    position_bound: float
    velocity_bound: float
    input_bound: float

    def ok(self, position_slack: float = 0.0, velocity_slack: float = 0.0) -> bool:
        return bool(
            self.max_position_err <= self.position_bound + position_slack
            and self.max_velocity_err <= self.velocity_bound + velocity_slack
            and self.max_input_dev <= self.input_bound + 1e-12
            and self.min_barrier >= -position_slack
        )

    def to_dict(self) -> dict:
        return {
            "max_position_err": float(self.max_position_err),
            "max_velocity_err": float(self.max_velocity_err),
            "max_input_dev": float(self.max_input_dev),
            "min_barrier": float(self.min_barrier),
            "position_bound": float(self.position_bound),
            "velocity_bound": float(self.velocity_bound),
            "input_bound": float(self.input_bound),
        }


def certificates(
    position_err: np.ndarray,
    velocity_err: np.ndarray,
    input_dev: np.ndarray,
    barriers: np.ndarray,
    params: CbfParams,
) -> CertificateReport:
    """Summarize a run's error arrays against the tube and derived bounds.

    Args:
        position_err: r - r_ref per tick, shape (M, 3).
        velocity_err: dr/dt - dr_ref/dt per tick, shape (M, 3).
        input_dev: mu* - ddot r_ref per tick, shape (M, 3).
        barriers: the six h values per tick, shape (M, 6).
    """
    return CertificateReport(
        max_position_err=float(np.abs(position_err).max()),
        max_velocity_err=float(np.abs(velocity_err).max()),
        max_input_dev=float(np.abs(input_dev).max()),
        min_barrier=float(np.asarray(barriers).min()),
        position_bound=params.delta,
        velocity_bound=params.velocity_bound,
        input_bound=params.input_deviation_bound,
    )
