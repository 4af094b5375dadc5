"""Barrier-based safety filter for trajectory tracking.

The tracked vehicle is treated as a double integrator in the virtual input
mu (commanded acceleration). Six barrier functions, two per axis, keep the
position error inside the tube ||r - r_ref||_inf <= delta:

    h_q^up = delta - (q - q_ref),    h_q^low = delta + (q - q_ref).

Enforcing both at relative degree two yields, per axis, a closed interval
of admissible mu_q whose width is identically 2 * a2 * delta. The safety QP,
min ||mu - mu_nominal||^2 over that box, separates by axis, so its exact
solution is a per-axis clamp of the nominal input, and no numerical solve
is needed. ``SafetyFilter`` is the one definition of the filter: from one
pair of error differences it computes the PD nominal and the box
(``inputs``) and the clamp (a call), as array code batched over leading
axes. ``tick`` runs the same operations on one tick in Python floats and
returns mu as three floats; a closed-loop controller calls it every tick
and makes one array call on the whole run afterwards. The six faces, like
the six barriers, are always ordered x+, x-, y+, y-, z+, z-: the upper face
(from h^up) then the lower face (from h^low) of each axis.
"""

from __future__ import annotations

import math
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
        if not math.isfinite(self.a1 * self.a1):
            raise ValueError(f"a1^2 must be finite, got a1 = {self.a1}")
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


class SafeCommand(NamedTuple):
    """Output of the filter, batched over the leading axes of mu.

    v, barriers and active are derived from the stored inputs only when
    read. lower and upper are the clamp's face bounds, None for a command
    that passes mu_nominal through unfiltered.
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
        lower = self.lower
        if lower is None:
            return np.zeros(self.mu.shape[:-1] + (6,), dtype=bool)
        faces = np.stack([self.upper, lower], axis=-1)
        return (np.abs(self.mu[..., None] - faces) <= 1e-9).reshape(self.mu.shape[:-1] + (6,))


class SafetyFilter:
    """The PD nominal and the barrier clamp: the one definition of the filter.

    kp, kd, a1, a2 and a2 * delta are held as plain floats. A call and
    inputs() are array code, batched over leading axes. tick() is the same
    filter on one tick in Python floats, for a closed loop that calls it
    every tick: it takes the array code's operations in the same order, so
    it agrees with a call bit for bit. Without gains the filter clamps only
    a given nominal input: a call without one, or a tick, is a ValueError,
    though inputs() still gives the box.
    """

    def __init__(
        self, params: CbfParams, gains: PdGains | None = None, psi: float = 0.0, g: float = GRAVITY
    ):
        self.params, self.psi, self.g = params, psi, g
        self.kp = self.kd = None
        if gains is not None:
            self.kp, self.kd = float(gains.kp), float(gains.kd)
        self.a1, self.a2 = float(params.a1), float(params.a2)
        self.half = float(params.a2 * params.delta)

    def inputs(
        self, state: TrackingState, ref: ReferencePoint, mu_nominal: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """(mu_nominal, lower, upper) from one pair of error differences.

        mu_nominal is the one given, else the PD law when the filter has
        gains, else None; [lower, upper] is the admissible box, whose width
        upper - lower is 2 * a2 * delta whatever the state. The box
        centre is ref_r2 - a1 (r1 - ref_r1) - a2 (r - ref_r), written with
        dr = ref_r - r and dv = ref_r1 - r1 as ref_r2 + a1 dv + a2 dr, which
        is the same in IEEE arithmetic: a - b = -(b - a), c (-x) = -(c x) and
        x - (-y) = x + y are exact. Only the sign of a zero centre can
        differ, and adding or subtracting a2 * delta > 0 removes it.
        """
        dr = ref.r - state.r
        dv = ref.r1 - state.r1
        if mu_nominal is None and self.kp is not None:
            mu_nominal = ref.r2 + self.kp * dr + self.kd * dv
        base = ref.r2 + self.a1 * dv + self.a2 * dr
        return mu_nominal, base - self.half, base + self.half

    def __call__(
        self, state: TrackingState, ref: ReferencePoint, mu_nominal: np.ndarray | None = None
    ) -> SafeCommand:
        """The filtered command: mu_nominal, or the PD law, clamped per axis to the box.

        The clamp is np.minimum(np.maximum(mu_nominal, lower), upper).
        """
        if mu_nominal is None and self.kp is None:
            raise ValueError("a SafetyFilter without gains needs mu_nominal")
        mu_nominal, lower, upper = self.inputs(state, ref, mu_nominal)
        mu = np.minimum(np.maximum(mu_nominal, lower), upper)
        return SafeCommand(mu_nominal, mu, state, ref, self.params, self.psi, self.g, lower, upper)

    def tick(self, state, ref, clamp: bool = True) -> tuple[float, float, float]:
        """mu of one tick as three floats: the PD law, clamped to the box if clamp.

        state is (r, r1) and ref (r, r1, r2), each a triple of floats. Each
        axis takes the array code's operations in its order: (r2 + kp dr)
        + kd dv, then (r2 + a1 dv) + a2 dr, then base -/+ a2 delta. The
        clamp follows np.maximum and then np.minimum: each returns a NaN
        first argument, and otherwise the bound unless the first argument
        lies strictly beyond it, so NaN propagates and a nominal of -0.0
        against a 0.0 bound gives the bound's 0.0.
        """
        kp, kd = self.kp, self.kd
        if kp is None:
            raise ValueError("a SafetyFilter without gains has no PD law to tick")
        ((x, y, z), (vx, vy, vz)), ((px, py, pz), (ux, uy, uz), (ax, ay, az)) = state, ref
        drx, dry, drz = px - x, py - y, pz - z
        dvx, dvy, dvz = ux - vx, uy - vy, uz - vz
        mx, my, mz = ax + kp * drx + kd * dvx, ay + kp * dry + kd * dvy, az + kp * drz + kd * dvz
        if not clamp:
            return mx, my, mz
        a1, a2, half = self.a1, self.a2, self.half
        bx, by, bz = ax + a1 * dvx + a2 * drx, ay + a1 * dvy + a2 * dry, az + a1 * dvz + a2 * drz
        lo, hi = bx - half, bx + half
        mx = mx if (mx > lo or mx != mx) else lo
        mx = mx if (mx < hi or mx != mx) else hi
        lo, hi = by - half, by + half
        my = my if (my > lo or my != my) else lo
        my = my if (my < hi or my != my) else hi
        lo, hi = bz - half, bz + half
        mz = mz if (mz > lo or mz != mz) else lo
        mz = mz if (mz < hi or mz != mz) else hi
        return mx, my, mz


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
