"""Differential flatness maps for a quadcopter.

Position and yaw are flat outputs: the full state and input are algebraic
functions of them and finitely many of their time derivatives. Three maps
matter here:

- ``flat_to_state_input``: flat outputs up to jerk (plus yaw and yaw rate)
  to attitude, mass-normalized collective thrust, and body rates.
- ``virtual_from_attitude`` / ``attitude_from_virtual``: the bijection
  between the reduced input (thrust, roll, pitch at a given yaw) and the
  virtual acceleration input mu = T z_B - g z_W of the double-integrator
  model. The tracker filters mu, then converts back.

All thrust values are mass-normalized (units of acceleration). Angles are
radians, yaw uses the Z-Y-X (yaw-pitch-roll) convention, and the world
z axis points up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81

_Z_W = np.array([0.0, 0.0, 1.0])


class SingularThrustError(ValueError):
    """Commanded acceleration cancels gravity; thrust axis is undefined."""


class SingularAttitudeError(ValueError):
    """Thrust axis is parallel to the yaw reference; attitude is undefined."""


class InvertedFlightError(ValueError):
    """Virtual input demands a non-positive vertical thrust component."""


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


@dataclass(frozen=True)
class ReducedInput:
    """Thrust and attitude angles commanded to the inner-loop autopilot.

    thrust, phi and theta are floats for one command and arrays for a batch.
    """

    thrust: float | np.ndarray
    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float


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


def attitude_from_virtual(mu: np.ndarray, psi: float, g: float = GRAVITY) -> ReducedInput:
    """Invert the virtual-input map at a given yaw, batched over mu's (..., 3).

    Valid on the non-inverted branch, where the vertical thrust component
    mu_3 + g is positive and roll and pitch stay inside (-pi/2, pi/2). A
    single (3,) input gives float fields, a batch gives arrays shaped (...).

    Raises:
        InvertedFlightError: if mu_3 + g <= 0 on any row.
    """
    mu = np.asarray(mu, dtype=float)
    x, y, m3 = mu[..., 0], mu[..., 1], mu[..., 2] + g
    inverted = m3 <= 0.0
    if np.any(inverted):
        raise InvertedFlightError(f"vertical thrust component {np.min(m3[inverted]):.3f} <= 0")
    c_psi, s_psi = np.cos(psi), np.sin(psi)
    theta = np.arctan2(x * c_psi + y * s_psi, m3)
    phi = np.arctan2((x * s_psi - y * c_psi) * np.cos(theta), m3)
    # float_power squares through pow() as a float64 scalar's ** does, so a
    # batch matches per-row calls bit for bit; array ** squares by x * x,
    # which rounds differently on some inputs.
    thrust = np.sqrt(np.float_power(x, 2) + np.float_power(y, 2) + np.float_power(m3, 2))
    if mu.ndim == 1:
        thrust, phi, theta = float(thrust), float(phi), float(theta)
    return ReducedInput(thrust=thrust, phi=phi, theta=theta, psi=float(psi))


def tilt_thrust_rates(
    acc: np.ndarray, jerk: np.ndarray, g: float = GRAVITY
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized thrust, roll, pitch, and body rates p, q at zero yaw.

    Batched form of flat_to_state_input for constraint verification, where
    many samples are checked at once and yaw is identically zero.

    Args:
        acc: Accelerations, shape (..., 3).
        jerk: Jerks, shape (..., 3).

    Returns:
        (thrust, phi, theta, p, q), each of shape (...).
    """
    acc = np.asarray(acc, dtype=float)
    jerk = np.asarray(jerk, dtype=float)
    t_vec = acc + g * _Z_W
    thrust = np.linalg.norm(t_vec, axis=-1)
    if np.any(thrust < 1e-6):
        raise SingularThrustError("free-fall sample in batch")
    z_b = t_vec / thrust[..., None]

    # With psi = 0, y_C = e_y, so x_B is the normalized (z_b3, 0, -z_b1).
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
