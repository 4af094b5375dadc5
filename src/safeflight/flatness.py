"""Differential flatness maps for a quadcopter.

Position and yaw are flat outputs: the full state and input are algebraic
functions of them and finitely many of their time derivatives. Two maps
matter here:

- ``tilt_thrust_rates``: acceleration and jerk of the position spline to
  mass-normalized collective thrust, roll, pitch and the body rates p, q,
  batched over any number of samples at zero yaw, on the non-inverted
  branch. The dense verifier checks the plan's bounds through it, and the
  CSV export reports it.
- ``attitude_from_virtual``: the virtual acceleration input
  mu = T z_B - g z_W of the double-integrator model to thrust, roll and
  pitch at a given yaw. The tracker filters mu, then converts it with this.

All thrust values are mass-normalized (units of acceleration). Angles are
radians, yaw uses the Z-Y-X (yaw-pitch-roll) convention, and the world
z axis points up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81


class SingularThrustError(ValueError):
    """Commanded acceleration cancels gravity; thrust axis is undefined."""


class SingularAttitudeError(ValueError):
    """Thrust axis is parallel to the yaw reference; attitude is undefined."""


class InvertedFlightError(ValueError):
    """Virtual input demands a non-positive vertical thrust component."""


@dataclass(frozen=True)
class ReducedInput:
    """Thrust and attitude angles commanded to the inner-loop autopilot.

    thrust, phi and theta are floats for one command and arrays for a batch.
    """

    thrust: float | np.ndarray
    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float


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
    """Thrust, roll, pitch and body rates p, q at zero yaw, batched over samples.

    The thrust vector is acc + g z_W, and its direction is the body z axis.
    At zero yaw the body x axis is the normalized (z_b3, 0, -z_b1), so the
    attitude needs no rotation matrix per sample. The body rates are the
    jerk's part normal to z_B divided by the thrust, read on the body y and
    x axes; as both axes are normal to z_B, p = -(y_B . jerk) / T and
    q = (x_B . jerk) / T. Yaw rate is zero along a zero-yaw plan, so no r is
    returned. The body works on the x, y and z components of acc and jerk,
    one (...) array each, so no (..., 3) temporary is built per sample.
    tests/oracles.py holds the scalar any-yaw reference it is tested against.

    Args:
        acc: Accelerations, shape (..., 3).
        jerk: Jerks, shape (..., 3).

    Returns:
        (thrust, phi, theta, p, q), each of shape (...).

    Raises:
        SingularThrustError: on a free-fall sample (thrust below 1e-6).
        SingularAttitudeError: on a thrust axis within 1e-9 of e_y.
        InvertedFlightError: on a sample whose thrust points down or sideways
            (acc_z + g <= 0), the branch attitude_from_virtual rejects too;
            checked after the two above.
    """
    acc = np.asarray(acc, dtype=float)
    jerk = np.asarray(jerk, dtype=float)
    tx, ty, tz = acc[..., 0], acc[..., 1], acc[..., 2] + g
    # Summed in np.linalg.norm's order, so the thrust matches a norm call bitwise.
    thrust = np.sqrt((tx * tx + ty * ty) + tz * tz)
    if np.any(thrust < 1e-6):
        raise SingularThrustError("free-fall sample in batch")
    z1, z2, z3 = tx / thrust, ty / thrust, tz / thrust

    # With psi = 0, y_C = e_y, so x_B = (x1, 0, x3) = (z_b3, 0, -z_b1) / nx and
    # y_B = z_B x x_B = (z_b2 x3, nx, -z_b2 x1).
    nx = np.sqrt(z1 * z1 + z3 * z3)
    if np.any(nx < 1e-9):
        raise SingularAttitudeError("thrust axis parallel to e_y in batch")
    inverted = tz <= 0.0
    if np.any(inverted):
        raise InvertedFlightError(f"vertical thrust component {np.min(tz[inverted]):.3f} <= 0")
    x1, x3 = z3 / nx, -z1 / nx

    theta = -np.arcsin(np.clip(x3, -1.0, 1.0))
    phi = np.arcsin(np.clip(-(z2 * x1) / np.cos(theta), -1.0, 1.0))

    j1, j2, j3 = jerk[..., 0], jerk[..., 1], jerk[..., 2]
    p = -(z2 * (x3 * j1 - x1 * j3) + nx * j2) / thrust
    q = (x1 * j1 + x3 * j3) / thrust
    return thrust, phi, theta, p, q
