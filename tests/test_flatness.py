"""Flatness maps: state reconstruction, the virtual-input bijection, cones."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from oracles import (
    FlatOutput,
    flat_to_state_input,
    tilt_thrust_rates_vectors,
    virtual_from_attitude,
)

from safeflight.flatness import (
    GRAVITY,
    InvertedFlightError,
    ReducedInput,
    SingularAttitudeError,
    SingularThrustError,
    attitude_from_virtual,
    tilt_thrust_rates,
)

G = GRAVITY
E3 = np.array([0.0, 0.0, 1.0])


def rotation_zyx(phi, theta, psi):
    """Yaw-pitch-roll rotation built from elementary rotations."""
    c, s = np.cos(psi), np.sin(psi)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = np.cos(theta), np.sin(theta)
    ry = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    c, s = np.cos(phi), np.sin(phi)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return rz @ ry @ rx


def analytic_flat(t):
    """Smooth reference with closed-form derivatives, well away from
    the free-fall and gimbal singularities."""
    r = np.array([0.4 * np.sin(t), 0.3 * np.cos(2 * t), 2.0 + 0.2 * np.sin(3 * t)])
    r1 = np.array([0.4 * np.cos(t), -0.6 * np.sin(2 * t), 0.6 * np.cos(3 * t)])
    r2 = np.array([-0.4 * np.sin(t), -1.2 * np.cos(2 * t), -1.8 * np.sin(3 * t)])
    r3 = np.array([-0.4 * np.cos(t), 2.4 * np.sin(2 * t), -5.4 * np.cos(3 * t)])
    return FlatOutput(r=r, r1=r1, r2=r2, r3=r3, psi=0.3 * np.sin(t), psi1=0.3 * np.cos(t))


def random_reduced(rng, size):
    thrust = rng.uniform(1e-3, 3.0 * G, size=size)
    phi = rng.uniform(-1.3, 1.3, size=size)
    theta = rng.uniform(-1.3, 1.3, size=size)
    psi = rng.uniform(-np.pi, np.pi, size=size)
    return thrust, phi, theta, psi


class TestStateReconstruction:
    def test_hover(self):
        flat = FlatOutput(r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3), r3=np.zeros(3))
        si = flat_to_state_input(flat)
        assert_allclose(si.thrust, G)
        assert_allclose(si.rotation, np.eye(3), atol=1e-15)
        assert si.phi == 0.0 and si.theta == 0.0
        assert_allclose(si.omega, 0.0, atol=1e-15)

    def test_rotation_is_special_orthogonal(self, rng):
        for _ in range(50):
            r2 = rng.uniform(-3.0, 3.0, size=3)
            r3 = rng.uniform(-10.0, 10.0, size=3)
            psi = rng.uniform(-np.pi, np.pi)
            flat = FlatOutput(r=np.zeros(3), r1=np.zeros(3), r2=r2, r3=r3, psi=psi)
            rot = flat_to_state_input(flat).rotation
            assert_allclose(rot.T @ rot, np.eye(3), atol=1e-14)
            assert_allclose(np.linalg.det(rot), 1.0, atol=1e-14)

    def test_thrust_axis_recovers_acceleration(self, rng):
        # Newton's law for the point mass: T z_B - g z_W = r''.
        for _ in range(50):
            r2 = rng.uniform(-3.0, 3.0, size=3)
            flat = FlatOutput(
                r=np.zeros(3), r1=np.zeros(3), r2=r2, r3=np.zeros(3), psi=rng.uniform(-3, 3)
            )
            si = flat_to_state_input(flat)
            assert_allclose(si.thrust * si.rotation[:, 2] - G * E3, r2, atol=1e-12)

    def test_euler_angles_rebuild_rotation(self, rng):
        # The extracted yaw-pitch-roll triple must reproduce the matrix.
        for _ in range(50):
            r2 = rng.uniform(-3.0, 3.0, size=3)
            psi = rng.uniform(-np.pi, np.pi)
            flat = FlatOutput(r=np.zeros(3), r1=np.zeros(3), r2=r2, r3=np.zeros(3), psi=psi)
            si = flat_to_state_input(flat)
            assert_allclose(rotation_zyx(si.phi, si.theta, si.psi), si.rotation, atol=1e-12)

    def test_body_rates_match_rotation_derivative(self):
        # omega-hat = R^T dR/dt; central differences on the reconstructed
        # rotation give an independent value for p and q.
        h = 1e-5
        for t in np.linspace(0.3, 6.0, 9):
            si = flat_to_state_input(analytic_flat(t))
            r_plus = flat_to_state_input(analytic_flat(t + h)).rotation
            r_minus = flat_to_state_input(analytic_flat(t - h)).rotation
            omega_hat = si.rotation.T @ (r_plus - r_minus) / (2.0 * h)
            assert np.max(np.abs(omega_hat + omega_hat.T)) < 1e-8
            assert abs(omega_hat[2, 1] - si.omega[0]) < 1e-6
            assert abs(omega_hat[0, 2] - si.omega[1]) < 1e-6

    def test_yaw_rate_at_hover(self):
        # With the thrust axis vertical the yaw component is exact.
        flat = FlatOutput(
            r=np.zeros(3), r1=np.zeros(3), r2=np.zeros(3), r3=np.zeros(3), psi=0.4, psi1=0.7
        )
        si = flat_to_state_input(flat)
        assert_allclose(si.omega, [0.0, 0.0, 0.7], atol=1e-15)
        assert_allclose(si.rotation, rotation_zyx(0.0, 0.0, 0.4), atol=1e-15)

    def test_yaw_rate_scales_with_axis_tilt(self):
        flat = FlatOutput(
            r=np.zeros(3),
            r1=np.zeros(3),
            r2=np.array([2.0, -1.0, 0.5]),
            r3=np.zeros(3),
            psi1=0.7,
        )
        si = flat_to_state_input(flat)
        assert_allclose(si.omega[2], 0.7 * si.rotation[2, 2])

    def test_free_fall_raises(self):
        flat = FlatOutput(r=np.zeros(3), r1=np.zeros(3), r2=-G * E3, r3=np.zeros(3))
        with pytest.raises(SingularThrustError):
            flat_to_state_input(flat)

    def test_thrust_axis_along_heading_normal_raises(self):
        # At zero yaw the heading normal is e_y; aim the thrust axis at it.
        flat = FlatOutput(
            r=np.zeros(3), r1=np.zeros(3), r2=np.array([0.0, 5.0, -G]), r3=np.zeros(3)
        )
        with pytest.raises(SingularAttitudeError):
            flat_to_state_input(flat)


class TestVirtualInputBijection:
    def test_round_trip_angles_thrust(self, rng):
        thrust, phi, theta, psi = random_reduced(rng, 10_000)
        worst = 0.0
        for k in range(thrust.size):
            v = ReducedInput(thrust=thrust[k], phi=phi[k], theta=theta[k], psi=psi[k])
            back = attitude_from_virtual(virtual_from_attitude(v), v.psi)
            worst = max(
                worst,
                abs(back.thrust - v.thrust),
                abs(back.phi - v.phi),
                abs(back.theta - v.theta),
                abs(back.psi - v.psi),
            )
        assert worst <= 1e-9, f"round-trip error {worst:.3e}"

    def test_round_trip_virtual(self, rng):
        for _ in range(200):
            mu = rng.uniform(-8.0, 8.0, size=3)
            mu[2] = rng.uniform(-0.9 * G, 2.0 * G)
            psi = rng.uniform(-np.pi, np.pi)
            back = virtual_from_attitude(attitude_from_virtual(mu, psi))
            assert_allclose(back, mu, atol=1e-11)

    def test_matches_full_reconstruction(self, rng):
        # Zero-jerk flat outputs: mu equals the acceleration itself, and the
        # arctan extraction must agree with the rotation-matrix one.
        for _ in range(100):
            r2 = rng.uniform(-4.0, 4.0, size=3)
            psi = rng.uniform(-np.pi, np.pi)
            flat = FlatOutput(r=np.zeros(3), r1=np.zeros(3), r2=r2, r3=np.zeros(3), psi=psi)
            try:
                si = flat_to_state_input(flat)
            except SingularAttitudeError:
                continue
            v = attitude_from_virtual(r2, psi)
            assert_allclose(v.thrust, si.thrust, atol=1e-12)
            assert_allclose(v.phi, si.phi, atol=1e-10)
            assert_allclose(v.theta, si.theta, atol=1e-10)
            assert_allclose(virtual_from_attitude(v), r2, atol=1e-11)

    def test_hover_input(self):
        v = attitude_from_virtual(np.zeros(3), 0.0)
        assert_allclose([v.thrust, v.phi, v.theta], [G, 0.0, 0.0])

    def test_inverted_flight_raises(self):
        with pytest.raises(InvertedFlightError):
            attitude_from_virtual(np.array([0.0, 0.0, -2.0 * G]), 0.0)
        with pytest.raises(InvertedFlightError):
            attitude_from_virtual(np.array([1.0, 1.0, -G]), 0.0)


class TestBatchedAttitude:
    def test_rows_match_scalar_calls_bitwise(self, rng):
        # Enough rows that squaring by x * x instead of pow() would show:
        # the two round apart on roughly one row in a few thousand.
        mu = rng.uniform(-8.0, 8.0, size=(8, 2500, 3))
        mu[..., 2] = rng.uniform(-0.9 * G, 2.0 * G, size=(8, 2500))
        for psi in (0.0, 0.7):
            batch = attitude_from_virtual(mu, psi)
            assert batch.thrust.shape == batch.phi.shape == batch.theta.shape == (8, 2500)
            assert batch.psi == psi
            for idx in np.ndindex(8, 2500):
                one = attitude_from_virtual(mu[idx], psi)
                assert (one.thrust, one.phi, one.theta) == (
                    batch.thrust[idx],
                    batch.phi[idx],
                    batch.theta[idx],
                )

    def test_scalar_call_returns_floats(self):
        v = attitude_from_virtual(np.array([0.3, -0.2, 1.0]), np.float64(0.4))
        for value in (v.thrust, v.phi, v.theta, v.psi):
            assert type(value) is float

    def test_one_inverted_row_raises(self, rng):
        mu = rng.uniform(-2.0, 2.0, size=(50, 3))
        mu[17, 2] = -1.5 * G
        with pytest.raises(InvertedFlightError):
            attitude_from_virtual(mu, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [[1e300, 0.0, 0.0], [0.0, -2e154, 0.0], [0.0, 0.0, 1e200]])
    def test_overflowing_thrust_raises(self, rng, row):
        mu = rng.uniform(-2.0, 2.0, size=(50, 3))
        mu[17] = row
        for psi in (0.0, 0.7):
            with pytest.raises(SingularThrustError, match="thrust not finite"):
                attitude_from_virtual(mu, psi)
            with pytest.raises(SingularThrustError, match="thrust not finite"):
                attitude_from_virtual(mu[17], psi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rows_come_back_non_finite(self):
        # An inf entry is no overflow: its row reads inf, and a NaN row NaN, as before.
        mu = np.array([[np.inf, 0.0, 0.0], [np.nan] * 3, [1e150, 0.0, 0.0]])
        v = attitude_from_virtual(mu, 0.7)
        assert v.thrust[0] == np.inf and np.isnan(v.thrust[1]) and np.isfinite(v.thrust[2])


def tilt_angle(mu):
    m = mu + G * E3
    return np.arccos(m[2] / np.linalg.norm(m))


def worst_yaw(mu):
    m = mu + G * E3
    return np.arctan2(m[1], m[0])


class TestAngleCone:
    """Membership of mu in the second-order cone
    ||(mu_1, mu_2)|| <= tan(eps) (mu_3 + g) is equivalent to both roll and
    pitch staying inside [-eps, eps] regardless of the yaw angle."""

    EPS = 0.6

    def max_angle(self, mu, psi):
        v = attitude_from_virtual(mu, psi)
        return max(abs(v.phi), abs(v.theta))

    def test_bound_holds_inside_for_any_yaw(self, rng):
        for _ in range(300):
            tilt = rng.uniform(0.0, self.EPS - 1e-9)
            azim = rng.uniform(-np.pi, np.pi)
            mag = rng.uniform(0.5, 3.0 * G)
            axis = np.array(
                [np.sin(tilt) * np.cos(azim), np.sin(tilt) * np.sin(azim), np.cos(tilt)]
            )
            mu = mag * axis - G * E3
            for psi in (0.0, np.pi / 4, np.pi / 2, rng.uniform(-np.pi, np.pi), worst_yaw(mu)):
                assert self.max_angle(mu, psi) <= self.EPS + 1e-12

    def test_bound_fails_outside_at_worst_yaw(self, rng):
        for _ in range(300):
            tilt = rng.uniform(self.EPS + 1e-9, 1.4)
            azim = rng.uniform(-np.pi, np.pi)
            mag = rng.uniform(0.5, 3.0 * G)
            axis = np.array(
                [np.sin(tilt) * np.cos(azim), np.sin(tilt) * np.sin(azim), np.cos(tilt)]
            )
            mu = mag * axis - G * E3
            assert self.max_angle(mu, worst_yaw(mu)) > self.EPS

    def test_worst_yaw_attains_full_tilt(self, rng):
        # At psi* = atan2(m_y, m_x) the pitch carries the whole tilt and the
        # roll vanishes, so the per-yaw maximum equals the tilt angle.
        for _ in range(100):
            mu = rng.uniform(-5.0, 5.0, size=3)
            if mu[2] + G < 0.5:
                continue
            v = attitude_from_virtual(mu, worst_yaw(mu))
            assert_allclose(v.theta, tilt_angle(mu), atol=1e-12)
            assert_allclose(v.phi, 0.0, atol=1e-12)

    def test_tilt_identity(self, rng):
        # cos(tilt) = cos(phi) cos(theta) for every yaw, which is why the
        # worst yaw is also the only one that needs checking outside.
        for _ in range(100):
            mu = rng.uniform(-5.0, 5.0, size=3)
            if mu[2] + G < 0.5:
                continue
            psi = rng.uniform(-np.pi, np.pi)
            v = attitude_from_virtual(mu, psi)
            assert_allclose(np.cos(v.phi) * np.cos(v.theta), np.cos(tilt_angle(mu)), atol=1e-12)

    def test_cone_boundary_maps_to_exact_tilt(self):
        # A virtual input on the cone surface has tilt exactly eps.
        for azim in np.linspace(-np.pi, np.pi, 7):
            mag = 1.3 * G
            mu = mag * np.array(
                [
                    np.sin(self.EPS) * np.cos(azim),
                    np.sin(self.EPS) * np.sin(azim),
                    np.cos(self.EPS),
                ]
            ) - G * E3
            rho = np.hypot(mu[0], mu[1])
            assert_allclose(rho, np.tan(self.EPS) * (mu[2] + G), atol=1e-12)
            assert_allclose(tilt_angle(mu), self.EPS, atol=1e-12)


class TestBatchRates:
    def test_matches_scalar_map(self, rng):
        acc = rng.uniform(-3.0, 3.0, size=(200, 3))
        jerk = rng.uniform(-10.0, 10.0, size=(200, 3))
        thrust, phi, theta, p, q = tilt_thrust_rates(acc, jerk)
        for k in range(200):
            flat = FlatOutput(
                r=np.zeros(3), r1=np.zeros(3), r2=acc[k], r3=jerk[k], psi=0.0
            )
            si = flat_to_state_input(flat)
            assert_allclose(thrust[k], si.thrust, atol=1e-12)
            assert_allclose(phi[k], si.phi, atol=1e-12)
            assert_allclose(theta[k], si.theta, atol=1e-12)
            assert_allclose(p[k], si.omega[0], atol=1e-12)
            assert_allclose(q[k], si.omega[1], atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_vector_formula(self, rng, order):
        # Accelerations down to -2.5 g put a quarter of the rows below free
        # fall (z_B3 < 0), which the map rejects as inverted flight; the rest
        # are compared. F order is the layout curve evaluation returns.
        acc = np.asarray(rng.uniform([-15.0, -15.0, -25.0], 15.0, size=(4000, 3)), order=order)
        jerk = np.asarray(rng.uniform(-20.0, 20.0, size=(4000, 3)), order=order)
        assert (acc[:, 2] + G < 0.0).sum() > 500
        with pytest.raises(InvertedFlightError):
            tilt_thrust_rates(acc, jerk)
        up = acc[:, 2] + G > 0.0
        acc, jerk = (np.asarray(a[up], order=order) for a in (acc, jerk))
        got = tilt_thrust_rates(acc, jerk)
        want = tilt_thrust_rates_vectors(acc, jerk)
        for k in range(3):
            assert_array_equal(got[k], want[k])
        # The rates differ in rounding only: the componentwise map drops the
        # projection off z_B, which the rates' axes are normal to. Relative
        # error is taken against the rate scale |jerk| / thrust.
        scale = np.linalg.norm(jerk, axis=1) / want[0]
        for k in (3, 4):
            assert np.all(np.abs(got[k] - want[k]) <= 1e-12 * (np.abs(want[k]) + scale))

    def test_preserves_batch_shape(self, rng):
        acc = rng.uniform(-2.0, 2.0, size=(4, 5, 3))
        jerk = rng.uniform(-5.0, 5.0, size=(4, 5, 3))
        out = tilt_thrust_rates(acc, jerk)
        assert all(a.shape == (4, 5) for a in out)

    def test_free_fall_sample_raises(self):
        acc = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -G]])
        with pytest.raises(SingularThrustError, match="free-fall"):
            tilt_thrust_rates(acc, np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "sample",
        [[1e300, 0.0, 0.0], [0.0, 2e154, 0.0], [0.0, 0.0, -1e200], [np.inf, 0, 0], [np.nan] * 3],
        ids=["x", "y", "z", "inf", "nan"],
    )
    def test_thrust_not_finite_raises(self, rng, sample):
        acc = rng.uniform(-2.0, 2.0, size=(50, 3))
        acc[17] = sample
        acc[3] = [0.0, 0.0, -G]  # a free-fall sample too: the thrust that is not finite is named
        with pytest.raises(SingularThrustError, match="thrust not finite"):
            tilt_thrust_rates(acc, np.zeros((50, 3)))

    def test_sideways_thrust_axis_raises(self):
        acc = np.array([[0.0, 5.0, -G]])
        with pytest.raises(SingularAttitudeError):
            tilt_thrust_rates(acc, np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "acc",
        [[1.0, 0.0, -15.0], [0.0, 0.0, -15.0], [3.0, -2.0, -G]],
        ids=["tilted", "down", "level"],
    )
    def test_downward_thrust_raises(self, acc):
        # Folded into small angles, these would read as a 10.9 deg tilt and
        # as level flight; attitude_from_virtual rejects the same rows.
        with pytest.raises(InvertedFlightError, match="vertical thrust component"):
            tilt_thrust_rates(np.array([acc]), np.zeros((1, 3)))
        with pytest.raises(InvertedFlightError):
            attitude_from_virtual(np.array(acc), 0.0)

    def test_one_inverted_row_fails_the_batch(self, rng):
        acc = rng.uniform(-2.0, 2.0, size=(50, 3))
        acc[17, 2] = -G - 0.5
        with pytest.raises(InvertedFlightError, match=r"component -0\.5 <= 0$"):
            tilt_thrust_rates(acc, np.zeros((50, 3)))
