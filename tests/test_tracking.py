import math

import numpy as np
import pytest

from coopfusion.error_models import GaussianEstimate
from coopfusion.tracking import (
    NumericalError,
    ProcessNoiseConfig,
    TrackEstimate,
    YAW_RATE_EPS,
    ctrv_jacobian,
    ctrv_motion,
    ctrv_predict,
    ekf_update,
    multi_update,
    process_noise_matrix,
)


def make_track(x=0.0, y=0.0, v=0.0, psi=0.0, psi_dot=0.0, cov=None):
    if cov is None:
        cov = np.eye(5)
    return TrackEstimate(np.array([x, y, v, psi, psi_dot], dtype=float), cov)


def ctrv_oracle_turn(v, psi, psi_dot, dt):
    """Closed-form CTRV displacement for a finite yaw rate."""
    dx = (v / psi_dot) * (math.sin(psi_dot * dt + psi) - math.sin(psi))
    dy = (v / psi_dot) * (math.cos(psi) - math.cos(psi_dot * dt + psi))
    return dx, dy


class TestCtrvPredict:
    def test_stationary_target(self):
        cfg = ProcessNoiseConfig()
        track = make_track()
        out = ctrv_predict(track, cfg)
        assert out.mean[0] == 0.0 and out.mean[1] == 0.0
        assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_straight_line_at_frame_rate(self):
        cfg = ProcessNoiseConfig(dt=0.125)
        out = ctrv_predict(make_track(v=1.0), cfg)
        assert out.mean[0] == pytest.approx(0.125, abs=1e-12)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_matches_closed_form(self):
        cfg = ProcessNoiseConfig(dt=1.0)
        out = ctrv_predict(make_track(v=1.0, psi_dot=math.pi / 2), cfg)
        dx, dy = ctrv_oracle_turn(1.0, 0.0, math.pi / 2, 1.0)
        assert dx == pytest.approx(2.0 / math.pi)
        assert out.mean[0] == pytest.approx(dx, abs=1e-12)
        assert out.mean[1] == pytest.approx(dy, abs=1e-12)

    def test_trace_strictly_increases(self):
        cfg = ProcessNoiseConfig()
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = rng.uniform(-1, 1, size=5)
            track = TrackEstimate(state, np.diag(rng.uniform(0.1, 1.0, size=5)))
            out = ctrv_predict(track, cfg)
            assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_process_noise_is_psd_and_symmetric(self):
        q = process_noise_matrix(ProcessNoiseConfig())
        assert np.allclose(q, q.T)
        assert np.linalg.eigvalsh(q).min() >= -1e-15


class TestJacobian:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        dt = 0.125
        h = 1e-6
        for _ in range(100):
            state = np.array(
                [
                    rng.uniform(-5, 5),
                    rng.uniform(-5, 5),
                    rng.uniform(0, 2),
                    rng.uniform(-math.pi, math.pi),
                    rng.choice([-1, 1]) * rng.uniform(0.05, 2.0),
                ]
            )
            jac = ctrv_jacobian(state, dt)
            for col in range(5):
                bump = np.zeros(5)
                bump[col] = h
                # wrap-free comparison: columns of the motion function
                fd = (ctrv_motion_raw(state + bump, dt) - ctrv_motion_raw(state - bump, dt)) / (
                    2 * h
                )
                for row in range(5):
                    assert abs(jac[row, col] - fd[row]) <= 1e-6 * max(1.0, abs(jac[row, col]))

    def test_continuous_at_yaw_rate_switch(self):
        dt = 0.125
        for sign in (1.0, -1.0):
            state_hi = np.array([0.3, -0.2, 1.2, 0.7, sign * YAW_RATE_EPS])
            state_lo = np.array([0.3, -0.2, 1.2, 0.7, sign * YAW_RATE_EPS * 0.999])
            assert np.abs(ctrv_motion(state_hi, dt) - ctrv_motion(state_lo, dt)).max() < 1e-6
            assert np.abs(ctrv_jacobian(state_hi, dt) - ctrv_jacobian(state_lo, dt)).max() < 1e-6


def ctrv_motion_raw(state, dt):
    """Motion function without angle wrapping, for finite differencing."""
    x, y, v, psi, psi_dot = state
    if abs(psi_dot) >= YAW_RATE_EPS:
        psi_next = psi + psi_dot * dt
        ratio = v / psi_dot
        return np.array(
            [
                x + ratio * (math.sin(psi_next) - math.sin(psi)),
                y + ratio * (math.cos(psi) - math.cos(psi_next)),
                v,
                psi_next,
                psi_dot,
            ]
        )
    return np.array(
        [x + v * math.cos(psi) * dt, y + v * math.sin(psi) * dt, v, psi + psi_dot * dt, psi_dot]
    )


class TestEkfUpdate:
    def test_half_gain_closed_form(self):
        track = make_track()
        z = GaussianEstimate(np.array([1.0, 0.0]), np.eye(2))
        out = ekf_update(track, z)
        assert out.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_gain_limit(self):
        track = make_track()
        z = GaussianEstimate(np.array([1.0, 1.0]), 1e9 * np.eye(2))
        out = ekf_update(track, z)
        assert out.mean[0] == pytest.approx(0.0, abs=1e-6)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-6)

    def test_full_gain_limit(self):
        track = make_track(cov=1e9 * np.eye(5))
        z = GaussianEstimate(np.array([2.0, -1.0]), np.eye(2) * 1e-4)
        out = ekf_update(track, z)
        assert out.mean[0] == pytest.approx(2.0, abs=1e-6)
        assert out.mean[1] == pytest.approx(-1.0, abs=1e-6)

    def test_position_trace_never_increases(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            base = rng.uniform(-1, 1, size=(5, 5))
            cov = base @ base.T + 0.1 * np.eye(5)
            track = make_track(cov=cov)
            z = GaussianEstimate(rng.uniform(-1, 1, size=2), np.diag(rng.uniform(0.01, 1.0, 2)))
            out = ekf_update(track, z)
            assert np.trace(out.covariance[:2, :2]) <= np.trace(cov[:2, :2]) + 1e-12
            assert np.linalg.eigvalsh(out.covariance).min() >= -1e-10

    def test_heading_stays_wrapped_across_pi(self):
        # x and psi correlated: a measurement to the right of the track pulls
        # psi up past pi, and the update must wrap it round to near -pi.
        cov = np.diag([1.0, 1.0, 0.1, 1.0, 0.1])
        cov[0, 3] = cov[3, 0] = 0.5
        track = ctrv_predict(make_track(psi=math.pi - 1e-3, cov=cov), ProcessNoiseConfig())
        assert track.mean[3] == pytest.approx(math.pi - 1e-3)
        out = ekf_update(track, GaussianEstimate(np.array([1.0, 0.0]), 0.5 * np.eye(2)))
        assert -math.pi < out.mean[3] <= math.pi
        assert out.mean[3] < -math.pi / 2

    def test_singular_innovation_raises(self):
        cov = np.zeros((5, 5))
        track = make_track(cov=cov)
        z = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            ekf_update(track, z)


class TestMultiUpdate:
    def test_empty_returns_track_unchanged(self):
        track = make_track(x=1.0, y=2.0)
        out = multi_update(track, [])
        assert out is track

    def test_two_measurements_tighter_than_one(self):
        track = make_track()
        z = GaussianEstimate(np.array([0.5, 0.0]), np.eye(2))
        once = ekf_update(track, z)
        twice = multi_update(track, [z, z])
        assert np.trace(twice.covariance[:2, :2]) < np.trace(once.covariance[:2, :2])

    def test_order_permutation_invariant(self):
        track = make_track()
        z1 = GaussianEstimate(np.array([0.4, -0.1]), np.diag([0.2, 0.5]), source="a")
        z2 = GaussianEstimate(np.array([-0.2, 0.3]), np.diag([0.7, 0.1]), source="b")
        fwd = multi_update(track, [z1, z2])
        rev = multi_update(make_track(), [z2, z1])
        assert fwd.mean == pytest.approx(rev.mean, abs=1e-9)
        assert fwd.covariance == pytest.approx(rev.covariance, abs=1e-9)


class TestConvergence:
    def test_tracks_exact_measurements(self):
        cfg = ProcessNoiseConfig()
        rng = np.random.default_rng(4)
        truth = np.array([0.0, 0.0, 0.5, 0.2, 0.3])
        track = TrackEstimate(truth.copy(), np.diag([0.01, 0.01, 1.0, math.pi**2, 1.0]))
        for _ in range(50):
            truth = ctrv_motion_raw(truth, cfg.dt)
            track = ctrv_predict(track, cfg)
            z = GaussianEstimate(truth[:2] + rng.normal(0, 1e-4, 2), 1e-8 * np.eye(2))
            track = ekf_update(track, z)
        err = np.hypot(track.mean[0] - truth[0], track.mean[1] - truth[1])
        assert err < 1e-3
