import math

import numpy as np
import pytest
from oracles import (
    ctrv_predict_reference,
    ctrv_reference,
    ekf_update_reference,
    folded_reference,
    inverse_2x2_reference,
    multi_update_reference,
    sequential_update_reference,
)

from coopfusion import tracking
from coopfusion.error_models import GaussianEstimate, rotated_covariance
from coopfusion.tracking import (
    ProcessNoiseConfig,
    YAW_RATE_EPS,
    _fold,
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
    return GaussianEstimate(np.array([x, y, v, psi, psi_dot], dtype=float), cov)


def stacked(estimates):
    """The estimates' means and covariances as stacked arrays."""
    return (
        np.array([e.mean for e in estimates]).reshape(-1, 5),
        np.array([e.covariance for e in estimates]).reshape(-1, 5, 5),
    )


def predicted(estimates, cfg):
    """``ctrv_predict`` of the stacked estimates, unstacked into estimates."""
    means, covs = ctrv_predict(stacked(estimates), cfg)
    return [GaussianEstimate(mean, cov) for mean, cov in zip(means, covs)]


def observation_arrays(zs):
    return (
        np.array([z.mean for z in zs]).reshape(-1, 2),
        np.array([z.covariance for z in zs]).reshape(-1, 2, 2),
    )


def unstacked(estimates, result):
    """An update's result as estimates; one that did not update is the same object."""
    flags, means, covs = result
    return [
        GaussianEstimate(mean, cov) if flag else estimate
        for estimate, flag, mean, cov in zip(estimates, flags.tolist(), means, covs)
    ]


def ekf_updated(estimates, zs):
    """``ekf_update`` of each estimate by its own observation, on lists."""
    return unstacked(estimates, ekf_update(stacked(estimates), *observation_arrays(zs)))


def multi_updated(estimates, observations):
    """``multi_update`` with track i's observations in ``observations[i]``,
    folded in source order, on lists."""
    pairs = [(i, z) for i, zs in enumerate(observations) for z in sorted(zs, key=lambda z: z.source)]
    rows = np.array([i for i, _ in pairs], dtype=np.intp)
    result = multi_update(stacked(estimates), rows, *observation_arrays([z for _, z in pairs]))
    return unstacked(estimates, result)


def ctrv_oracle_turn(v, psi, psi_dot, dt):
    """Closed-form CTRV displacement for a finite yaw rate."""
    dx = (v / psi_dot) * (math.sin(psi_dot * dt + psi) - math.sin(psi))
    dy = (v / psi_dot) * (math.cos(psi) - math.cos(psi_dot * dt + psi))
    return dx, dy


class TestCtrvPredict:
    def test_stationary_target(self):
        cfg = ProcessNoiseConfig()
        track = make_track()
        (out,) = predicted([track], cfg)
        assert out.mean[0] == 0.0 and out.mean[1] == 0.0
        assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_straight_line_at_frame_rate(self):
        cfg = ProcessNoiseConfig(dt=0.125)
        (out,) = predicted([make_track(v=1.0)], cfg)
        assert out.mean[0] == pytest.approx(0.125, abs=1e-12)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn_matches_closed_form(self):
        cfg = ProcessNoiseConfig(dt=1.0)
        (out,) = predicted([make_track(v=1.0, psi_dot=math.pi / 2)], cfg)
        dx, dy = ctrv_oracle_turn(1.0, 0.0, math.pi / 2, 1.0)
        assert dx == pytest.approx(2.0 / math.pi)
        assert out.mean[0] == pytest.approx(dx, abs=1e-12)
        assert out.mean[1] == pytest.approx(dy, abs=1e-12)

    def test_trace_strictly_increases(self):
        cfg = ProcessNoiseConfig()
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = rng.uniform(-1, 1, size=5)
            track = GaussianEstimate(state, np.diag(rng.uniform(0.1, 1.0, size=5)))
            (out,) = predicted([track], cfg)
            assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_stacked_state_in_and_out(self):
        rng = np.random.default_rng(6)
        means, covs = stacked(TestStackedFilter.random_tracks(rng, 5))
        before = means.tobytes(), covs.tobytes()
        out_means, out_covs = ctrv_predict((means, covs), ProcessNoiseConfig())
        assert out_means.shape == (5, 5) and out_covs.shape == (5, 5, 5)
        assert (means.tobytes(), covs.tobytes()) == before
        assert not np.shares_memory(out_means, means) and not np.shares_memory(out_covs, covs)

    def test_no_tracks(self):
        means, covs = ctrv_predict((np.zeros((0, 5)), np.zeros((0, 5, 5))), ProcessNoiseConfig())
        assert means.shape == (0, 5) and covs.shape == (0, 5, 5)

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
        (out,) = ekf_updated([track], [z])
        assert out.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_gain_limit(self):
        track = make_track()
        z = GaussianEstimate(np.array([1.0, 1.0]), 1e9 * np.eye(2))
        (out,) = ekf_updated([track], [z])
        assert out.mean[0] == pytest.approx(0.0, abs=1e-6)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-6)

    def test_full_gain_limit(self):
        track = make_track(cov=1e9 * np.eye(5))
        z = GaussianEstimate(np.array([2.0, -1.0]), np.eye(2) * 1e-4)
        (out,) = ekf_updated([track], [z])
        assert out.mean[0] == pytest.approx(2.0, abs=1e-6)
        assert out.mean[1] == pytest.approx(-1.0, abs=1e-6)

    def test_position_trace_never_increases(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            base = rng.uniform(-1, 1, size=(5, 5))
            cov = base @ base.T + 0.1 * np.eye(5)
            track = make_track(cov=cov)
            z = GaussianEstimate(rng.uniform(-1, 1, size=2), np.diag(rng.uniform(0.01, 1.0, 2)))
            (out,) = ekf_updated([track], [z])
            assert np.trace(out.covariance[:2, :2]) <= np.trace(cov[:2, :2]) + 1e-12
            assert np.linalg.eigvalsh(out.covariance).min() >= -1e-10

    def test_heading_stays_wrapped_across_pi(self):
        # x and psi correlated: a measurement to the right of the track pulls
        # psi up past pi, and the update must wrap it round to near -pi.
        cov = np.diag([1.0, 1.0, 0.1, 1.0, 0.1])
        cov[0, 3] = cov[3, 0] = 0.5
        (track,) = predicted([make_track(psi=math.pi - 1e-3, cov=cov)], ProcessNoiseConfig())
        assert track.mean[3] == pytest.approx(math.pi - 1e-3)
        (out,) = ekf_updated([track], [GaussianEstimate(np.array([1.0, 0.0]), 0.5 * np.eye(2))])
        assert -math.pi < out.mean[3] <= math.pi
        assert out.mean[3] < -math.pi / 2

    def test_singular_innovation_keeps_estimate(self):
        cov = np.zeros((5, 5))
        track = make_track(cov=cov)
        z = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
        (out,) = ekf_updated([track], [z])
        assert out is track


class TestMultiUpdate:
    def test_empty_returns_track_unchanged(self):
        track = make_track(x=1.0, y=2.0)
        (out,) = multi_updated([track], [[]])
        assert out is track

    def test_two_measurements_tighter_than_one(self):
        track = make_track()
        z = GaussianEstimate(np.array([0.5, 0.0]), np.eye(2))
        (once,) = ekf_updated([track], [z])
        (twice,) = multi_updated([track], [[z, z]])
        assert np.trace(twice.covariance[:2, :2]) < np.trace(once.covariance[:2, :2])

    def test_order_permutation_invariant(self):
        track = make_track()
        z1 = GaussianEstimate(np.array([0.4, -0.1]), np.diag([0.2, 0.5]), source="a")
        z2 = GaussianEstimate(np.array([-0.2, 0.3]), np.diag([0.7, 0.1]), source="b")
        (fwd,) = multi_updated([track], [[z1, z2]])
        (rev,) = multi_updated([make_track()], [[z2, z1]])
        assert fwd.mean == pytest.approx(rev.mean, abs=1e-9)
        assert fwd.covariance == pytest.approx(rev.covariance, abs=1e-9)

    @staticmethod
    def random_scene(rng, k):
        """A predicted track and k observations near it, each covariance
        inflated by 1/weight for a JPDA weight in (0.2, 1]."""
        a = rng.normal(size=(5, 5))
        mean = np.array([*rng.uniform(-5, 5, 2), rng.uniform(0, 2), rng.uniform(-3, 3), 0.3])
        (track,) = predicted(
            [GaussianEstimate(mean, a @ a.T * rng.uniform(1e-3, 1.0) + 1e-6 * np.eye(5))],
            ProcessNoiseConfig(),
        )
        zs = [
            GaussianEstimate(
                track.mean[:2] + rng.normal(scale=0.3, size=2),
                rotated_covariance(*rng.uniform(0.005, 0.3, 2), rng.uniform(-math.pi, math.pi))
                / (1.0 - 0.8 * rng.uniform()),
                source=f"cav{i:02d}",
            )
            for i in range(k)
        ]
        return track, zs

    @pytest.mark.parametrize("k", range(1, 21))
    def test_fold_matches_sequential_reference(self, k):
        # The fold is exact in exact arithmetic; 1e-9 relative leaves room
        # for round-off (the worst seen over 2,000 scenes is 1.2e-13).
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            track, zs = self.random_scene(rng, k)
            (out,) = multi_updated([track], [zs])
            ref = sequential_update_reference(track, zs)
            delta = out.mean - ref.mean
            delta[3] = math.remainder(delta[3], 2 * math.pi)
            assert np.all(np.abs(delta) <= 1e-9 * np.maximum(np.abs(ref.mean), 1.0))
            scale = np.abs(ref.covariance).max()
            assert np.abs(out.covariance - ref.covariance).max() <= 1e-9 * scale

    def test_single_observation_is_exactly_ekf_update(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            track, zs = self.random_scene(rng, 1)
            (out,) = multi_updated([track], [zs])
            (once,) = ekf_updated([track], [zs[0]])
            assert np.array_equal(out.mean, once.mean)
            assert np.array_equal(out.covariance, once.covariance)

    # Track position blocks are uncorrelated here: after an exact (zero
    # covariance) update with a correlated block, the sequential loop is left
    # with a round-off position covariance, and whether its next update passes
    # the singularity test is decided by that round-off.
    @pytest.mark.parametrize("track_cov", [np.eye(5), np.diag([0.3, 0.7, 1.0, 2.0, 0.5])])
    @pytest.mark.parametrize(
        "covs",
        [
            pytest.param((np.zeros((2, 2)), np.zeros((2, 2))), id="two_exact"),
            pytest.param((np.diag([0.0, 1.0]), np.diag([0.0, 1.0])), id="exact_in_x_twice"),
            pytest.param((np.zeros((2, 2)), 0.5 * np.eye(2)), id="exact_then_noisy"),
        ],
    )
    def test_degenerate_observations_skipped_like_reference(self, track_cov, covs):
        track = make_track(x=0.1, y=-0.2, v=0.5, psi=0.3, cov=track_cov)
        zs = [
            GaussianEstimate(np.array([1.0, 2.0]), covs[0], source="a"),
            GaussianEstimate(np.array([-1.0, 0.5]), covs[1], source="b"),
        ]
        (out,) = multi_updated([track], [zs])
        ref = sequential_update_reference(track, zs)
        assert out.mean == pytest.approx(ref.mean, rel=1e-12, abs=1e-12)
        assert out.covariance == pytest.approx(ref.covariance, rel=1e-12, abs=1e-12)
        # Both keep the first observation's exact coordinate.
        assert out.mean[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_covariance_track_is_unchanged(self):
        track = make_track(x=0.1, y=-0.2, v=0.5, psi=0.3, cov=np.zeros((5, 5)))
        zs = [
            GaussianEstimate(np.array([1.0, 2.0]), 0.1 * np.eye(2), source="a"),
            GaussianEstimate(np.array([-1.0, 0.5]), np.diag([0.2, 0.3]), source="b"),
        ]
        (out,) = multi_updated([track], [zs])
        ref = sequential_update_reference(track, zs)
        assert out.mean == pytest.approx(track.mean, abs=1e-15)
        assert ref.mean == pytest.approx(track.mean, abs=1e-15)
        assert not out.covariance.any() and not ref.covariance.any()

    def test_failed_update_keeps_prediction(self):
        track = make_track(cov=np.zeros((5, 5)))
        zs = [
            GaussianEstimate(np.array([1.0, 2.0]), np.zeros((2, 2)), source="a"),
            GaussianEstimate(np.array([-1.0, 0.5]), np.zeros((2, 2)), source="b"),
        ]
        assert multi_updated([track], [zs])[0] is track
        assert sequential_update_reference(track, zs) is track


class TestConvergence:
    def test_tracks_exact_measurements(self):
        cfg = ProcessNoiseConfig()
        rng = np.random.default_rng(4)
        truth = np.array([0.0, 0.0, 0.5, 0.2, 0.3])
        track = GaussianEstimate(truth.copy(), np.diag([0.01, 0.01, 1.0, math.pi**2, 1.0]))
        for _ in range(50):
            truth = ctrv_motion_raw(truth, cfg.dt)
            (track,) = predicted([track], cfg)
            z = GaussianEstimate(truth[:2] + rng.normal(0, 1e-4, 2), 1e-8 * np.eye(2))
            (track,) = ekf_updated([track], [z])
        err = np.hypot(track.mean[0] - truth[0], track.mean[1] - truth[1])
        assert err < 1e-3


class TestStackedFilter:
    """Every stacked call gives each track exactly the bits of the per-track
    references in ``tests/oracles.py``, whatever else shares the stack."""

    SIZES = (0, 1, 2, 7, 20)

    @staticmethod
    def random_tracks(rng, n):
        # Yaw rates on both sides of the turn/straight switch, in one stack.
        yaw_rates = (0.0, 0.999 * YAW_RATE_EPS, -YAW_RATE_EPS, YAW_RATE_EPS, 1.001 * YAW_RATE_EPS)
        tracks = []
        for _ in range(n):
            a = rng.normal(size=(5, 5))
            if rng.uniform() < 0.5:
                psi_dot = yaw_rates[rng.integers(len(yaw_rates))]
            else:
                psi_dot = rng.uniform(-2, 2)
            position, speed, heading = rng.uniform(-5, 5, 2), rng.uniform(0, 2), rng.uniform(-3, 3)
            mean = np.array([*position, speed, heading, psi_dot])
            cov = a @ a.T * rng.uniform(1e-3, 1.0) + 1e-6 * np.eye(5)
            tracks.append(GaussianEstimate(mean, cov))
        return tracks

    @staticmethod
    def random_observation(rng, track, source="a"):
        return GaussianEstimate(
            track.mean[:2] + rng.normal(scale=0.3, size=2),
            rotated_covariance(*rng.uniform(0.005, 0.3, 2), rng.uniform(-math.pi, math.pi))
            / (1.0 - 0.8 * rng.uniform()),
            source=source,
        )

    @staticmethod
    def assert_bits_equal(out, ref):
        # Byte comparison: stricter than array_equal (it tells -0.0 from 0.0)
        # and it holds for NaN entries too.
        assert len(out) == len(ref)
        for got, want in zip(out, ref):
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.covariance.tobytes() == want.covariance.tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_predict_matches_per_track_loop(self, n):
        rng = np.random.default_rng(300 + n)
        cfg = ProcessNoiseConfig()
        for _ in range(10):
            tracks = self.random_tracks(rng, n)
            out = predicted(tracks, cfg)
            self.assert_bits_equal(out, [ctrv_predict_reference(t, cfg) for t in tracks])

    @pytest.mark.parametrize("array_min", [1, tracking._ARRAY_PREDICT_MIN, 10**9])
    def test_array_predict_matches_per_track_loop(self, monkeypatch, array_min):
        # Stacks on both sides of the threshold run as elementwise passes,
        # by the size rule, or per track throughout.  Yaw rates sit at 0,
        # -0, NaN (which takes the straight-line branch) and on and next to
        # +-YAW_RATE_EPS; speeds at 0; headings within 1e-3 of +-pi, where
        # the predict wraps.
        monkeypatch.setattr(tracking, "_ARRAY_PREDICT_MIN", array_min)
        array_calls = []
        ctrv_arrays = tracking._ctrv_arrays

        def counted(means, dt):
            array_calls.append(len(means))
            return ctrv_arrays(means, dt)

        monkeypatch.setattr(tracking, "_ctrv_arrays", counted)
        rng = np.random.default_rng(16)
        # A period that is not a power of two, so reassociating a product
        # with dt changes its bits.
        cfg = ProcessNoiseConfig(dt=0.1)
        eps = YAW_RATE_EPS
        yaw_rates = (
            0.0, -0.0, eps, -eps, math.nan,
            math.nextafter(eps, 0.0), math.nextafter(-eps, 0.0),
            math.nextafter(eps, 1.0), math.nextafter(-eps, -1.0),
        )
        sizes = (1, 5, 31, 32, 33, 90)
        for n in sizes:
            tracks = self.random_tracks(rng, n)
            for k, track in enumerate(tracks):
                if k % 3 == 0:
                    track.mean[2] = 0.0
                if k % 2 == 1:
                    track.mean[3] = rng.choice([1.0, -1.0]) * (math.pi - rng.uniform(0.0, 1e-3))
                if k % 4 != 3:
                    track.mean[4] = yaw_rates[rng.integers(len(yaw_rates))]
            with np.errstate(invalid="ignore"):
                out = predicted(tracks, cfg)
                ref = [ctrv_predict_reference(t, cfg) for t in tracks]
            self.assert_bits_equal(out, ref)
            assert all(-math.pi < e.mean[3] <= math.pi for e in out if not math.isnan(e.mean[4]))
            # The Jacobians too, whose bits the covariance product can hide.
            with np.errstate(invalid="ignore"):
                moved, jacobians = ctrv_arrays(np.array([t.mean for t in tracks]), cfg.dt)
                expected = [ctrv_reference(t.mean, cfg.dt) for t in tracks]
            assert moved.tobytes() == b"".join(mean.tobytes() for mean, _ in expected)
            assert jacobians.tobytes() == b"".join(jac.tobytes() for _, jac in expected)
        assert array_calls == [n for n in sizes if n >= array_min]

    @pytest.mark.parametrize("n", SIZES)
    def test_update_matches_per_track_loop(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(10):
            tracks = self.random_tracks(rng, n)
            zs = [self.random_observation(rng, t) for t in tracks]
            out = ekf_updated(tracks, zs)
            self.assert_bits_equal(out, [ekf_update_reference(t, z) for t, z in zip(tracks, zs)])

    @pytest.mark.parametrize("n", SIZES)
    def test_multi_update_matches_per_track_loop(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(10):
            tracks = self.random_tracks(rng, n)
            observations = [
                [
                    self.random_observation(rng, t, f"cav{k}")
                    for k in rng.permutation(rng.integers(4))
                ]
                for t in tracks
            ]
            ref = multi_update_reference(tracks, observations)
            self.assert_bits_equal(multi_updated(tracks, observations), ref)

    @pytest.mark.parametrize("array_min", [1, tracking._ARRAY_FOLD_MIN, 10**9])
    def test_fold_matches_scalar_fold(self, monkeypatch, array_min):
        # Tracks take 1-6 observations each; some observations have zero or
        # singular covariances and some joins are singular or not finite,
        # so steps skip different tracks' joins within one array pass.
        # Folds run as array steps throughout, as array steps while wide
        # enough then per track, or per track throughout.
        monkeypatch.setattr(tracking, "_ARRAY_FOLD_MIN", array_min)
        rng = np.random.default_rng(14)
        kinds = ("pd", "pd", "zero", "rank_one", "nan", "huge")

        def covariance(kind):
            if kind == "zero":
                return np.zeros((2, 2))
            if kind == "rank_one":
                v = rng.normal(size=2)
                return np.outer(v, v)
            if kind == "nan":
                return np.full((2, 2), np.nan)
            if kind == "huge":
                return np.diag([1e300, 1e300])
            return rotated_covariance(*rng.uniform(0.005, 0.3, 2), rng.uniform(-math.pi, math.pi))

        skipped = 0
        for _ in range(40):
            observations = [
                [
                    GaussianEstimate(rng.uniform(-5, 5, 2), covariance(rng.choice(kinds)))
                    for _ in range(rng.integers(1, 7))
                ]
                for _ in range(rng.choice([rng.integers(1, 9), rng.integers(30, 80)]))
            ]
            rows = np.array([i for i, zs in enumerate(observations) for _ in zs], dtype=np.intp)
            targets, means, covs = _fold(rows, *observation_arrays(sum(observations, [])))
            assert targets.tolist() == list(range(len(observations)))
            for zs, mean, cov in zip(observations, means, covs):
                ref = folded_reference(zs)
                assert mean.tobytes() == ref.mean.tobytes()
                assert cov.tobytes() == ref.covariance.tobytes()
                for k in range(1, len(zs)):
                    joined = folded_reference(zs[:k]).covariance + zs[k].covariance
                    skipped += inverse_2x2_reference(*joined.ravel().tolist()) is None
        assert skipped > 200

    def test_singular_mask_matches_scalar_inverse(self):
        rng = np.random.default_rng(15)
        tracks = self.random_tracks(rng, 60)
        zs = [self.random_observation(rng, t) for t in tracks]
        for k, track in enumerate(tracks[:30]):
            track.covariance[:2, :2] = (
                np.zeros((2, 2)),
                np.ones((2, 2)),
                [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]],
                np.full((2, 2), np.inf),
                np.full((2, 2), np.nan),
                [[1e200, 0.0], [0.0, 1e200]],
            )[k % 6]
            zs[k] = GaussianEstimate(zs[k].mean, np.zeros((2, 2)))
        updated, _, _ = ekf_update(stacked(tracks), *observation_arrays(zs))
        expected = [
            inverse_2x2_reference(*(t.covariance[:2, :2] + z.covariance).ravel().tolist()) is not None
            for t, z in zip(tracks, zs)
        ]
        assert updated.tolist() == expected
        assert 0 < sum(expected) < len(expected)
        with np.errstate(invalid="ignore", over="ignore"):
            ref = [ekf_update_reference(t, z) for t, z in zip(tracks, zs)]
        self.assert_bits_equal(ekf_updated(tracks, zs), ref)

    def test_singular_rows_keep_prediction_between_updated_ones(self):
        rng = np.random.default_rng(11)
        tracks = self.random_tracks(rng, 5)
        tracks[1] = make_track(x=1.0, cov=np.zeros((5, 5)))
        tracks[3] = make_track(y=-1.0, cov=np.full((5, 5), np.nan))
        zs = [self.random_observation(rng, t) for t in tracks]
        zs[1] = GaussianEstimate(np.array([2.0, 0.0]), np.zeros((2, 2)))
        out = ekf_updated(tracks, zs)
        assert out[1] is tracks[1] and out[3] is tracks[3]
        for i in (0, 2, 4):
            assert not np.array_equal(out[i].mean, tracks[i].mean)
        self.assert_bits_equal(out, [ekf_update_reference(t, z) for t, z in zip(tracks, zs)])

    def test_heading_near_pi_wraps_per_track(self):
        cov = np.diag([1.0, 1.0, 0.1, 1.0, 0.1])
        cov[0, 3] = cov[3, 0] = 0.5
        cfg = ProcessNoiseConfig()
        tracks = [
            make_track(psi=math.pi - 1e-3, psi_dot=0.1, cov=cov),
            make_track(psi=-(math.pi - 1e-3), psi_dot=-0.1, cov=cov),
            make_track(psi=math.pi - 1e-3, cov=cov),
            make_track(psi=-(math.pi - 1e-3), cov=cov),
        ]
        moved = predicted(tracks, cfg)
        self.assert_bits_equal(moved, [ctrv_predict_reference(t, cfg) for t in tracks])
        assert moved[0].mean[3] < 0.0 < moved[1].mean[3]
        zs = [
            GaussianEstimate(np.array([x, 0.0]), 0.5 * np.eye(2)) for x in (1.0, -1.0, 1.0, -1.0)
        ]
        out = ekf_updated(moved, zs)
        self.assert_bits_equal(out, [ekf_update_reference(t, z) for t, z in zip(moved, zs)])
        assert all(-math.pi < e.mean[3] <= math.pi for e in out)
        assert out[2].mean[3] < -math.pi / 2 and out[3].mean[3] > math.pi / 2

    def test_zero_covariance_observations(self):
        rng = np.random.default_rng(12)
        tracks = self.random_tracks(rng, 7)
        zs = [GaussianEstimate(t.mean[:2] + rng.normal(size=2), np.zeros((2, 2))) for t in tracks]
        out = ekf_updated(tracks, zs)
        self.assert_bits_equal(out, [ekf_update_reference(t, z) for t, z in zip(tracks, zs)])
        for got, z in zip(out, zs):
            assert got.mean[:2] == pytest.approx(z.mean, abs=1e-9)

    def test_tracks_without_observations_keep_their_estimate(self):
        rng = np.random.default_rng(13)
        tracks = self.random_tracks(rng, 4)
        observations = [[], [self.random_observation(rng, tracks[1])], [], []]
        out = multi_updated(tracks, observations)
        assert out[0] is tracks[0] and out[2] is tracks[2] and out[3] is tracks[3]
        self.assert_bits_equal(out[1:2], [ekf_update_reference(tracks[1], observations[1][0])])
        assert multi_updated(tracks, [[]] * 4) == tracks
