import math

import numpy as np
import pytest
from oracles import jpda_oracle

from coopfusion.association import (
    AssociationConfig,
    CombinatorialOverflowError,
    Track,
    associate_frame,
    gate,
    jpda_weights,
    new_track_estimate,
)
from coopfusion.error_models import GaussianEstimate
from coopfusion.tracking import KinematicState, TrackEstimate


def make_track(tid, x, y, pos_var=1.0):
    cov = np.diag([pos_var, pos_var, 1.0, math.pi**2, 1.0])
    return Track(id=tid, estimate=TrackEstimate(KinematicState(x, y, 0, 0, 0), cov))


def make_obs(x, y, var=1.0, source=""):
    return GaussianEstimate(np.array([x, y]), var * np.eye(2), source=source)


class TestGate:
    def test_observation_at_prediction_is_gated(self):
        feasible = gate([make_track(0, 0, 0)], [make_obs(0, 0)], AssociationConfig())
        assert feasible[0, 0]

    def test_distant_observation_not_gated(self):
        feasible = gate([make_track(0, 0, 0)], [make_obs(100, 0)], AssociationConfig())
        assert not feasible[0, 0]

    def test_boundary_is_inclusive(self):
        cfg = AssociationConfig()
        track = make_track(0, 0, 0, pos_var=1.0)
        # place the observation at exactly gate_threshold Mahalanobis^2,
        # using the covariance square root
        s = track.estimate.covariance[:2, :2] + np.eye(2)
        offset = np.linalg.cholesky(s) @ np.array([math.sqrt(cfg.gate_threshold), 0.0])
        feasible = gate([track], [make_obs(offset[0], offset[1])], cfg)
        assert feasible[0, 0]

    def test_singular_innovation_not_gated(self):
        track = Track(
            id=0, estimate=TrackEstimate(KinematicState(0, 0, 0, 0, 0), np.zeros((5, 5)))
        )
        obs = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
        feasible = gate([track], [obs], AssociationConfig())
        assert not feasible[0, 0]


class TestJpdaWeights:
    def test_single_pair_no_clutter(self):
        cfg = AssociationConfig(clutter_density=0.0)
        result = jpda_weights([make_track(0, 0, 0)], [make_obs(0.1, 0.0)], cfg)
        assert result.weights[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert result.miss[0] == pytest.approx(0.0, abs=1e-12)

    def test_mirror_symmetric_pairs_split_evenly(self):
        cfg = AssociationConfig(clutter_density=0.0)
        tracks = [make_track(0, -1, 0), make_track(1, 1, 0)]
        observations = [make_obs(-1, 0.5), make_obs(1, 0.5)]
        result = jpda_weights(tracks, observations, cfg)
        assert result.weights[0, 0] == pytest.approx(result.weights[1, 1], abs=1e-12)
        assert result.weights[0, 1] == pytest.approx(result.weights[1, 0], abs=1e-12)

    def test_rows_sum_to_one(self):
        cfg = AssociationConfig()
        rng = np.random.default_rng(17)
        for _ in range(50):
            tracks = [
                make_track(i, *rng.uniform(-3, 3, 2), pos_var=rng.uniform(0.2, 2.0))
                for i in range(rng.integers(1, 4))
            ]
            observations = [
                make_obs(*rng.uniform(-3, 3, 2), var=rng.uniform(0.2, 2.0))
                for _ in range(rng.integers(0, 4))
            ]
            result = jpda_weights(tracks, observations, cfg)
            rows = result.miss + result.weights.sum(axis=1)
            assert rows == pytest.approx(np.ones(len(tracks)), abs=1e-9)

    def test_matches_oracle_asymmetric(self):
        cfg = AssociationConfig(clutter_density=0.3)
        tracks = [make_track(0, 0, 0, 0.5), make_track(1, 1.5, 0.2, 1.5)]
        observations = [make_obs(0.3, -0.1, 0.4), make_obs(1.1, 0.4, 0.8)]
        result = jpda_weights(tracks, observations, cfg)
        weights, miss = jpda_oracle(tracks, observations, cfg)
        assert result.weights == pytest.approx(weights, abs=1e-9)
        assert result.miss == pytest.approx(miss, abs=1e-9)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            cfg = AssociationConfig(
                detection_probability=rng.uniform(0.5, 1.0),
                clutter_density=rng.choice([0.0, 0.05, 0.5]),
            )
            tracks = [
                make_track(i, *rng.uniform(-2, 2, 2), pos_var=rng.uniform(0.1, 2.0))
                for i in range(rng.integers(1, 4))
            ]
            observations = [
                make_obs(*rng.uniform(-2, 2, 2), var=rng.uniform(0.1, 2.0))
                for _ in range(rng.integers(0, 4))
            ]
            result = jpda_weights(tracks, observations, cfg)
            weights, miss = jpda_oracle(tracks, observations, cfg)
            assert result.weights == pytest.approx(weights, abs=1e-9)
            assert result.miss == pytest.approx(miss, abs=1e-9)

    def test_ungated_observation_reported_unassociated(self):
        cfg = AssociationConfig()
        result = jpda_weights([make_track(0, 0, 0)], [make_obs(50, 50)], cfg)
        assert result.unassociated_observations == [0]

    def test_event_cap_raises(self):
        cfg = AssociationConfig(max_events=4)
        tracks = [make_track(i, 0, 0) for i in range(3)]
        observations = [make_obs(0, 0) for _ in range(3)]
        with pytest.raises(CombinatorialOverflowError):
            jpda_weights(tracks, observations, cfg)


class TestApplyAssociation:
    """Track lifecycle from one source's frame, through ``associate_frame``."""

    def test_track_deleted_after_miss_threshold(self):
        cfg = AssociationConfig(delete_threshold=3)
        tracks = [make_track(0, 0, 0)]
        counter = iter(range(100, 200))
        for _ in range(3):
            tracks = associate_frame(tracks, {"s": []}, cfg, lambda: next(counter))
        assert tracks == []

    def test_far_observation_spawns_single_track(self):
        cfg = AssociationConfig()
        tracks = [make_track(0, 0, 0)]
        obs = [make_obs(50, 50, var=0.1)]
        counter = iter([7])
        updated = associate_frame(tracks, {"s": obs}, cfg, lambda: next(counter))
        new = [t for t in updated if t.id == 7]
        assert len(new) == 1
        assert new[0].frames_seen == 1 and not new[0].confirmed

    def test_confirmation_after_threshold_frames(self):
        cfg = AssociationConfig(confirm_threshold=3)
        track = make_track(0, 0, 0, pos_var=0.5)
        tracks = [track]
        counter = iter(range(10, 20))
        for _ in range(2):
            obs = [make_obs(0.05, 0.0, var=0.2)]
            tracks = associate_frame(tracks, {"s": obs}, cfg, lambda: next(counter))
        assert tracks[0].frames_seen >= 3 and tracks[0].confirmed

    def test_coincident_duplicates_merge(self):
        cfg = AssociationConfig()
        a = make_track(0, 0, 0, pos_var=0.01)
        a.frames_seen = 10
        b = make_track(1, 0.01, 0.0, pos_var=0.01)
        tracks = [a, b]
        obs = [make_obs(0.0, 0.0, var=0.05, source="s")]
        updated = associate_frame(tracks, {"s": obs}, cfg, lambda: 99)
        assert [t.id for t in updated] == [0]

    def test_runaway_variance_deleted(self):
        cfg = AssociationConfig(max_position_variance=0.5)
        track = make_track(0, 0, 0, pos_var=1.0)
        updated = associate_frame([track], {"s": []}, cfg, lambda: 1)
        assert updated == []

    def test_deterministic_given_identical_input(self):
        cfg = AssociationConfig()

        def run():
            tracks = [make_track(0, 0, 0), make_track(1, 2, 0)]
            obs = [make_obs(0.1, 0.1, 0.3, "a"), make_obs(1.9, -0.1, 0.3, "b"), make_obs(9, 9)]
            counter = iter(range(5, 50))
            for _ in range(3):
                tracks = associate_frame(tracks, {"s": obs}, cfg, lambda: next(counter))
            return [(t.id, t.frames_seen, tuple(t.estimate.state.as_array())) for t in tracks]

        assert run() == run()


class TestAssociateFrame:
    def test_two_sources_both_update(self):
        cfg = AssociationConfig()
        track = make_track(0, 0, 0, pos_var=0.5)
        per_source = {
            "camera": [make_obs(0.1, 0.0, 0.2, "camera")],
            "lidar": [make_obs(-0.1, 0.0, 0.2, "lidar")],
        }
        updated = associate_frame([track], per_source, cfg, lambda: 50)
        assert updated[0].sources == {"camera", "lidar"}

    def test_second_source_adds_information(self):
        cfg = AssociationConfig(clutter_density=0.0)

        def run(sources):
            track = make_track(0, 0, 0, pos_var=0.5)
            return associate_frame([track], sources, cfg, lambda: 50)[0]

        one = run({"camera": [make_obs(0.05, 0.0, 0.2, "camera")]})
        both = run(
            {
                "camera": [make_obs(0.05, 0.0, 0.2, "camera")],
                "lidar": [make_obs(-0.05, 0.0, 0.2, "lidar")],
            }
        )
        assert np.trace(both.estimate.covariance[:2, :2]) < np.trace(
            one.estimate.covariance[:2, :2]
        )

    def test_same_frame_spawns_deduplicated(self):
        cfg = AssociationConfig()
        per_source = {
            "camera": [make_obs(5.0, 5.0, 0.05, "camera")],
            "lidar": [make_obs(5.05, 5.0, 0.05, "lidar")],
        }
        counter = iter(range(100))
        updated = associate_frame([], per_source, cfg, lambda: next(counter))
        assert len(updated) == 1


def test_new_track_estimate_seeds_from_observation():
    obs = make_obs(1.0, -2.0, var=0.3)
    estimate = new_track_estimate(obs)
    assert estimate.state.position == pytest.approx([1.0, -2.0])
    assert estimate.covariance[:2, :2] == pytest.approx(0.3 * np.eye(2))
    assert estimate.covariance[2, 2] == 1.0
    assert estimate.covariance[3, 3] == pytest.approx(math.pi**2)
