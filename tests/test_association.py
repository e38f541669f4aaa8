import math

import numpy as np
import pytest
from oracles import jpda_oracle, pair_stats_reference

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
from coopfusion.tracking import TrackEstimate


def make_track(tid, x, y, pos_var=1.0):
    cov = np.diag([pos_var, pos_var, 1.0, math.pi**2, 1.0])
    return Track(id=tid, estimate=TrackEstimate(np.array([x, y, 0, 0, 0], dtype=float), cov))


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
            id=0, estimate=TrackEstimate(np.array([0, 0, 0, 0, 0], dtype=float), np.zeros((5, 5)))
        )
        obs = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
        feasible = gate([track], [obs], AssociationConfig())
        assert not feasible[0, 0]

    def test_matches_scalar_reference_exactly(self):
        rng = np.random.default_rng(2024)

        def block(kind):
            if kind == "pd":
                a = rng.normal(size=(2, 2)) * rng.uniform(0.05, 1.5)
                return a @ a.T + 1e-3 * np.eye(2)
            if kind == "zero":
                return np.zeros((2, 2))
            v = rng.normal(size=2)
            if kind == "rank_one":
                return np.outer(v, v)
            if kind == "near_singular":
                # determinant below 1e-15 of the squared scale, either sign
                return np.outer(v, v) + 1e-17 * (v @ v) * np.eye(2)
            return -np.diag(rng.uniform(0.3, 1.0, 2))  # non-positive diagonal

        def track(i, kind):
            cov = np.diag([1.0, 1.0, 1.0, math.pi**2, 1.0])
            cov[:2, :2] = block(kind)
            state = np.array([*rng.uniform(-3, 3, 2), 0, 0, 0])
            return Track(id=i, estimate=TrackEstimate(state, cov))

        track_kinds = ["pd", "zero", "rank_one", "near_singular", "negative"]
        obs_kinds = ["pd", "zero", "rank_one"]
        # exactly singular only by the 1e-15 * scale^2 rule: det = 2^-52 > 0
        edge_track = track(99, "zero")
        edge_track.estimate.covariance[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]
        edge_obs = GaussianEstimate(np.zeros(2), np.zeros((2, 2)))
        excluded = 0
        for _ in range(60):
            tracks = [track(i, rng.choice(track_kinds)) for i in range(rng.integers(0, 6))]
            observations = [
                GaussianEstimate(rng.uniform(-3, 3, 2), block(rng.choice(obs_kinds)))
                for _ in range(rng.integers(0, 6))
            ]
            tracks.append(edge_track)
            observations.append(edge_obs)
            dist2, _ = pair_stats_reference(tracks, observations)
            excluded += int(np.isinf(dist2).sum())
            finite = dist2[np.isfinite(dist2)]
            thresholds = {9.21, math.inf, *finite.tolist(), *np.nextafter(finite, -np.inf).tolist()}
            for threshold in thresholds:
                if threshold > 0.0:
                    feasible = gate(tracks, observations, AssociationConfig(gate_threshold=threshold))
                    np.testing.assert_array_equal(feasible, dist2 <= threshold)
        assert excluded > 100


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

    def test_no_tracks(self):
        result = jpda_weights([], [make_obs(0, 0), make_obs(5, 5)], AssociationConfig())
        assert result.weights.shape == (0, 2) and result.miss.shape == (0,)
        assert result.unassociated_observations == [0, 1]

    def test_no_observations(self):
        tracks = [make_track(0, 0, 0), make_track(1, 5, 5)]
        result = jpda_weights(tracks, [], AssociationConfig())
        assert result.weights.shape == (2, 0)
        assert result.miss.tolist() == [1.0, 1.0]
        assert result.unassociated_observations == []

    @pytest.mark.parametrize("detection_probability", [0.9, 1.0])
    def test_track_with_empty_gate_is_certain_miss(self, detection_probability):
        cfg = AssociationConfig(detection_probability=detection_probability)
        tracks = [make_track(0, 0, 0), make_track(1, 50, 0)]
        result = jpda_weights(tracks, [make_obs(0.1, 0.0)], cfg)
        assert result.miss[1] == 1.0 and result.weights[1, 0] == 0.0

    def test_event_cap_raises(self):
        cfg = AssociationConfig(max_events=4)
        tracks = [make_track(i, 0, 0) for i in range(3)]
        observations = [make_obs(0, 0) for _ in range(3)]
        with pytest.raises(CombinatorialOverflowError):
            jpda_weights(tracks, observations, cfg)

    def test_event_cap_below_one_rejected(self):
        # A lone track is one event, so a cap below 1 would refuse every frame.
        with pytest.raises(ValueError):
            AssociationConfig(max_events=0)

    @pytest.mark.parametrize("weight_floor", [-0.1, 1.0])
    def test_weight_floor_outside_unit_interval_rejected(self, weight_floor):
        # Below 0 a zero-weight observation would divide a covariance by 0;
        # at 1 or above no observation could ever be accepted.
        with pytest.raises(ValueError):
            AssociationConfig(weight_floor=weight_floor)


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

    def test_merge_is_not_transitive(self):
        # B lies in A's merge gate and C in B's, but C is not in A's: A absorbs
        # B first, so B cannot take C with it and C survives.
        cfg = AssociationConfig()
        tracks = [make_track(0, 0, 0, 0.01), make_track(1, 0.3, 0, 0.01), make_track(2, 0.6, 0, 0.01)]
        for track, seen in zip(tracks, (5, 3, 1)):
            track.frames_seen = seen
        updated = associate_frame(tracks, {"s": []}, cfg, lambda: 99)
        assert [t.id for t in updated] == [0, 2]
        assert updated[0].frames_seen == 5

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
            return [(t.id, t.frames_seen, tuple(t.estimate.mean)) for t in tracks]

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

    def test_empty_track_list_spawns(self):
        counter = iter(range(3, 10))
        observations = [make_obs(0, 0, 0.05, "s"), make_obs(10, 0, 0.05, "s")]
        updated = associate_frame([], {"s": observations}, AssociationConfig(), lambda: next(counter))
        assert [t.id for t in updated] == [3, 4]
        assert [tuple(t.estimate.mean[:2]) for t in updated] == [(0.0, 0.0), (10.0, 0.0)]

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
    assert estimate.mean[:2] == pytest.approx([1.0, -2.0])
    assert estimate.covariance[:2, :2] == pytest.approx(0.3 * np.eye(2))
    assert estimate.covariance[2, 2] == 1.0
    assert estimate.covariance[3, 3] == pytest.approx(math.pi**2)
