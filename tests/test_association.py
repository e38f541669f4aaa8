import copy
import itertools
import math

import numpy as np
import pytest
from oracles import (
    PLAN_CACHES,
    associate_frame_reference,
    clear_plans,
    jpda_enumeration,
    jpda_oracle,
    jpda_weights_reference,
    merge_coincident_reference,
    pair_stats_reference,
    runs_of,
    spawned_estimate,
    table_bits,
    table_of,
    tracks_of,
)

from coopfusion import association
from coopfusion.association import (
    PLAN_CACHE_SIZE,
    AssociationConfig,
    CombinatorialOverflowError,
    ObservationBatch,
    Track,
    TrackTable,
    _block_pairs,
    _frame_plan,
    _gate_blocks,
    _merge_coincident,
    _merge_plan,
    _observation_blocks,
    _row_groups,
    _spawn_plan,
    _track_blocks,
    associate_frame,
    jpda_weights,
)
from coopfusion.error_models import GaussianEstimate, rotated_covariance
from coopfusion.global_fusion import _pose_plan
from coopfusion.local_fusion import _detection_plan


def make_track(tid, x, y, pos_var=1.0):
    cov = np.diag([pos_var, pos_var, 1.0, math.pi**2, 1.0])
    return Track(id=tid, estimate=GaussianEstimate(np.array([x, y, 0, 0, 0], dtype=float), cov))


class TestTrackTable:
    def test_every_field_copied(self):
        # take: the rows asked for, each group keeping its own, in new
        # lists and arrays.
        rng = np.random.default_rng(5)
        groups = []
        for size in (2, 0, 3):
            group = []
            for _ in range(size):
                base = rng.normal(size=(5, 5))
                group.append(
                    Track(
                        id=int(rng.integers(100)),
                        estimate=GaussianEstimate(rng.normal(size=5), base @ base.T),
                        frames_seen=int(rng.integers(1, 9)),
                        frames_missed=int(rng.integers(0, 4)),
                        confirmed=bool(rng.integers(2)),
                        object_class=str(rng.choice(["vehicle", "platform"])),
                    )
                )
            groups.append(group)
        table = table_of(groups)
        held = table_bits(table)
        rows = np.array([1, 2, 4])
        taken = table.take(rows)
        flat = [t for group in groups for t in group]
        assert taken.counts == [1, 0, 2]
        assert taken.ids == [flat[r].id for r in rows]
        assert taken.classes == [flat[r].object_class for r in rows]
        assert taken.means.shape == (3, 5) and taken.covariances.shape == (3, 5, 5)
        for column, whole in zip(taken[3:], table[3:]):
            assert column.dtype == whole.dtype
            assert column.tobytes() == whole[rows].tobytes()
            assert not np.shares_memory(column, whole)
        # Detached: writing the new table leaves the old one alone.
        for column in taken[3:]:
            column[:] = 0
        taken.ids.append(7)
        taken.classes.append("x")
        assert table_bits(table) == held

    def test_no_tracks(self):
        table = TrackTable.empty(2)
        assert table.counts == [0, 0] and table.ids == [] and table.classes == []
        assert table.means.shape == (0, 5) and table.covariances.shape == (0, 5, 5)
        assert [a.shape for a in table[5:]] == [(0,)] * 3
        assert table_bits(table.take(np.zeros(0, dtype=np.intp))) == table_bits(table)


def make_obs(x, y, var=1.0, source=""):
    return GaussianEstimate(np.array([x, y]), var * np.eye(2), source=source)


def associate(tracks, observations_by_source, cfg, next_id):
    """``associate_frame`` over one group whose observations come by source."""
    keyed = [(key, obs) for key in sorted(observations_by_source) for obs in observations_by_source[key]]
    batch = ObservationBatch(
        np.array([obs.mean for _, obs in keyed]).reshape(-1, 2),
        np.array([obs.covariance for _, obs in keyed]).reshape(-1, 2, 2),
        runs_of([(0, key) for key, _ in keyed]),
        [obs.object_class for _, obs in keyed],
    )
    table = table_of([tracks])
    (updated,) = tracks_of(
        associate_frame(table, (table.means, table.covariances), batch, cfg, [next_id])
    )
    return updated


def gate(tracks, observations, cfg):
    """Which observations fall in which track's gate, through the frame's
    gating pass over one block."""
    n, m = len(tracks), len(observations)
    _, rows, cols, _ = _gate_blocks(
        *_track_blocks(tracks), *_observation_blocks(observations), _block_pairs([(0, n, 0, m)]),
        cfg,
    )
    feasible = np.zeros((n, m), dtype=bool)
    feasible[rows, cols] = True
    return feasible


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
        track = Track(id=0, estimate=GaussianEstimate(np.zeros(5), np.zeros((5, 5))))
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
            return Track(id=i, estimate=GaussianEstimate(state, cov))

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
            # 1e300 is about the widest gate a config accepts; the singular
            # pairs (infinite distance) stay outside it.
            thresholds = {9.21, 1e300, *finite.tolist(), *np.nextafter(finite, -np.inf).tolist()}
            for threshold in thresholds:
                if threshold <= 0.0:
                    continue
                feasible = gate(tracks, observations, AssociationConfig(gate_threshold=threshold))
                np.testing.assert_array_equal(feasible, dist2 <= threshold)
        assert excluded > 100

    @pytest.mark.parametrize("threshold", [math.inf, 1e308, 1.7976931348623157e308])
    def test_gate_with_infinite_spawn_gate_rejected(self, threshold):
        # Twice the gate overflows to inf for each of these.
        with pytest.raises(ValueError, match="must be finite"):
            AssociationConfig(gate_threshold=threshold)

    def test_widest_finite_spawn_gate_accepted(self):
        widest = 1.7976931348623157e308 / 2.0
        assert AssociationConfig(gate_threshold=widest).gate_threshold == widest
        with pytest.raises(ValueError, match="must be finite"):
            AssociationConfig(gate_threshold=np.nextafter(widest, math.inf))


@pytest.fixture(params=["closed_form", "default", "enumerated"])
def lone_marginals(request, monkeypatch):
    """Route tracks alone in their cluster through the array closed form
    always, by the frame-size rule, or through enumeration always."""
    if request.param != "default":
        minimum = 0 if request.param == "closed_form" else 10**9
        monkeypatch.setattr(association, "_ARRAY_MARGINALS_MIN", minimum)
    return request.param


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

    @pytest.mark.parametrize("clutter_density", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("detection_probability", [0.7, 1.0])
    def test_one_track_matches_enumeration_exactly(self, clutter_density, detection_probability):
        # One track makes a one-track cluster, which takes a closed form; with
        # the reference densities, full enumeration gives the same bits.
        cfg = AssociationConfig(
            detection_probability=detection_probability, clutter_density=clutter_density
        )
        rng = np.random.default_rng(int(100 * clutter_density + 10 * detection_probability))
        for _ in range(50):
            tracks = [make_track(0, *rng.uniform(-1, 1, 2), pos_var=rng.uniform(0.1, 2.0))]
            observations = [
                make_obs(*rng.uniform(-3, 3, 2), var=rng.uniform(0.1, 2.0))
                for _ in range(rng.integers(0, 6))
            ]
            dist2, density = pair_stats_reference(tracks, observations)
            weights, miss = jpda_enumeration(dist2 <= cfg.gate_threshold, density, cfg)
            result = jpda_weights(tracks, observations, cfg)
            np.testing.assert_array_equal(result.weights, weights)
            np.testing.assert_array_equal(result.miss, miss)

    @staticmethod
    def assert_matches_scalar_path(tracks, observations, cfg):
        weights, miss, feasible = jpda_weights_reference(tracks, observations, cfg)
        result = jpda_weights(tracks, observations, cfg)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.miss.tobytes() == miss.tobytes()
        assert result.unassociated_observations == np.flatnonzero(~feasible.any(axis=0)).tolist()
        return result, feasible

    def test_matches_scalar_path_on_lone_and_shared_clusters(self, lone_marginals):
        # Frames where most tracks are alone in their cluster and some share
        # observations; the lone ones take the array closed form, the rest
        # the enumeration, and both must give the scalar path's bits.
        rng = np.random.default_rng(31)
        lone = shared = 0
        for _ in range(200):
            cfg = AssociationConfig(
                detection_probability=rng.choice([rng.uniform(0.5, 1.0), 1.0]),
                clutter_density=rng.choice([0.0, 0.05, 0.5]),
                gate_threshold=rng.choice([9.21, 25.0]),
            )
            tracks = [
                make_track(i, *rng.uniform(-8, 8, 2), pos_var=rng.uniform(0.05, 1.0))
                for i in range(rng.integers(0, 7))
            ]
            observations = [
                GaussianEstimate(
                    rng.uniform(-8, 8, 2),
                    rotated_covariance(*rng.uniform(0.05, 1.0, 2), rng.uniform(-math.pi, math.pi)),
                )
                for _ in range(rng.integers(0, 9))
            ]
            _, feasible = self.assert_matches_scalar_path(tracks, observations, cfg)
            contended = feasible[:, feasible.sum(axis=0) > 1].any(axis=1)
            gating = feasible.any(axis=1)
            lone += int((gating & ~contended).sum())
            shared += int(contended.sum())
        assert lone > 100 and shared > 80

    def test_zero_clutter_with_spare_observations_falls_back_to_all_miss(self, lone_marginals):
        # Every event leaves an observation to clutter, so every likelihood
        # is 0: the lone track falls back to a certain miss.
        cfg = AssociationConfig(clutter_density=0.0)
        tracks = [make_track(0, 0, 0), make_track(1, 20, 0)]
        observations = [make_obs(0.1, 0), make_obs(-0.1, 0.1), make_obs(20, 0.1)]
        result, _ = self.assert_matches_scalar_path(tracks, observations, cfg)
        assert result.miss.tolist() == [1.0, 0.0]
        assert result.weights.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_gate_beyond_density_cutoff(self, lone_marginals):
        # Pairs gated at a squared distance of 1e3 or more get density 0.
        cfg = AssociationConfig(gate_threshold=5e3)
        tracks = [make_track(0, 0, 0, pos_var=0.5), make_track(1, 200, 0, pos_var=0.5)]
        observations = [make_obs(40, 0, 0.5), make_obs(0.5, 0, 0.5), make_obs(250, 0, 0.5)]
        dist2, density = pair_stats_reference(tracks, observations)
        assert dist2[0, 0] >= 1e3 and dist2[1, 2] >= 1e3 and (density[dist2 >= 1e3] == 0.0).all()
        result, feasible = self.assert_matches_scalar_path(tracks, observations, cfg)
        assert feasible[0, 0] and feasible[1, 2]
        assert result.weights[0, 0] == 0.0 and result.weights[1, 2] == 0.0

    def test_lone_track_event_cap_raises(self, lone_marginals):
        # A lone track with one gated observation has two events.
        cfg = AssociationConfig(max_events=1)
        with pytest.raises(CombinatorialOverflowError):
            jpda_weights([make_track(0, 0, 0)], [make_obs(0.1, 0.0)], cfg)
        with pytest.raises(CombinatorialOverflowError):
            associate([make_track(0, 0, 0)], {"s": [make_obs(0.1, 0.0)]}, cfg, lambda: 1)
        result = jpda_weights([make_track(0, 0, 0)], [make_obs(50, 0)], cfg)
        assert result.miss.tolist() == [1.0]

    def test_ungated_observation_reported_unassociated(self):
        cfg = AssociationConfig()
        result = jpda_weights([make_track(0, 0, 0)], [make_obs(50, 50)], cfg)
        assert result.unassociated_observations == [0]

    def test_no_tracks(self):
        result = jpda_weights([], [make_obs(0, 0), make_obs(5, 5)], AssociationConfig())
        assert result.weights.shape == (0, 2) and result.weights.dtype == float
        assert result.miss.shape == (0,) and result.miss.dtype == float
        assert result.unassociated_observations == [0, 1]

    def test_no_tracks_and_no_observations(self):
        result = jpda_weights([], [], AssociationConfig())
        assert result.weights.shape == (0, 0) and result.miss.shape == (0,)
        assert result.unassociated_observations == []

    def test_no_observations(self):
        tracks = [make_track(0, 0, 0), make_track(1, 5, 5)]
        result = jpda_weights(tracks, [], AssociationConfig())
        assert result.weights.shape == (2, 0) and result.weights.dtype == float
        assert result.miss.shape == (2,) and result.miss.dtype == float
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
            tracks = associate(tracks, {"s": []}, cfg, lambda: next(counter))
        assert tracks == []

    def test_far_observation_spawns_single_track(self):
        cfg = AssociationConfig()
        tracks = [make_track(0, 0, 0)]
        obs = [make_obs(50, 50, var=0.1)]
        counter = iter([7])
        updated = associate(tracks, {"s": obs}, cfg, lambda: next(counter))
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
            tracks = associate(tracks, {"s": obs}, cfg, lambda: next(counter))
        assert tracks[0].frames_seen >= 3 and tracks[0].confirmed

    def test_coincident_duplicates_merge(self):
        cfg = AssociationConfig()
        a = make_track(0, 0, 0, pos_var=0.01)
        a.frames_seen = 10
        b = make_track(1, 0.01, 0.0, pos_var=0.01)
        tracks = [a, b]
        obs = [make_obs(0.0, 0.0, var=0.05, source="s")]
        updated = associate(tracks, {"s": obs}, cfg, lambda: 99)
        assert [t.id for t in updated] == [0]

    def test_merge_is_not_transitive(self):
        # B lies in A's merge gate and C in B's, but C is not in A's: A absorbs
        # B first, so B cannot take C with it and C survives.
        cfg = AssociationConfig()
        tracks = [make_track(0, 0, 0, 0.01), make_track(1, 0.3, 0, 0.01), make_track(2, 0.6, 0, 0.01)]
        for track, seen in zip(tracks, (5, 3, 1)):
            track.frames_seen = seen
        updated = associate(tracks, {"s": []}, cfg, lambda: 99)
        assert [t.id for t in updated] == [0, 2]
        assert updated[0].frames_seen == 5

    def test_merge_gate_follows_gate_threshold(self):
        # squared Mahalanobis separation 0.5^2 / 0.02 = 12.5: outside the
        # default 9.21 gate, inside a gate raised to 16
        def survivors(cfg):
            tracks = [make_track(0, 0, 0, 0.01), make_track(1, 0.5, 0, 0.01)]
            tracks[0].frames_seen = 5
            return [t.id for t in associate(tracks, {"s": []}, cfg, lambda: 99)]

        assert survivors(AssociationConfig()) == [0, 1]
        assert survivors(AssociationConfig(gate_threshold=16.0)) == [0]

    def test_merge_matches_scalar_reference(self):
        # Random groups packed close enough to chain merges, with many ties
        # in frames_seen; every group of a call is merged in one pass.
        rng = np.random.default_rng(41)
        merged = 0
        for _ in range(40):
            groups = []
            for g in range(rng.integers(1, 5)):
                group = []
                for k in range(rng.integers(0, 9)):
                    track = make_track(100 * g + k, *rng.uniform(0, 1.2, 2), rng.uniform(0.005, 0.05))
                    track.estimate.covariance[:2, :2] = rotated_covariance(
                        *rng.uniform(0.07, 0.22, 2), rng.uniform(-math.pi, math.pi)
                    )
                    track.frames_seen = int(rng.integers(1, 4))
                    track.frames_missed = int(rng.integers(0, 3))
                    track.confirmed = bool(rng.integers(2))
                    group.append(track)
                groups.append(group)
            expected = [merge_coincident_reference(copy.deepcopy(g), 9.21) for g in groups]
            n = sum(len(g) for g in groups)
            kept = _merge_coincident(table_of(groups), np.arange(n), 9.21)
            assert kept.counts == [len(g) for g in expected]
            got = [t for g in tracks_of(kept) for t in g]
            want = [t for g in expected for t in g]
            fields = ("id", "frames_seen", "frames_missed", "confirmed")
            assert [[getattr(t, f) for f in fields] for t in got] == [
                [getattr(t, f) for f in fields] for t in want
            ]
            merged += n - len(got)
        assert merged > 200

    def test_merge_gate_is_inclusive(self):
        # A pair exactly at the threshold merges; one ulp below, it does not.
        def pair():
            tracks = [make_track(0, 0.0, 0.0, 0.013), make_track(1, 0.31, -0.17, 0.021)]
            tracks[0].frames_seen = 4
            return tracks

        (a, b) = pair()
        dx, dy = b.estimate.mean[:2] - a.estimate.mean[:2]
        c = a.estimate.covariance[:2, :2] + b.estimate.covariance[:2, :2]
        det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
        d2 = float((c[1, 1] * dx * dx - 2.0 * c[0, 1] * dx * dy + c[0, 0] * dy * dy) / det)
        for threshold, merged in ((d2, True), (math.nextafter(d2, -math.inf), False)):
            kept = _merge_coincident(table_of([pair()]), np.arange(2), threshold).ids
            assert kept == ([0] if merged else [0, 1])
            assert [t.id for t in merge_coincident_reference(pair(), threshold)] == kept

    def test_runaway_variance_deleted(self):
        cfg = AssociationConfig(max_position_variance=0.5)
        track = make_track(0, 0, 0, pos_var=1.0)
        updated = associate([track], {"s": []}, cfg, lambda: 1)
        assert updated == []

    def test_deterministic_given_identical_input(self):
        cfg = AssociationConfig()

        def run():
            tracks = [make_track(0, 0, 0), make_track(1, 2, 0)]
            obs = [make_obs(0.1, 0.1, 0.3, "a"), make_obs(1.9, -0.1, 0.3, "b"), make_obs(9, 9)]
            counter = iter(range(5, 50))
            for _ in range(3):
                tracks = associate(tracks, {"s": obs}, cfg, lambda: next(counter))
            return [(t.id, t.frames_seen, tuple(t.estimate.mean)) for t in tracks]

        assert run() == run()


class TestAssociateFrame:
    def test_two_sources_both_update(self):
        cfg = AssociationConfig()
        per_source = {
            "camera": [make_obs(0.1, 0.0, 0.2, "camera")],
            "lidar": [make_obs(-0.1, 0.0, 0.2, "lidar")],
        }

        def bits(sources, fuse):
            (track,) = fuse(
                [make_track(0, 0, 0, pos_var=0.5)], {s: per_source[s] for s in sources}, cfg,
                lambda: 50,
            )
            return track.estimate.mean.tobytes(), track.estimate.covariance.tobytes()

        # The track takes exactly both observations: the reference update
        # from both, and neither source's alone.
        both = bits(["camera", "lidar"], associate)
        assert both == bits(["camera", "lidar"], associate_frame_reference)
        assert both != bits(["camera"], associate_frame_reference)
        assert both != bits(["lidar"], associate_frame_reference)

    def test_second_source_adds_information(self):
        cfg = AssociationConfig(clutter_density=0.0)

        def run(sources):
            track = make_track(0, 0, 0, pos_var=0.5)
            return associate([track], sources, cfg, lambda: 50)[0]

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
        updated = associate([], {"s": observations}, AssociationConfig(), lambda: next(counter))
        assert [t.id for t in updated] == [3, 4]
        assert [tuple(t.estimate.mean[:2]) for t in updated] == [(0.0, 0.0), (10.0, 0.0)]

    def test_same_frame_spawns_deduplicated(self):
        cfg = AssociationConfig()
        per_source = {
            "camera": [make_obs(5.0, 5.0, 0.05, "camera")],
            "lidar": [make_obs(5.05, 5.0, 0.05, "lidar")],
        }
        counter = iter(range(100))
        updated = associate([], per_source, cfg, lambda: next(counter))
        assert len(updated) == 1

    def test_given_state_is_associated_and_set_on_every_track(self):
        # The tracks' own estimates are stale; the frame uses the state given.
        tracks = [make_track(0, 100.0, 0.0, 0.1), make_track(1, 105.0, 0.0, 0.1)]
        _, _, _, means, covs, *_ = table_of([tracks])
        for track in tracks:
            track.estimate = GaussianEstimate(np.full(5, np.nan), np.full((5, 5), np.nan))
        batch = ObservationBatch(
            np.array([[100.0, 0.0]]), 0.1 * np.eye(2)[None], ((0, "s", 1),), ["vehicle"]
        )
        (kept,) = tracks_of(
            associate_frame(
                table_of([tracks]), (means, covs), batch, AssociationConfig(), [lambda: 9]
            )
        )
        assert [t.id for t in kept] == [0, 1]
        assert kept[0].frames_seen == 2 and kept[1].frames_missed == 1
        # The missed track holds exactly its given state; the other moved to
        # the observation.
        assert kept[1].estimate.mean.tobytes() == means[1].tobytes()
        assert kept[1].estimate.covariance.tobytes() == covs[1].tobytes()
        assert abs(kept[0].estimate.mean[0] - 100.0) < 0.1

    def test_pure_function_of_its_inputs(self):
        # Group 0 merges (1 into 0), deletes (2, missed once too often) and
        # spawns; group 1 spawns too.  The input table serves as the state.
        cfg = AssociationConfig()
        groups = [
            [
                make_track(0, 0.0, 0.0, 0.01),
                make_track(1, 0.05, 0.0, 0.01),
                make_track(2, 10.0, 10.0, 0.01),
                make_track(3, -5.0, 0.0, 0.01),
            ],
            [make_track(0, 1.0, 1.0, 0.01), make_track(1, 3.0, 3.0, 0.01)],
        ]
        groups[0][0].frames_seen = 5
        groups[0][2].frames_missed = cfg.delete_threshold - 1
        groups[1][0].frames_seen = 2
        observations = [
            {"s": [make_obs(0.0, 0.0, 0.05, "s"), make_obs(-5.0, 0.0, 0.05, "s")],
             "t": [make_obs(20.0, 20.0, 0.05, "t")]},
            {"s": [make_obs(1.0, 1.0, 0.05, "s"), make_obs(-20.0, -20.0, 0.05, "s")]},
        ]
        keyed = [
            (g, source, obs)
            for g, by_source in enumerate(observations)
            for source in sorted(by_source)
            for obs in by_source[source]
        ]
        batch = ObservationBatch(
            np.array([obs.mean for *_, obs in keyed]),
            np.array([obs.covariance for *_, obs in keyed]),
            runs_of([(g, source) for g, source, _ in keyed]),
            [obs.object_class for *_, obs in keyed],
        )
        table = table_of(groups)
        held = table_bits(table)
        counters = [itertools.count(100), itertools.count(200)]
        out = associate_frame(
            table, (table.means, table.covariances), batch, cfg, [c.__next__ for c in counters]
        )
        assert table_bits(table) == held
        # Group by group, each group's survivors before its spawns.
        assert out.counts == [3, 3] and out.ids == [0, 3, 100, 0, 1, 200]
        events = {"spawned": 0, "merged": 0, "deleted": 0, "fused": 0}
        expected = [
            associate_frame_reference(
                copy.deepcopy(group), by_source, cfg, c.__next__, events if g == 0 else None
            )
            for g, (group, by_source, c) in enumerate(
                zip(groups, observations, [itertools.count(100), itertools.count(200)])
            )
        ]
        assert events["spawned"] == events["merged"] == events["deleted"] == 1
        fields = ("id", "frames_seen", "frames_missed", "confirmed", "object_class")
        assert [[[getattr(t, f) for f in fields] for t in g] for g in tracks_of(out)] == [
            [[getattr(t, f) for f in fields] for t in g] for g in expected
        ]


def test_new_track_estimate_seeds_from_observation():
    obs = make_obs(1.0, -2.0, var=0.3, source="s")
    (track,) = associate([], {"s": [obs]}, AssociationConfig(), lambda: 0)
    estimate = track.estimate
    want = spawned_estimate(obs)
    assert (estimate.mean.tobytes(), estimate.covariance.tobytes()) == (
        want.mean.tobytes(),
        want.covariance.tobytes(),
    )
    assert estimate.mean[:2] == pytest.approx([1.0, -2.0])
    assert estimate.covariance[:2, :2] == pytest.approx(0.3 * np.eye(2))
    assert estimate.covariance[2, 2] == 1.0
    assert estimate.covariance[3, 3] == pytest.approx(math.pi**2)


def random_frame(rng, counts, runs):
    """A table of random tracks in groups of ``counts`` and a batch of random
    observations in ``runs``, all crowded into one small square so that
    frames gate, enumerate, merge and spawn."""
    groups = []
    for n in counts:
        group = [make_track(i, *rng.uniform(-3, 3, 2), rng.uniform(0.05, 0.5)) for i in range(n)]
        for track in group:
            track.frames_seen = int(rng.integers(1, 6))
        groups.append(group)
    m = sum(size for *_, size in runs)
    batch = ObservationBatch(
        rng.uniform(-3, 3, (m, 2)),
        rng.uniform(0.05, 0.5, m)[:, None, None] * np.eye(2),
        runs,
        ["vehicle"] * m,
    )
    return table_of(groups), batch


class TestPlans:
    SHAPES = [
        ((3, 0, 2), ((0, "a", 2), (0, "b", 3), (2, "a", 1))),
        ((1, 4), ((1, "a", 4),)),
        ((2, 2), ((0, "a", 1), (1, "a", 2), (1, "b", 1))),
        ((0,), ()),
    ]

    def test_warm_and_cleared_caches_give_equal_bits(self):
        rng = np.random.default_rng(71)
        cfg = AssociationConfig()
        frames = [random_frame(rng, *self.SHAPES[k % len(self.SHAPES)]) for k in range(40)]

        def associate(table, batch):
            next_ids = [itertools.count(100).__next__ for _ in table.counts]
            out = associate_frame(table, (table.means, table.covariances), batch, cfg, next_ids)
            return table_bits(out)

        clear_plans()
        warm = [associate(*frame) for frame in frames]
        assert _frame_plan.cache_info().hits == len(frames) - len(self.SHAPES)
        assert _merge_plan.cache_info().hits > 0 and _spawn_plan.cache_info().hits > 0
        for frame, bits in zip(frames, warm):
            clear_plans()
            assert associate(*frame) == bits

    def test_writing_into_a_plan_raises(self):
        (pairs, groups) = _frame_plan((2, 1), ((0, "a", 2), (1, "b", 1)))
        rows, runs = _detection_plan(((0, "a"), (1, "b")), (2, 1))
        arrays = [
            _row_groups((2, 1)),
            table_of([[make_track(0, 0, 0)], [make_track(1, 0, 0)]]).groups(),
            *pairs,
            *_merge_plan((3, 2)),
            *_spawn_plan((2, 1), ((0, 2), (1, 1))),
            rows,
            *_pose_plan((2, 1)),
        ]
        for array in arrays:
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        assert isinstance(groups, tuple) and isinstance(runs, tuple)

    def test_equal_totals_with_other_runs_or_counts_get_other_plans(self):
        # Each key's plan is what building it afresh gives, and no two of
        # these keys, each of three tracks and three observations in all,
        # share a plan.
        keys = [
            ((2, 1), ((0, "a", 2), (1, "a", 1))),
            ((1, 2), ((0, "a", 2), (1, "a", 1))),
            ((2, 1), ((0, "a", 1), (1, "a", 2))),
            ((2, 1), ((0, "a", 1), (0, "b", 1), (1, "a", 1))),
        ]
        plans = []
        for counts, runs in keys:
            (rows, cols, block), groups = _frame_plan(counts, runs)
            (fresh_rows, fresh_cols, fresh_block), fresh_groups = _frame_plan.__wrapped__(counts, runs)
            plan = [a.tolist() for a in (rows, cols, block)] + [groups]
            fresh = [a.tolist() for a in (fresh_rows, fresh_cols, fresh_block)] + [fresh_groups]
            assert plan == fresh
            plans.append(plan)
        assert len({repr(plan) for plan in plans}) == len(keys)
        for cache, first, second in [
            (_row_groups, ((2, 1),), ((1, 2),)),
            (_merge_plan, ((3, 1),), ((2, 2),)),
            (_spawn_plan, ((2, 1), ((0, 1), (1, 1))), ((1, 2), ((0, 1), (1, 1)))),
            (_detection_plan, (((0, "a"), (1, "a")), (2, 1)), (((0, "a"), (1, "a")), (1, 2))),
            (_detection_plan, (((0, "a"), (1, "a")), (1, 1)), (((0, "a"), (0, "b")), (1, 1))),
            (_pose_plan, ((2, 1),), ((1, 2),)),
        ]:
            got = [repr(cache(*key)) for key in (first, second)]
            assert got == [repr(cache.__wrapped__(*key)) for key in (first, second)]
            assert got[0] != got[1]

    def test_no_cache_holds_more_plans_than_the_constant(self):
        clear_plans()
        for n in range(3 * PLAN_CACHE_SIZE):
            counts = (n, 1)
            _row_groups(counts)
            _frame_plan(counts, ((0, "a", n + 1),))
            _merge_plan((n + 1, 2))
            _spawn_plan(counts, ((0, n + 1),))
            _detection_plan(((0, "a"), (1, "a")), counts)
            _pose_plan(counts)
        for cache in PLAN_CACHES:
            info = cache.cache_info()
            assert info.maxsize == PLAN_CACHE_SIZE
            assert info.currsize == PLAN_CACHE_SIZE and info.misses == 3 * PLAN_CACHE_SIZE
