import copy
import math

import numpy as np
import pytest
from oracles import (
    PlatformFusionReference,
    clear_plans,
    packet_bits,
    packetize_reference,
    pair_stats_reference,
    table_bits,
    table_of,
    tracks_of,
)

from coopfusion import tracking

from coopfusion.association import (
    AssociationConfig,
    Track,
    _block_pairs,
    _frame_plan,
    _gate_blocks,
    _pair_stats,
    _track_blocks,
)
from coopfusion.error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    GaussianEstimate,
    PlatformPose,
    PolarObservation,
    SensorPose,
)
from coopfusion.global_fusion import packetize
from coopfusion.local_fusion import (
    LocalFrame,
    LocalFusion,
    SensorPipelineConfig,
    StaleFrameError,
    _detection_plan,
)

DT = 0.125

CAMERA = SensorPipelineConfig(
    name="camera",
    pose=SensorPose(),
    fov=math.radians(160),
    max_range=5.0,
    distal_model=DEFAULT_PARAMETERIZED_MODELS.camera_distal,
    perp_model=DEFAULT_PARAMETERIZED_MODELS.camera_perpendicular,
)
LIDAR = SensorPipelineConfig(
    name="lidar",
    pose=SensorPose(),
    fov=2 * math.pi,
    max_range=8.0,
    distal_model=DEFAULT_PARAMETERIZED_MODELS.lidar_distal,
    perp_model=DEFAULT_PARAMETERIZED_MODELS.lidar_perpendicular,
)


def polar(d, theta=0.0):
    return PolarObservation(d, theta)


def frames_of(detections_by_tick):
    """[{pipeline: [obs]}, ...] -> LocalFrame sequence at 8 Hz."""
    return [
        LocalFrame(timestamp=k * DT, observations=obs)
        for k, obs in enumerate(detections_by_tick)
    ]


class OnePlatform:
    """A local tier holding one platform, stepped one frame at a time."""

    def __init__(self, pipelines):
        self.fusion = LocalFusion({"p": pipelines}, DT)

    @property
    def tracks(self):
        """The platform's tracks, as records of the tier's table rows."""
        (tracks,) = tracks_of(self.fusion.table)
        return tracks

    def step(self, frame):
        """Step the tier; returns the platform's confirmed tracks."""
        self.fusion.step({"p": frame})
        return [t for t in self.tracks if t.confirmed]


class TestStep:
    def test_empty_frame_increments_misses(self):
        fusion = OnePlatform([CAMERA, LIDAR])
        fusion.step(LocalFrame(0.0, {"camera": [polar(1.0)], "lidar": [polar(1.0)]}))
        assert fusion.tracks[0].frames_missed == 0
        fusion.step(LocalFrame(0.125, {}))
        assert fusion.tracks[0].frames_missed == 1

    def test_stale_frame_rejected(self):
        fusion = OnePlatform([CAMERA])
        fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(0.5, {}))

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf])
    def test_non_finite_frame_rejected(self, timestamp):
        fusion = OnePlatform([CAMERA])
        fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(timestamp, {}))
        # the rejected frame leaves the ordering check armed
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(0.0, {}))

    def test_stationary_object_confirmed_once(self):
        def run(pipelines, names):
            fusion = OnePlatform(pipelines)
            confirmed = []
            detections = {"camera": [polar(1.0)], "lidar": [polar(1.0, 0.01)]}
            for frame in frames_of([{name: detections[name] for name in names}] * 20):
                confirmed = fusion.step(frame)
            assert len(confirmed) == 1
            return confirmed[0]

        track = run([CAMERA, LIDAR], ("camera", "lidar"))
        assert track.estimate.mean[:2] == pytest.approx([1.0, 0.0], abs=0.05)
        # Both pipelines feed the track: it is tighter than each one alone.
        trace = np.trace(track.estimate.covariance[:2, :2])
        assert trace < np.trace(run([CAMERA], ("camera",)).estimate.covariance[:2, :2])
        assert trace < np.trace(run([LIDAR], ("lidar",)).estimate.covariance[:2, :2])

    def test_two_pipelines_tighter_than_either_alone(self):
        def run(mask):
            fusion = OnePlatform([CAMERA, LIDAR])
            confirmed = []
            for frame in frames_of(
                [
                    {name: [polar(1.0)] for name in mask}
                    for _ in range(20)
                ]
            ):
                confirmed = fusion.step(frame)
            assert len(confirmed) == 1
            return float(np.trace(confirmed[0].estimate.covariance[:2, :2]))

        both = run(("camera", "lidar"))
        assert both < run(("camera",))
        assert both < run(("lidar",))

    def test_lidar_only_object_still_tracked(self):
        # bearing outside the camera field of view: the frame simply has no
        # camera detection, and the track forms from the lidar stream alone
        frames = frames_of(
            [{"camera": [], "lidar": [polar(1.5, math.radians(100))]} for _ in range(10)]
        )
        fusion = OnePlatform([CAMERA, LIDAR])
        lidar_alone = OnePlatform([LIDAR])
        confirmed = []
        for frame in frames:
            confirmed = fusion.step(frame)
            lidar_alone.step(frame)
        assert len(confirmed) == 1
        assert table_bits(fusion.fusion.table) == table_bits(lidar_alone.fusion.table)

    def test_no_platforms_steps_nothing(self):
        fusion = LocalFusion({}, DT)
        for _ in range(2):
            confirmed = fusion.step({})
            assert confirmed.counts == [] and confirmed.ids == [] and confirmed.classes == []
            assert confirmed.means.shape == (0, 5) and confirmed.covariances.shape == (0, 5, 5)
        assert tracks_of(fusion.table) == []

    def test_unknown_pipeline_names_ignored(self):
        fusion = OnePlatform([CAMERA])
        fusion.step(LocalFrame(0.0, {"radar": [polar(1.0)]}))
        assert fusion.tracks == []


class TestModelModes:
    def run_reduction(self, distal, perp, distance):
        """Covariance-trace reduction from one update on an identical prior."""
        camera = SensorPipelineConfig(
            name="camera",
            pose=SensorPose(),
            fov=math.radians(160),
            max_range=5.0,
            distal_model=distal,
            perp_model=perp,
        )
        fusion = OnePlatform([camera])
        prior = np.diag([0.04, 0.04, 1.0, math.pi**2, 1.0])
        state = np.array([distance, 0, 0, 0, 0], dtype=float)
        fusion.fusion.table = table_of([[Track(id=0, estimate=GaussianEstimate(state, prior))]])
        before = float(np.trace(fusion.tracks[0].estimate.covariance[:2, :2]))
        fusion.step(LocalFrame(0.125, {"camera": [polar(distance)]}))
        after = float(np.trace(fusion.tracks[0].estimate.covariance[:2, :2]))
        return before - after

    def test_parameterized_update_weaker_at_distance(self):
        models = DEFAULT_PARAMETERIZED_MODELS
        near = self.run_reduction(models.camera_distal, models.camera_perpendicular, 0.5)
        far = self.run_reduction(models.camera_distal, models.camera_perpendicular, 2.5)
        assert far < near

    def test_fixed_update_equal_at_any_distance(self):
        models = DEFAULT_FIXED_MODELS
        near = self.run_reduction(models.camera_distal, models.camera_perpendicular, 0.5)
        far = self.run_reduction(models.camera_distal, models.camera_perpendicular, 2.5)
        assert far == pytest.approx(near, rel=1e-9)


class TestConfigValidation:
    def test_duplicate_pipeline_names_rejected(self):
        with pytest.raises(ValueError):
            LocalFusion({"p": [CAMERA, CAMERA]}, DT)

    def test_bad_fov_rejected(self):
        with pytest.raises(ValueError):
            SensorPipelineConfig(
                name="x",
                pose=SensorPose(),
                fov=0.0,
                max_range=1.0,
                distal_model=ErrorModel((0.1,)),
                perp_model=ErrorModel((0.1,)),
            )

    def test_confirmed_record_is_detached(self):
        fusion = LocalFusion({"p": [CAMERA]}, DT)
        for frame in frames_of([{"camera": [polar(1.0)]}] * 3):
            confirmed = fusion.step({"p": frame})
        held = table_bits(fusion.table)
        assert confirmed.counts == [1] and confirmed.ids == fusion.table.ids
        for column in confirmed[3:]:
            column[:] = 123
        confirmed.ids.append(7)
        confirmed.classes.append("x")
        assert table_bits(fusion.table) == held


# --- the batch against the per-platform reference --------------------------

SHIFTED_CAMERA = SensorPipelineConfig(
    name="camera",
    pose=SensorPose(0.2, -0.1, 0.7),
    fov=math.radians(120),
    max_range=6.0,
    distal_model=DEFAULT_FIXED_MODELS.camera_distal,
    perp_model=DEFAULT_FIXED_MODELS.camera_perpendicular,
)

PLATFORMS = {
    "cav0": [LIDAR, CAMERA],
    "cav1": [CAMERA, LIDAR],
    "idle": [CAMERA, LIDAR],  # never sees anything: no tracks, no detections
    "late": [LIDAR],  # sees nothing before tick 6, then spawns from no tracks
    "cis0": [SHIFTED_CAMERA],  # a CIS with a camera only
}


def random_frames(seed, n_ticks):
    """Per tick, each platform's frame: a few moving objects seen through each
    pipeline's field of view with misses and noise, plus clutter; ``cav1``
    goes blind for ticks 8-14, so its tracks miss until deleted.  Each
    platform also sees a close pair of objects, whose observations fall in
    both tracks' gates and split their weights."""
    rng = np.random.default_rng(seed)
    objects = {}
    for pid in PLATFORMS:
        objects[pid] = [
            (rng.uniform(-4, 4, 2), rng.uniform(-0.4, 0.4, 2)) for _ in range(rng.integers(1, 4))
        ]
        start, velocity = rng.uniform(0.5, 3, 2), rng.uniform(-0.2, 0.2, 2)
        objects[pid] += [(start, velocity), (start + rng.uniform(0.1, 0.25, 2), velocity)]
    ticks = []
    for k in range(n_ticks):
        frames = {}
        for pid, pipelines in PLATFORMS.items():
            observations = {}
            blind = pid == "idle" or (pid == "late" and k < 6) or (pid == "cav1" and 8 <= k <= 14)
            for pipeline in pipelines:
                detections = []
                if not blind:
                    for start, velocity in objects[pid]:
                        rel = start + k * DT * velocity - [pipeline.pose.x_sensor, pipeline.pose.y_sensor]
                        d = float(np.hypot(*rel))
                        theta = math.atan2(rel[1], rel[0]) - pipeline.pose.theta_sensor
                        theta = math.remainder(theta, 2 * math.pi)
                        if d > pipeline.max_range or abs(theta) > pipeline.fov / 2 or rng.random() < 0.15:
                            continue
                        detections.append(
                            PolarObservation(max(d + rng.normal(0, 0.03), 0.0), theta + rng.normal(0, 0.01))
                        )
                    for _ in range(rng.poisson(0.4)):
                        detections.append(PolarObservation(rng.uniform(0, 5), rng.uniform(-1, 1)))
                    rng.shuffle(detections)
                observations[pipeline.name] = detections
            frames[pid] = LocalFrame(k * DT, observations)
        ticks.append(frames)
    return ticks


def platform_tracks(fusion):
    """Each platform's tracks as records of the tier's table, by platform id."""
    return dict(zip(fusion.pipelines, tracks_of(fusion.table)))


def assert_same_tracks(batch, reference):
    """Same ids, lifecycle and bits.  The reference updates each track from
    exactly the observations it accepts, so equal bits also mean the same
    sources fed each track."""
    assert [t.id for t in batch] == [t.id for t in reference]
    for a, b in zip(batch, reference):
        np.testing.assert_array_equal(a.estimate.mean, b.estimate.mean)
        np.testing.assert_array_equal(a.estimate.covariance, b.estimate.covariance)
        assert (a.frames_seen, a.frames_missed, a.confirmed, a.object_class) == (
            b.frames_seen,
            b.frames_missed,
            b.confirmed,
            b.object_class,
        )


def assert_table_holds(table, groups):
    """The stacked record holds each group's confirmed tracks, group by group,
    with their ids, classes and bits."""
    confirmed = [[t for t in group if t.confirmed] for group in groups]
    flat = [t for group in confirmed for t in group]
    assert table.counts == [len(group) for group in confirmed]
    assert table.ids == [t.id for t in flat]
    assert table.classes == [t.object_class for t in flat]
    assert table.means.tobytes() == b"".join(t.estimate.mean.tobytes() for t in flat)
    assert table.covariances.tobytes() == b"".join(t.estimate.covariance.tobytes() for t in flat)


def injected(tid, x, y, position_block, frames_seen=1):
    cov = np.diag([0.0, 0.0, 0.1, 0.1, 0.1])
    cov[:2, :2] = position_block
    return Track(
        id=tid,
        estimate=GaussianEstimate(np.array([x, y, 0.0, 0.0, 0.0]), cov),
        frames_seen=frames_seen,
    )


class TestBatchMatchesPerPlatformReference:
    """Every platform of the batch carries the bits, ids, counters and flags
    it would carry stepped alone (``oracles.PlatformFusionReference``)."""

    def run(self, ticks, inject=None):
        fusion = LocalFusion(PLATFORMS, DT)
        references = {pid: PlatformFusionReference(p, DT) for pid, p in PLATFORMS.items()}
        events = []
        for k, frames in enumerate(ticks):
            injected_now = inject(k) if inject is not None else {}
            if injected_now:
                held = platform_tracks(fusion)
                for pid, tracks in injected_now.items():
                    held[pid].extend(tracks)
                    references[pid].tracks.extend(copy.deepcopy(tracks))
                fusion.table = table_of(held.values())
            before = {pid: dict(ref.events) for pid, ref in references.items()}
            confirmed = fusion.step(frames)
            held = platform_tracks(fusion)
            assert list(held) == list(PLATFORMS)
            assert_table_holds(confirmed, held.values())
            for pid, reference in references.items():
                reference.step(frames[pid])
                assert_same_tracks(held[pid], reference.tracks)
                events.append(
                    (k, pid, {e: n - before[pid][e] for e, n in reference.events.items()})
                )
        return fusion, events

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_scenes(self, seed):
        fusion, events = self.run(random_frames(seed, 30))
        assert platform_tracks(fusion)["idle"] == []
        # "fused": tracks updated from both pipelines in one frame, whose
        # bits show that each source contributed.
        totals = {
            e: sum(counts[e] for _, _, counts in events)
            for e in ("spawned", "merged", "deleted", "fused")
        }
        assert all(totals.values()), totals

    def test_random_scenes_with_array_predict(self, monkeypatch):
        # The batch predicts its tracks as elementwise passes whatever their
        # number; each reference platform predicts track by track.
        monkeypatch.setattr(tracking, "_ARRAY_PREDICT_MIN", 1)
        fusion, _ = self.run(random_frames(6, 30))
        assert len(fusion.table.ids) > 5

    def test_record_packetizes_like_reference(self):
        # Each tick's record, packetized, gives each platform the packet the
        # per-platform reference builds from its live confirmed tracks.
        fusion = LocalFusion(PLATFORMS, DT)
        rng = np.random.default_rng(8)
        shipped = 0
        for k, frames in enumerate(random_frames(7, 20)):
            confirmed = fusion.step(frames)
            poses = {
                pid: PlatformPose(*rng.normal(0.0, 5.0, 2), rng.uniform(-math.pi, math.pi))
                for pid in PLATFORMS
            }
            covs = {pid: np.diag(rng.uniform(1e-4, 1e-2, 2)) for pid in PLATFORMS}
            packets = packetize(
                k * DT, [(pid, poses[pid], covs[pid]) for pid in PLATFORMS], confirmed
            )
            for packet, (pid, tracks) in zip(packets, platform_tracks(fusion).items()):
                live = [t for t in tracks if t.confirmed]
                reference = packetize_reference(pid, k * DT, poses[pid], live, covs[pid])
                assert packet_bits(packet) == packet_bits(reference)
                shipped += len(live)
        assert shipped > 20

    def test_spawn_merge_delete_and_singular_innovation_in_one_tick(self):
        ticks = random_frames(4, 12)
        # Tick 9: cav0 sees a new object far from every track (spawn), holds
        # two coincident tracks (merge) and one whose position block is so
        # large and correlated that every innovation covariance is singular
        # (never gated, then deleted for its variance).
        ticks[9]["cav0"].observations["lidar"].append(PolarObservation(7.5, 3.0))
        singular = np.full((2, 2), 1e20)

        def inject(k):
            if k != 9:
                return {}
            return {
                "cav0": [
                    injected(1000, -6.0, 6.0, singular),
                    injected(1001, 6.0, -6.0, 0.01 * np.eye(2), frames_seen=4),
                    injected(1002, 6.01, -6.0, 0.01 * np.eye(2)),
                ]
            }

        fusion, events = self.run(ticks, inject)
        (tick_nine,) = [counts for k, pid, counts in events if (k, pid) == (9, "cav0")]
        assert tick_nine["spawned"] >= 1 and tick_nine["merged"] >= 1 and tick_nine["deleted"] >= 1
        assert 1000 not in {t.id for t in platform_tracks(fusion)["cav0"]}

    def test_singular_innovation_is_never_gated(self):
        track = injected(0, 1.0, 0.0, np.full((2, 2), 1e20))
        block, rows, cols, density = _gate_blocks(
            *_track_blocks([track]),
            np.array([[1.0, 0.0]]),
            np.array([0.01 * np.eye(2)]),
            _block_pairs([(0, 1, 0, 1)]),
            AssociationConfig(),
        )
        assert block.size == rows.size == cols.size == density.size == 0

    def test_stale_or_mixed_times_rejected_without_change(self):
        fusion = LocalFusion(PLATFORMS, DT)
        ticks = random_frames(5, 2)
        fusion.step(ticks[1])
        held = table_bits(fusion.table)
        for frames in (ticks[0], ticks[1], {**ticks[1], "cav0": LocalFrame(0.5, {})}):
            with pytest.raises(StaleFrameError):
                fusion.step(frames)
        assert table_bits(fusion.table) == held


class TestPlans:
    def test_warm_and_cleared_caches_give_equal_bits(self):
        # Each tick's detections come again half a tick later, so that frame
        # shapes repeat.
        ticks = [
            again
            for frames in random_frames(11, 30)
            for again in (
                frames,
                {pid: LocalFrame(f.timestamp + DT / 2, f.observations) for pid, f in frames.items()},
            )
        ]
        clear_plans()
        warm = LocalFusion(PLATFORMS, DT)
        held = [(table_bits(warm.step(frames)), table_bits(warm.table)) for frames in ticks]
        assert _detection_plan.cache_info().hits >= 30 and _frame_plan.cache_info().hits > 0
        assert any(warm.table.confirmed)
        cold = LocalFusion(PLATFORMS, DT)
        for frames, bits in zip(ticks, held):
            clear_plans()
            assert (table_bits(cold.step(frames)), table_bits(cold.table)) == bits


class TestGatheredPairStats:
    def test_within_block_pairs_only(self):
        rows, cols, block = _block_pairs([(0, 2, 0, 3), (2, 2, 3, 5), (2, 3, 5, 5), (3, 5, 5, 6)])
        assert list(zip(rows.tolist(), cols.tolist(), block.tolist())) == [
            (0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0),
            (3, 5, 3), (4, 5, 3),
        ]
        assert [a.size for a in _block_pairs([])] == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_stats_reference_per_block(self, seed):
        rng = np.random.default_rng(seed)

        def covariance():
            kind = rng.integers(4)
            if kind == 0:
                return np.zeros((2, 2))
            v = rng.normal(size=2)
            if kind == 1:
                return np.outer(v, v)
            a = rng.normal(size=(2, 2)) * rng.uniform(0.01, 1.0)
            return a @ a.T + 1e-4 * np.eye(2)

        tracks = [injected(i, *rng.uniform(-2, 2, 2), covariance()) for i in range(rng.integers(0, 9))]
        observations = [
            GaussianEstimate(rng.uniform(-2, 2, 2), covariance())
            for _ in range(rng.integers(0, 12))
        ]
        blocks = []
        t = o = 0
        while t < len(tracks) or o < len(observations):
            t_stop = min(len(tracks), t + int(rng.integers(0, 4)))
            o_stop = min(len(observations), o + int(rng.integers(0, 5)))
            blocks.append((t, t_stop, o, o_stop))
            t, o = t_stop, o_stop
        rows, cols, block = _block_pairs(blocks)
        track_pos = np.array([tr.estimate.mean[:2] for tr in tracks]).reshape(-1, 2)
        track_cov = np.array([tr.estimate.covariance[:2, :2] for tr in tracks]).reshape(-1, 2, 2)
        obs_pos = np.array([ob.mean for ob in observations]).reshape(-1, 2)
        obs_cov = np.array([ob.covariance for ob in observations]).reshape(-1, 2, 2)
        dist2, _ = _pair_stats(track_pos[rows], track_cov[rows], obs_pos[cols], obs_cov[cols])
        for b, (t0, t1, o0, o1) in enumerate(blocks):
            expected, _ = pair_stats_reference(tracks[t0:t1], observations[o0:o1])
            np.testing.assert_array_equal(dist2[block == b], expected.ravel())
