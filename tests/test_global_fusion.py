import json
import math

import numpy as np
import pytest

from coopfusion.association import Track
from coopfusion.error_models import DEFAULT_PARAMETERIZED_MODELS, PlatformPose
from coopfusion.global_fusion import (
    GlobalFusion,
    GlobalFusionConfig,
    PacketError,
    PlatformPacket,
    PacketTrack,
    covariance_to_world,
    covariance_union,
    packet_from_line,
    packet_to_line,
    packet_to_wire,
    packetize,
    track_to_world,
)
from coopfusion.tracking import TrackEstimate

LON = DEFAULT_PARAMETERIZED_MODELS.localizer_longitudinal
LAT = DEFAULT_PARAMETERIZED_MODELS.localizer_lateral


def local_track(tid, x, y, pos_var=0.01):
    cov = np.diag([pos_var, pos_var, 1.0, math.pi**2, 1.0])
    return Track(id=tid, estimate=TrackEstimate(np.array([x, y, 0, 0, 0], dtype=float), cov))


def pose_packet(pid, t, pose, pose_var=1e-6, tracks=()):
    return PlatformPacket(
        platform_id=pid,
        timestamp=t,
        pose=pose,
        pose_covariance=((pose_var, 0.0), (0.0, pose_var)),
        tracks=tuple(tracks),
    )


class TestTrackToWorld:
    def test_identity_pose(self):
        est = TrackEstimate(np.array([1, 2, 0, 0, 0], dtype=float), np.eye(5))
        assert track_to_world(est, PlatformPose(0, 0, 0, 0)) == pytest.approx([1, 2])

    def test_translation_only(self):
        est = TrackEstimate(np.array([1, 0, 0, 0, 0], dtype=float), np.eye(5))
        assert track_to_world(est, PlatformPose(5, 5, 0, 0)) == pytest.approx([6, 5])

    def test_quarter_turn(self):
        est = TrackEstimate(np.array([1, 0, 0, 0, 0], dtype=float), np.eye(5))
        out = track_to_world(est, PlatformPose(0, 0, math.pi / 2, 0))
        # rigid-transform oracle: t + R(theta) p
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        oracle = np.array([c * 1 - s * 0, s * 1 + c * 0])
        assert out == pytest.approx(oracle, abs=1e-12)
        assert out == pytest.approx([0, 1], abs=1e-12)


class TestCovarianceToWorld:
    def test_zero_heading_unchanged(self):
        cov = np.diag([0.3, 0.1, 1, 1, 1])
        assert covariance_to_world(cov, 0.0) == pytest.approx(np.diag([0.3, 0.1]))

    def test_isotropic_invariant(self):
        cov = np.eye(5) * 0.2
        for theta in (0.3, 1.8, -2.4):
            assert covariance_to_world(cov, theta) == pytest.approx(0.2 * np.eye(2), abs=1e-12)

    def test_quarter_turn_swaps_axes(self):
        cov = np.diag([4.0, 1.0, 9, 9, 9])
        out = covariance_to_world(cov, math.pi / 2)
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = np.array([[c, -s], [s, c]])
        oracle = rot @ np.diag([4.0, 1.0]) @ rot.T
        assert out == pytest.approx(oracle, abs=1e-12)
        assert out == pytest.approx(np.diag([1.0, 4.0]), abs=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            base = rng.uniform(-1, 1, size=(2, 2))
            block = base @ base.T + 0.01 * np.eye(2)
            cov = np.zeros((5, 5))
            cov[:2, :2] = block
            theta = rng.uniform(-math.pi, math.pi)
            out = covariance_to_world(cov, theta)
            assert np.linalg.eigvalsh(out) == pytest.approx(
                np.linalg.eigvalsh(block), abs=1e-9
            )


class TestCovarianceUnion:
    def test_identity_sum(self):
        assert covariance_union(np.eye(2), np.eye(2)) == pytest.approx(2 * np.eye(2))

    def test_zero_is_neutral(self):
        a = np.array([[0.5, 0.1], [0.1, 0.3]])
        assert covariance_union(a, np.zeros((2, 2))) == pytest.approx(a)

    def test_commutative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(-1, 1, (2, 2))
            a = a @ a.T
            b = rng.uniform(-1, 1, (2, 2))
            b = b @ b.T
            assert covariance_union(a, b) == pytest.approx(covariance_union(b, a))

    def test_psd_closure(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            a = rng.uniform(-1, 1, (2, 2))
            b = rng.uniform(-1, 1, (2, 2))
            union = covariance_union(a @ a.T, b @ b.T)
            assert np.linalg.eigvalsh(union).min() >= -1e-12

    def test_tiny_localization_barely_inflates(self):
        eps = 1e-9
        block = np.array([[0.04, 0.01], [0.01, 0.02]])
        union = covariance_union(eps * np.eye(2), block)
        assert np.abs(union - block).max() <= 2 * eps


class TestPacketize:
    def test_surveyed_platform_keeps_local_covariance(self):
        pose = PlatformPose(0, 1, -math.pi / 2, 0.0)
        packet = packetize(
            "cis0", 1.0, pose, [local_track(0, 1.0, 0.0)], pose_covariance=1e-6 * np.eye(2)
        )
        track_cov = np.array(packet.tracks[0].covariance)
        assert np.abs(track_cov - 0.01 * np.eye(2)).max() < 1e-5

    def test_speed_inflates_track_covariance(self):
        tracks = [local_track(0, 1.0, 0.0)]
        slow = packetize("cav0", 0.0, PlatformPose(0, 0, 0, 0.0), tracks, longitudinal=LON, lateral=LAT)
        fast = packetize("cav0", 0.0, PlatformPose(0, 0, 0, 0.5), tracks, longitudinal=LON, lateral=LAT)
        assert np.trace(np.array(fast.tracks[0].covariance)) > np.trace(
            np.array(slow.tracks[0].covariance)
        )

    def test_empty_track_list_is_valid(self):
        packet = packetize("cav0", 0.0, PlatformPose(0, 0, 0, 0.1), [], longitudinal=LON, lateral=LAT)
        assert packet.tracks == ()

    def test_needs_models_or_covariance(self):
        with pytest.raises(ValueError):
            packetize("cav0", 0.0, PlatformPose(0, 0, 0, 0.1), [])

    def test_world_transform_applied(self):
        pose = PlatformPose(5.0, 5.0, math.pi / 2, 0.0)
        packet = packetize(
            "cav0", 0.0, pose, [local_track(0, 1.0, 0.0)], longitudinal=LON, lateral=LAT
        )
        assert packet.tracks[0].mean == pytest.approx((5.0, 6.0), abs=1e-12)


class TestWireFormat:
    def test_exact_field_names(self):
        packet = packetize(
            "cav0",
            0.25,
            PlatformPose(1, 2, 0.1, 0.5),
            [local_track(3, 0.5, 0.5)],
            longitudinal=LON,
            lateral=LAT,
        )
        wire = packet_to_wire(packet)
        assert sorted(wire) == ["platform_id", "pose", "pose_cov", "t", "tracks"]
        assert sorted(wire["pose"]) == ["theta", "v", "x", "y"]
        assert sorted(wire["tracks"][0]) == ["class", "cov", "id", "mu"]

    def test_line_round_trip(self):
        packet = packetize(
            "cav1",
            0.375,
            PlatformPose(-1, 0.5, 2.0, 0.25),
            [local_track(9, 1.5, -0.25)],
            longitudinal=LON,
            lateral=LAT,
        )
        again = packet_from_line(packet_to_line(packet))
        assert again == packet

    def test_nonfinite_rejected(self):
        packet = pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0))
        bad_x = packet_to_wire(packet)
        bad_x["pose"]["x"] = float("nan")
        bad_t = packet_to_wire(packet)
        bad_t["t"] = float("nan")
        for wire in (bad_x, bad_t):
            with pytest.raises(PacketError):
                packet_from_line(json.dumps(wire))

    @pytest.mark.parametrize("field", ["cov", "pose_cov"])
    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.01, 0.0], [0.0, -0.01]],
            [[0.01, 0.5], [0.0, 0.01]],
            [[1.0, 0.5], [0.1, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
        ],
        ids=["not_psd", "asymmetric", "asymmetric_unit", "indefinite"],
    )
    def test_invalid_covariance_rejected(self, field, matrix):
        packet = pose_packet(
            "cav0",
            0.0,
            PlatformPose(0, 0, 0, 0),
            tracks=[PacketTrack(id="0", mean=(1.0, 1.0), covariance=((0.01, 0), (0, 0.01)))],
        )
        wire = packet_to_wire(packet)
        if field == "cov":
            wire["tracks"][0]["cov"] = matrix
        else:
            wire["pose_cov"] = matrix
        with pytest.raises(PacketError):
            packet_from_line(json.dumps(wire))

    def test_malformed_rejected(self):
        with pytest.raises(PacketError):
            packet_from_line('{"platform_id": "x", "t": 0}')


class TestGlobalFusion:
    def test_single_platform_track_passthrough(self):
        fusion = GlobalFusion()
        confirmed = []
        for k in range(6):
            packet = pose_packet(
                "cis0",
                k * 0.125,
                PlatformPose(0, 2, -math.pi / 2, 0),
                tracks=[
                    PacketTrack(id="0", mean=(1.0, 1.0), covariance=((0.01, 0), (0, 0.01)))
                ],
            )
            confirmed = fusion.step_with([packet], k * 0.125)
        positions = sorted(
            [tuple(np.round(t.estimate.mean[:2], 2)) for t in confirmed]
        )
        assert (1.0, 1.0) in positions

    def test_two_platforms_shrink_covariance(self):
        def run(platforms):
            fusion = GlobalFusion(GlobalFusionConfig(include_platform_pose=False))
            confirmed = []
            for k in range(8):
                packets = [
                    pose_packet(
                        pid,
                        k * 0.125,
                        PlatformPose(0, 0, 0, 0),
                        tracks=[
                            PacketTrack(id="0", mean=(1.0, 0.0), covariance=((0.05, 0), (0, 0.05)))
                        ],
                    )
                    for pid in platforms
                ]
                confirmed = fusion.step_with(packets, k * 0.125)
            assert len(confirmed) == 1
            return float(np.trace(confirmed[0].estimate.covariance[:2, :2]))

        assert run(["cav0", "cav1"]) < run(["cav0"])

    def test_confident_source_dominates_fused_mean(self):
        # one tight source and one loose source reporting the same object at
        # different positions: the fused mean must sit closer to the tight one
        fusion = GlobalFusion(GlobalFusionConfig(include_platform_pose=False))
        confirmed = []
        for k in range(8):
            packets = [
                pose_packet(
                    "cis0",
                    k * 0.125,
                    PlatformPose(0, 2, 0, 0),
                    tracks=[
                        PacketTrack(id="0", mean=(1.0, 0.0), covariance=((0.004, 0), (0, 0.004)))
                    ],
                ),
                pose_packet(
                    "cav1",
                    k * 0.125,
                    PlatformPose(3, 3, 0, 0.5),
                    tracks=[
                        PacketTrack(id="0", mean=(1.3, 0.0), covariance=((0.09, 0), (0, 0.09)))
                    ],
                ),
            ]
            confirmed = fusion.step_with(packets, k * 0.125)
        assert len(confirmed) == 1
        x = confirmed[0].estimate.mean[0]
        # gain-ratio oracle: steady-state mean sits near the information blend
        blend = (1.0 / 0.004 * 1.0 + 1.0 / 0.09 * 1.3) / (1.0 / 0.004 + 1.0 / 0.09)
        assert abs(x - blend) < abs(x - 1.3)
        assert abs(x - 1.0) < 0.1

    def test_platform_pose_is_tracked(self):
        fusion = GlobalFusion()
        confirmed = []
        for k in range(6):
            packet = pose_packet("cav0", k * 0.125, PlatformPose(2.0, -1.0, 0.3, 0.0), 1e-4)
            confirmed = fusion.step_with([packet], k * 0.125)
        assert len(confirmed) == 1
        assert confirmed[0].estimate.mean[:2] == pytest.approx([2.0, -1.0], abs=0.01)

    def test_duplicate_packet_latest_wins(self):
        fusion = GlobalFusion()
        early = pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0), 1e-4)
        late = pose_packet("cav0", 0.06, PlatformPose(1, 1, 0, 0), 1e-4)
        fusion.ingest(early)
        fusion.ingest(late)
        assert fusion.duplicate_packets == 1
        fusion.step(0.125)
        assert fusion.tracks[0].estimate.mean[:2] == pytest.approx([1, 1], abs=1e-6)

    def test_stale_packet_dropped_and_counted(self):
        fusion = GlobalFusion()
        fusion.step_with([], 10.0)
        fusion.ingest(pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0)))
        assert fusion.late_packets == 1
        fusion.step(10.125)
        assert fusion.tracks == []

    @pytest.mark.parametrize(
        "mean, cov, t",
        [
            ((math.inf, 0.0), ((0.01, 0.0), (0.0, 0.01)), 0.0),
            ((2.0, 0.0), ((0.01, 0.5), (0.0, 0.01)), 0.0),
            ((2.0, 0.0), ((0.01, 0.0), (0.0, -0.01)), 0.0),
            ((2.0, 0.0), ((0.01, 0.0), (0.0, 0.01)), math.nan),
        ],
        ids=["nonfinite_mean", "asymmetric", "indefinite", "nan_timestamp"],
    )
    def test_invalid_packet_dropped_and_counted(self, mean, cov, t):
        good = pose_packet(
            "cis0",
            0.0,
            PlatformPose(0, 2, 0, 0),
            tracks=[PacketTrack(id="0", mean=(1.0, 1.0), covariance=((0.01, 0), (0, 0.01)))],
        )
        bad = pose_packet(
            "cav1", t, PlatformPose(3, 3, 0, 0), tracks=[PacketTrack(id="0", mean=mean, covariance=cov)]
        )
        fusion = GlobalFusion()
        fusion.ingest(good)
        fusion.ingest(bad)
        fusion.step(0.0)
        assert fusion.invalid_packets == 1
        positions = sorted(tuple(track.estimate.mean[:2]) for track in fusion.tracks)
        assert positions == [(0.0, 2.0), (1.0, 1.0)]
        assert all(track.sources == {"cis0"} for track in fusion.tracks)
