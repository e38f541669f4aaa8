import dataclasses
import json
import math

import numpy as np
import pytest
from oracles import (
    check_packet_reference,
    clear_plans,
    covariance_to_world,
    ingest_reference,
    packet_bits,
    packetize_reference,
    read_only,
    rsu_batch_reference,
    table_bits,
    table_of,
    track_to_world,
    tracks_of,
)

from coopfusion.association import StaleFrameError, Track, _frame_plan
from coopfusion.error_models import (
    DEFAULT_PARAMETERIZED_MODELS,
    GaussianEstimate,
    PlatformPose,
    localization_covariances,
)
from coopfusion.global_fusion import (
    GlobalFusion,
    PacketError,
    PlatformPacket,
    _observations,
    _packet_faults,
    _pose_plan,
    check_packet,
    covariance_union,
    packet_from_wire,
    packet_to_wire,
    packetize,
)

LON = DEFAULT_PARAMETERIZED_MODELS.localizer_longitudinal
LAT = DEFAULT_PARAMETERIZED_MODELS.localizer_lateral
DT = 0.125


def packetize_tracks(t, platforms):
    """``packetize`` of (id, pose, pose covariance, local tracks) platforms,
    the tracks stacked into one record as a local step returns them."""
    return packetize(
        t,
        [(pid, pose, cov) for pid, pose, cov, _ in platforms],
        table_of([tracks for *_, tracks in platforms]),
    )


def cav_packet(pid, t, pose, tracks):
    """A mobile platform's packet, widened by its localization covariance."""
    (packet,) = packetize_tracks(
        t, [(pid, pose, localization_covariances([pose], LON, LAT)[0], tracks)]
    )
    return packet


def local_track(tid, x, y, pos_var=0.01):
    cov = np.diag([pos_var, pos_var, 1.0, math.pi**2, 1.0])
    return Track(id=tid, estimate=GaussianEstimate(np.array([x, y, 0, 0, 0], dtype=float), cov))


def rsu_tracks(fusion):
    """The RSU's tracks, as records of its table's rows."""
    (tracks,) = tracks_of(fusion.table)
    return tracks


def fuse(fusion, packets, t):
    """Step the RSU; returns its confirmed tracks, after checking that the
    step's record holds them."""
    fusion.ingest(packets)
    record = fusion.step(t)
    confirmed = [track for track in rsu_tracks(fusion) if track.confirmed]
    assert record.counts == [len(confirmed)]
    assert record.ids == [track.id for track in confirmed]
    assert record.classes == [track.object_class for track in confirmed]
    for track, mean, cov in zip(confirmed, record.means, record.covariances):
        assert mean.tobytes() == track.estimate.mean.tobytes()
        assert cov.tobytes() == track.estimate.covariance.tobytes()
    return confirmed


def vehicle_tracks(tracks):
    return [track for track in tracks if track.object_class == "vehicle"]


def pose_packet(pid, t, pose, pose_var=1e-6, tracks=()):
    """A packet whose tracks are (mean, covariance) pairs, with ids "0", "1",
    ... and class "vehicle"."""
    return PlatformPacket(
        platform_id=pid,
        timestamp=t,
        pose=pose,
        pose_covariance=read_only([[pose_var, 0.0], [0.0, pose_var]], (2, 2)),
        track_ids=tuple(str(k) for k in range(len(tracks))),
        classes=("vehicle",) * len(tracks),
        means=read_only([mean for mean, _ in tracks], (-1, 2)),
        covariances=read_only([cov for _, cov in tracks], (-1, 2, 2)),
    )


class TestTrackToWorld:
    def test_identity_pose(self):
        est = GaussianEstimate(np.array([1, 2, 0, 0, 0], dtype=float), np.eye(5))
        assert track_to_world(est, PlatformPose(0, 0, 0, 0)) == pytest.approx([1, 2])

    def test_translation_only(self):
        est = GaussianEstimate(np.array([1, 0, 0, 0, 0], dtype=float), np.eye(5))
        assert track_to_world(est, PlatformPose(5, 5, 0, 0)) == pytest.approx([6, 5])

    def test_quarter_turn(self):
        est = GaussianEstimate(np.array([1, 0, 0, 0, 0], dtype=float), np.eye(5))
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
        (packet,) = packetize_tracks(
            1.0, [("cis0", pose, 1e-6 * np.eye(2), [local_track(0, 1.0, 0.0)])]
        )
        assert np.abs(packet.covariances[0] - 0.01 * np.eye(2)).max() < 1e-5

    def test_speed_inflates_track_covariance(self):
        tracks = [local_track(0, 1.0, 0.0)]
        slow = cav_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0.0), tracks)
        fast = cav_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0.5), tracks)
        assert np.trace(fast.covariances[0]) > np.trace(slow.covariances[0])

    def test_empty_track_list_is_valid(self):
        packet = cav_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0.1), [])
        assert packet.track_ids == () and packet.classes == ()
        assert packet.means.shape == (0, 2) and packet.covariances.shape == (0, 2, 2)

    def test_world_transform_applied(self):
        pose = PlatformPose(5.0, 5.0, math.pi / 2, 0.0)
        packet = cav_packet("cav0", 0.0, pose, [local_track(0, 1.0, 0.0)])
        assert packet.means[0] == pytest.approx((5.0, 6.0), abs=1e-12)

    def test_platforms_must_match_track_groups(self):
        # One group of one track cannot be spread over two platforms.
        pose = PlatformPose(0, 0, 0, 0.0)
        with pytest.raises(ValueError, match="2 platforms for 1 track groups"):
            packetize(
                0.0,
                [("cav0", pose, 1e-6 * np.eye(2)), ("cav1", pose, 1e-6 * np.eye(2))],
                table_of([[local_track(0, 1.0, 0.0)]]),
            )

    def test_packet_arrays_are_read_only(self):
        pose = PlatformPose(1.0, 2.0, 0.5, 0.25)
        tracks = [local_track(3, 1.0, 0.0), local_track(4, 0.0, 2.0)]
        packets = packetize_tracks(0.5, [("cav0", pose, 0.1 * np.eye(2), tracks)] * 2)
        packets.append(packet_from_wire(json.loads(json.dumps(packet_to_wire(packets[0])))))
        for packet in packets:
            assert packet.track_ids == ("3", "4") and packet.classes == ("vehicle", "vehicle")
            assert packet.means.shape == (2, 2) and packet.covariances.shape == (2, 2, 2)
            for array in (packet.means, packet.covariances, packet.pose_covariance):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
            for field in dataclasses.fields(packet):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(packet, field.name, None)
        # The two packetized packets are views of one pass, kept apart.
        assert not np.shares_memory(packets[0].means, packets[1].means)
        assert packets[0].means.base is packets[1].means.base


def random_tracks(rng, n):
    """``n`` local tracks whose estimates are views into stacked arrays, as
    the filter hands them out."""
    means = rng.normal(0.0, 3.0, size=(n, 5))
    bases = rng.normal(0.0, 0.3, size=(n, 5, 5))
    covs = bases @ bases.swapaxes(1, 2) + 1e-4 * np.eye(5)
    classes = ("vehicle", "pedestrian")
    return [
        Track(
            id=int(rng.integers(0, 1000)),
            estimate=GaussianEstimate(means[i], covs[i]),
            object_class=classes[i % 2],
        )
        for i in range(n)
    ]


def random_heading(rng):
    """A heading anywhere, or within 1e-3 of +-pi where the wrap sits."""
    if rng.random() < 0.5:
        return rng.uniform(-math.pi, math.pi)
    return rng.choice([math.pi, -math.pi]) - math.copysign(rng.uniform(0.0, 1e-3), rng.normal())


def random_tick(rng):
    """A tick's platforms: CAVs with speed-driven pose covariances from one
    stacked call, then CIS with 1e-6 I; 0-20 tracks each."""
    n_cav, n_cis = int(rng.integers(0, 6)), int(rng.integers(0, 3))
    ids = [f"cav{i}" for i in range(n_cav)] + [f"cis{i}" for i in range(n_cis)]
    poses = [
        PlatformPose(*rng.normal(0.0, 5.0, size=2), random_heading(rng), rng.uniform(0.0, 1.0))
        for _ in ids
    ]
    covs = [*localization_covariances(poses[:n_cav], LON, LAT), *[1e-6 * np.eye(2)] * n_cis]
    return [
        (pid, pose, cov, random_tracks(rng, int(rng.choice([0, rng.integers(1, 21)]))))
        for pid, pose, cov in zip(ids, poses, covs)
    ]


class TestPacketizeMatchesReference:
    def test_no_platforms(self):
        assert packetize_tracks(2.5, []) == []

    def test_platforms_without_tracks(self):
        platforms = [
            ("cav0", PlatformPose(1, 2, 3, 0.5), np.eye(2), []),
            ("cis0", PlatformPose(0, 0, 0, 0), 1e-6 * np.eye(2), []),
        ]
        packets = packetize_tracks(0.0, platforms)
        assert [packet.track_ids for packet in packets] == [(), ()]
        assert [packet_bits(p) for p in packets] == [
            packet_bits(packetize_reference(pid, 0.0, pose, tracks, cov))
            for pid, pose, cov, tracks in platforms
        ]

    def test_random_ticks_bit_identical(self):
        rng = np.random.default_rng(12)
        counts = set()
        for k in range(200):
            platforms = random_tick(rng)
            counts.update(len(tracks) for *_, tracks in platforms)
            t = 0.125 * k
            packets = packetize_tracks(t, platforms)
            # The reference takes each CAV's covariance from its own
            # one-row call, so the stacked localization covariances are
            # checked here as well.
            reference = [
                packetize_reference(
                    pid,
                    t,
                    pose,
                    tracks,
                    localization_covariances([pose], LON, LAT)[0]
                    if pid.startswith("cav")
                    else cov,
                )
                for pid, pose, cov, tracks in platforms
            ]
            assert [packet_bits(p) for p in packets] == [packet_bits(p) for p in reference]
        assert {0, 1, 20} <= counts


def decision(check, packet):
    """The message ``check`` rejects the packet with, or None if it passes."""
    try:
        with np.errstate(all="ignore"):
            check(packet)
    except PacketError as exc:
        return str(exc)
    return None


def cov_packet(cov):
    """A valid packet whose one track carries ``cov``."""
    return pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0), tracks=[((1.0, 1.0), cov)])


def as_cov(m):
    return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))


HUGE = [0.0, 1e154, -1e154, 1e200, -1e200, 1e308, -1e308, 1.7976931348623157e308]


class TestCheckPacketMatchesReference:
    @pytest.mark.parametrize(
        "cov, verdict",
        [
            (((1.0, 0.5), (0.5 + 0.999e-9, 1.0)), None),
            (((1.0, 0.5), (0.5 + 1.001e-9, 1.0)), "packet covariance is not symmetric"),
            (((1.0, 0.0), (0.0, -0.999e-12)), None),
            (((1.0, 0.0), (0.0, -1.001e-12)), "packet covariance is not positive semi-definite"),
            (((1e-6, 0.0), (0.0, -0.999e-12)), None),
            (((1e-6, 0.0), (0.0, -1.001e-12)), "packet covariance is not positive semi-definite"),
            (((0.0, 0.0), (0.0, 0.0)), None),
            (((-0.0, 0.0), (0.0, -0.0)), None),
            (((0, 0), (0, 0)), None),
            (((1, 2), (2, 1)), "packet covariance is not positive semi-definite"),
        ],
        ids=[
            "asym_below",
            "asym_above",
            "eig_above",
            "eig_below",
            "small_eig_above",
            "small_eig_below",
            "zero",
            "negative_zero",
            "int_zero",
            "int_indefinite",
        ],
    )
    def test_edge_cases(self, cov, verdict):
        packet = cov_packet(cov)
        assert decision(check_packet, packet) == verdict
        assert decision(check_packet_reference, packet) == verdict
        # Batched between good packets, only this one is at fault.
        good = cov_packet(((1.0, 0.0), (0.0, 1.0)))
        assert _packet_faults([good, packet, good]) == [None, verdict, None]

    def test_overflowing_entries(self):
        # Sums and products of entries near 1e308 overflow to inf and then
        # NaN; both checks must still agree on every one.
        verdicts = set()
        good = cov_packet(((1.0, 0.0), (0.0, 1.0)))
        for a in HUGE:
            for b in HUGE:
                for d in HUGE:
                    packet = cov_packet(((a, b), (b, d)))
                    got = decision(check_packet, packet)
                    assert got == decision(check_packet_reference, packet), (a, b, d)
                    assert _packet_faults([good, packet, good]) == [None, got, None]
                    verdicts.add(got)
        assert verdicts == {None, "packet covariance is not positive semi-definite"}

    def test_random_covariances(self):
        rng = np.random.default_rng(23)
        verdicts = []
        for _ in range(5000):
            kind = rng.integers(4)
            scale = 10.0 ** rng.uniform(-14, 3)
            if kind == 0:
                m = rng.normal(0.0, scale, size=(2, 2))
            elif kind == 1:
                # Symmetric up to an asymmetry around the 1e-9 tolerance.
                m = rng.normal(0.0, scale, size=(2, 2))
                m[1, 0] = m[0, 1] + rng.choice([-1, 1]) * 1e-9 * (1.0 + rng.normal(0.0, 1e-3))
            else:
                # Rotated diagonal with its smaller eigenvalue near -1e-12.
                theta = rng.uniform(-math.pi, math.pi)
                c, s = math.cos(theta), math.sin(theta)
                rot = np.array([[c, -s], [s, c]])
                small = -1e-12 * (1.0 + rng.normal(0.0, 1e-2)) if kind == 2 else rng.normal(0.0, 1e-12)
                m = rot @ np.diag([scale, small]) @ rot.T
            packet = cov_packet(as_cov(m.tolist()))
            got = decision(check_packet, packet)
            assert got == decision(check_packet_reference, packet), m.tolist()
            verdicts.append(got)
        assert set(verdicts) == {
            None,
            "packet covariance is not symmetric",
            "packet covariance is not positive semi-definite",
        }

    def test_random_packets(self):
        # Whole packets, as packetize builds them, and with one number
        # spoiled: both checks agree on each.
        rng = np.random.default_rng(29)
        for k in range(100):
            packets = packetize_tracks(0.125 * k, random_tick(rng))
            assert _packet_faults(packets) == [None] * len(packets)
            for packet in packets:
                assert decision(check_packet, packet) is None
                assert decision(check_packet_reference, packet) is None
                bad = float(rng.choice([math.nan, math.inf, -1e-3, 1e308]))
                (a, b), (c, _) = packet.pose_covariance.tolist()
                spoiled = dataclasses.replace(
                    packet, pose_covariance=read_only([[a, b], [c, bad]], (2, 2))
                )
                got = decision(check_packet, spoiled)
                assert got is not None or bad == 1e308
                assert got == decision(check_packet_reference, spoiled)
                assert _packet_faults([*packets, spoiled, *packets]) == (
                    [None] * len(packets) + [got] + [None] * len(packets)
                )


class TestWireFormat:
    def test_exact_field_names(self):
        packet = cav_packet("cav0", 0.25, PlatformPose(1, 2, 0.1, 0.5), [local_track(3, 0.5, 0.5)])
        wire = packet_to_wire(packet)
        assert sorted(wire) == ["platform_id", "pose", "pose_cov", "t", "tracks"]
        assert sorted(wire["pose"]) == ["theta", "v", "x", "y"]
        assert sorted(wire["tracks"][0]) == ["class", "cov", "id", "mu"]

    def test_line_round_trip(self):
        packet = cav_packet(
            "cav1", 0.375, PlatformPose(-1, 0.5, 2.0, 0.25), [local_track(9, 1.5, -0.25)]
        )
        again = packet_from_wire(json.loads(json.dumps(packet_to_wire(packet))))
        assert packet_bits(again) == packet_bits(packet)

    def test_random_packets_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(37)
        seen = 0
        for k in range(50):
            for packet in packetize_tracks(0.125 * k, random_tick(rng)):
                again = packet_from_wire(json.loads(json.dumps(packet_to_wire(packet))))
                assert packet_bits(again) == packet_bits(packet)
                seen += len(packet.track_ids)
        assert seen > 100

    def test_nonfinite_rejected(self):
        packet = pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0))
        bad_x = packet_to_wire(packet)
        bad_x["pose"]["x"] = float("nan")
        bad_t = packet_to_wire(packet)
        bad_t["t"] = float("nan")
        for wire in (bad_x, bad_t):
            with pytest.raises(PacketError):
                packet_from_wire(json.loads(json.dumps(wire)))

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
            tracks=[((1.0, 1.0), ((0.01, 0), (0, 0.01)))],
        )
        wire = packet_to_wire(packet)
        if field == "cov":
            wire["tracks"][0]["cov"] = matrix
        else:
            wire["pose_cov"] = matrix
        with pytest.raises(PacketError):
            packet_from_wire(json.loads(json.dumps(wire)))

    def test_malformed_rejected(self):
        with pytest.raises(PacketError):
            packet_from_wire(json.loads('{"platform_id": "x", "t": 0}'))


class TestGlobalFusion:
    def test_single_platform_track_passthrough(self):
        fusion = GlobalFusion(DT)
        confirmed = []
        for k in range(6):
            packet = pose_packet(
                "cis0",
                k * 0.125,
                PlatformPose(0, 2, -math.pi / 2, 0),
                tracks=[((1.0, 1.0), ((0.01, 0), (0, 0.01)))],
            )
            confirmed = fuse(fusion, [packet], k * 0.125)
        positions = sorted(
            [tuple(np.round(t.estimate.mean[:2], 2)) for t in confirmed]
        )
        assert (1.0, 1.0) in positions

    def test_two_platforms_shrink_covariance(self):
        def run(platforms):
            fusion = GlobalFusion(DT)
            confirmed = []
            for k in range(8):
                packets = [
                    pose_packet(
                        pid,
                        k * 0.125,
                        PlatformPose(4, 3, 0, 0),
                        tracks=[((1.0, 0.0), ((0.05, 0), (0, 0.05)))],
                    )
                    for pid in platforms
                ]
                confirmed = vehicle_tracks(fuse(fusion, packets, k * 0.125))
            assert len(confirmed) == 1
            return float(np.trace(confirmed[0].estimate.covariance[:2, :2]))

        assert run(["cav0", "cav1"]) < run(["cav0"])

    def test_confident_source_dominates_fused_mean(self):
        # one tight source and one loose source reporting the same object at
        # different positions: the fused mean must sit closer to the tight one
        fusion = GlobalFusion(DT)
        confirmed = []
        for k in range(8):
            packets = [
                pose_packet(
                    "cis0",
                    k * 0.125,
                    PlatformPose(0, 4, 0, 0),
                    tracks=[((1.0, 0.0), ((0.004, 0), (0, 0.004)))],
                ),
                pose_packet(
                    "cav1",
                    k * 0.125,
                    PlatformPose(3, 3, 0, 0.5),
                    tracks=[((1.3, 0.0), ((0.09, 0), (0, 0.09)))],
                ),
            ]
            confirmed = vehicle_tracks(fuse(fusion, packets, k * 0.125))
        assert len(confirmed) == 1
        x = confirmed[0].estimate.mean[0]
        # gain-ratio oracle: steady-state mean sits near the information blend
        blend = (1.0 / 0.004 * 1.0 + 1.0 / 0.09 * 1.3) / (1.0 / 0.004 + 1.0 / 0.09)
        assert abs(x - blend) < abs(x - 1.3)
        assert abs(x - 1.0) < 0.1

    def test_platform_pose_is_tracked(self):
        fusion = GlobalFusion(DT)
        confirmed = []
        for k in range(6):
            packet = pose_packet("cav0", k * 0.125, PlatformPose(2.0, -1.0, 0.3, 0.0), 1e-4)
            confirmed = fuse(fusion, [packet], k * 0.125)
        assert len(confirmed) == 1
        assert confirmed[0].estimate.mean[:2] == pytest.approx([2.0, -1.0], abs=0.01)

    def test_confirmed_record_is_detached(self):
        fusion = GlobalFusion(DT)
        for k in range(4):
            fusion.ingest([pose_packet("cav0", k * 0.125, PlatformPose(2.0, -1.0, 0.3, 0.0), 1e-4)])
            record = fusion.step(k * 0.125)
        held = table_bits(fusion.table)
        assert record.counts == [1] and record.ids == fusion.table.ids
        for column in record[3:]:
            column[:] = 123
        record.ids.append(7)
        assert table_bits(fusion.table) == held

    def test_duplicate_packet_latest_wins(self):
        early = pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0), 1e-4)
        late = pose_packet("cav0", 0.06, PlatformPose(1, 1, 0, 0), 1e-4)
        # in either arrival order the newer packet is fused and the other
        # one is counted as a duplicate
        for arrivals in ((early, late), (late, early)):
            fusion = GlobalFusion(DT)
            fusion.ingest(arrivals)
            assert fusion.duplicate_packets == 1
            fusion.step(0.125)
            (track,) = rsu_tracks(fusion)
            assert track.estimate.mean[:2] == pytest.approx([1, 1], abs=1e-6)

    def test_stale_packet_dropped_and_counted(self):
        fusion = GlobalFusion(DT)
        fusion.step(10.0)
        fusion.ingest([pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0))])
        assert fusion.late_packets == 1
        fusion.step(10.125)
        assert rsu_tracks(fusion) == []

    def test_late_window_is_the_given_period(self):
        fusion, cav0_alone = GlobalFusion(0.25), GlobalFusion(0.25)
        fusion.step(10.0)
        fusion.ingest(
            [
                pose_packet("cav0", 9.75, PlatformPose(0, 0, 0, 0)),
                pose_packet("cav1", 9.75 - 1e-9, PlatformPose(3, 3, 0, 0)),
            ]
        )
        assert fusion.late_packets == 1
        fusion.step(10.25)
        # cav0's packet alone made the one track.
        cav0_alone.step(10.0)
        cav0_alone.ingest([pose_packet("cav0", 9.75, PlatformPose(0, 0, 0, 0))])
        cav0_alone.step(10.25)
        assert fusion.table.ids == [0]
        assert table_bits(fusion.table) == table_bits(cav0_alone.table)

    @pytest.mark.parametrize("timestamp", [5.0, 10.0])
    def test_backwards_or_repeated_step_rejected(self, timestamp):
        fusion, cav0_alone = GlobalFusion(DT), GlobalFusion(DT)
        fusion.ingest([pose_packet("cav0", 10.0, PlatformPose(0, 0, 0, 0))])
        fusion.step(10.0)
        held = rsu_tracks(fusion)
        fusion.ingest([pose_packet("cav0", 10.125, PlatformPose(0.01, 0, 0, 0))])
        with pytest.raises(StaleFrameError):
            fusion.step(timestamp)
        # nothing moved: the late-packet window, the inbox and the tracks
        fusion.ingest([pose_packet("cav1", 4.9, PlatformPose(3, 3, 0, 0))])
        assert fusion.late_packets == 1
        for track, estimate in zip(rsu_tracks(fusion), held):
            np.testing.assert_array_equal(track.estimate.mean, estimate.estimate.mean)
        fusion.step(10.125)
        # cav0's two packets alone made the one track.
        for t, x in ((10.0, 0.0), (10.125, 0.01)):
            cav0_alone.ingest([pose_packet("cav0", t, PlatformPose(x, 0, 0, 0))])
            cav0_alone.step(t)
        assert table_bits(fusion.table) == table_bits(cav0_alone.table)
        assert rsu_tracks(fusion)[0].frames_seen == 2

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_rejected(self, timestamp):
        fusion = GlobalFusion(DT)
        fusion.step(10.0)
        with pytest.raises(ValueError):
            fusion.step(timestamp)
        # the rejected tick leaves the late-packet window where it was
        fusion.ingest([pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0))])
        assert fusion.late_packets == 1

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
            tracks=[((1.0, 1.0), ((0.01, 0), (0, 0.01)))],
        )
        bad = pose_packet("cav1", t, PlatformPose(3, 3, 0, 0), tracks=[(mean, cov)])
        fusion, cis0_alone = GlobalFusion(DT), GlobalFusion(DT)
        fusion.ingest([good, bad])
        fusion.step(0.0)
        assert fusion.invalid_packets == 1
        positions = sorted(tuple(track.estimate.mean[:2]) for track in rsu_tracks(fusion))
        assert positions == [(0.0, 2.0), (1.0, 1.0)]
        # cis0's packet alone made both tracks.
        cis0_alone.ingest([good])
        cis0_alone.step(0.0)
        assert table_bits(fusion.table) == table_bits(cis0_alone.table)


class TestBatchedIngest:
    """``ingest`` of a tick's packets at once against the packet-by-packet
    reference: the same inbox, packet for packet, and the same counters."""

    @staticmethod
    def ingest_both(batch, last_step=10.0):
        fusion, reference = GlobalFusion(DT), GlobalFusion(DT)
        for rsu in (fusion, reference):
            rsu.step(last_step)
        fusion.ingest(batch)
        ingest_reference(reference, batch)
        assert list(fusion._inbox.items()) == list(reference._inbox.items())
        counters = ("invalid_packets", "late_packets", "duplicate_packets")
        assert [getattr(fusion, c) for c in counters] == [getattr(reference, c) for c in counters]
        return fusion

    def test_empty_batch_is_a_no_op(self):
        fusion = GlobalFusion(DT)
        held = pose_packet("cav0", 0.0, PlatformPose(0, 0, 0, 0))
        fusion.ingest([held])
        fusion.ingest([])
        assert fusion._inbox == {"cav0": held}
        assert (fusion.invalid_packets, fusion.late_packets, fusion.duplicate_packets) == (0, 0, 0)
        assert self.ingest_both([])._inbox == {}

    def test_invalid_late_and_duplicate(self):
        rng = np.random.default_rng(43)
        pose = PlatformPose(1, 1, 0, 0)
        older = pose_packet("cav9", 10.0, pose, tracks=[((1.0, 0.0), ((0.1, 0), (0, 0.1)))])
        newer = pose_packet("cav9", 10.1, pose)
        invalid = pose_packet("cav8", 10.1, pose, tracks=[((1.0, 0.0), ((0.1, 0.5), (0, 0.1)))])
        late = pose_packet("cav7", 10.0 - DT - 1e-9, pose)
        for _ in range(20):
            good = packetize_tracks(10.125, random_tick(rng))
            batch = [*good, invalid, late, newer, older]
            for order in (batch, batch[::-1], [batch[i] for i in rng.permutation(len(batch))]):
                fusion = self.ingest_both(order)
                assert fusion.invalid_packets == 1 and fusion.late_packets == 1
                assert fusion.duplicate_packets == 1
                assert fusion._inbox["cav9"] is newer
                assert "cav8" not in fusion._inbox and "cav7" not in fusion._inbox
                assert all(fusion._inbox[p.platform_id] is p for p in good)

    def test_only_the_bad_packet_is_dropped(self):
        rng = np.random.default_rng(47)
        for bad in (math.nan, math.inf, -1e-3):
            good = packetize_tracks(10.125, random_tick(rng))
            spoiled = pose_packet("cav8", 10.125, PlatformPose(0, 0, 0, 0), pose_var=bad)
            fusion = self.ingest_both([*good, spoiled, *good[::-1]])
            assert fusion.invalid_packets == 1
            assert fusion.duplicate_packets == len(good)
            assert sorted(fusion._inbox) == sorted(p.platform_id for p in good)


def drifting_ticks(seed, n_ticks):
    """Per tick, the packets of three CAVs whose local tracks drift a little
    each tick, each track missing from one tick in ten."""
    rng = np.random.default_rng(seed)
    poses = [PlatformPose(*rng.normal(0.0, 5.0, 2), random_heading(rng), 0.5) for _ in range(3)]
    covs = localization_covariances(poses, LON, LAT)
    starts = [rng.normal(0.0, 3.0, (int(rng.integers(1, 5)), 2)) for _ in poses]
    ticks = []
    for k in range(n_ticks):
        platforms = [
            (
                f"cav{i}",
                pose,
                cov,
                [
                    local_track(j, *(xy + 0.05 * k + rng.normal(0.0, 0.02, 2)))
                    for j, xy in enumerate(start)
                    if rng.random() > 0.1
                ],
            )
            for i, (pose, cov, start) in enumerate(zip(poses, covs, starts))
        ]
        ticks.append(packetize_tracks(DT * (k + 1), platforms))
    return ticks


class TestPlans:
    def test_warm_and_cleared_caches_give_equal_bits(self):
        ticks = drifting_ticks(61, 40)
        clear_plans()
        warm = GlobalFusion(DT)
        held = []
        for k, packets in enumerate(ticks):
            warm.ingest(packets)
            held.append((table_bits(warm.step(DT * (k + 1))), table_bits(warm.table)))
        assert _frame_plan.cache_info().hits > 0 and _pose_plan.cache_info().hits > 0
        assert any(warm.table.confirmed)
        cold = GlobalFusion(DT)
        for k, (packets, bits) in enumerate(zip(ticks, held)):
            clear_plans()
            cold.ingest(packets)
            assert (table_bits(cold.step(DT * (k + 1))), table_bits(cold.table)) == bits


class TestRsuObservations:
    def test_matches_tuple_reference_bit_for_bit(self):
        rng = np.random.default_rng(53)
        sizes = set()
        for k in range(100):
            packets = packetize_tracks(0.125 * k, random_tick(rng))
            packets.sort(key=lambda p: p.platform_id)
            sizes.update(len(p.track_ids) for p in packets)
            got, want = _observations(packets), rsu_batch_reference(packets)
            assert got.means.tobytes() == want.means.tobytes()
            assert got.covariances.tobytes() == want.covariances.tobytes()
            assert got.means.shape == want.means.shape
            assert got.covariances.shape == want.covariances.shape
            assert (got.runs, got.classes) == (want.runs, want.classes)
        assert {0, 1, 20} <= sizes

    def test_no_packets(self):
        batch = _observations([])
        assert batch.means.shape == (0, 2) and batch.covariances.shape == (0, 2, 2)
        assert batch.runs == () and batch.classes == []
