"""RSU-side fusion: platform packets in, confirmed world-frame tracks out.

Each incoming local track is widened by its platform's speed-parameterized
localization covariance before entering the shared JPDA/EKF machinery.  The
platform's own reported pose is fed through as one more observation so that
moving platforms are themselves tracked.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .association import AssociationConfig, Track, associate_frame
from .error_models import ErrorModel, GaussianEstimate, PlatformPose, localization_covariance
from .geometry import min_eig_2x2, rotation, symmetrized
from .tracking import ProcessNoiseConfig, TrackEstimate, ctrv_predict


class PacketError(ValueError):
    """Raised for malformed platform packets."""


@dataclass(frozen=True)
class PacketTrack:
    """One local-fusion track as shipped to the RSU, already in world frame."""

    id: str
    mean: tuple[float, float]
    covariance: tuple[tuple[float, float], tuple[float, float]]
    object_class: str = "vehicle"


@dataclass(frozen=True)
class PlatformPacket:
    """Everything one platform reports for one tick."""

    platform_id: str
    timestamp: float
    pose: PlatformPose
    pose_covariance: tuple[tuple[float, float], tuple[float, float]]
    tracks: tuple[PacketTrack, ...] = ()


def check_packet(packet: PlatformPacket) -> None:
    """Raise ``PacketError`` unless every number in the packet is finite and
    every covariance is symmetric (to 1e-9) and positive semi-definite (to
    -1e-12).

    Packets are where platform input enters the RSU, so this is the one
    validity test: ``packet_from_wire`` and ``GlobalFusion.ingest`` apply it
    and nothing downstream re-checks.
    """
    pose = packet.pose
    covariances = [packet.pose_covariance, *(tr.covariance for tr in packet.tracks)]
    values = [packet.timestamp, pose.x, pose.y, pose.theta, pose.v]
    for tr in packet.tracks:
        values.extend(tr.mean)
    for cov in covariances:
        for row in cov:
            values.extend(row)
    if not all(math.isfinite(v) for v in values):
        raise PacketError("packet contains non-finite numbers")
    for cov in covariances:
        if abs(cov[0][1] - cov[1][0]) > 1e-9:
            raise PacketError("packet covariance is not symmetric")
        if min_eig_2x2(symmetrized(np.array(cov, dtype=float))) < -1e-12:
            raise PacketError("packet covariance is not positive semi-definite")


def track_to_world(estimate: TrackEstimate, pose: PlatformPose) -> np.ndarray:
    """Rigid transform of a platform-frame track position into the world frame."""
    local = estimate.mean[:2]
    return pose.position + rotation(pose.theta) @ local


def covariance_to_world(covariance: np.ndarray, theta_sp: float) -> np.ndarray:
    """Rotate the 2x2 position block of a 5x5 track covariance by the platform heading.

    Uses the same rigid-body rotation as the mean transform so both moments
    land in the same world frame.
    """
    block = np.asarray(covariance)[:2, :2]
    rot = rotation(theta_sp)
    return symmetrized(rot @ block @ rot.T)


def covariance_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine two independent 2x2 covariances (additive union)."""
    return symmetrized(np.asarray(a, dtype=float) + np.asarray(b, dtype=float))


def _as_cov_tuple(cov: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    return (
        (float(cov[0, 0]), float(cov[0, 1])),
        (float(cov[1, 0]), float(cov[1, 1])),
    )


def packetize(
    platform_id: str,
    timestamp: float,
    pose: PlatformPose,
    local_tracks: list[Track],
    *,
    longitudinal: ErrorModel | None = None,
    lateral: ErrorModel | None = None,
    pose_covariance: np.ndarray | None = None,
) -> PlatformPacket:
    """Assemble one platform's RSU packet.

    Mobile platforms pass their localizer error models; surveyed static
    platforms pass an explicit (tiny) pose covariance instead.
    """
    if pose_covariance is None:
        if longitudinal is None or lateral is None:
            raise ValueError("need either localization models or an explicit pose covariance")
        pose_cov = localization_covariance(pose, longitudinal, lateral)
    else:
        pose_cov = symmetrized(np.asarray(pose_covariance, dtype=float).reshape(2, 2))

    packet_tracks = []
    for track in local_tracks:
        mean = track_to_world(track.estimate, pose)
        world_cov = covariance_to_world(track.estimate.covariance, pose.theta)
        combined = covariance_union(pose_cov, world_cov)
        packet_tracks.append(
            PacketTrack(
                id=str(track.id),
                mean=(float(mean[0]), float(mean[1])),
                covariance=_as_cov_tuple(combined),
                object_class=track.object_class,
            )
        )
    return PlatformPacket(
        platform_id=platform_id,
        timestamp=timestamp,
        pose=pose,
        pose_covariance=_as_cov_tuple(pose_cov),
        tracks=tuple(packet_tracks),
    )


def packet_to_wire(packet: PlatformPacket) -> dict:
    """The packet as its newline-delimited JSON wire object."""
    return {
        "platform_id": packet.platform_id,
        "t": packet.timestamp,
        "pose": {
            "x": packet.pose.x,
            "y": packet.pose.y,
            "theta": packet.pose.theta,
            "v": packet.pose.v,
        },
        "pose_cov": [list(row) for row in packet.pose_covariance],
        "tracks": [
            {
                "id": tr.id,
                "mu": list(tr.mean),
                "cov": [list(row) for row in tr.covariance],
                "class": tr.object_class,
            }
            for tr in packet.tracks
        ],
    }


def packet_from_wire(obj: dict) -> PlatformPacket:
    """Parse and validate one wire object back into a packet."""
    try:
        pose = obj["pose"]
        tracks = tuple(
            PacketTrack(
                id=str(tr["id"]),
                mean=(float(tr["mu"][0]), float(tr["mu"][1])),
                covariance=(
                    (float(tr["cov"][0][0]), float(tr["cov"][0][1])),
                    (float(tr["cov"][1][0]), float(tr["cov"][1][1])),
                ),
                object_class=str(tr["class"]),
            )
            for tr in obj["tracks"]
        )
        packet = PlatformPacket(
            platform_id=str(obj["platform_id"]),
            timestamp=float(obj["t"]),
            pose=PlatformPose(
                float(pose["x"]), float(pose["y"]), float(pose["theta"]), float(pose["v"])
            ),
            pose_covariance=(
                (float(obj["pose_cov"][0][0]), float(obj["pose_cov"][0][1])),
                (float(obj["pose_cov"][1][0]), float(obj["pose_cov"][1][1])),
            ),
            tracks=tracks,
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PacketError(f"malformed platform packet: {exc}") from exc
    check_packet(packet)
    return packet


def packet_to_line(packet: PlatformPacket) -> str:
    return json.dumps(packet_to_wire(packet))


def packet_from_line(line: str) -> PlatformPacket:
    return packet_from_wire(json.loads(line))


@dataclass(frozen=True)
class GlobalFusionConfig:
    """RSU fusion parameters; association defaults match the local tier."""

    association: AssociationConfig = field(default_factory=AssociationConfig)
    noise: ProcessNoiseConfig = field(default_factory=ProcessNoiseConfig)
    include_platform_pose: bool = True


class GlobalFusion:
    """RSU fusion state: a packet inbox plus the world-frame track list.

    ``ingest`` may be called from any thread and never blocks on fusion;
    ``step`` drains a consistent snapshot of the inbox for one tick.
    """

    def __init__(self, config: GlobalFusionConfig | None = None):
        self.config = config or GlobalFusionConfig()
        self.tracks: list[Track] = []
        self._ids = itertools.count()
        self._inbox: dict[str, PlatformPacket] = {}
        self._lock = threading.Lock()
        self._current_time = -math.inf
        self.duplicate_packets = 0
        self.late_packets = 0
        self.invalid_packets = 0

    def ingest(self, packet: PlatformPacket) -> None:
        """Queue one packet for the next tick; latest per platform wins.

        A packet that fails ``check_packet`` is counted as invalid and
        dropped, and so is one more than one frame period
        (``config.noise.dt``) older than the last fused tick, counted as late.
        """
        try:
            check_packet(packet)
        except PacketError:
            with self._lock:
                self.invalid_packets += 1
            return
        with self._lock:
            if packet.timestamp < self._current_time - self.config.noise.dt:
                self.late_packets += 1
                return
            held = self._inbox.get(packet.platform_id)
            if held is not None:
                self.duplicate_packets += 1
                if packet.timestamp < held.timestamp:
                    return
            self._inbox[packet.platform_id] = packet

    def step(self, timestamp: float) -> list[Track]:
        """Fuse everything queued for this tick; returns confirmed snapshots."""
        with self._lock:
            self._current_time = timestamp
            packets = [self._inbox[pid] for pid in sorted(self._inbox)]
            self._inbox.clear()

        by_platform: dict[str, list[GaussianEstimate]] = {}
        for packet in packets:
            observations = [
                GaussianEstimate(
                    np.array(tr.mean),
                    symmetrized(np.array(tr.covariance)),
                    source=packet.platform_id,
                    object_class=tr.object_class,
                )
                for tr in packet.tracks
            ]
            if self.config.include_platform_pose:
                observations.append(
                    GaussianEstimate(
                        packet.pose.position,
                        symmetrized(np.array(packet.pose_covariance)),
                        source=packet.platform_id,
                        object_class="platform",
                    )
                )
            by_platform[packet.platform_id] = observations

        for track in self.tracks:
            track.estimate = ctrv_predict(track.estimate, self.config.noise)

        self.tracks = associate_frame(
            self.tracks, by_platform, self.config.association, lambda: next(self._ids)
        )
        return self.confirmed_tracks()

    def step_with(self, packets: list[PlatformPacket], timestamp: float) -> list[Track]:
        """Convenience for synchronous drivers: ingest then step."""
        for packet in packets:
            self.ingest(packet)
        return self.step(timestamp)

    def confirmed_tracks(self) -> list[Track]:
        return [t.snapshot() for t in self.tracks if t.confirmed]
