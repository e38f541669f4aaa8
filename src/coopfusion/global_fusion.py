"""RSU-side fusion: platform packets in, confirmed world-frame tracks out.

``packetize`` turns the local tier's stacked confirmed tracks into every
platform's packet in one pass.  Each incoming local track is widened by its
platform's speed-parameterized localization covariance before entering the
shared JPDA/EKF machinery.  The platform's own reported pose is fed through
as one more observation so that moving platforms are themselves tracked.
A step hands its confirmed tracks back as a one-group ``TrackTable``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .association import (
    AssociationConfig,
    ObservationBatch,
    StaleFrameError,
    Track,
    TrackTable,
    associate_frame,
    track_table,
)
from .error_models import PlatformPose
from .geometry import symmetrized
from .tracking import ProcessNoiseConfig, ctrv_predict

# Process noise of this tier, tuned like local_fusion.PROCESS_NOISE.
PROCESS_NOISE = ProcessNoiseConfig(sigma_a=4.0, sigma_psi=0.1, sigma_psi_dot=4.0)


class PacketError(ValueError):
    """Raised for malformed platform packets."""


class PacketTrack(NamedTuple):
    """One local-fusion track as shipped to the RSU, already in world frame.

    A named tuple rather than a frozen dataclass: it is as immutable, and
    ``packetize`` builds one per track without a per-field
    ``object.__setattr__``.
    """

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
        # The smallest eigenvalue of 0.5 * (M + M^T) in closed form, on
        # Python floats in the order a 2x2 numpy evaluation takes, so an
        # overflowing sum decides the same way (a NaN eigenvalue passes).
        a, b = float(cov[0][0]), float(cov[0][1])
        c, d = float(cov[1][0]), float(cov[1][1])
        s00, s01, s10, s11 = 0.5 * (a + a), 0.5 * (b + c), 0.5 * (c + b), 0.5 * (d + d)
        tr = s00 + s11
        disc = max(tr * tr - 4.0 * (s00 * s11 - s01 * s10), 0.0)
        if 0.5 * (tr - math.sqrt(disc)) < -1e-12:
            raise PacketError("packet covariance is not positive semi-definite")


def covariance_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine independent 2x2 covariances (additive union); either may be a stack."""
    return symmetrized(np.asarray(a, dtype=float) + np.asarray(b, dtype=float))


def packetize(
    timestamp: float,
    platforms: Sequence[tuple[str, PlatformPose, np.ndarray]],
    tracks: TrackTable,
) -> list[PlatformPacket]:
    """Every platform's RSU packet for one time, in the order given.

    A platform is (id, pose, pose covariance); its confirmed local tracks
    are its group of ``tracks``, the groups in the platforms' order.  The
    pose covariance is the 2x2 world-frame uncertainty of the pose: a
    mobile platform's speed-driven localization covariance, or a surveyed
    static platform's tiny fixed one.  It widens every track of its
    platform.

    Every track of every platform moves to the world frame in one stacked
    pass: the mean by ``p + R(theta) m``, the position block of the
    covariance by ``R P R^T``, with the same rotation for both.  A stacked
    ``@`` runs the same product per matrix as a single 2x2 ``@``, so a track
    gets the bits it would get in a packet of its own.
    """
    counts = tracks.counts
    if len(platforms) != len(counts):
        raise ValueError(f"{len(platforms)} platforms for {len(counts)} track groups")
    ids, poses, pose_covs = zip(*platforms) if platforms else ((),) * 3
    pose_covs = np.array(pose_covs, dtype=float).reshape(-1, 2, 2)

    headings = np.array([pose.theta for pose in poses])
    c, s = np.cos(headings), np.sin(headings)
    rot = np.repeat(np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2), counts, axis=0)
    positions = np.array([(pose.x, pose.y) for pose in poses]).reshape(-1, 2)
    positions = np.repeat(positions, counts, axis=0)
    blocks = tracks.covariances[:, :2, :2]
    means = positions + (rot @ tracks.means[:, :2, None])[:, :, 0]
    world_covs = covariance_union(
        np.repeat(pose_covs, counts, axis=0),
        symmetrized(rot @ blocks @ rot.swapaxes(1, 2)),
    )

    rows = iter(
        zip(
            tracks.ids,
            tracks.classes,
            np.concatenate([means, world_covs.reshape(-1, 4)], axis=1).tolist(),
        )
    )
    packets = []
    for pid, pose, pose_cov, count in zip(ids, poses, pose_covs.tolist(), counts):
        packet_tracks = tuple(
            PacketTrack(str(tid), (mx, my), ((c00, c01), (c10, c11)), object_class)
            for tid, object_class, (mx, my, c00, c01, c10, c11) in itertools.islice(rows, count)
        )
        packets.append(
            PlatformPacket(
                platform_id=pid,
                timestamp=timestamp,
                pose=pose,
                pose_covariance=(tuple(pose_cov[0]), tuple(pose_cov[1])),
                tracks=packet_tracks,
            )
        )
    return packets


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


class GlobalFusion:
    """RSU fusion state: a packet inbox plus the world-frame track list.

    ``ingest`` queues each packet, ``step`` drains the inbox for one tick,
    and each predict covers ``dt``.
    """

    def __init__(self, dt: float):
        self.association = AssociationConfig()
        self.noise = replace(PROCESS_NOISE, dt=dt)
        self.tracks: list[Track] = []
        self._next_id = itertools.count().__next__
        self._inbox: dict[str, PlatformPacket] = {}
        self._current_time = -math.inf
        self.duplicate_packets = 0
        self.late_packets = 0
        self.invalid_packets = 0

    def ingest(self, packet: PlatformPacket) -> None:
        """Queue one packet for the next tick; latest per platform wins.

        A packet that fails ``check_packet`` is counted as invalid and
        dropped, and so is one more than one frame period
        (``noise.dt``) older than the last fused tick, counted as late.
        """
        try:
            check_packet(packet)
        except PacketError:
            self.invalid_packets += 1
            return
        if packet.timestamp < self._current_time - self.noise.dt:
            self.late_packets += 1
            return
        held = self._inbox.get(packet.platform_id)
        if held is not None:
            self.duplicate_packets += 1
            if packet.timestamp < held.timestamp:
                return
        self._inbox[packet.platform_id] = packet

    def step(self, timestamp: float) -> TrackTable:
        """Fuse everything queued for this tick; returns the confirmed tracks
        as a one-group ``TrackTable``.

        ``timestamp`` must be finite and after the last fused tick, else
        ``StaleFrameError`` is raised and nothing changes.
        """
        if not self._current_time < timestamp < math.inf:
            raise StaleFrameError(
                f"fusion time {timestamp} is not a finite time after t={self._current_time}"
            )
        self._current_time = timestamp
        packets = [self._inbox[pid] for pid in sorted(self._inbox)]
        self._inbox.clear()

        # Each platform reports its tracks, then its own pose as one more
        # observation.
        means, covariances, sources, classes = [], [], [], []
        for packet in packets:
            for tr in packet.tracks:
                means.append(tr.mean)
                covariances.append(tr.covariance)
                classes.append(tr.object_class)
            means.append((packet.pose.x, packet.pose.y))
            covariances.append(packet.pose_covariance)
            classes.append("platform")
            sources.extend([packet.platform_id] * (len(packet.tracks) + 1))
        observations = ObservationBatch(
            np.array(means, dtype=float).reshape(-1, 2),
            symmetrized(np.array(covariances, dtype=float).reshape(-1, 2, 2)),
            [0] * len(sources),
            sources,
            classes,
        )

        for track, estimate in zip(
            self.tracks, ctrv_predict([t.estimate for t in self.tracks], self.noise)
        ):
            track.estimate = estimate

        self.tracks = associate_frame(
            [self.tracks], observations, self.association, [self._next_id]
        )[0]
        return track_table([[t for t in self.tracks if t.confirmed]])
