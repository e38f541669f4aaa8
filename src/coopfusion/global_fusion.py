"""RSU-side fusion: platform packets in, confirmed world-frame tracks out.

``packetize`` turns the local tier's stacked confirmed tracks into every
platform's packet in one pass.  Each incoming local track is widened by its
platform's speed-parameterized localization covariance before entering the
shared JPDA/EKF machinery.  The platform's own reported pose is fed through
as one more observation so that moving platforms are themselves tracked.
A step hands its confirmed tracks back as a one-group ``TrackTable``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .association import (
    PLAN_CACHE_SIZE,
    AssociationConfig,
    ObservationBatch,
    StaleFrameError,
    TrackTable,
    associate_frame,
)
from .error_models import PlatformPose
from .geometry import symmetrized
from .tracking import ProcessNoiseConfig, ctrv_predict

# Process noise of this tier, tuned like local_fusion.PROCESS_NOISE.
PROCESS_NOISE = ProcessNoiseConfig(sigma_a=4.0, sigma_psi=0.1, sigma_psi_dot=4.0)


class PacketError(ValueError):
    """Raised for malformed platform packets."""


@dataclass(frozen=True, eq=False)
class PlatformPacket:
    """Everything one platform reports for one tick.

    Track k has id ``track_ids[k]``, class ``classes[k]``, world-frame mean
    ``means[k]`` (a read-only (k, 2) array) and covariance
    ``covariances[k]`` (read-only (k, 2, 2)); ``pose_covariance`` is the
    read-only 2x2 uncertainty of ``pose``.  Packets compare by identity:
    ``==`` on their arrays has no single truth value.
    """

    platform_id: str
    timestamp: float
    pose: PlatformPose
    pose_covariance: np.ndarray
    track_ids: tuple[str, ...]
    classes: tuple[str, ...]
    means: np.ndarray
    covariances: np.ndarray


def _fault(scalars: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> str | None:
    """The first validity rule the numbers break, or None.

    Every number must be finite; then, covariance by covariance in order,
    each must be symmetric (to 1e-9) and positive semi-definite (to
    -1e-12).  The smallest eigenvalue of 0.5 * (M + M^T) comes in closed
    form, elementwise in the order a 2x2 numpy evaluation takes, so an
    overflowing sum decides the same way (a NaN eigenvalue passes).
    """
    with np.errstate(all="ignore"):
        if not (
            np.isfinite(scalars).all()
            and np.isfinite(means).all()
            and np.isfinite(covariances).all()
        ):
            return "packet contains non-finite numbers"
        a, b, c, d = covariances.reshape(-1, 4).T
        asymmetric = np.abs(b - c) > 1e-9
        s00, s01, s10, s11 = 0.5 * (a + a), 0.5 * (b + c), 0.5 * (c + b), 0.5 * (d + d)
        tr = s00 + s11
        disc = np.maximum(tr * tr - 4.0 * (s00 * s11 - s01 * s10), 0.0)
        bad = asymmetric | (0.5 * (tr - np.sqrt(disc)) < -1e-12)
    if not bad.any():
        return None
    if asymmetric[bad.argmax()]:
        return "packet covariance is not symmetric"
    return "packet covariance is not positive semi-definite"


def _packet_faults(packets: Sequence[PlatformPacket]) -> list[str | None]:
    """Each packet's ``_fault``: its timestamp, pose, track means, and pose
    covariance then track covariances, in that order.

    All packets are tested in one set of array passes; only when some
    packet fails is each tested alone, to say which.
    """
    if not packets:
        return []
    scalars = np.array(
        [(p.timestamp, p.pose.x, p.pose.y, p.pose.theta, p.pose.v) for p in packets], dtype=float
    )
    means = np.concatenate([p.means for p in packets])
    covariances = np.concatenate(
        [np.array([p.pose_covariance for p in packets]), *(p.covariances for p in packets)]
    )
    if _fault(scalars, means, covariances) is None:
        return [None] * len(packets)
    return [
        _fault(row, p.means, np.concatenate([p.pose_covariance[None], p.covariances]))
        for row, p in zip(scalars, packets)
    ]


def check_packet(packet: PlatformPacket) -> None:
    """Raise ``PacketError`` unless every number in the packet is finite and
    every covariance is symmetric (to 1e-9) and positive semi-definite (to
    -1e-12).

    Packets are where platform input enters the RSU, so this is the one
    validity test: ``packet_from_wire`` applies it to one packet and
    ``GlobalFusion.ingest`` to a tick's packets at once, and nothing
    downstream re-checks.
    """
    (fault,) = _packet_faults([packet])
    if fault is not None:
        raise PacketError(fault)


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

    for array in (pose_covs, means, world_covs):
        array.setflags(write=False)
    track_ids = [str(tid) for tid in tracks.ids]
    bounds = list(itertools.accumulate(counts, initial=0))
    return [
        PlatformPacket(
            platform_id=pid,
            timestamp=timestamp,
            pose=pose,
            pose_covariance=pose_cov,
            track_ids=tuple(track_ids[start:stop]),
            classes=tuple(tracks.classes[start:stop]),
            means=means[start:stop],
            covariances=world_covs[start:stop],
        )
        for pid, pose, pose_cov, start, stop in zip(ids, poses, pose_covs, bounds, bounds[1:])
    ]


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
        "pose_cov": packet.pose_covariance.tolist(),
        "tracks": [
            {"id": tid, "mu": mean, "cov": cov, "class": object_class}
            for tid, object_class, mean, cov in zip(
                packet.track_ids,
                packet.classes,
                packet.means.tolist(),
                packet.covariances.tolist(),
            )
        ],
    }


def _read_only(values: list, shape: tuple[int, ...]) -> np.ndarray:
    """A new read-only float array of ``values`` in ``shape``."""
    array = np.array(values, dtype=float).reshape(shape)
    array.setflags(write=False)
    return array


def packet_from_wire(obj: dict) -> PlatformPacket:
    """Parse and validate one wire object back into a packet."""
    try:
        pose = obj["pose"]
        tracks = obj["tracks"]
        packet = PlatformPacket(
            platform_id=str(obj["platform_id"]),
            timestamp=float(obj["t"]),
            pose=PlatformPose(
                float(pose["x"]), float(pose["y"]), float(pose["theta"]), float(pose["v"])
            ),
            pose_covariance=_read_only(
                [float(obj["pose_cov"][r][c]) for r in (0, 1) for c in (0, 1)], (2, 2)
            ),
            track_ids=tuple(str(tr["id"]) for tr in tracks),
            classes=tuple(str(tr["class"]) for tr in tracks),
            means=_read_only([float(tr["mu"][k]) for tr in tracks for k in (0, 1)], (-1, 2)),
            covariances=_read_only(
                [float(tr["cov"][r][c]) for tr in tracks for r in (0, 1) for c in (0, 1)],
                (-1, 2, 2),
            ),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PacketError(f"malformed platform packet: {exc}") from exc
    check_packet(packet)
    return packet


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pose_plan(tracks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the RSU's observations for packets of these track counts,
    as read-only index arrays: every track row, then every pose row, each
    pose going in after its packet's tracks."""
    sizes = np.array(tracks, dtype=np.intp) + 1
    is_pose = np.zeros(sizes.sum(), dtype=bool)
    is_pose[sizes.cumsum() - 1] = True
    track_rows, pose_rows = (~is_pose).nonzero()[0], is_pose.nonzero()[0]
    for rows in (track_rows, pose_rows):
        rows.setflags(write=False)
    return track_rows, pose_rows


def _observations(packets: Sequence[PlatformPacket]) -> ObservationBatch:
    """The RSU's observations of one tick: each packet's tracks, then its
    platform's own pose as one more observation, all of one group with a
    run per packet."""
    tracks = tuple(len(packet.track_ids) for packet in packets)
    track_rows, pose_rows = _pose_plan(tracks)
    means = np.empty((len(track_rows) + len(pose_rows), 2))
    covariances = np.empty((len(means), 2, 2))
    if packets:
        means[track_rows] = np.concatenate([packet.means for packet in packets])
        means[pose_rows] = [(packet.pose.x, packet.pose.y) for packet in packets]
        covariances[track_rows] = np.concatenate([packet.covariances for packet in packets])
        covariances[pose_rows] = [packet.pose_covariance for packet in packets]
    return ObservationBatch(
        means,
        symmetrized(covariances),
        tuple((0, packet.platform_id, n + 1) for packet, n in zip(packets, tracks)),
        [c for packet in packets for c in (*packet.classes, "platform")],
    )


class GlobalFusion:
    """RSU fusion state: a packet inbox plus the world-frame tracks as a
    one-group ``TrackTable`` (``table``).

    ``ingest`` queues a tick's packets, ``step`` drains the inbox for one tick,
    and each predict covers ``dt``.
    """

    def __init__(self, dt: float):
        self.association = AssociationConfig()
        self.noise = replace(PROCESS_NOISE, dt=dt)
        self.table = TrackTable.empty(1)
        self._next_id = itertools.count().__next__
        self._inbox: dict[str, PlatformPacket] = {}
        self._current_time = -math.inf
        self.duplicate_packets = 0
        self.late_packets = 0
        self.invalid_packets = 0

    def ingest(self, packets: Sequence[PlatformPacket]) -> None:
        """Queue a tick's packets for the next step; latest per platform wins.

        The packets are checked together (``check_packet``'s test), then
        taken in order: one that fails is counted as invalid and dropped,
        and so is one more than one frame period (``noise.dt``) older than
        the last fused tick, counted as late.
        """
        for packet, fault in zip(packets, _packet_faults(packets)):
            if fault is not None:
                self.invalid_packets += 1
                continue
            if packet.timestamp < self._current_time - self.noise.dt:
                self.late_packets += 1
                continue
            held = self._inbox.get(packet.platform_id)
            if held is not None:
                self.duplicate_packets += 1
                if packet.timestamp < held.timestamp:
                    continue
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
        self.table = associate_frame(
            self.table,
            ctrv_predict((self.table.means, self.table.covariances), self.noise),
            _observations(packets),
            self.association,
            [self._next_id],
        )
        return self.table.take(self.table.confirmed.nonzero()[0])
