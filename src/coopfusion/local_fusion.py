"""Local fusion: every platform's sensor frames in, confirmed platform-frame tracks out.

Each platform fuses only its own pipelines into its own tracks, but one
step runs every platform of a run as a batch on one ``TrackTable`` with a
group per platform.  All detections are expanded in one array pass into
Gaussians whose covariance comes from the pipeline's error models
evaluated at the measured distance, then one predict / gate / update
cycle runs over all platforms' tracks, with JPDA enumeration and the
track lifecycle per platform.  A step hands every platform's confirmed
tracks back as one new ``TrackTable``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .association import (
    PLAN_CACHE_SIZE,
    AssociationConfig,
    ObservationBatch,
    StaleFrameError,
    TrackTable,
    associate_frame,
)
from .error_models import (
    ErrorModel,
    PolarObservation,
    SensorPose,
    observation_estimates,
    sensor_table,
)
from .tracking import ProcessNoiseConfig, ctrv_predict

# Process noise of this tier, tuned so track NEES stays near its dimension on
# simulated scenario trajectories.  Platform-frame tracking sees large
# apparent maneuvers (the observer itself turns and brakes), so this tier
# needs far more slack than a world-frame tier.
PROCESS_NOISE = ProcessNoiseConfig(sigma_a=3.0, sigma_psi=0.1, sigma_psi_dot=3.0)


@dataclass(frozen=True)
class SensorPipelineConfig:
    """One sensor-plus-recognizer pipeline as fusion sees it."""

    name: str
    pose: SensorPose
    fov: float
    max_range: float
    distal_model: ErrorModel
    perp_model: ErrorModel

    def __post_init__(self):
        if not (0.0 < self.fov <= 2.0 * math.pi + 1e-12):
            raise ValueError(f"fov must be in (0, 2*pi], got {self.fov}")
        if not (self.max_range > 0.0):
            raise ValueError("max_range must be positive")


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _detection_plan(
    streams: tuple[tuple[int, str], ...], counts: tuple[int, ...]
) -> tuple[np.ndarray, tuple[tuple[int, str, int], ...]]:
    """The plan of a frame whose pipelines, (group, name) in sensor-table
    order, hold these detection counts: every detection's sensor-table row
    (read-only) and the frame's observation runs."""
    rows = np.repeat(np.arange(len(counts)), counts)
    rows.setflags(write=False)
    runs = tuple((g, name, n) for (g, name), n in zip(streams, counts) if n)
    return rows, runs


@dataclass
class LocalFrame:
    """One synchronized tick of a platform's detections, keyed by pipeline name."""

    timestamp: float
    observations: dict[str, list[PolarObservation]] = field(default_factory=dict)


class LocalFusion:
    """The local tier of every platform of a run; each predict covers ``dt``.

    ``platforms`` maps each platform id to its pipelines.  The tier's state
    is one ``TrackTable`` (``table``) with a group per platform, in that
    order; a platform keeps its own track ids.
    """

    def __init__(self, platforms: Mapping[str, Sequence[SensorPipelineConfig]], dt: float):
        self.pipelines: dict[str, list[SensorPipelineConfig]] = {}
        for pid, pipelines in platforms.items():
            names = [p.name for p in pipelines]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate pipeline names on {pid}: {names}")
            # Association runs source by source in name order.
            self.pipelines[pid] = sorted(pipelines, key=lambda p: p.name)
        # Row r of the sensor table is the r-th pipeline in that order, of
        # group and source self._streams[r].
        self._streams = tuple(
            (g, p.name) for g, pipelines in enumerate(self.pipelines.values()) for p in pipelines
        )
        self._sensors = sensor_table(
            [
                (p.pose, p.distal_model, p.perp_model)
                for pipelines in self.pipelines.values()
                for p in pipelines
            ]
        )
        self.association = AssociationConfig()
        self.noise = replace(PROCESS_NOISE, dt=dt)
        self.table = TrackTable.empty(len(self.pipelines))
        self._next_ids = [itertools.count().__next__ for _ in self.pipelines]
        self._last_timestamp = -math.inf

    def step(self, frames: Mapping[str, LocalFrame]) -> TrackTable:
        """Fuse one frame per platform, all for one time; returns every
        platform's confirmed tracks, platform by platform."""
        times = {frames[pid].timestamp for pid in self.pipelines}
        if len(times) > 1 or not all(self._last_timestamp < t < math.inf for t in times):
            raise StaleFrameError(
                f"frames at t={sorted(times)} are not one finite time after t={self._last_timestamp}"
            )
        self._last_timestamp = max(times, default=self._last_timestamp)

        distances, bearings, classes, counts = [], [], [], []
        for pid, pipelines in self.pipelines.items():
            observations = frames[pid].observations
            for p in pipelines:
                detections = observations.get(p.name, ())
                distances.extend([obs.distance_obs for obs in detections])
                bearings.extend([obs.theta_obs for obs in detections])
                classes.extend([obs.object_class for obs in detections])
                counts.append(len(detections))
        rows, runs = _detection_plan(self._streams, tuple(counts))
        means, covariances = observation_estimates(
            self._sensors, rows, np.array(distances, dtype=float), np.array(bearings, dtype=float)
        )

        self.table = associate_frame(
            self.table,
            ctrv_predict((self.table.means, self.table.covariances), self.noise),
            ObservationBatch(means, covariances, runs, classes),
            self.association,
            self._next_ids,
        )
        return self.table.take(self.table.confirmed.nonzero()[0])
