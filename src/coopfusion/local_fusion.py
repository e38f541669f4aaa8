"""Per-platform fusion: sensor frames in, confirmed platform-frame tracks out.

Every observation is first expanded into a Gaussian whose covariance comes
from the pipeline's error models evaluated at the measured distance, then a
predict / JPDA / multi-update cycle runs over the platform's track list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .association import AssociationConfig, Track, associate_frame
from .error_models import ErrorModel, PolarObservation, SensorPose, observation_estimate
from .tracking import ProcessNoiseConfig, ctrv_predict

# Process noise of this tier, tuned so track NEES stays near its dimension on
# simulated scenario trajectories.  Platform-frame tracking sees large
# apparent maneuvers (the observer itself turns and brakes), so this tier
# needs far more slack than a world-frame tier.
PROCESS_NOISE = ProcessNoiseConfig(sigma_a=3.0, sigma_psi=0.1, sigma_psi_dot=3.0)


class StaleFrameError(ValueError):
    """Raised when a frame's time is not finite or not after the last processed one."""


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


@dataclass
class LocalFrame:
    """One synchronized tick of detections, keyed by pipeline name."""

    timestamp: float
    observations: dict[str, list[PolarObservation]] = field(default_factory=dict)


class LocalFusion:
    """Fusion instance owned by a single platform; each predict covers ``dt``."""

    def __init__(self, pipelines: list[SensorPipelineConfig], dt: float):
        names = [p.name for p in pipelines]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pipeline names: {names}")
        self.pipelines = {p.name: p for p in pipelines}
        self.association = AssociationConfig()
        self.noise = replace(PROCESS_NOISE, dt=dt)
        self.tracks: list[Track] = []
        self._ids = itertools.count()
        self._last_timestamp = -math.inf

    def step(self, frame: LocalFrame) -> list[Track]:
        """Process one frame; returns snapshots of the confirmed tracks."""
        if not self._last_timestamp < frame.timestamp < math.inf:
            raise StaleFrameError(
                f"frame at t={frame.timestamp} is not a finite time after t={self._last_timestamp}"
            )
        self._last_timestamp = frame.timestamp

        by_pipeline: dict[str, list] = {}
        for name, pipeline in self.pipelines.items():
            by_pipeline[name] = [
                observation_estimate(
                    obs, pipeline.pose, pipeline.distal_model, pipeline.perp_model, source=name
                )
                for obs in frame.observations.get(name, [])
            ]

        for track, estimate in zip(
            self.tracks, ctrv_predict([t.estimate for t in self.tracks], self.noise)
        ):
            track.estimate = estimate

        self.tracks = associate_frame(
            self.tracks, by_pipeline, self.association, lambda: next(self._ids)
        )
        return self.confirmed_tracks()

    def confirmed_tracks(self) -> list[Track]:
        return [t.snapshot() for t in self.tracks if t.confirmed]
