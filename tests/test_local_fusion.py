import math

import numpy as np
import pytest

from coopfusion.error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    PolarObservation,
    SensorPose,
)
from coopfusion.local_fusion import LocalFrame, LocalFusion, SensorPipelineConfig, StaleFrameError

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


class TestStep:
    def test_empty_frame_increments_misses(self):
        fusion = LocalFusion([CAMERA, LIDAR], DT)
        fusion.step(LocalFrame(0.0, {"camera": [polar(1.0)], "lidar": [polar(1.0)]}))
        assert fusion.tracks[0].frames_missed == 0
        fusion.step(LocalFrame(0.125, {}))
        assert fusion.tracks[0].frames_missed == 1

    def test_stale_frame_rejected(self):
        fusion = LocalFusion([CAMERA], DT)
        fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(0.5, {}))

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf])
    def test_non_finite_frame_rejected(self, timestamp):
        fusion = LocalFusion([CAMERA], DT)
        fusion.step(LocalFrame(1.0, {}))
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(timestamp, {}))
        # the rejected frame leaves the ordering check armed
        with pytest.raises(StaleFrameError):
            fusion.step(LocalFrame(0.0, {}))

    def test_stationary_object_confirmed_once(self):
        fusion = LocalFusion([CAMERA, LIDAR], DT)
        confirmed = []
        for frame in frames_of(
            [{"camera": [polar(1.0)], "lidar": [polar(1.0, 0.01)]} for _ in range(20)]
        ):
            confirmed = fusion.step(frame)
        assert len(confirmed) == 1
        assert confirmed[0].estimate.mean[:2] == pytest.approx([1.0, 0.0], abs=0.05)
        assert confirmed[0].sources == {"camera", "lidar"}

    def test_two_pipelines_tighter_than_either_alone(self):
        def run(mask):
            fusion = LocalFusion([CAMERA, LIDAR], DT)
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
        fusion = LocalFusion([CAMERA, LIDAR], DT)
        confirmed = []
        for frame in frames_of(
            [{"camera": [], "lidar": [polar(1.5, math.radians(100))]} for _ in range(10)]
        ):
            confirmed = fusion.step(frame)
        assert len(confirmed) == 1
        assert confirmed[0].sources == {"lidar"}

    def test_unknown_pipeline_names_ignored(self):
        fusion = LocalFusion([CAMERA], DT)
        fusion.step(LocalFrame(0.0, {"radar": [polar(1.0)]}))
        assert fusion.tracks == []


class TestModelModes:
    def run_reduction(self, distal, perp, distance):
        """Covariance-trace reduction from one update on an identical prior."""
        from coopfusion.association import Track
        from coopfusion.tracking import TrackEstimate

        camera = SensorPipelineConfig(
            name="camera",
            pose=SensorPose(),
            fov=math.radians(160),
            max_range=5.0,
            distal_model=distal,
            perp_model=perp,
        )
        fusion = LocalFusion([camera], DT)
        prior = np.diag([0.04, 0.04, 1.0, math.pi**2, 1.0])
        state = np.array([distance, 0, 0, 0, 0], dtype=float)
        fusion.tracks = [Track(id=0, estimate=TrackEstimate(state, prior))]
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
            LocalFusion([CAMERA, CAMERA], DT)

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

    def test_confirmed_snapshot_is_detached(self):
        fusion = LocalFusion([CAMERA], DT)
        for frame in frames_of([{"camera": [polar(1.0)]}] * 3):
            confirmed = fusion.step(frame)
        confirmed[0].estimate.covariance[0, 0] = 123.0
        assert fusion.tracks[0].estimate.covariance[0, 0] != 123.0
