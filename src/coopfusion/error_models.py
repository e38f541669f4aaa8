"""Parameterized sensing/localization error models and oriented 2x2 covariances.

An :class:`ErrorModel` is a polynomial in a single predictor (measured
distance for detection pipelines, measured speed for localizers) that
evaluates to an expected error standard deviation in meters.  A
single-coefficient model ignores its predictor and realizes the fixed (mean)
baseline.  The functions here turn raw polar detections plus a pair of
models into world- or platform-frame Gaussian estimates ready for fusion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import symmetrized, wrap_angle

# Evaluated sigmas are clamped here so calibrated models with slightly
# negative intercepts stay usable as standard deviations.
SIGMA_FLOOR = 1e-6

PREDICTOR_DISTANCE = "distance"
PREDICTOR_SPEED = "speed"
_PREDICTORS = (PREDICTOR_DISTANCE, PREDICTOR_SPEED)

MODEL_FILE_SCHEMA = 1


class ModelError(ValueError):
    """Raised for structurally invalid error models."""


@dataclass(frozen=True)
class ErrorModel:
    """Polynomial mapping a predictor to an expected error standard deviation.

    ``coefficients[k]`` multiplies ``predictor ** k``; a single coefficient
    realizes a fixed (mean) model.
    """

    coefficients: tuple[float, ...]
    predictor: str = PREDICTOR_DISTANCE

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ModelError("error model needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.predictor not in _PREDICTORS:
            raise ModelError(f"unknown predictor kind {self.predictor!r}")

    def to_json_dict(self) -> dict:
        return {"predictor": self.predictor, "coefficients": list(self.coefficients)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ErrorModel":
        try:
            return cls(tuple(obj["coefficients"]), obj["predictor"])
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed error model object: {exc}") from exc


def eval_error_model(model: ErrorModel, predictor_value: float) -> float:
    """Evaluate the polynomial at a predictor value, floored to stay positive."""
    if predictor_value < 0:
        raise ValueError(f"predictor must be non-negative, got {predictor_value}")
    acc = 0.0
    for coeff in reversed(model.coefficients):
        acc = acc * predictor_value + coeff
    return max(acc, SIGMA_FLOOR)


@dataclass(frozen=True)
class PolarObservation:
    """One raw detection from a sensor pipeline: range plus bearing."""

    distance_obs: float
    theta_obs: float
    object_class: str = "vehicle"

    def __post_init__(self):
        if not (self.distance_obs >= 0.0):
            raise ValueError(f"observation distance must be >= 0, got {self.distance_obs}")
        object.__setattr__(self, "theta_obs", float(wrap_angle(self.theta_obs)))


@dataclass(frozen=True)
class SensorPose:
    """Sensor mounting pose relative to the platform rear-axle frame."""

    x_sensor: float = 0.0
    y_sensor: float = 0.0
    theta_sensor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta_sensor", float(wrap_angle(self.theta_sensor)))


@dataclass(frozen=True)
class PlatformPose:
    """Platform pose in the world frame plus measured ground speed."""

    x: float
    y: float
    theta: float
    v: float = 0.0

    def __post_init__(self):
        if not (self.v >= 0.0):
            raise ValueError(f"platform speed must be >= 0, got {self.v}")
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class GaussianEstimate:
    """2D mean and 2x2 covariance, the common currency between stages.

    ``source`` tags where the estimate came from (pipeline or platform id)
    and keeps multi-measurement updates deterministically ordered.  A plain
    record: its inputs were checked where they entered (raw detections,
    model files, platform packets), so it is not re-validated.
    """

    mean: np.ndarray
    covariance: np.ndarray
    source: str = ""
    object_class: str = "vehicle"


def rotated_covariance(sigma_a: float, sigma_b: float, angle: float) -> np.ndarray:
    """2x2 covariance with std-dev ``sigma_a`` along the direction ``angle``
    and ``sigma_b`` across it.

    The ``sigma_a`` eigenvector is (cos(angle), sin(angle)), so the ellipse
    is oriented the way the physical error is generated (along a sensing ray
    or a heading).  Eigenvalues are exactly {sigma_a^2, sigma_b^2}.
    """
    if not (sigma_a > 0.0 and sigma_b > 0.0):
        raise ValueError(f"sigmas must be positive, got ({sigma_a}, {sigma_b})")
    c = math.cos(angle)
    s = math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([sigma_a * sigma_a, sigma_b * sigma_b]) @ rot.T
    return symmetrized(cov)


def sensor_to_platform(obs: PolarObservation, pose: SensorPose) -> tuple[np.ndarray, float]:
    """Convert a polar detection to platform-frame coordinates.

    Returns the 2D position and the bearing of the detection ray in the
    platform frame.
    """
    phi_obs = float(wrap_angle(pose.theta_sensor + obs.theta_obs))
    mu = np.array(
        [
            pose.x_sensor + obs.distance_obs * math.cos(phi_obs),
            pose.y_sensor + obs.distance_obs * math.sin(phi_obs),
        ]
    )
    return mu, phi_obs


def observation_estimate(
    obs: PolarObservation,
    pose: SensorPose,
    distal: ErrorModel,
    perp: ErrorModel,
    source: str = "",
) -> GaussianEstimate:
    """Platform-frame Gaussian for one detection, with distance-driven covariance."""
    if distal.predictor != PREDICTOR_DISTANCE or perp.predictor != PREDICTOR_DISTANCE:
        raise ModelError("observation models must use the distance predictor")
    mu, phi_obs = sensor_to_platform(obs, pose)
    sigma_distal = eval_error_model(distal, obs.distance_obs)
    sigma_perp = eval_error_model(perp, obs.distance_obs)
    cov = rotated_covariance(sigma_distal, sigma_perp, phi_obs)
    return GaussianEstimate(mu, cov, source=source, object_class=obs.object_class)


def localization_covariance(
    pose: PlatformPose, longitudinal: ErrorModel, lateral: ErrorModel
) -> np.ndarray:
    """2x2 localization covariance at the platform's measured speed and heading."""
    if longitudinal.predictor != PREDICTOR_SPEED or lateral.predictor != PREDICTOR_SPEED:
        raise ModelError("localization models must use the speed predictor")
    sigma_lon = eval_error_model(longitudinal, pose.v)
    sigma_lat = eval_error_model(lateral, pose.v)
    return rotated_covariance(sigma_lon, sigma_lat, pose.theta)


@dataclass(frozen=True)
class ModelSet:
    """The six named models one platform fleet needs: two per sensor, two for the localizer."""

    camera_distal: ErrorModel
    camera_perpendicular: ErrorModel
    lidar_distal: ErrorModel
    lidar_perpendicular: ErrorModel
    localizer_longitudinal: ErrorModel
    localizer_lateral: ErrorModel

    def __post_init__(self):
        for name in ("camera_distal", "camera_perpendicular", "lidar_distal", "lidar_perpendicular"):
            if getattr(self, name).predictor != PREDICTOR_DISTANCE:
                raise ModelError(f"{name} must use the distance predictor")
        for name in ("localizer_longitudinal", "localizer_lateral"):
            if getattr(self, name).predictor != PREDICTOR_SPEED:
                raise ModelError(f"{name} must use the speed predictor")

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name).to_json_dict() for name in model_names()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSet":
        missing = [name for name in model_names() if name not in obj]
        if missing:
            raise ModelError(f"model set is missing entries: {missing}")
        return cls(**{name: ErrorModel.from_json_dict(obj[name]) for name in model_names()})


def model_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(ModelSet))


def save_model_set(model_set: ModelSet, path: str | Path) -> None:
    payload = {"schema": MODEL_FILE_SCHEMA, "models": model_set.to_json_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model_set(path: str | Path) -> ModelSet:
    obj = json.loads(Path(path).read_text())
    if obj.get("schema") != MODEL_FILE_SCHEMA:
        raise ModelError(f"unsupported model file schema: {obj.get('schema')!r}")
    return ModelSet.from_json_dict(obj["models"])


def _distance_model(*coefficients: float) -> ErrorModel:
    return ErrorModel(tuple(coefficients), PREDICTOR_DISTANCE)


def _speed_model(*coefficients: float) -> ErrorModel:
    return ErrorModel(tuple(coefficients), PREDICTOR_SPEED)


# Calibration of the 1/10-scale testbed sensors.  The parameterized set is
# also the default truth-noise source in the simulator; the fixed set is the
# matching mean-error baseline.
DEFAULT_PARAMETERIZED_MODELS = ModelSet(
    camera_distal=_distance_model(0.0126, 0.0517),
    camera_perpendicular=_distance_model(0.023, 0.0117),
    lidar_distal=_distance_model(0.0607, 0.0165),
    lidar_perpendicular=_distance_model(0.0361, 0.0097),
    localizer_longitudinal=_speed_model(0.0428, 0.0782),
    localizer_lateral=_speed_model(0.0241, 0.0841),
)

DEFAULT_FIXED_MODELS = ModelSet(
    camera_distal=_distance_model(0.0881),
    camera_perpendicular=_distance_model(0.0401),
    lidar_distal=_distance_model(0.0848),
    lidar_perpendicular=_distance_model(0.0503),
    localizer_longitudinal=_speed_model(0.0663),
    localizer_lateral=_speed_model(0.0493),
)
