"""Parameterized sensing/localization error models and oriented 2x2 covariances.

An :class:`ErrorModel` is a polynomial in a single predictor (measured
distance for detection pipelines, measured speed for localizers) that
evaluates to an expected error standard deviation in meters.  A
single-coefficient model ignores its predictor and realizes the fixed (mean)
baseline.  ``observation_estimates`` turns a frame's raw polar detections,
each with its pipeline's row of a ``SensorTable`` (sensor pose plus both
models), into platform-frame Gaussian estimates in one array pass, and
``localization_covariances`` gives platform poses their world-frame
uncertainty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import cos_sin, symmetrized, wrap_angle

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
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ModelError(f"error model coefficients must be finite, got {self.coefficients}")
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
        # JSON true and false read as the ints 1 and 0.
        if bool in (type(self.distance_obs), type(self.theta_obs)):
            raise TypeError(
                f"observation distance and bearing must be numbers, got "
                f"{self.distance_obs!r}, {self.theta_obs!r}"
            )
        if type(self.object_class) is not str:
            raise TypeError(f"observation class must be a string, got {self.object_class!r}")
        if not (0.0 <= self.distance_obs < math.inf):
            raise ValueError(
                f"observation distance must be finite and >= 0, got {self.distance_obs}"
            )
        if not math.isfinite(self.theta_obs):
            raise ValueError(f"observation bearing must be finite, got {self.theta_obs}")
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
        # JSON true and false read as the ints 1 and 0.
        if bool in (type(self.x), type(self.y), type(self.theta), type(self.v)):
            raise TypeError(
                f"platform pose must hold numbers, got ({self.x!r}, {self.y!r}, "
                f"{self.theta!r}, {self.v!r})"
            )
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(
                f"platform pose must be finite, got ({self.x}, {self.y}, {self.theta})"
            )
        if not (0.0 <= self.v < math.inf):
            raise ValueError(f"platform speed must be finite and >= 0, got {self.v}")
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class GaussianEstimate:
    """A mean and its covariance, the common currency between stages: 2D
    for an observation, the 5-vector state for a ``Track``.

    ``source`` tags where the estimate came from (pipeline or platform id)
    and keeps multi-measurement updates deterministically ordered.  A plain
    record: its inputs were checked where they entered (raw detections,
    model files, platform packets), so it is not re-validated.
    """

    mean: np.ndarray
    covariance: np.ndarray
    source: str = ""
    object_class: str = "vehicle"


def _rotated_covariances(sigmas: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """(n, 2, 2) covariances ``R diag(a^2, b^2) R^T`` from (n, 2) sigma
    rows (a, b) and (n, 2) rows (cos, sin) of R's angle.

    The rotations and variances are built elementwise and multiplied as one
    stacked ``@``, which runs the same product per matrix as a single 2x2
    ``@`` does, so a row gets the same bits in any batch.
    """
    n = len(sigmas)
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = trig[:, 0]
    rot[:, 1, 0] = trig[:, 1]
    rot[:, 0, 1] = -trig[:, 1]
    variances = np.zeros((n, 4))
    variances[:, ::3] = sigmas * sigmas
    return symmetrized(rot @ variances.reshape(n, 2, 2) @ rot.swapaxes(1, 2))


def rotated_covariance(sigma_a: float, sigma_b: float, angle: float) -> np.ndarray:
    """2x2 covariance with std-dev ``sigma_a`` along the direction ``angle``
    and ``sigma_b`` across it.

    The ``sigma_a`` eigenvector is (cos(angle), sin(angle)), so the ellipse
    is oriented the way the physical error is generated (along a sensing ray
    or a heading).  Eigenvalues are exactly {sigma_a^2, sigma_b^2}.
    """
    if not (sigma_a > 0.0 and sigma_b > 0.0):
        raise ValueError(f"sigmas must be positive, got ({sigma_a}, {sigma_b})")
    return _rotated_covariances(
        np.array([[sigma_a, sigma_b]], dtype=float), cos_sin(np.array([angle], dtype=float))
    )[0]


@dataclass(frozen=True)
class SensorTable:
    """What expanding a detection needs of its pipeline, one row per pipeline;
    the simulator keeps its truth models in one too, so both sides evaluate
    their models with the same code.

    ``poses[p]`` is pipeline p's sensor (x, y, theta) in the platform frame;
    ``coefficients[p]`` holds its distal, then its perpendicular model's
    coefficients, zero-padded at the high powers to one width.  A padded
    zero adds ``0.0 * d + 0.0 == 0.0`` ahead of the model's own Horner
    steps, so every sigma keeps the bits of ``eval_error_model``.
    """

    poses: np.ndarray
    coefficients: np.ndarray

    def sigmas(self, rows: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Both models of row ``rows[k]`` at ``distances[k]``, as (m, 2):
        Horner from 0.0, highest power first, floored at ``SIGMA_FLOOR``;
        the elementwise form of ``eval_error_model``."""
        coefficients = self.coefficients.take(rows, axis=0)
        acc = np.zeros(coefficients.shape[:2])
        distances = distances[:, None]
        for k in range(coefficients.shape[2] - 1, -1, -1):
            acc = acc * distances + coefficients[:, :, k]
        return np.maximum(acc, SIGMA_FLOOR)


def sensor_table(pipelines: Sequence[tuple[SensorPose, ErrorModel, ErrorModel]]) -> SensorTable:
    """The table of (sensor pose, distal model, perpendicular model) rows;
    raises ``ModelError`` unless every model uses the distance predictor."""
    models = [model for _, distal, perp in pipelines for model in (distal, perp)]
    if any(model.predictor != PREDICTOR_DISTANCE for model in models):
        raise ModelError("observation models must use the distance predictor")
    width = max((len(model.coefficients) for model in models), default=1)
    coefficients = np.zeros((len(models), width))
    for row, model in zip(coefficients, models):
        row[: len(model.coefficients)] = model.coefficients
    return SensorTable(
        np.array(
            [(pose.x_sensor, pose.y_sensor, pose.theta_sensor) for pose, _, _ in pipelines],
            dtype=float,
        ).reshape(-1, 3),
        coefficients.reshape(-1, 2, width),
    )


def observation_estimates(
    table: SensorTable, pipelines: np.ndarray, distances: np.ndarray, bearings: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Platform-frame means, as an (m, 2) array, and distance-driven
    covariances, as (m, 2, 2), of many detections in one pass.

    Detection k was measured at ``distances[k]`` and ``bearings[k]`` by
    pipeline ``pipelines[k]`` of ``table``.  Its ray's platform-frame
    bearing is the sensor heading plus the measured bearing, wrapped; its
    mean lies along that ray from the sensor, and its covariance has the
    distal std-dev along the ray and the perpendicular one across it, both
    evaluated at the measured distance.  Every step is elementwise, with
    each cosine and sine through ``math``, so a detection gets the bits it
    would get alone.  Raises ``ValueError`` if a distance is negative, as
    ``eval_error_model`` does for a negative predictor.
    """
    if (distances < 0.0).any():
        raise ValueError("detection distances must be non-negative")
    poses = table.poses.take(pipelines, axis=0)
    trig = cos_sin(wrap_angle(poses[:, 2] + bearings))
    means = poses[:, :2] + distances[:, None] * trig
    return means, _rotated_covariances(table.sigmas(pipelines, distances), trig)


def localization_covariances(
    poses: Sequence[PlatformPose], longitudinal: ErrorModel, lateral: ErrorModel
) -> np.ndarray:
    """(n, 2, 2) localization covariances, one per pose, each at the
    platform's measured speed and heading; a pose gets the bits it would
    get alone."""
    if longitudinal.predictor != PREDICTOR_SPEED or lateral.predictor != PREDICTOR_SPEED:
        raise ModelError("localization models must use the speed predictor")
    # eval_error_model floors every sigma at SIGMA_FLOOR, so each is positive.
    sigmas = [(eval_error_model(longitudinal, p.v), eval_error_model(lateral, p.v)) for p in poses]
    return _rotated_covariances(
        np.array(sigmas, dtype=float).reshape(-1, 2),
        cos_sin(np.array([pose.theta for pose in poses], dtype=float)),
    )


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
        if not isinstance(obj, dict):
            raise ModelError("model set must be a JSON object")
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
    if not isinstance(obj, dict):
        raise ModelError("model file must hold a JSON object")
    if obj.get("schema") != MODEL_FILE_SCHEMA:
        raise ModelError(f"unsupported model file schema: {obj.get('schema')!r}")
    return ModelSet.from_json_dict(obj.get("models"))


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
