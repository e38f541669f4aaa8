"""Fitting error models from matched (predictor, error) samples.

The regression target is the absolute component error.  For zero-mean
Gaussian component errors the mean absolute error is sigma * sqrt(2/pi), so
pipelines that need the model to act as a standard deviation apply the
half-normal factor via :func:`fit_sigma_model`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .error_models import PREDICTOR_DISTANCE, ErrorModel

# E|e| = sigma * sqrt(2/pi) for e ~ N(0, sigma^2); multiply an absolute-error
# fit by this to recover sigma.
HALF_NORMAL_FACTOR = math.sqrt(math.pi / 2.0)

_UNMATCHABLE = 1e9


class DegenerateFitError(ValueError):
    """Raised when the design matrix cannot support the requested degree."""


@dataclass(frozen=True)
class ErrorSample:
    """One matched sample: predictor value and the signed component error."""

    predictor: float
    error: float

    def __post_init__(self):
        if not (self.predictor >= 0.0):
            raise ValueError(f"predictor must be >= 0, got {self.predictor}")
        if not math.isfinite(self.error):
            raise ValueError("error must be finite")


class LabeledSample(NamedTuple):
    """A sample plus its provenance, as stored in CSV logs."""

    predictor: float
    error: float
    component: str
    source: str


def fit_error_model(
    samples: Sequence[ErrorSample], degree: int = 1, predictor: str = PREDICTOR_DISTANCE
) -> ErrorModel:
    """Least-squares polynomial fit of |error| against the predictor.

    Solves the normal equations directly; a rank-deficient design (e.g. all
    predictors equal with degree >= 1) raises :class:`DegenerateFitError`.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if len(samples) <= degree + 1:
        raise ValueError(f"need more than {degree + 1} samples for degree {degree}")
    xs = np.array([s.predictor for s in samples])
    ys = np.abs(np.array([s.error for s in samples]))
    design = np.vander(xs, degree + 1, increasing=True)
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise DegenerateFitError(
            "design matrix is rank deficient (constant predictor?); try degree 0"
        )
    coeffs = np.linalg.solve(gram, design.T @ ys)
    return ErrorModel(tuple(coeffs), predictor)


def fit_sigma_model(
    samples: Sequence[ErrorSample], degree: int = 1, predictor: str = PREDICTOR_DISTANCE
) -> ErrorModel:
    """Like :func:`fit_error_model`, rescaled so the model predicts a std-dev."""
    raw = fit_error_model(samples, degree, predictor)
    return ErrorModel(tuple(c * HALF_NORMAL_FACTOR for c in raw.coefficients), predictor)


def fit_fixed_model(
    samples: Sequence[ErrorSample], predictor: str = PREDICTOR_DISTANCE
) -> ErrorModel:
    """Degree-0 baseline: the mean absolute error, ignoring the predictor."""
    if not samples:
        raise ValueError("cannot fit a fixed model to zero samples")
    mean_abs = float(np.mean([abs(s.error) for s in samples]))
    return ErrorModel((mean_abs,), predictor)


def fit_quality(samples: Sequence[ErrorSample], model: ErrorModel) -> float:
    """Coefficient of determination of a model against |error| samples."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for a fit quality")
    xs = np.array([s.predictor for s in samples])
    ys = np.abs(np.array([s.error for s in samples]))
    ss_total = float(np.sum((ys - ys.mean()) ** 2))
    if ss_total == 0.0:
        raise ValueError("total variance is zero; fit quality is undefined")
    coeffs = np.array(model.coefficients)
    predicted = np.vander(xs, len(coeffs), increasing=True) @ coeffs
    ss_residual = float(np.sum((ys - predicted) ** 2))
    return 1.0 - ss_residual / ss_total


@dataclass
class MatchResult:
    """Assignment of observations to ground-truth positions plus error samples."""

    pairs: list[tuple[int, int]]
    distal_samples: list[ErrorSample]
    perpendicular_samples: list[ErrorSample]
    unmatched_observations: list[int]
    unmatched_truth: list[int]


def match_observations_to_truth(
    observations: Sequence[np.ndarray],
    truth: Sequence[np.ndarray],
    max_dist: float = 0.5,
) -> MatchResult:
    """Globally match observations to truth points, minimizing total distance.

    Both inputs are 2D points in a common frame with the sensor at the
    origin.  The assignment maximizes the number of pairs within
    ``max_dist`` and, among those, minimizes the summed distance.  Matched
    pairs yield error components along and across the sensor-to-truth ray,
    with the measured distance as the predictor.
    """
    n, m = len(observations), len(truth)
    pairs: list[tuple[int, int]] = []
    if n and m:
        obs_xy = np.asarray(observations, dtype=float).reshape(n, 2)
        truth_xy = np.asarray(truth, dtype=float).reshape(m, 2)
        dist = np.hypot(obs_xy[:, None, 0] - truth_xy[:, 0], obs_xy[:, None, 1] - truth_xy[:, 1])
        cost = np.where(dist <= max_dist, dist, _UNMATCHABLE)
        rows, cols = linear_sum_assignment(cost)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < _UNMATCHABLE]

    distal_samples = []
    perpendicular_samples = []
    for i, j in pairs:
        obs = np.asarray(observations[i], dtype=float)
        tru = np.asarray(truth[j], dtype=float)
        measured_distance = float(np.hypot(obs[0], obs[1]))
        norm = float(np.hypot(tru[0], tru[1]))
        ray = tru / norm if norm > 0 else np.array([1.0, 0.0])
        delta = obs - tru
        distal_samples.append(ErrorSample(measured_distance, float(delta @ ray)))
        perpendicular_samples.append(
            ErrorSample(measured_distance, float(delta[0] * -ray[1] + delta[1] * ray[0]))
        )

    matched_obs = {i for i, _ in pairs}
    matched_truth = {j for _, j in pairs}
    return MatchResult(
        pairs=pairs,
        distal_samples=distal_samples,
        perpendicular_samples=perpendicular_samples,
        unmatched_observations=[i for i in range(n) if i not in matched_obs],
        unmatched_truth=[j for j in range(m) if j not in matched_truth],
    )


def write_samples_csv(path: str | Path, rows: Sequence[LabeledSample]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["predictor", "error", "component", "source"])
        for row in rows:
            writer.writerow([repr(row.predictor), repr(row.error), row.component, row.source])


def read_samples_csv(
    path: str | Path, component: str | None = None, source: str | None = None
) -> list[LabeledSample]:
    """Load a sample log, optionally filtered by component and/or source."""
    rows: list[LabeledSample] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        expected = {"predictor", "error", "component", "source"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(f"sample CSV must have columns {sorted(expected)}")
        for record in reader:
            row = LabeledSample(
                float(record["predictor"]),
                float(record["error"]),
                record["component"],
                record["source"],
            )
            if component is not None and row.component != component:
                continue
            if source is not None and row.source != source:
                continue
            rows.append(row)
    return rows


def samples_of(rows: Sequence[LabeledSample]) -> list[ErrorSample]:
    return [ErrorSample(row.predictor, row.error) for row in rows]
