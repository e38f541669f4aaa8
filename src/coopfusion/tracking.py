"""Constant turn rate and velocity (CTRV) extended Kalman filter.

The same filter serves both fusion tiers: one predict per frame, then one
position update from whatever observations were associated to the track,
folded into a single equivalent measurement.  State is [x, y, v, psi,
psi_dot]; measurements are 2D positions with their own covariance, so the
observation matrix just selects the first two state components.

Each step takes a tier's whole track list at once: the per-track scalar
work (CTRV motion, Jacobian entries, the 2x2 innovation inverse) runs on
Python floats, and the 5x5 products run as one ``@`` over stacked
(n, 5, 5) arrays.  A stacked ``@`` runs the same inner loop per matrix as a
single product, so every track gets the bits it would get alone;
``np.einsum`` does not, so it is not used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .error_models import GaussianEstimate
from .geometry import symmetrized, wrap_angle

# Below this yaw rate the closed-form turn equations degenerate; switch to
# the constant-velocity limit.
YAW_RATE_EPS = 1e-4

_IDENTITY = np.eye(5)


@dataclass
class TrackEstimate:
    """State mean [x, y, v, psi, psi_dot] with its 5x5 covariance.

    A plain record: the filter steps below keep psi wrapped and the
    covariance symmetric, so nothing is re-checked here.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def copy(self) -> "TrackEstimate":
        return TrackEstimate(self.mean.copy(), self.covariance.copy())


@dataclass(frozen=True)
class ProcessNoiseConfig:
    """Process noise magnitudes and the frame period one predict covers.

    ``sigma_a`` is the one acceleration magnitude: it drives the speed
    state and both position axes.
    """

    sigma_a: float = 0.5
    sigma_psi: float = 0.1
    sigma_psi_dot: float = 0.5
    dt: float = 0.125

    def __post_init__(self):
        for name in ("sigma_a", "sigma_psi", "sigma_psi_dot", "dt"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


@lru_cache(maxsize=32)
def process_noise_matrix(cfg: ProcessNoiseConfig) -> np.ndarray:
    """The 5x5 additive process noise for one predict step, clipped PSD."""
    dt = cfg.dt
    dt2 = dt * dt
    dt3 = dt2 * dt
    dt4 = dt3 * dt
    va = cfg.sigma_a**2
    q = np.array(
        [
            [dt4 / 4.0 * va, 0.0, dt3 / 2.0 * va, 0.0, 0.0],
            [0.0, dt4 / 4.0 * va, dt3 / 2.0 * va, 0.0, 0.0],
            [dt3 / 2.0 * va, dt3 / 2.0 * va, dt2 * va, 0.0, 0.0],
            [0.0, 0.0, 0.0, dt2 * cfg.sigma_psi**2, 0.0],
            [0.0, 0.0, 0.0, 0.0, dt2 * cfg.sigma_psi_dot**2],
        ]
    )
    # The nominal form couples both position axes to the single speed term,
    # which leaves one slightly negative eigenvalue; clip it so repeated
    # predicts cannot drive the track covariance indefinite.
    q = symmetrized(q)
    eigenvalues, eigenvectors = np.linalg.eigh(q)
    q = symmetrized(eigenvectors @ np.diag(np.clip(eigenvalues, 0.0, None)) @ eigenvectors.T)
    q.setflags(write=False)
    return q


def _ctrv(state: list[float], dt: float) -> tuple[list[float], list[float]]:
    """CTRV motion of one state on Python floats, and its Jacobian as 25
    floats in row-major order."""
    x, y, v, psi, psi_dot = state
    psi_next = psi + psi_dot * dt
    if abs(psi_dot) >= YAW_RATE_EPS:
        sin_d = math.sin(psi_next) - math.sin(psi)
        cos_d = math.cos(psi) - math.cos(psi_next)
        ratio = v / psi_dot
        x_next = x + ratio * sin_d
        y_next = y + ratio * cos_d
        inv = 1.0 / psi_dot
        j02 = inv * sin_d
        j03 = v * inv * (math.cos(psi_next) - math.cos(psi))
        j04 = v * dt * inv * math.cos(psi_next) - v * inv * inv * sin_d
        j12 = inv * cos_d
        j13 = v * inv * sin_d
        j14 = v * dt * inv * math.sin(psi_next) - v * inv * inv * cos_d
    else:
        # Second-order limits as psi_dot -> 0 keep the Jacobian continuous
        # across the switch.
        cos_p = math.cos(psi)
        sin_p = math.sin(psi)
        x_next = x + v * cos_p * dt
        y_next = y + v * sin_p * dt
        j02 = cos_p * dt
        j03 = -v * sin_p * dt
        j04 = -0.5 * v * sin_p * dt * dt
        j12 = sin_p * dt
        j13 = v * cos_p * dt
        j14 = 0.5 * v * cos_p * dt * dt
    jacobian = [
        1.0, 0.0, j02, j03, j04,
        0.0, 1.0, j12, j13, j14,
        0.0, 0.0, 1.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 1.0, dt,
        0.0, 0.0, 0.0, 0.0, 1.0,
    ]
    return [x_next, y_next, v, wrap_angle(psi_next), psi_dot], jacobian


def ctrv_motion(state: np.ndarray, dt: float) -> np.ndarray:
    """Propagate one state vector through the CTRV motion equations."""
    return np.array(_ctrv(np.asarray(state, dtype=float).tolist(), dt)[0])


def ctrv_jacobian(state: np.ndarray, dt: float) -> np.ndarray:
    """Jacobian of :func:`ctrv_motion` with respect to the state."""
    return np.reshape(_ctrv(np.asarray(state, dtype=float).tolist(), dt)[1], (5, 5))


def ctrv_predict(
    estimates: Sequence[TrackEstimate], cfg: ProcessNoiseConfig
) -> list[TrackEstimate]:
    """One motion-model predict step for a list of tracks.

    Each mean propagates on Python floats; the covariances grow as one
    stacked ``J P J^T + Q``.
    """
    if not estimates:
        return []
    means, jacobians = [], []
    for estimate in estimates:
        mean, jacobian = _ctrv(estimate.mean.tolist(), cfg.dt)
        means.append(mean)
        jacobians.append(jacobian)
    jac = np.array(jacobians).reshape(-1, 5, 5)
    covs = np.array([e.covariance for e in estimates])
    covs = symmetrized(jac @ covs @ jac.swapaxes(1, 2) + process_noise_matrix(cfg))
    return [TrackEstimate(m, c) for m, c in zip(np.array(means), covs)]


def _inverse_2x2(s00: float, s01: float, s10: float, s11: float) -> tuple[float, ...] | None:
    """Row-major inverse of a 2x2 innovation covariance, or None where it is
    singular: a determinant that is not finite or is below 1e-15 of the
    squared scale."""
    det = s00 * s11 - s01 * s10
    scale = max(abs(s00) + abs(s11), 1e-30)
    if not math.isfinite(det) or abs(det) < 1e-15 * scale * scale:
        return None
    return s11 / det, -s01 / det, -s10 / det, s00 / det


def ekf_update(
    estimates: Sequence[TrackEstimate], zs: Sequence[GaussianEstimate]
) -> list[TrackEstimate]:
    """Kalman update of each track's position block from its own observation.

    The 2x2 innovation covariance is tested and inverted per track on
    Python floats.  A track whose innovation covariance is singular or not
    finite keeps its estimate; all others take one stacked gain, state
    update and Joseph-form covariance update.
    """
    updated = list(estimates)
    if not updated:
        return updated
    means = np.array([e.mean for e in estimates])
    covs = np.array([e.covariance for e in estimates])
    rows, inverses, z_covs = [], [], []
    for i, (((p00, p01), (p10, p11)), z) in enumerate(zip(covs[:, :2, :2].tolist(), zs)):
        (r00, r01), (r10, r11) = r = z.covariance.tolist()
        inverse = _inverse_2x2(p00 + r00, p01 + r01, p10 + r10, p11 + r11)
        if inverse is not None:
            rows.append(i)
            inverses.append(inverse)
            z_covs.append(r)
    if not rows:
        return updated
    if len(rows) < len(updated):
        means, covs = means[rows], covs[rows]
    gain = covs[:, :, :2] @ np.array(inverses).reshape(-1, 2, 2)
    innovation = np.array([zs[i].mean for i in rows]) - means[:, :2]
    means = means + (gain @ innovation[:, :, None])[:, :, 0]
    means[:, 3] = wrap_angle(means[:, 3])
    # Joseph form keeps the covariance symmetric PSD under round-off.
    identity_minus_gain = np.empty_like(covs)
    identity_minus_gain[:] = _IDENTITY
    identity_minus_gain[:, :, :2] -= gain
    covs = symmetrized(
        identity_minus_gain @ covs @ identity_minus_gain.swapaxes(1, 2)
        + gain @ np.array(z_covs) @ gain.swapaxes(1, 2)
    )
    for i, mean, cov in zip(rows, means, covs):
        updated[i] = TrackEstimate(mean, cov)
    return updated


def _folded(zs: list[GaussianEstimate]) -> GaussianEstimate:
    """The one position measurement equivalent to several, fused in order.

    Each next observation joins the running one by a 2x2 Kalman step (gain
    ``R_f (R_f + R_i)^-1``, covariance ``R_f - G R_f``), on Python floats
    read once per observation.  One whose sum with the running fold is
    singular (``_inverse_2x2``) is skipped.  The information form is
    not used: a zero covariance is a legal observation and has no inverse.
    """
    mx, my = zs[0].mean.tolist()
    (r00, r01), (r10, r11) = zs[0].covariance.tolist()
    for z in zs[1:]:
        zx, zy = z.mean.tolist()
        (q00, q01), (q10, q11) = z.covariance.tolist()
        inverse = _inverse_2x2(r00 + q00, r01 + q01, r10 + q10, r11 + q11)
        if inverse is None:
            continue
        i00, i01, i10, i11 = inverse
        g00, g01 = r00 * i00 + r01 * i10, r00 * i01 + r01 * i11
        g10, g11 = r10 * i00 + r11 * i10, r10 * i01 + r11 * i11
        dx, dy = zx - mx, zy - my
        mx, my = mx + (g00 * dx + g01 * dy), my + (g10 * dx + g11 * dy)
        r00, r01, r10, r11 = (
            r00 - (g00 * r00 + g01 * r10),
            r01 - (g00 * r01 + g01 * r11),
            r10 - (g10 * r00 + g11 * r10),
            r11 - (g10 * r01 + g11 * r11),
        )
        r01 = r10 = 0.5 * (r01 + r10)
    return GaussianEstimate(np.array([mx, my]), np.array([[r00, r01], [r10, r11]]))


def multi_update(
    estimates: Sequence[TrackEstimate], observations: Sequence[list[GaussianEstimate]]
) -> list[TrackEstimate]:
    """One update per track from all of its frame's observations.

    ``observations[i]`` holds track i's observations in any order; they are
    ordered by source tag.  Every observation measures position
    (H = [I 0]), so k of them fold into one equivalent measurement and all
    tracks with any pay one stacked ``ekf_update``; a single observation is
    used as it is.  A track with none, or whose update fails numerically,
    keeps its estimate.
    """
    rows = [i for i, zs in enumerate(observations) if zs]
    updated = list(estimates)
    if not rows:
        return updated
    folded = [
        zs[0] if len(zs) == 1 else _folded(sorted(zs, key=lambda z: z.source))
        for zs in (observations[i] for i in rows)
    ]
    for i, estimate in zip(rows, ekf_update([estimates[i] for i in rows], folded)):
        updated[i] = estimate
    return updated
