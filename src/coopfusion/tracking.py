"""Constant turn rate and velocity (CTRV) extended Kalman filter.

The same filter serves both fusion tiers: one predict per frame, then one
position update from whatever observations were associated to the track,
folded into a single equivalent measurement.  State is [x, y, v, psi,
psi_dot]; measurements are 2D positions with their own covariance, so the
observation matrix just selects the first two state components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .error_models import GaussianEstimate
from .geometry import symmetrized, wrap_angle

# Below this yaw rate the closed-form turn equations degenerate; switch to
# the constant-velocity limit.
YAW_RATE_EPS = 1e-4


class NumericalError(RuntimeError):
    """Raised when an update cannot be computed (singular innovation)."""


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


def ctrv_motion(state: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a raw state vector through the CTRV motion equations."""
    x, y, v, psi, psi_dot = state
    if abs(psi_dot) >= YAW_RATE_EPS:
        psi_next = psi + psi_dot * dt
        ratio = v / psi_dot
        x_next = x + ratio * (math.sin(psi_next) - math.sin(psi))
        y_next = y + ratio * (math.cos(psi) - math.cos(psi_next))
    else:
        psi_next = psi + psi_dot * dt
        x_next = x + v * math.cos(psi) * dt
        y_next = y + v * math.sin(psi) * dt
    return np.array([x_next, y_next, v, wrap_angle(psi_next), psi_dot])


def ctrv_jacobian(state: np.ndarray, dt: float) -> np.ndarray:
    """Jacobian of :func:`ctrv_motion` with respect to the state."""
    _, _, v, psi, psi_dot = state
    jac = np.eye(5)
    jac[3, 4] = dt
    if abs(psi_dot) >= YAW_RATE_EPS:
        psi_next = psi + psi_dot * dt
        sin_d = math.sin(psi_next) - math.sin(psi)
        cos_d = math.cos(psi) - math.cos(psi_next)
        inv = 1.0 / psi_dot
        jac[0, 2] = inv * sin_d
        jac[0, 3] = v * inv * (math.cos(psi_next) - math.cos(psi))
        jac[0, 4] = v * dt * inv * math.cos(psi_next) - v * inv * inv * sin_d
        jac[1, 2] = inv * cos_d
        jac[1, 3] = v * inv * sin_d
        jac[1, 4] = v * dt * inv * math.sin(psi_next) - v * inv * inv * cos_d
    else:
        # Second-order limits as psi_dot -> 0 keep the Jacobian continuous
        # across the switch.
        cos_p = math.cos(psi)
        sin_p = math.sin(psi)
        jac[0, 2] = cos_p * dt
        jac[0, 3] = -v * sin_p * dt
        jac[0, 4] = -0.5 * v * sin_p * dt * dt
        jac[1, 2] = sin_p * dt
        jac[1, 3] = v * cos_p * dt
        jac[1, 4] = 0.5 * v * cos_p * dt * dt
    return jac


def ctrv_predict(track: TrackEstimate, cfg: ProcessNoiseConfig) -> TrackEstimate:
    """One motion-model predict step: propagate the mean, grow the covariance."""
    jac = ctrv_jacobian(track.mean, cfg.dt)
    cov = jac @ track.covariance @ jac.T + process_noise_matrix(cfg)
    return TrackEstimate(ctrv_motion(track.mean, cfg.dt), symmetrized(cov))


def ekf_update(track: TrackEstimate, z: GaussianEstimate) -> TrackEstimate:
    """Kalman update of the position block from one Gaussian observation."""
    state = track.mean
    cov = track.covariance
    innovation_cov = cov[:2, :2] + z.covariance
    det = (
        innovation_cov[0, 0] * innovation_cov[1, 1]
        - innovation_cov[0, 1] * innovation_cov[1, 0]
    )
    scale = max(abs(innovation_cov[0, 0]) + abs(innovation_cov[1, 1]), 1e-30)
    if not math.isfinite(det) or abs(det) < 1e-15 * scale * scale:
        raise NumericalError("singular innovation covariance")
    inv = (
        np.array(
            [
                [innovation_cov[1, 1], -innovation_cov[0, 1]],
                [-innovation_cov[1, 0], innovation_cov[0, 0]],
            ]
        )
        / det
    )
    gain = cov[:, :2] @ inv
    updated = state + gain @ (z.mean - state[:2])
    updated[3] = wrap_angle(updated[3])
    # Joseph form keeps the covariance symmetric PSD under round-off.
    identity_minus_gain = np.eye(5)
    identity_minus_gain[:, :2] -= gain
    cov_new = identity_minus_gain @ cov @ identity_minus_gain.T + gain @ z.covariance @ gain.T
    return TrackEstimate(updated, symmetrized(cov_new))


def _folded(zs: list[GaussianEstimate]) -> GaussianEstimate:
    """The one position measurement equivalent to several, fused in order.

    Each next observation joins the running one by a 2x2 Kalman step (gain
    ``R_f (R_f + R_i)^-1``, covariance ``R_f - G R_f``), on Python floats
    read once per observation.  One whose sum with the running fold fails
    ``ekf_update``'s singularity test is skipped.  The information form is
    not used: a zero covariance is a legal observation and has no inverse.
    """
    mx, my = zs[0].mean.tolist()
    (r00, r01), (r10, r11) = zs[0].covariance.tolist()
    for z in zs[1:]:
        zx, zy = z.mean.tolist()
        (q00, q01), (q10, q11) = z.covariance.tolist()
        s00, s01, s10, s11 = r00 + q00, r01 + q01, r10 + q10, r11 + q11
        det = s00 * s11 - s01 * s10
        scale = max(abs(s00) + abs(s11), 1e-30)
        if not math.isfinite(det) or abs(det) < 1e-15 * scale * scale:
            continue
        i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
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


def multi_update(track: TrackEstimate, zs: list[GaussianEstimate]) -> TrackEstimate:
    """One update from all of a frame's observations, ordered by source tag.

    Every observation measures position (H = [I 0]), so k of them fold into
    one equivalent measurement and the track pays one Joseph update; a
    single observation is used as it is.  If that update fails numerically
    the track keeps its prediction.
    """
    if not zs:
        return track
    ordered = sorted(zs, key=lambda z: z.source)
    try:
        return ekf_update(track, ordered[0] if len(ordered) == 1 else _folded(ordered))
    except NumericalError:
        return track
