"""Constant turn rate and velocity (CTRV) extended Kalman filter.

The same filter serves both fusion tiers: one predict per frame, then one
position update from whatever observations were associated to the track,
folded into a single equivalent measurement.  State is [x, y, v, psi,
psi_dot]; measurements are 2D positions with their own covariance, so the
observation matrix just selects the first two state components.

Each step takes every track of a tier at once, as the stacked means and
covariances of its track table.  CTRV motion and its Jacobian entries run
per track on Python floats for a few tracks and as elementwise array
passes for many; the 2x2 innovation inverses and the observation fold run
as elementwise array passes, whose IEEE ``+ - * /`` give each track the
bits of the one-track scalar form (sines and cosines come from ``math``);
and the 5x5 products run as one ``@`` over stacked (n, 5, 5) arrays.  A
stacked ``@`` runs the same inner loop per matrix as a single product, so
every track gets the bits it would get alone; ``np.einsum`` and
reductions such as ``np.add.reduce`` do not, so they are not used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import cos_sin, symmetrized, wrap_angle

# Below this yaw rate the closed-form turn equations degenerate; switch to
# the constant-velocity limit.
YAW_RATE_EPS = 1e-4

_IDENTITY = np.eye(5)
_ADJUGATE_ORDER = np.array([3, 1, 2, 0])
_ADJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


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


# From this many tracks up, CTRV motion and its Jacobian cost less as
# elementwise passes over the stacked means than per track on Python
# floats: timed whole predicts of random tracks cross between 24 and 32
# tracks (10 tracks: 58 us per track loop against 95 us as arrays; 229
# tracks: 1.3 ms against 0.48 ms).  The array passes' fixed cost shows end
# to end: with every predict on arrays, the presets benchmark (local tiers
# of about 10 tracks, RSU tiers of about 4) read tick_ms_iqm 1.643 -> 1.887
# ms against the per-track loop, losing 5 of 5 alternating pairs on 2 CPUs
# (BENCH_14_array_predict.json).
_ARRAY_PREDICT_MIN = 32


def _ctrv_arrays(means: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``_ctrv`` of every row of ``means`` (n, 5) as elementwise passes: the
    moved means (n, 5) and the Jacobians (n, 5, 5).

    The turning formulas run for every row, then rows whose yaw rate is
    below ``YAW_RATE_EPS`` (or NaN) take the straight-line ones; each entry
    takes ``_ctrv``'s IEEE operations in its order, with every sine and
    cosine through ``math``, so a row gets the bits it would get alone.
    """
    x, y, v, psi, psi_dot = means.T
    psi_next = psi + psi_dot * dt
    n = len(means)
    trig = cos_sin(np.concatenate([psi, psi_next]))
    cos_p, cos_n, sin_p, sin_n = trig[:n, 0], trig[n:, 0], trig[:n, 1], trig[n:, 1]
    with np.errstate(all="ignore"):
        sin_d = sin_n - sin_p
        cos_d = cos_p - cos_n
        ratio = v / psi_dot
        inv = 1.0 / psi_dot
        x_next = x + ratio * sin_d
        y_next = y + ratio * cos_d
        j02 = inv * sin_d
        j03 = v * inv * (cos_n - cos_p)
        j04 = v * dt * inv * cos_n - v * inv * inv * sin_d
        j12 = inv * cos_d
        j13 = v * inv * sin_d
        j14 = v * dt * inv * sin_n - v * inv * inv * cos_d
    straight = ~(np.abs(psi_dot) >= YAW_RATE_EPS)
    if straight.any():
        # Second-order limits as psi_dot -> 0, as in _ctrv.
        c, s, w = cos_p[straight], sin_p[straight], v[straight]
        x_next[straight] = x[straight] + w * c * dt
        y_next[straight] = y[straight] + w * s * dt
        j02[straight] = c * dt
        j03[straight] = -w * s * dt
        j04[straight] = -0.5 * w * s * dt * dt
        j12[straight] = s * dt
        j13[straight] = w * c * dt
        j14[straight] = 0.5 * w * c * dt * dt
    jacobians = np.zeros((n, 25))
    jacobians[:, [0, 6, 12, 18, 24]] = 1.0
    jacobians[:, 19] = dt
    jacobians[:, [2, 3, 4, 7, 8, 9]] = np.stack([j02, j03, j04, j12, j13, j14], axis=1)
    moved = np.stack([x_next, y_next, v, wrap_angle(psi_next), psi_dot], axis=1)
    return moved, jacobians.reshape(-1, 5, 5)


def ctrv_predict(
    state: tuple[np.ndarray, np.ndarray], cfg: ProcessNoiseConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One motion-model predict step of stacked tracks.

    ``state`` is the tracks' means (n, 5) and covariances (n, 5, 5); the
    predicted ones come back as new arrays of the same shapes.  The means
    move, and the Jacobians are formed, per track on Python floats, or as
    elementwise passes over the stacked means from ``_ARRAY_PREDICT_MIN``
    tracks up; the covariances grow as one stacked ``J P J^T + Q``.
    """
    means, covs = state
    if not len(means):
        return means.reshape(0, 5), covs.reshape(0, 5, 5)
    if len(means) >= _ARRAY_PREDICT_MIN:
        means, jac = _ctrv_arrays(means, cfg.dt)
    else:
        moved = [_ctrv(mean, cfg.dt) for mean in means.tolist()]
        means = np.array([mean for mean, _ in moved])
        jac = np.array([jacobian for _, jacobian in moved]).reshape(-1, 5, 5)
    covs = symmetrized(jac @ covs @ jac.swapaxes(1, 2) + process_noise_matrix(cfg))
    return means, covs


def _inverses(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of a stack of 2x2 innovation covariances are invertible, and
    their inverses: singular means a determinant that is not finite or is
    below 1e-15 of the squared scale.

    Every entry takes the elementwise operations of the one-matrix scalar
    form, so an invertible matrix gets its bits whatever else is stacked;
    singular ones hold whatever the division gave.
    """
    s00, s01, s10, s11 = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1]
    with np.errstate(all="ignore"):
        det = s00 * s11 - s01 * s10
        scale = np.maximum(np.abs(s00) + np.abs(s11), 1e-30)
        # Where det is finite, ">=" is "not <": 1e-15 * scale^2 is not NaN.
        invertible = np.isfinite(det) & (np.abs(det) >= 1e-15 * scale * scale)
        # [[s11, -s01], [-s10, s00]]: a sign flip is exact, as negation is.
        adjugate = s.reshape(-1, 4).take(_ADJUGATE_ORDER, axis=1) * _ADJUGATE_SIGNS
        return invertible, (adjugate / det[:, None]).reshape(-1, 2, 2)


def ekf_update(
    state: tuple[np.ndarray, np.ndarray], means: np.ndarray, covariances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kalman update of each track's position block from its own observation.

    ``state`` is the tracks' stacked means (n, 5) and covariances
    (n, 5, 5); track i observes ``means[i]`` with covariance
    ``covariances[i]``.  Returns which tracks updated and every track's
    mean and covariance afterwards.  A track whose 2x2 innovation
    covariance is singular or not finite keeps its values; all others take
    one stacked gain, state update and Joseph-form covariance update.
    """
    track_means, track_covs = state
    updated, inverse = _inverses(track_covs[:, :2, :2] + covariances)
    rows = updated.nonzero()[0]
    if not len(rows):
        return updated, track_means, track_covs
    # take hands every product C-contiguous operands, the layout that fixes
    # which matmul kernel runs and so the bits.
    new_means, covs = track_means.take(rows, axis=0), track_covs.take(rows, axis=0)
    gain = covs[:, :, :2] @ inverse.take(rows, axis=0)
    innovation = means.take(rows, axis=0) - new_means[:, :2]
    new_means = new_means + (gain @ innovation[:, :, None])[:, :, 0]
    new_means[:, 3] = wrap_angle(new_means[:, 3])
    # Joseph form keeps the covariance symmetric PSD under round-off.
    identity_minus_gain = np.empty_like(covs)
    identity_minus_gain[:] = _IDENTITY
    identity_minus_gain[:, :, :2] -= gain
    new_covs = symmetrized(
        identity_minus_gain @ covs @ identity_minus_gain.swapaxes(1, 2)
        + gain @ covariances.take(rows, axis=0) @ gain.swapaxes(1, 2)
    )
    if len(rows) == len(updated):
        return updated, new_means, new_covs
    out_means, out_covs = track_means.copy(), track_covs.copy()
    out_means[rows], out_covs[rows] = new_means, new_covs
    return updated, out_means, out_covs


# From this many tracks up, one fold step costs less as a set of array
# operations (about 40 numpy calls, each about 1 us) than as a Python-float
# join per track (about 2 us each); the narrow tail of deep folds, such as
# an RSU track seen by every platform, takes the Python loop.
_ARRAY_FOLD_MIN = 32


def _join(mean: list, cov: list, zs: list, qs: list) -> tuple[tuple, tuple]:
    """One track's running fold (mean, row-major covariance) joined by the
    observations ``zs`` (means) with ``qs`` (row-major covariances), in
    order, on Python floats; returns the mean and the 2x2 covariance."""
    (mx, my), (r00, r01, r10, r11) = mean, cov
    for (zx, zy), (q00, q01, q10, q11) in zip(zs, qs):
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
    return (mx, my), ((r00, r01), (r10, r11))


def _fold(
    rows: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each track's observations folded, in order, into one equivalent
    position measurement: the tracks (ascending) and their folded means
    (u, 2) and covariances (u, 2, 2).

    ``rows`` (ascending) names the track of each observation.  Each next
    observation joins the running fold by a 2x2 Kalman step (gain
    ``R_f (R_f + R_i)^-1``, covariance ``R_f - G R_f``, symmetrized); a
    join whose sum is singular (see ``_inverses``) is skipped.  Step k runs
    across all tracks with more than k observations at once while there
    are at least ``_ARRAY_FOLD_MIN`` of them, then each remaining track
    finishes alone (``_join``); both take the same IEEE operations in the
    same order.  The information form is not used: a zero covariance is a
    legal observation and has no inverse.
    """
    new_track = np.empty(len(rows), dtype=bool)
    new_track[:1] = True
    new_track[1:] = rows[1:] != rows[:-1]
    first = new_track.nonzero()[0]
    if len(first) == len(rows):
        return rows, means, covariances
    counts = np.bincount(new_track.cumsum() - 1, minlength=len(first))
    folded_means = means.take(first, axis=0)
    folded = covariances.take(first, axis=0)
    step = 1
    live = (counts > step).nonzero()[0]
    with np.errstate(all="ignore"):
        while len(live) >= _ARRAY_FOLD_MIN:
            pair = first[live] + step
            r = folded[live]
            ok, inverse = _inverses(r + covariances.take(pair, axis=0))
            # Each product below is a 2x2 product written out elementwise:
            # entry (a, b) is x[a, 0] * y[0, b] + x[a, 1] * y[1, b].
            gain = r[:, :, :1] * inverse[:, :1, :] + r[:, :, 1:] * inverse[:, 1:, :]
            d = means.take(pair, axis=0) - folded_means[live]
            mean = folded_means[live] + (gain[:, :, 0] * d[:, :1] + gain[:, :, 1] * d[:, 1:])
            cov = r - (gain[:, :, :1] * r[:, :1, :] + gain[:, :, 1:] * r[:, 1:, :])
            cov[:, 0, 1] = cov[:, 1, 0] = 0.5 * (cov[:, 0, 1] + cov[:, 1, 0])
            if not ok.all():
                live, mean, cov = live[ok], mean[ok], cov[ok]
            folded_means[live], folded[live] = mean, cov
            step += 1
            live = (counts > step).nonzero()[0]
    if len(live):
        zs, qs = means.tolist(), covariances.reshape(-1, 4).tolist()
        starts, sizes = first.tolist(), counts.tolist()
        for t in live.tolist():
            start, stop = starts[t] + step, starts[t] + sizes[t]
            if step == 1:
                mean, cov = zs[start - 1], qs[start - 1]
            else:
                mean, cov = folded_means[t].tolist(), folded[t].ravel().tolist()
            folded_means[t], folded[t] = _join(mean, cov, zs[start:stop], qs[start:stop])
    return rows[first], folded_means, folded


def multi_update(
    state: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One update per track from all of its frame's observations.

    ``state`` is the tracks' stacked means (n, 5) and covariances
    (n, 5, 5); observation k, of track ``rows[k]``, has mean ``means[k]``
    and covariance ``covariances[k]``.  ``rows`` is ascending and each
    track's observations come in the order they fold (by source tag).
    Every observation measures position (H = [I 0]), so k of them fold into
    one equivalent measurement (``_fold``) and all tracks with any pay one
    stacked ``ekf_update``.  Returns which tracks updated and every
    track's mean and covariance afterwards; a track with no observation, or
    whose update fails numerically, keeps its values.
    """
    track_means, track_covs = state
    updated = np.zeros(len(track_means), dtype=bool)
    if not len(rows):
        return updated, track_means, track_covs
    targets, z_means, z_covs = _fold(rows, means, covariances)
    ok, new_means, new_covs = ekf_update(
        (track_means.take(targets, axis=0), track_covs.take(targets, axis=0)), z_means, z_covs
    )
    updated[targets] = ok
    out_means, out_covs = track_means.copy(), track_covs.copy()
    out_means[targets], out_covs[targets] = new_means, new_covs
    return updated, out_means, out_covs
