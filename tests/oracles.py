"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute force and shares no code with the
package internals.
"""

import itertools
import math

import numpy as np


def jpda_oracle(tracks, observations, cfg):
    """Exhaustive joint-event enumeration, no clustering, no shortcuts."""
    n, m = len(tracks), len(observations)
    gated = np.zeros((n, m), dtype=bool)
    density = np.zeros((n, m))
    for i, track in enumerate(tracks):
        pos = track.estimate.mean[:2]
        cov = track.estimate.covariance[:2, :2]
        for j, obs in enumerate(observations):
            s = cov + obs.covariance
            delta = obs.mean - pos
            d2 = float(delta @ np.linalg.inv(s) @ delta)
            if d2 <= cfg.gate_threshold:
                gated[i, j] = True
                density[i, j] = math.exp(-0.5 * d2) / (
                    2 * math.pi * math.sqrt(np.linalg.det(s))
                )
    options = [[-1] + [j for j in range(m) if gated[i, j]] for i in range(n)]
    # Observations inside no gate sit outside the association problem; they
    # would contribute one clutter factor to every event, which cancels.
    gated_observations = int(gated.any(axis=0).sum())
    weights = np.zeros((n, m))
    miss = np.zeros(n)
    total = 0.0
    for event in itertools.product(*options):
        assigned = [j for j in event if j >= 0]
        if len(assigned) != len(set(assigned)):
            continue
        likelihood = cfg.clutter_density ** (gated_observations - len(assigned))
        for i, j in enumerate(event):
            if j < 0:
                likelihood *= 1.0 - cfg.detection_probability
            else:
                likelihood *= cfg.detection_probability * density[i, j]
        total += likelihood
        for i, j in enumerate(event):
            if j < 0:
                miss[i] += likelihood
            else:
                weights[i, j] += likelihood
    if total > 0:
        weights /= total
        miss /= total
    else:
        miss[:] = 1.0
    return weights, miss


def pair_stats_reference(tracks, observations):
    """Squared Mahalanobis distance and Gaussian density, one pair at a time.

    The scalar loop the broadcast gating kernel must reproduce bit for bit:
    a singular innovation covariance (non-finite determinant, determinant
    below 1e-15 of its squared scale, or a non-positive diagonal) leaves the
    pair at infinite distance and zero density.
    """
    n, m = len(tracks), len(observations)
    dist2 = np.full((n, m), np.inf)
    density = np.zeros((n, m))
    for i, track in enumerate(tracks):
        pos = track.estimate.mean[:2]
        pos_cov = track.estimate.covariance[:2, :2]
        for j, obs in enumerate(observations):
            s = pos_cov + obs.covariance
            det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
            scale = max(abs(s[0, 0]) + abs(s[1, 1]), 1e-30)
            if (
                not math.isfinite(det)
                or det < 1e-15 * scale * scale
                or s[0, 0] <= 0.0
                or s[1, 1] <= 0.0
            ):
                continue
            d0 = obs.mean[0] - pos[0]
            d1 = obs.mean[1] - pos[1]
            d2 = max(
                (s[1, 1] * d0 * d0 - 2.0 * s[0, 1] * d0 * d1 + s[0, 0] * d1 * d1) / det, 0.0
            )
            dist2[i, j] = d2
            density[i, j] = math.exp(-0.5 * d2) / (2 * math.pi * math.sqrt(det)) if d2 < 1e3 else 0.0
    return dist2, density


def assignment_oracle(observations, truth, max_dist):
    """Best assignment by brute force: most pairs, then least total distance."""
    n, m = len(observations), len(truth)
    best = (0, 0.0, [])
    indices = list(range(m))
    for k in range(min(n, m), -1, -1):
        for obs_subset in itertools.combinations(range(n), k):
            for perm in itertools.permutations(indices, k):
                dists = [
                    float(np.hypot(*(np.asarray(observations[i]) - np.asarray(truth[j]))))
                    for i, j in zip(obs_subset, perm)
                ]
                if any(d > max_dist for d in dists):
                    continue
                cand = (k, -sum(dists), list(zip(obs_subset, perm)))
                if cand[:2] > best[:2]:
                    best = cand
        if best[0] == k and k > 0:
            break
    return sorted(best[2])
