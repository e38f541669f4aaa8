"""JPDA association of Gaussian observations to tracks, plus track lifecycle.

Association weights come from exact enumeration of joint assignment events
(each observation to at most one track, each track receiving at most one
observation per event).  Tracks and observations are first split into
connected components of the gating graph, which keeps enumeration exact
while bounding its cost by the size of one contended neighborhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .error_models import GaussianEstimate
from .tracking import TrackEstimate, multi_update

_TWO_PI = 2.0 * math.pi


class CombinatorialOverflowError(RuntimeError):
    """Raised when joint-event enumeration exceeds the configured cap."""


@dataclass
class Track:
    """A tracked object: filter estimate plus lifecycle counters."""

    id: int
    estimate: TrackEstimate
    frames_seen: int = 1
    frames_missed: int = 0
    confirmed: bool = False
    object_class: str = "vehicle"
    sources: set[str] = field(default_factory=set)

    def snapshot(self) -> "Track":
        """Detached copy safe to hand to callers."""
        return replace(self, estimate=self.estimate.copy(), sources=set(self.sources))


@dataclass(frozen=True)
class AssociationConfig:
    """Gating, clutter, and lifecycle parameters.

    Defaults are artifact choices: gate at the chi-square 99% point for two
    degrees of freedom, modest detection probability, light clutter.
    """

    gate_threshold: float = 9.21
    detection_probability: float = 0.9
    clutter_density: float = 0.05
    confirm_threshold: int = 3
    delete_threshold: int = 5
    weight_floor: float = 0.2
    max_events: int = 1_000_000
    # Track hygiene: suppress spawns inside a widened gate of a live track,
    # merge coincident tracks, and drop tracks whose position uncertainty
    # has grown useless.
    spawn_gate_factor: float = 2.0
    merge_threshold: float = 9.21
    max_position_variance: float = 1.0

    def __post_init__(self):
        if not (self.gate_threshold > 0.0):
            raise ValueError("gate_threshold must be positive")
        if not (0.0 < self.detection_probability <= 1.0):
            raise ValueError("detection_probability must be in (0, 1]")
        if self.clutter_density < 0.0:
            raise ValueError("clutter_density must be >= 0")
        if self.confirm_threshold < 1 or self.delete_threshold < 1:
            raise ValueError("lifecycle thresholds must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if not (0.0 <= self.weight_floor < 1.0):
            # A weight above the floor is then positive, so dividing an
            # observation covariance by it keeps the covariance valid.
            raise ValueError("weight_floor must be in [0, 1)")
        if not (self.spawn_gate_factor >= 1.0):
            raise ValueError("spawn_gate_factor must be >= 1")
        if not (self.merge_threshold > 0.0) or not (self.max_position_variance > 0.0):
            raise ValueError("merge_threshold and max_position_variance must be positive")


@dataclass
class AssociationResult:
    """Per-track association marginals for one frame.

    ``weights[i, j]`` is the probability that observation j belongs to track
    i; ``miss[i]`` the probability track i went undetected.  Each row
    satisfies ``miss[i] + weights[i].sum() == 1``.
    """

    weights: np.ndarray
    miss: np.ndarray
    unassociated_observations: list[int]


def _track_blocks(tracks: Sequence[Track]) -> tuple[np.ndarray, np.ndarray]:
    """Positions as an (n, 2) array and position covariances as (n, 2, 2)."""
    return (
        np.array([t.estimate.mean[:2] for t in tracks]).reshape(-1, 2),
        np.array([t.estimate.covariance[:2, :2] for t in tracks]).reshape(-1, 2, 2),
    )


def _observation_blocks(observations: Sequence[GaussianEstimate]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([o.mean for o in observations]).reshape(-1, 2),
        np.array([o.covariance for o in observations]).reshape(-1, 2, 2),
    )


def _pairwise(pos_a, cov_a, pos_b, cov_b):
    """Entries of ``cov_a[i] + cov_b[j]`` and of ``pos_b[j] - pos_a[i]`` as (a, b) arrays."""
    s = cov_a[:, None] + cov_b[None, :]
    d = pos_b[None, :] - pos_a[:, None]
    return s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1], d[..., 0], d[..., 1]


def _quadratic(s00, s01, s11, d0, d1):
    """Numerator of the squared Mahalanobis distance: ``d^T adj(S) d``."""
    return s11 * d0 * d0 - 2.0 * s01 * d0 * d1 + s00 * d1 * d1


def _pair_stats(
    tracks: Sequence[Track], observations: Sequence[GaussianEstimate]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared Mahalanobis distance and innovation determinant for every pair.

    Pairs with a singular innovation covariance get an infinite distance so
    they never gate.  Every entry takes the operations of a scalar per-pair
    loop in the same order, so it is the same IEEE value as that loop gives
    (``tests/oracles.py`` keeps it as the reference).
    """
    s00, s01, s10, s11, d0, d1 = _pairwise(*_track_blocks(tracks), *_observation_blocks(observations))
    with np.errstate(all="ignore"):
        det = s00 * s11 - s01 * s10
        scale = np.maximum(np.abs(s00) + np.abs(s11), 1e-30)
        singular = ~np.isfinite(det) | (det < 1e-15 * scale * scale) | (s00 <= 0.0) | (s11 <= 0.0)
        dist2 = np.maximum(_quadratic(s00, s01, s11, d0, d1) / det, 0.0)
    dist2[singular] = np.inf
    return dist2, det


def gate(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> np.ndarray:
    """Boolean feasibility matrix: observation within a track's gate (inclusive)."""
    dist2, _ = _pair_stats(tracks, observations)
    return dist2 <= cfg.gate_threshold


# Gated observations of each track that has any: track -> [(observation, density)],
# both ascending.
_Gated = dict[int, list[tuple[int, float]]]


def _clusters(gated: _Gated) -> list[tuple[list[int], list[int]]]:
    """Connected components of the gating graph, ids sorted within each.

    Tracks with nothing in their gate are left out: enumerated alone they
    come out with miss probability 1 and no weight.
    """
    tracks_of: dict[int, list[int]] = {}
    for i, options in gated.items():
        for j, _ in options:
            tracks_of.setdefault(j, []).append(i)
    seen: set[int] = set()
    clusters = []
    for start in gated:
        if start in seen:
            continue
        seen.add(start)
        track_ids: list[int] = []
        obs_ids: set[int] = set()
        stack = [start]
        while stack:
            i = stack.pop()
            track_ids.append(i)
            for j, _ in gated[i]:
                if j in obs_ids:
                    continue
                obs_ids.add(j)
                for k in tracks_of[j]:
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
        clusters.append((sorted(track_ids), sorted(obs_ids)))
    return clusters


def _enumerate_cluster(
    track_ids: list[int],
    obs_ids: list[int],
    gated: _Gated,
    cfg: AssociationConfig,
    weights: np.ndarray,
    miss: np.ndarray,
) -> None:
    """Accumulate normalized event marginals for one cluster in place."""
    p_detect = cfg.detection_probability
    p_miss = 1.0 - p_detect
    clutter = cfg.clutter_density
    n_obs = len(obs_ids)
    options = [gated[i] for i in track_ids]

    # Rough upper bound on event count before walking the tree.
    bound = 1.0
    for gated_obs in options:
        bound *= len(gated_obs) + 1
        if bound > cfg.max_events:
            raise CombinatorialOverflowError(
                f"joint association events exceed cap {cfg.max_events}; "
                "split the scene into smaller clusters or raise max_events"
            )

    assignment: list[int] = [-1] * len(track_ids)
    used: set[int] = set()
    total = 0.0
    marg = {i: {j: 0.0 for j in [-1, *obs_ids]} for i in track_ids}

    def recurse(level: int, likelihood: float) -> None:
        nonlocal total
        if level == len(track_ids):
            event_likelihood = likelihood * clutter ** (n_obs - len(used))
            total += event_likelihood
            for pos, tid in enumerate(track_ids):
                marg[tid][assignment[pos]] += event_likelihood
            return
        assignment[level] = -1
        recurse(level + 1, likelihood * p_miss)
        for j, density in options[level]:
            if j in used:
                continue
            used.add(j)
            assignment[level] = j
            recurse(level + 1, likelihood * p_detect * density)
            used.discard(j)
        assignment[level] = -1

    recurse(0, 1.0)

    if not (total > 0.0) or not math.isfinite(total):
        # No event carries likelihood (e.g. zero clutter density with more
        # observations than tracks): fall back to all-miss.
        for tid in track_ids:
            miss[tid] = 1.0
        return
    for tid in track_ids:
        miss[tid] = marg[tid][-1] / total
        for j in obs_ids:
            weights[tid, j] = marg[tid][j] / total


def jpda_weights(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> AssociationResult:
    """Exact JPDA marginal association probabilities for one frame."""
    n, m = len(tracks), len(observations)
    dist2, det = _pair_stats(tracks, observations)
    feasible = dist2 <= cfg.gate_threshold
    rows, cols = np.nonzero(feasible)
    # Densities of gated pairs only, through libm as in the scalar loop:
    # np.exp need not match math.exp bit for bit.
    gated: _Gated = {}
    for i, j, d2, det_ij in zip(
        rows.tolist(), cols.tolist(), dist2[rows, cols].tolist(), det[rows, cols].tolist()
    ):
        density = math.exp(-0.5 * d2) / (_TWO_PI * math.sqrt(det_ij)) if d2 < 1e3 else 0.0
        gated.setdefault(i, []).append((j, density))
    weights = np.zeros((n, m))
    miss = np.ones(n)
    for track_ids, obs_ids in _clusters(gated):
        _enumerate_cluster(track_ids, obs_ids, gated, cfg, weights, miss)
    unassociated = np.flatnonzero(~feasible.any(axis=0)).tolist()
    return AssociationResult(weights=weights, miss=miss, unassociated_observations=unassociated)


def new_track_estimate(obs: GaussianEstimate) -> TrackEstimate:
    """Fresh estimate seeded from one observation.

    Position and its covariance come from the observation; speed, heading,
    and yaw rate start at zero with wide variances (1, pi^2, 1).
    """
    cov = np.zeros((5, 5))
    cov[:2, :2] = obs.covariance
    cov[2, 2] = 1.0
    cov[3, 3] = math.pi**2
    cov[4, 4] = 1.0
    mean = np.zeros(5)
    mean[:2] = obs.mean
    return TrackEstimate(mean, cov)


def _within(pos_a, cov_a, pos_b, cov_b, threshold: float) -> np.ndarray:
    """(a, b) matrix: ``pos_b[j] - pos_a[i]`` within ``threshold`` squared
    Mahalanobis distance under ``cov_a[i] + cov_b[j]``, inclusive.

    A sum with a non-positive determinant is at infinite distance.
    """
    s00, s01, s10, s11, d0, d1 = _pairwise(pos_a, cov_a, pos_b, cov_b)
    with np.errstate(all="ignore"):
        det = s00 * s11 - s01 * s10
        dist2 = np.where(det <= 0, np.inf, _quadratic(s00, s01, s11, d0, d1) / det)
    return dist2 <= threshold


def _merge_coincident(tracks: list[Track], threshold: float) -> list[Track]:
    """Absorb tracks sitting on top of a better-established one.

    Soft association keeps duplicate tracks of the same object alive
    indefinitely (they share every observation), so coincidence is resolved
    here: the longer-seen track wins, picking up the other's history.
    """
    order = sorted(range(len(tracks)), key=lambda i: (-tracks[i].frames_seen, tracks[i].id))
    # Merging changes no estimate, so each track's position block is read
    # once, as Python floats: the same IEEE operations as on numpy scalars,
    # without their per-operation cost.
    blocks = [
        (*t.estimate.mean[:2].tolist(), *t.estimate.covariance[:2, :2].ravel().tolist())
        for t in tracks
    ]
    absorbed: set[int] = set()
    for rank, i in enumerate(order):
        if i in absorbed:
            continue
        keeper = tracks[i]
        kx, ky, k00, k01, k10, k11 = blocks[i]
        for j in order[rank + 1 :]:
            if j in absorbed:
                continue
            ox, oy, o00, o01, o10, o11 = blocks[j]
            dx, dy = ox - kx, oy - ky
            c00, c01, c10, c11 = k00 + o00, k01 + o01, k10 + o10, k11 + o11
            det = c00 * c11 - c01 * c10
            d2 = math.inf if det <= 0 else _quadratic(c00, c01, c11, dx, dy) / det
            if not d2 <= threshold:
                continue
            other = tracks[j]
            absorbed.add(j)
            keeper.frames_seen = max(keeper.frames_seen, other.frames_seen)
            keeper.frames_missed = min(keeper.frames_missed, other.frames_missed)
            keeper.confirmed = keeper.confirmed or other.confirmed
            keeper.sources.update(other.sources)
    return [t for idx, t in enumerate(tracks) if idx not in absorbed]


def _accepted_observations(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    result: AssociationResult,
    cfg: AssociationConfig,
) -> list[list[GaussianEstimate]]:
    """Per-track weight-bearing observations, covariance inflated by 1/weight."""
    accepted: list[list[GaussianEstimate]] = [[] for _ in tracks]
    rows, cols = np.nonzero(result.weights > cfg.weight_floor)
    for i, j in zip(rows.tolist(), cols.tolist()):
        obs = observations[j]
        accepted[i].append(
            GaussianEstimate(
                obs.mean,
                obs.covariance / result.weights[i, j],
                source=obs.source,
                object_class=obs.object_class,
            )
        )
    return accepted


def _finish_frame(
    tracks: Sequence[Track],
    accepted: list[list[GaussianEstimate]],
    unassociated: list[GaussianEstimate],
    cfg: AssociationConfig,
    next_id: Callable[[], int],
) -> list[Track]:
    """Apply updates and lifecycle: update, confirm, delete, merge, spawn."""
    for track, zs in zip(tracks, accepted):
        if zs:
            track.estimate = multi_update(track.estimate, zs)
            track.frames_seen += 1
            track.frames_missed = 0
            track.sources.update(z.source for z in zs)
        else:
            track.frames_missed += 1
        if track.frames_seen >= cfg.confirm_threshold:
            track.confirmed = True

    survivors = [
        t
        for t in tracks
        if t.frames_missed < cfg.delete_threshold
        and np.trace(t.estimate.covariance[:2, :2]) <= cfg.max_position_variance
    ]
    survivors = _merge_coincident(survivors, cfg.merge_threshold)
    if not unassociated:
        return survivors

    # Coverage of each unassociated observation by every survivor and by the
    # track each earlier observation would spawn, which starts at that
    # observation's mean and covariance (see ``new_track_estimate``).
    spawn_gate = cfg.spawn_gate_factor * cfg.gate_threshold
    obs_pos, obs_cov = _observation_blocks(unassociated)
    track_pos, track_cov = _track_blocks(survivors)
    covers = _within(
        np.concatenate([track_pos, obs_pos]),
        np.concatenate([track_cov, obs_cov]),
        obs_pos,
        obs_cov,
        spawn_gate,
    )
    covered = covers[: len(survivors)].any(axis=0)
    spawners: list[int] = []
    spawned: list[Track] = []
    for k, obs in enumerate(unassociated):
        if covered[k] or covers[spawners, k].any():
            continue
        spawners.append(len(survivors) + k)
        spawned.append(
            Track(
                id=next_id(),
                estimate=new_track_estimate(obs),
                frames_seen=1,
                frames_missed=0,
                confirmed=cfg.confirm_threshold <= 1,
                object_class=obs.object_class,
                sources={obs.source} if obs.source else set(),
            )
        )
    return survivors + spawned


def associate_frame(
    tracks: Sequence[Track],
    observations_by_source: dict[str, Sequence[GaussianEstimate]],
    cfg: AssociationConfig,
    next_id: Callable[[], int],
) -> list[Track]:
    """One fusion frame over several independent sources.

    Sources (sensor pipelines locally, platforms globally) each report an
    object at most once, so association runs per source: within one source
    a track takes at most one observation, while across sources a track
    accumulates up to one update per source.  This is what makes a second
    platform's view of the same object add information instead of splitting
    the first one's weight.

    Each track updates with every observation whose weight clears the floor,
    the observation covariance inflated by 1/weight to realize the soft
    assignment.  Unassociated observations spawn tentative tracks unless a
    live track already covers them within the widened spawn gate.
    """
    accepted: list[list[GaussianEstimate]] = [[] for _ in tracks]
    unassociated: list[GaussianEstimate] = []
    for source in sorted(observations_by_source):
        observations = list(observations_by_source[source])
        result = jpda_weights(tracks, observations, cfg)
        for per_track, more in zip(accepted, _accepted_observations(tracks, observations, result, cfg)):
            per_track.extend(more)
        unassociated.extend(observations[j] for j in result.unassociated_observations)
    return _finish_frame(tracks, accepted, unassociated, cfg, next_id)
