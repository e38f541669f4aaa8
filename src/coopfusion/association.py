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
from .tracking import KinematicState, TrackEstimate, multi_update

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


def _pair_stats(
    tracks: Sequence[Track], observations: Sequence[GaussianEstimate]
) -> tuple[np.ndarray, np.ndarray]:
    """Squared Mahalanobis distance and Gaussian density for every pair.

    Pairs with a singular innovation covariance get an infinite distance so
    they never gate.
    """
    n, m = len(tracks), len(observations)
    dist2 = np.full((n, m), np.inf)
    density = np.zeros((n, m))
    for i, track in enumerate(tracks):
        pos = track.estimate.state.position
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
            density[i, j] = math.exp(-0.5 * d2) / (_TWO_PI * math.sqrt(det)) if d2 < 1e3 else 0.0
    return dist2, density


def gate(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> np.ndarray:
    """Boolean feasibility matrix: observation within a track's gate (inclusive)."""
    dist2, _ = _pair_stats(tracks, observations)
    return dist2 <= cfg.gate_threshold


def _clusters(feasible: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """Connected components of the track/observation gating graph."""
    n, m = feasible.shape
    track_seen = [False] * n
    obs_seen = [False] * m
    clusters = []
    for start in range(n):
        if track_seen[start]:
            continue
        track_ids = []
        obs_ids = []
        stack = [("t", start)]
        track_seen[start] = True
        while stack:
            kind, idx = stack.pop()
            if kind == "t":
                track_ids.append(idx)
                for j in range(m):
                    if feasible[idx, j] and not obs_seen[j]:
                        obs_seen[j] = True
                        stack.append(("o", j))
            else:
                obs_ids.append(idx)
                for i in range(n):
                    if feasible[i, idx] and not track_seen[i]:
                        track_seen[i] = True
                        stack.append(("t", i))
        clusters.append((sorted(track_ids), sorted(obs_ids)))
    return clusters


def _enumerate_cluster(
    track_ids: list[int],
    obs_ids: list[int],
    feasible: np.ndarray,
    density: np.ndarray,
    cfg: AssociationConfig,
    weights: np.ndarray,
    miss: np.ndarray,
) -> None:
    """Accumulate normalized event marginals for one cluster in place."""
    p_detect = cfg.detection_probability
    p_miss = 1.0 - p_detect
    clutter = cfg.clutter_density
    n_obs = len(obs_ids)

    options = []
    for i in track_ids:
        gated = [j for j in obs_ids if feasible[i, j]]
        options.append(gated)

    # Rough upper bound on event count before walking the tree.
    bound = 1.0
    for gated in options:
        bound *= len(gated) + 1
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
        tid = track_ids[level]
        assignment[level] = -1
        recurse(level + 1, likelihood * p_miss)
        for j in options[level]:
            if j in used:
                continue
            used.add(j)
            assignment[level] = j
            recurse(level + 1, likelihood * p_detect * density[tid, j])
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
    dist2, density = _pair_stats(tracks, observations)
    feasible = dist2 <= cfg.gate_threshold
    weights = np.zeros((n, m))
    miss = np.ones(n)
    for track_ids, obs_ids in _clusters(feasible):
        if track_ids:
            _enumerate_cluster(track_ids, obs_ids, feasible, density, cfg, weights, miss)
    unassociated = [j for j in range(m) if not feasible[:, j].any()]
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
    state = KinematicState(float(obs.mean[0]), float(obs.mean[1]), 0.0, 0.0, 0.0)
    return TrackEstimate(state, cov)


def _mahalanobis2(delta_x: float, delta_y: float, cov: np.ndarray) -> float:
    """Squared Mahalanobis norm of a 2D offset; infinite for singular covariance."""
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if det <= 0:
        return math.inf
    return (
        cov[1, 1] * delta_x * delta_x
        - 2.0 * cov[0, 1] * delta_x * delta_y
        + cov[0, 0] * delta_y * delta_y
    ) / det


def _merge_coincident(tracks: list[Track], threshold: float) -> list[Track]:
    """Absorb tracks sitting on top of a better-established one.

    Soft association keeps duplicate tracks of the same object alive
    indefinitely (they share every observation), so coincidence is resolved
    here: the longer-seen track wins, picking up the other's history.
    """
    order = sorted(range(len(tracks)), key=lambda i: (-tracks[i].frames_seen, tracks[i].id))
    absorbed: set[int] = set()
    for rank, i in enumerate(order):
        if i in absorbed:
            continue
        keeper = tracks[i]
        for j in order[rank + 1 :]:
            if j in absorbed:
                continue
            other = tracks[j]
            combined = keeper.estimate.covariance[:2, :2] + other.estimate.covariance[:2, :2]
            delta = other.estimate.state.position - keeper.estimate.state.position
            if _mahalanobis2(delta[0], delta[1], combined) <= threshold:
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
    for i in range(len(tracks)):
        for j, obs in enumerate(observations):
            weight = result.weights[i, j]
            if weight > cfg.weight_floor:
                accepted[i].append(
                    GaussianEstimate(
                        obs.mean,
                        obs.covariance / weight,
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

    spawn_gate = cfg.spawn_gate_factor * cfg.gate_threshold
    spawned: list[Track] = []
    for obs in unassociated:
        covered = False
        for track in survivors + spawned:
            combined = track.estimate.covariance[:2, :2] + obs.covariance
            delta = obs.mean - track.estimate.state.position
            if _mahalanobis2(delta[0], delta[1], combined) <= spawn_gate:
                covered = True
                break
        if covered:
            continue
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
