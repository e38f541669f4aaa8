"""JPDA association of Gaussian observations to tracks, plus track lifecycle.

Association weights come from exact enumeration of joint assignment events
(each observation to at most one track, each track receiving at most one
observation per event).  Tracks and observations are first split into
connected components of the gating graph, which keeps enumeration exact
while bounding its cost by the size of one contended neighborhood.

A tier's frame covers all of its groups at once (every platform of the
local tier, the one group of the RSU): gating, the filter update and spawn
coverage each run once over the frame as stacked arrays, computing only
the pairs within a group, while enumeration and the track lifecycle run per
group on Python floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .error_models import GaussianEstimate
from .tracking import TrackEstimate, multi_update

_TWO_PI = 2.0 * math.pi

# An unassociated observation spawns no track inside this multiple of the
# gate of a live track or of a track spawned earlier in the same frame.
SPAWN_GATE_FACTOR = 2.0


class CombinatorialOverflowError(RuntimeError):
    """Raised when joint-event enumeration exceeds the configured cap."""


class StaleFrameError(ValueError):
    """Raised when a frame's time is not finite or not after the last fused one."""


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
        return Track(
            self.id,
            self.estimate.copy(),
            self.frames_seen,
            self.frames_missed,
            self.confirmed,
            self.object_class,
            set(self.sources),
        )


@dataclass(frozen=True)
class AssociationConfig:
    """Gating, clutter, and lifecycle parameters.

    Defaults are artifact choices: gate at the chi-square 99% point for two
    degrees of freedom, modest detection probability, light clutter.  The
    gate also decides which tracks coincide and merge, and, widened by
    ``SPAWN_GATE_FACTOR``, where spawning is suppressed.
    """

    gate_threshold: float = 9.21
    detection_probability: float = 0.9
    clutter_density: float = 0.05
    confirm_threshold: int = 3
    delete_threshold: int = 5
    weight_floor: float = 0.2
    max_events: int = 1_000_000
    # Tracks whose position uncertainty has grown past this are dropped.
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
        if not (self.max_position_variance > 0.0):
            raise ValueError("max_position_variance must be positive")


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


@dataclass
class ObservationBatch:
    """One tier frame's observations as stacked arrays.

    Observation k has mean ``means[k]`` (an (m, 2) array) and covariance
    ``covariances[k]`` (an (m, 2, 2) array); it belongs to group
    ``groups[k]``, came from ``sources[k]`` and is of class ``classes[k]``.
    Observations are ordered by group and, within a group, by source name,
    so that each (group, source) block is one run: association runs block
    by block in that order.
    """

    means: np.ndarray
    covariances: np.ndarray
    groups: list[int]
    sources: list[str]
    classes: list[str]


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


def _quadratic(s00, s01, s11, d0, d1):
    """Numerator of the squared Mahalanobis distance: ``d^T adj(S) d``."""
    return s11 * d0 * d0 - 2.0 * s01 * d0 * d1 + s00 * d1 * d1


def _pair_stats(pos_a, cov_a, pos_b, cov_b) -> tuple[np.ndarray, np.ndarray]:
    """Squared Mahalanobis distance of ``pos_b - pos_a`` under ``cov_a + cov_b``,
    and that sum's determinant, elementwise over the broadcast leading axes.

    Pairs with a singular sum get an infinite distance so they never gate.
    Every entry takes the operations of a scalar per-pair loop in the same
    order, so it is the same IEEE value as that loop gives
    (``tests/oracles.py`` keeps it as the reference).
    """
    s = cov_a + cov_b
    d = pos_b - pos_a
    s00, s01, s10, s11 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 0], s[..., 1, 1]
    d0, d1 = d[..., 0], d[..., 1]
    with np.errstate(all="ignore"):
        det = s00 * s11 - s01 * s10
        scale = np.maximum(np.abs(s00) + np.abs(s11), 1e-30)
        singular = ~np.isfinite(det) | (det < 1e-15 * scale * scale) | (s00 <= 0.0) | (s11 <= 0.0)
        dist2 = np.maximum(_quadratic(s00, s01, s11, d0, d1) / det, 0.0)
    dist2[singular] = np.inf
    return dist2, det


def _block_pairs(blocks: Sequence[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """Row index, column index and block number of every pair within each
    ``(row start, row stop, column start, column stop)`` block: blocks in
    order, and rows, then columns, ascending within a block."""
    spans = np.array(blocks, dtype=np.intp).reshape(-1, 4)
    widths = spans[:, 3] - spans[:, 2]
    sizes = (spans[:, 1] - spans[:, 0]) * widths
    block = np.repeat(np.arange(len(spans)), sizes)
    k = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = widths[block]
    return spans[block, 0] + k // width, spans[block, 2] + k % width, block


def gate(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> np.ndarray:
    """Boolean feasibility matrix: observation within a track's gate (inclusive)."""
    (track_pos, track_cov), (obs_pos, obs_cov) = _track_blocks(tracks), _observation_blocks(observations)
    dist2, _ = _pair_stats(track_pos[:, None], track_cov[:, None], obs_pos[None], obs_cov[None])
    return dist2 <= cfg.gate_threshold


# Gated observations of each track that has any: track -> [(observation, density)],
# both ascending.
_Gated = dict[int, list[tuple[int, float]]]


def _gate_blocks(
    track_pos: np.ndarray,
    track_cov: np.ndarray,
    obs_pos: np.ndarray,
    obs_cov: np.ndarray,
    blocks: Sequence[tuple[int, int, int, int]],
    cfg: AssociationConfig,
) -> list[tuple[_Gated, list[int]]]:
    """Gate every (track range, observation range) block of a frame in one pass.

    Returns, per block, its gated pairs and the observations inside no gate,
    with indices into the given arrays.  Only pairs within a block are
    computed, so the work is that of gating each block alone, paid as one
    set of array operations.
    """
    gated: list[_Gated] = [{} for _ in blocks]
    rows, cols, block = _block_pairs(blocks)
    if len(rows):
        dist2, det = _pair_stats(track_pos[rows], track_cov[rows], obs_pos[cols], obs_cov[cols])
        hits = np.flatnonzero(dist2 <= cfg.gate_threshold)
        # Densities of gated pairs only, through libm as in the scalar loop:
        # np.exp need not match math.exp bit for bit.
        for b, i, j, d2, det_ij in zip(
            block[hits].tolist(),
            rows[hits].tolist(),
            cols[hits].tolist(),
            dist2[hits].tolist(),
            det[hits].tolist(),
        ):
            density = math.exp(-0.5 * d2) / (_TWO_PI * math.sqrt(det_ij)) if d2 < 1e3 else 0.0
            gated[b].setdefault(i, []).append((j, density))
    result = []
    for block_gated, (_, _, start, stop) in zip(gated, blocks):
        inside = {j for options in block_gated.values() for j, _ in options}
        result.append((block_gated, [j for j in range(start, stop) if j not in inside]))
    return result


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
) -> dict[int, dict[int, float]]:
    """Normalized event marginals of one cluster: for each of its tracks, the
    miss (key -1) and each observation of the cluster."""
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

    if len(track_ids) == 1:
        # One track (most clusters): its events are the miss and each gated
        # observation, with the recursion's products, added in its order.
        total = p_miss * clutter**n_obs
        events = {-1: total}
        for j, density in options[0]:
            events[j] = p_detect * density * clutter ** (n_obs - 1)
            total += events[j]
        marg = {track_ids[0]: events}
    else:
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
        return {tid: {-1: 1.0} for tid in track_ids}
    return {tid: {j: p / total for j, p in marg[tid].items()} for tid in track_ids}


def _marginals(gated: _Gated, cfg: AssociationConfig) -> dict[int, dict[int, float]]:
    """The event marginals of every gated track of one block."""
    marginals: dict[int, dict[int, float]] = {}
    for track_ids, obs_ids in _clusters(gated):
        marginals.update(_enumerate_cluster(track_ids, obs_ids, gated, cfg))
    return marginals


def jpda_weights(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> AssociationResult:
    """Exact JPDA marginal association probabilities for one source's frame."""
    n, m = len(tracks), len(observations)
    ((gated, unassociated),) = _gate_blocks(
        *_track_blocks(tracks), *_observation_blocks(observations), [(0, n, 0, m)], cfg
    )
    weights = np.zeros((n, m))
    miss = np.ones(n)
    for i, marginals in _marginals(gated, cfg).items():
        for j, probability in marginals.items():
            if j < 0:
                miss[i] = probability
            else:
                weights[i, j] = probability
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


def _position_trace(track: Track) -> float:
    covariance = track.estimate.covariance
    return covariance[0, 0] + covariance[1, 1]


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


def _spawn(
    survivors: list[list[Track]],
    unassociated: list[list[int]],
    observations: ObservationBatch,
    cfg: AssociationConfig,
    next_ids: Sequence[Callable[[], int]],
) -> list[list[Track]]:
    """Each group's survivors plus a tentative track for every unassociated
    observation that no survivor, and no track spawned from an earlier
    observation of the frame, covers within the widened spawn gate."""
    spawning = [g for g, columns in enumerate(unassociated) if columns]
    if not spawning:
        return survivors
    # A group's coverage candidates are its survivors, then the track each of
    # its unassociated observations would spawn, which starts at that
    # observation's mean and covariance (see ``new_track_estimate``).
    candidates = [t for g in spawning for t in survivors[g]]
    columns = [j for g in spawning for j in unassociated[g]]
    track_pos, track_cov = _track_blocks(candidates)
    obs_pos, obs_cov = observations.means[columns], observations.covariances[columns]
    order: list[int] = []
    blocks = []
    first_track = first_obs = 0
    for g in spawning:
        n, u = len(survivors[g]), len(unassociated[g])
        start = len(order)
        order.extend(range(first_track, first_track + n))
        order.extend(range(len(candidates) + first_obs, len(candidates) + first_obs + u))
        blocks.append((start, len(order), first_obs, first_obs + u))
        first_track, first_obs = first_track + n, first_obs + u
    rows, cols, _ = _block_pairs(blocks)
    rows = np.array(order, dtype=np.intp)[rows]
    dist2, _ = _pair_stats(
        np.concatenate([track_pos, obs_pos])[rows],
        np.concatenate([track_cov, obs_cov])[rows],
        obs_pos[cols],
        obs_cov[cols],
    )
    # Block entry (candidate r, observation k) sits at offset + r * u + k.
    covers = (dist2 <= SPAWN_GATE_FACTOR * cfg.gate_threshold).tolist()
    result = list(survivors)
    offset = 0
    for g in spawning:
        n, u = len(survivors[g]), len(unassociated[g])
        spawners: list[int] = []
        spawned: list[Track] = []
        for k, j in enumerate(unassociated[g]):
            covered_by = covers[offset + k : offset + (n + u) * u : u]
            if any(covered_by[:n]) or any(covered_by[n + s] for s in spawners):
                continue
            spawners.append(k)
            source = observations.sources[j]
            spawned.append(
                Track(
                    id=next_ids[g](),
                    estimate=new_track_estimate(
                        GaussianEstimate(observations.means[j], observations.covariances[j])
                    ),
                    frames_seen=1,
                    frames_missed=0,
                    confirmed=cfg.confirm_threshold <= 1,
                    object_class=observations.classes[j],
                    sources={source} if source else set(),
                )
            )
        result[g] = survivors[g] + spawned
        offset += (n + u) * u
    return result


def associate_frame(
    tracks: Sequence[Sequence[Track]],
    observations: ObservationBatch,
    cfg: AssociationConfig,
    next_ids: Sequence[Callable[[], int]],
) -> list[list[Track]]:
    """One fusion frame over every group of a tier; returns each group's new
    track list.

    ``tracks[g]`` are group g's tracks, already predicted to the frame time,
    and ``next_ids[g]`` hands out its new track ids.  Sources (sensor
    pipelines locally, platforms globally) each report an object at most
    once, so association runs per (group, source) block: within one source
    a track takes at most one observation, while across sources a track
    accumulates up to one observation per source.  This is what makes a
    second platform's view of the same object add information instead of
    splitting the first one's weight.  Every block is gated in one pass;
    JPDA enumeration then runs per block.

    Each track updates once with every observation whose weight clears the
    floor (see ``multi_update``), the observation covariance inflated by
    1/weight to realize the soft assignment; all groups' tracks update
    together.  Then, per group, tracks are confirmed, deleted and merged,
    and unassociated observations spawn tentative tracks unless a live
    track already covers them within the widened spawn gate.
    """
    flat = [t for group in tracks for t in group]
    starts = list(itertools.accumulate((len(group) for group in tracks), initial=0))
    blocks, block_groups = [], []
    first = 0
    for (g, _), run in itertools.groupby(zip(observations.groups, observations.sources)):
        stop = first + sum(1 for _ in run)
        blocks.append((starts[g], starts[g + 1], first, stop))
        block_groups.append(g)
        first = stop

    rows, cols, weights = [], [], []
    unassociated: list[list[int]] = [[] for _ in tracks]
    gating = _gate_blocks(
        *_track_blocks(flat), observations.means, observations.covariances, blocks, cfg
    )
    for g, (gated, missed) in zip(block_groups, gating):
        marginals = _marginals(gated, cfg)
        for i, options in gated.items():
            for j, _ in options:
                weight = marginals[i].get(j, 0.0)
                if weight > cfg.weight_floor:
                    rows.append(i)
                    cols.append(j)
                    weights.append(weight)
        unassociated[g].extend(missed)
    inflated = observations.covariances[cols] / np.array(weights).reshape(-1, 1, 1)
    accepted: list[list[GaussianEstimate]] = [[] for _ in flat]
    for i, j, covariance in zip(rows, cols, inflated):
        accepted[i].append(
            GaussianEstimate(observations.means[j], covariance, source=observations.sources[j])
        )

    for track, estimate, zs in zip(flat, multi_update([t.estimate for t in flat], accepted), accepted):
        track.estimate = estimate
        if zs:
            track.frames_seen += 1
            track.frames_missed = 0
            track.sources.update(z.source for z in zs)
        else:
            track.frames_missed += 1
        if track.frames_seen >= cfg.confirm_threshold:
            track.confirmed = True

    survivors = [
        _merge_coincident(
            [
                t
                for t in group
                if t.frames_missed < cfg.delete_threshold
                and _position_trace(t) <= cfg.max_position_variance
            ],
            cfg.gate_threshold,
        )
        for group in tracks
    ]
    return _spawn(survivors, unassociated, observations, cfg, next_ids)
