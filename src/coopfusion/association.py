"""JPDA association of Gaussian observations to tracks, plus track lifecycle.

Association weights come from exact enumeration of joint assignment events
(each observation to at most one track, each track receiving at most one
observation per event).  Tracks and observations are first split into
connected components of the gating graph, which keeps enumeration exact
while bounding its cost by the size of one contended neighborhood.

A tier keeps all of its groups' tracks (every platform of the local tier,
the one group of the RSU) in one ``TrackTable``, and a frame covers them
at once: gating, the filter update, the lifecycle counters, the
coincidence test of the merge and spawn coverage each run once over the
frame as flat arrays, computing only the pairs within a group.  A track
alone in its cluster takes a closed form, as arrays across the frame when
the frame has enough such tracks to repay numpy's per-call cost; the
other clusters are enumerated on Python floats.  Every array pass takes
the scalar loop's IEEE ``+ - * /`` in its order, so it gives that loop's
bits; ``np.exp``, ``np.power`` and reductions need not, so densities and
clutter powers come from ``math`` and Python floats.

A frame's shape is its table's group counts plus its observations'
(group, source, count) runs.  The index arrays that depend on the shape
alone, its plans (the gated pairs of its blocks, every row's group, the
merge's ranked pairs, the spawn gate's pairs), are built once per distinct
shape and kept read-only in LRUs of ``PLAN_CACHE_SIZE`` plans each, so a
small stable scene stops rebuilding them every frame.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .error_models import GaussianEstimate
from .tracking import multi_update

_TWO_PI = 2.0 * math.pi

# An unassociated observation spawns no track inside this multiple of the
# gate of a live track or of a track spawned earlier in the same frame.
SPAWN_GATE_FACTOR = 2.0

# Plans kept per plan cache.  Preset scenes repeat one of their last 8 frame
# shapes on about 87% of frames (88% with 16); busy scenes, whose shapes
# rarely repeat, pay one lookup per frame and hold 8 plans per cache.
PLAN_CACHE_SIZE = 8


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only: a plan is shared by every frame of its shape."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class CombinatorialOverflowError(RuntimeError):
    """Raised when joint-event enumeration exceeds the configured cap."""


class StaleFrameError(ValueError):
    """Raised when a frame's time is not finite or not after the last fused one."""


@dataclass
class Track:
    """One track as a record: the input of ``jpda_weights``.

    ``estimate`` holds the state mean [x, y, v, psi, psi_dot] and its 5x5
    covariance.  The tiers keep their tracks in a ``TrackTable`` instead.
    """

    id: int
    estimate: GaussianEstimate
    frames_seen: int = 1
    frames_missed: int = 0
    confirmed: bool = False
    object_class: str = "vehicle"


class TrackTable(NamedTuple):
    """A tier's tracks, group by group, as one record of stacked arrays.

    Group g (a platform of the local tier, or the RSU's one group) holds
    the next ``counts[g]`` rows.  Row k is track ``ids[k]`` of class
    ``classes[k]``, with mean ``means[k]`` (an (n, 5) array of [x, y, v,
    psi, psi_dot]) and covariance ``covariances[k]`` (an (n, 5, 5) array);
    it has been seen in ``frames_seen[k]`` frames, missed the last
    ``frames_missed[k]`` and is ``confirmed[k]`` (arrays of n).  A tier
    holds its state as one table and replaces it each frame; nothing
    changes a table once it is made.
    """

    counts: list[int]
    ids: list[int]
    classes: list[str]
    means: np.ndarray
    covariances: np.ndarray
    frames_seen: np.ndarray
    frames_missed: np.ndarray
    confirmed: np.ndarray

    @classmethod
    def empty(cls, groups: int) -> TrackTable:
        """A table of ``groups`` groups that hold no track."""
        no_rows = np.zeros(0, dtype=np.intp)
        return cls(
            [0] * groups, [], [], np.zeros((0, 5)), np.zeros((0, 5, 5)), no_rows, no_rows,
            np.zeros(0, dtype=bool),
        )

    def groups(self) -> np.ndarray:
        """The group of every row (a read-only plan)."""
        return _row_groups(tuple(self.counts))

    def take(self, rows: np.ndarray) -> TrackTable:
        """The given rows (ascending) as a new table whose groups keep their
        rows among them; every list and array is a fresh copy."""
        picked = rows.tolist()
        return TrackTable(
            np.bincount(self.groups().take(rows), minlength=len(self.counts)).tolist(),
            [self.ids[r] for r in picked],
            [self.classes[r] for r in picked],
            *(
                column.take(rows, axis=0)
                for column in (
                    self.means, self.covariances, self.frames_seen, self.frames_missed,
                    self.confirmed,
                )
            ),
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
        if not math.isfinite(SPAWN_GATE_FACTOR * float(self.gate_threshold)):
            # An infinite gate would take in pairs whose innovation
            # covariance is singular (their distance is infinite) and give
            # them NaN densities.
            raise ValueError(
                f"gate_threshold times SPAWN_GATE_FACTOR ({SPAWN_GATE_FACTOR}) must be finite"
            )
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
    ``covariances[k]`` (an (m, 2, 2) array) and is of class ``classes[k]``.
    Observations are ordered by group and, within a group, by source name,
    so that each (group, source) block is one run; ``runs`` lists every run
    as (group, source, count), in order, none empty.  Association runs block
    by block in that order.
    """

    means: np.ndarray
    covariances: np.ndarray
    runs: tuple[tuple[int, str, int], ...]
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


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _row_groups(counts: tuple[int, ...]) -> np.ndarray:
    """The group of every row of a table with these group counts."""
    (groups,) = _read_only(np.repeat(np.arange(len(counts)), counts))
    return groups


def _block_pairs(blocks: Sequence[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """Row index, column index and block number of every pair within each
    ``(row start, row stop, column start, column stop)`` block: blocks in
    order, and rows, then columns, ascending within a block."""
    spans = np.array(blocks, dtype=np.intp).reshape(-1, 4)
    widths = spans[:, 3] - spans[:, 2]
    sizes = (spans[:, 1] - spans[:, 0]) * widths
    block = np.arange(len(spans)).repeat(sizes)
    k = np.arange(len(block)) - (sizes.cumsum() - sizes).repeat(sizes)
    row, col = np.divmod(k, widths[block])
    return spans[block, 0] + row, spans[block, 2] + col, block


# Gated observations of each track that has any: track -> [(observation, density)],
# both ascending.
_Gated = dict[int, list[tuple[int, float]]]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _frame_plan(
    counts: tuple[int, ...], runs: tuple[tuple[int, str, int], ...]
) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """The plan of a frame whose table has these group counts and whose
    observations come in these runs: the ``_block_pairs`` of its blocks,
    one per run (the run's group's track rows against the run's columns),
    and the group of every observation."""
    starts = list(itertools.accumulate(counts, initial=0))
    blocks = []
    observation_groups: list[int] = []
    for g, _, size in runs:
        first = len(observation_groups)
        blocks.append((starts[g], starts[g + 1], first, first + size))
        observation_groups += [g] * size
    return _read_only(*_block_pairs(blocks)), tuple(observation_groups)


def _gate_blocks(
    track_pos: np.ndarray,
    track_cov: np.ndarray,
    obs_pos: np.ndarray,
    obs_cov: np.ndarray,
    pairs: tuple[np.ndarray, ...],
    cfg: AssociationConfig,
) -> tuple[np.ndarray, ...]:
    """Gate every (track range, observation range) block of a frame in one pass.

    ``pairs`` are the blocks' ``_block_pairs``.  Returns the gated pairs as
    arrays, ordered by block, then track row, then observation column: each
    pair's block, track row, observation column and Gaussian density,
    indices being into the given arrays.  Only pairs within a block are
    computed, so the work is that of gating each block alone, paid as one
    set of array operations.
    """
    rows, cols, block = pairs
    # take gathers rows an order of magnitude faster than fancy indexing.
    dist2, det = _pair_stats(
        *(a.take(rows, axis=0) for a in (track_pos, track_cov)),
        *(a.take(cols, axis=0) for a in (obs_pos, obs_cov)),
    )
    hits = (dist2 <= cfg.gate_threshold).nonzero()[0]
    # The exponential goes through libm per gated pair, as in the scalar
    # loop: np.exp need not match math.exp bit for bit.
    exps = [math.exp(-0.5 * d2) if d2 < 1e3 else 0.0 for d2 in dist2[hits].tolist()]
    density = np.array(exps, dtype=float) / (_TWO_PI * np.sqrt(det[hits]))
    return block[hits], rows[hits], cols[hits], density


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
        # One track: its events are the miss and each gated observation,
        # with the recursion's products, added in its order.
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


def _enumerated(
    block: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    density: np.ndarray,
    cfg: AssociationConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_marginals`` of whole (block, track) runs of gated pairs by
    enumerating each cluster they form, on Python floats."""
    triples = list(zip(block.tolist(), rows.tolist(), cols.tolist()))
    gated: dict[int, _Gated] = {}
    for (b, i, j), d in zip(triples, density.tolist()):
        gated.setdefault(b, {}).setdefault(i, []).append((j, d))
    marginals = {}
    for b, block_gated in gated.items():
        for track_ids, obs_ids in _clusters(block_gated):
            for i, m in _enumerate_cluster(track_ids, obs_ids, block_gated, cfg).items():
                marginals[b, i] = m
    first = [p for p in range(len(triples)) if p == 0 or triples[p][:2] != triples[p - 1][:2]]
    return (
        np.array([marginals[b, i].get(j, 0.0) for b, i, j in triples], dtype=float),
        np.array(first, dtype=np.intp),
        np.array([marginals[triples[p][:2]][-1] for p in first], dtype=float),
    )


# Below this many tracks alone in their cluster, enumerating them costs less
# than the closed form's fixed set of about 40 numpy calls.
_ARRAY_MARGINALS_MIN = 6


def _marginals(
    block: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    density: np.ndarray,
    cfg: AssociationConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """JPDA marginals of a frame's gated pairs, ordered as ``_gate_blocks``
    returns them.

    Returns each pair's association probability, and for each gated
    (block, track), in pair order, the index of its first pair and its miss
    probability.  Tracks alone in their cluster (every observation they
    gate is gated by no other track), when there are at least
    ``_ARRAY_MARGINALS_MIN`` of them, take the closed form of their events,
    the miss and each gated observation, all at once; the other clusters
    are enumerated (``_enumerated``).  Both give the same bits.
    """
    if len(rows) < _ARRAY_MARGINALS_MIN:
        return _enumerated(block, rows, cols, density, cfg)
    new_key = np.empty(len(rows), dtype=bool)
    new_key[:1] = True
    new_key[1:] = (block[1:] != block[:-1]) | (rows[1:] != rows[:-1])
    key = new_key.cumsum() - 1
    first = new_key.nonzero()[0]
    counts = np.bincount(key, minlength=len(first))
    enumerated = np.zeros(len(first), dtype=bool)
    enumerated[key[np.bincount(cols)[cols] > 1]] = True
    lone = (~enumerated).nonzero()[0]
    if len(lone) < _ARRAY_MARGINALS_MIN:
        enumerated[:], lone = True, lone[:0]
    enumerated_pair = enumerated[key]
    weights = np.zeros(len(rows))
    miss = np.ones(len(first))

    if len(lone):
        k = counts[lone]
        widest = int(k.max())
        if widest + 1 > cfg.max_events:
            raise CombinatorialOverflowError(
                f"joint association events exceed cap {cfg.max_events}; "
                "split the scene into smaller clusters or raise max_events"
            )
        # The products and sums of the one-track enumeration, elementwise in
        # its order; clutter powers come from Python's pow as there.
        clutter = cfg.clutter_density
        powers = np.array([clutter**n for n in range(widest + 1)], dtype=float)
        likelihood = (1.0 - cfg.detection_probability) * powers[k]
        pairs = (~enumerated_pair).nonzero()[0]
        lone_key = new_key[pairs].cumsum() - 1
        events = cfg.detection_probability * density[pairs] * powers[k - 1][lone_key]
        padded = np.zeros((len(lone), widest))
        padded[lone_key, pairs - first[key[pairs]]] = events
        total = likelihood
        for column in padded.T:
            total = total + column
        with np.errstate(all="ignore"):
            valid = (total > 0.0) & np.isfinite(total)
            miss[lone] = np.where(valid, likelihood / total, 1.0)
            weights[pairs] = np.where(valid[lone_key], events / total[lone_key], 0.0)

    pairs = enumerated_pair.nonzero()[0]
    if len(pairs):
        weights[pairs], _, miss[enumerated] = _enumerated(
            block[pairs], rows[pairs], cols[pairs], density[pairs], cfg
        )
    return weights, first, miss


def jpda_weights(
    tracks: Sequence[Track],
    observations: Sequence[GaussianEstimate],
    cfg: AssociationConfig,
) -> AssociationResult:
    """Exact JPDA marginal association probabilities for one source's frame."""
    n, m = len(tracks), len(observations)
    block, rows, cols, density = _gate_blocks(
        *_track_blocks(tracks), *_observation_blocks(observations), _block_pairs([(0, n, 0, m)]),
        cfg,
    )
    probabilities, first, miss = _marginals(block, rows, cols, density, cfg)
    weights = np.zeros((n, m))
    weights[rows, cols] = probabilities
    track_miss = np.ones(n)
    track_miss[rows[first]] = miss
    unassociated = (np.bincount(cols, minlength=m) == 0).nonzero()[0].tolist()
    return AssociationResult(weights, track_miss, unassociated)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _merge_plan(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The merge's ranked pairs over runs of rank positions of these sizes,
    as the first and second position of each: a position pairs with every
    later position of its run, positions in order."""
    later = np.array([k for size in sizes for k in range(size - 1, -1, -1)], dtype=np.intp)
    first = np.arange(len(later)).repeat(later)
    second = first + 1 + np.arange(len(first)) - (later.cumsum() - later).repeat(later)
    return _read_only(first, second)


def _merge_coincident(table: TrackTable, rows: np.ndarray, threshold: float) -> TrackTable:
    """The table's ``rows`` (ascending) less the tracks sitting on top of a
    better-established one of their group, as a new table.

    Soft association keeps duplicate tracks of the same object alive
    indefinitely (they share every observation), so coincidence is resolved
    here: within a group, tracks rank by frames seen (most first), then id,
    and each track not yet absorbed absorbs every later-ranked one not yet
    absorbed within the squared Mahalanobis ``threshold`` of their position
    blocks, picking up its history (the most frames seen, the fewest
    missed, either's confirmation).  The distance of every later-ranked
    pair of every group is computed in one pass, with the operations of a
    scalar per-pair loop in its order; only the pairs within the threshold
    are walked.
    """
    groups = table.groups().take(rows).tolist()
    if len(set(groups)) == len(groups):
        return table.take(rows)
    seen = table.frames_seen.take(rows).tolist()
    ids = [table.ids[r] for r in rows.tolist()]
    order = sorted(range(len(groups)), key=lambda k: (groups[k], -seen[k], ids[k]))
    # The rows ascend, so their groups do: the counter holds each group's
    # run of rank positions in rank order.
    first, second = _merge_plan(tuple(collections.Counter(groups).values()))
    ranked = rows.take(order)
    keepers, others = ranked[first], ranked[second]
    positions, covariances = table.means[:, :2], table.covariances[:, :2, :2]
    dx, dy = (positions.take(others, axis=0) - positions.take(keepers, axis=0)).T
    c = covariances.take(keepers, axis=0) + covariances.take(others, axis=0)
    c00, c01, c10, c11 = c.reshape(-1, 4).T
    with np.errstate(all="ignore"):
        det = c00 * c11 - c01 * c10
        d2 = _quadratic(c00, c01, c11, dx, dy) / det
    d2[det <= 0] = np.inf
    close = (d2 <= threshold).nonzero()[0]
    absorbed: dict[int, int] = {}
    for k, o in zip(keepers[close].tolist(), others[close].tolist()):
        if k not in absorbed and o not in absorbed:
            absorbed[o] = k
    if not absorbed:
        return table.take(rows)
    # A track is absorbed before it could absorb any (its own pairs come
    # later in rank order), so each keeper folds in unchanged histories.
    other, keeper = np.array(list(absorbed.items()), dtype=np.intp).T
    frames_seen, frames_missed, confirmed = (
        column.copy() for column in (table.frames_seen, table.frames_missed, table.confirmed)
    )
    np.maximum.at(frames_seen, keeper, frames_seen.take(other))
    np.minimum.at(frames_missed, keeper, frames_missed.take(other))
    np.logical_or.at(confirmed, keeper, confirmed.take(other))
    stay = np.array([r for r in rows.tolist() if r not in absorbed], dtype=np.intp)
    merged = table._replace(
        frames_seen=frames_seen, frames_missed=frames_missed, confirmed=confirmed
    )
    return merged.take(stay)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _spawn_plan(
    counts: tuple[int, ...], spawning: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, ...]:
    """The spawn gate's plan for a table with these group counts whose
    groups g spawn from u unassociated observations, (g, u) in ``spawning``.

    A group's coverage candidates are its tracks, then the track each of its
    unassociated observations would spawn, which starts at that
    observation's mean and covariance.  Returns the rows of the spawning
    groups' tracks, then each pair's candidate, indexing those tracks
    followed by every spawning observation, and its observation, group by
    group (``_block_pairs`` order).
    """
    starts = list(itertools.accumulate(counts, initial=0))
    candidates = [i for g, _ in spawning for i in range(starts[g], starts[g + 1])]
    order: list[int] = []
    blocks = []
    first_track = first_obs = 0
    for g, u in spawning:
        n = counts[g]
        start = len(order)
        order.extend(range(first_track, first_track + n))
        order.extend(range(len(candidates) + first_obs, len(candidates) + first_obs + u))
        blocks.append((start, len(order), first_obs, first_obs + u))
        first_track, first_obs = first_track + n, first_obs + u
    rows, cols, _ = _block_pairs(blocks)
    candidate_of = np.array(order, dtype=np.intp)[rows]
    return _read_only(np.array(candidates, dtype=np.intp), candidate_of, cols)


def _spawn(
    table: TrackTable,
    unassociated: list[list[int]],
    observations: ObservationBatch,
    cfg: AssociationConfig,
    next_ids: Sequence[Callable[[], int]],
) -> TrackTable:
    """The table with, after each group's tracks, a tentative track for every
    unassociated observation (group g's are the columns ``unassociated[g]``)
    that no track of the group, and no track spawned from an earlier
    observation of the frame, covers within the widened spawn gate.

    A spawned track starts at its observation's position and covariance,
    with speed, heading and yaw rate at zero with variances 1, pi^2 and 1.
    """
    spawning = [g for g, columns in enumerate(unassociated) if columns]
    if not spawning:
        return table
    candidates, rows, cols = _spawn_plan(
        tuple(table.counts), tuple((g, len(unassociated[g])) for g in spawning)
    )
    columns = [j for g in spawning for j in unassociated[g]]
    track_pos, track_cov = table.means[candidates, :2], table.covariances[candidates, :2, :2]
    obs_pos, obs_cov = observations.means[columns], observations.covariances[columns]
    dist2, _ = _pair_stats(
        np.concatenate([track_pos, obs_pos]).take(rows, axis=0),
        np.concatenate([track_cov, obs_cov]).take(rows, axis=0),
        obs_pos.take(cols, axis=0),
        obs_cov.take(cols, axis=0),
    )
    # Block entry (candidate r, observation k) sits at offset + r * u + k.
    covers = (dist2 <= SPAWN_GATE_FACTOR * cfg.gate_threshold).tolist()
    spawned: list[list[int]] = [[] for _ in table.counts]
    offset = 0
    for g in spawning:
        n, u = table.counts[g], len(unassociated[g])
        spawners: list[int] = []
        for k, j in enumerate(unassociated[g]):
            covered_by = covers[offset + k : offset + (n + u) * u : u]
            if any(covered_by[:n]) or any(covered_by[n + s] for s in spawners):
                continue
            spawners.append(k)
            spawned[g].append(j)
        offset += (n + u) * u

    columns = [j for group in spawned for j in group]
    if not columns:
        return table
    m = len(columns)
    means = np.zeros((m, 5))
    means[:, :2] = observations.means.take(columns, axis=0)
    covs = np.zeros((m, 5, 5))
    covs[:, :2, :2] = observations.covariances.take(columns, axis=0)
    covs[:, 2, 2], covs[:, 3, 3], covs[:, 4, 4] = 1.0, math.pi**2, 1.0
    groups = [g for g, group in enumerate(spawned) for _ in group]
    ids = table.ids + [next_ids[g]() for g in groups]
    classes = table.classes + [observations.classes[j] for j in columns]
    # A stable sort by group puts each group's spawns after its tracks.
    order = np.argsort(np.concatenate([table.groups(), groups]), kind="stable")
    rows = order.tolist()
    return TrackTable(
        [count + len(group) for count, group in zip(table.counts, spawned)],
        [ids[r] for r in rows],
        [classes[r] for r in rows],
        *(
            np.concatenate(pair).take(order, axis=0)
            for pair in (
                (table.means, means),
                (table.covariances, covs),
                (table.frames_seen, np.ones(m, dtype=np.intp)),
                (table.frames_missed, np.zeros(m, dtype=np.intp)),
                (table.confirmed, np.full(m, cfg.confirm_threshold <= 1)),
            )
        ),
    )


def associate_frame(
    table: TrackTable,
    state: tuple[np.ndarray, np.ndarray],
    observations: ObservationBatch,
    cfg: AssociationConfig,
    next_ids: Sequence[Callable[[], int]],
) -> TrackTable:
    """One fusion frame over every group of a tier; returns the tier's new table.

    Group g of ``table`` holds group g's tracks, and ``next_ids[g]`` hands
    out its new track ids.  ``state`` is the table's tracks predicted to
    the frame time, ``ctrv_predict((table.means, table.covariances), ...)``:
    their means (n, 5) and covariances (n, 5, 5).  Nothing given is
    changed.

    Sources (sensor pipelines locally, platforms globally) each report an
    object at most once, so association runs per (group, source) block:
    within one source a track takes at most one observation, while across
    sources a track accumulates up to one observation per source.  This is what makes a
    second platform's view of the same object add information instead of
    splitting the first one's weight.  The blocks come from the runs of
    ``observations`` and the table's group counts (``_frame_plan``); every
    block is gated in one pass and the JPDA marginals of all blocks come
    out together (``_marginals``).

    Each track updates once with every observation whose weight clears the
    floor (see ``multi_update``), the observation covariance inflated by
    1/weight to realize the soft assignment; all groups' tracks update
    together.  Then, as passes over every track, a track that took an
    observation counts as seen and any other as missed, tracks seen often
    enough are confirmed, and tracks missed too often or too uncertain are
    deleted; coincident tracks merge within their group
    (``_merge_coincident``), and unassociated observations spawn tentative
    tracks after their group's tracks unless a live track already covers
    them within the widened spawn gate (``_spawn``).
    """
    pairs, observation_groups = _frame_plan(tuple(table.counts), observations.runs)
    means, covs = state
    block, rows, cols, density = _gate_blocks(
        means[:, :2], covs[:, :2, :2], observations.means, observations.covariances, pairs, cfg
    )
    weights, _, _ = _marginals(block, rows, cols, density, cfg)
    unassociated: list[list[int]] = [[] for _ in table.counts]
    inside = np.bincount(cols, minlength=len(observation_groups))
    for j in (inside == 0).nonzero()[0].tolist():
        unassociated[observation_groups[j]].append(j)

    # Accepted pairs, grouped by track, each track's in block (source) order.
    accepted = (weights > cfg.weight_floor).nonzero()[0]
    accepted = accepted[np.argsort(rows[accepted], kind="stable")]
    rows, cols = rows[accepted], cols[accepted]
    inflated = observations.covariances.take(cols, axis=0) / weights[accepted].reshape(-1, 1, 1)
    _, means, covs = multi_update(
        (means, covs), rows, observations.means.take(cols, axis=0), inflated
    )

    seen = np.zeros(len(means), dtype=bool)
    seen[rows] = True
    frames_seen = table.frames_seen + seen
    frames_missed = np.where(seen, 0, table.frames_missed + 1)
    confirmed = table.confirmed | (frames_seen >= cfg.confirm_threshold)
    live = (
        (frames_missed < cfg.delete_threshold)
        & (covs[:, 0, 0] + covs[:, 1, 1] <= cfg.max_position_variance)
    ).nonzero()[0]
    updated = table._replace(
        means=means, covariances=covs, frames_seen=frames_seen, frames_missed=frames_missed,
        confirmed=confirmed,
    )
    return _spawn(
        _merge_coincident(updated, live, cfg.gate_threshold), unassociated, observations, cfg,
        next_ids,
    )
