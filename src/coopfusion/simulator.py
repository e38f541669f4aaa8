"""Deterministic desk-scale scenario simulator.

The world is a figure-8 track: two straights of length ``s_l`` crossing at
the origin at +-45 degrees, each tangent to a constant-radius (``s_l/2``)
turn loop, the loops on opposite sides with opposite handedness.  Vehicles
follow the path at a target speed, obeying a fixed-cycle traffic light at
the crossing.  Sensors and localizers report ground truth perturbed by
noise drawn from configurable error models, one named RNG stream per sensor
per platform so any sensor can be removed without disturbing the others.

Sensing runs as one array pass per tick (``sense``) over a ``StreamTable``
built once per run: a stream per (platform, pipeline) and a row per
(stream, target) pair, whose Gauss-Markov error state is kept in
``SensingErrors``.  A tick's detections leave ``Simulation.tick`` as
``Detections`` columns, stream by stream.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .error_models import (
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    ModelSet,
    PlatformPose,
    SensorPose,
    SensorTable,
    eval_error_model,
    sensor_table,
)
from .geometry import cos_sin, wrap_angle
from .local_fusion import SensorPipelineConfig

CAMERA_FOV = math.radians(160.0)
LIDAR_FOV = 2.0 * math.pi

# Stop line sits this fraction of the straight length before the crossing.
STOP_OFFSET_FRACTION = 0.25

# Fixed-cycle two-phase light protecting the crossing: each direction sees
# 6 s green then 10 s red, the two greens offset by half the cycle so they
# never overlap (2 s all-red clearance on each changeover).
LIGHT_GREEN = 6.0
LIGHT_RED = 10.0
LIGHT_OFFSET = 8.0


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Independent, reproducible generator for a named noise stream."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), *words]))


class FigureEightPath:
    """Closed C1 figure-8 curve parameterized by arc length.

    Geometry: turn radius r = s_l/2, loop centers at (+-r*sqrt(2), 0).  The
    two straights run through the origin at +-45 degrees, each tangent to
    both loops; each loop spans 270 degrees.  Total length = s_l*(2 + 3*pi/2).
    """

    def __init__(self, straight_length: float):
        if not (straight_length > 0.0):
            raise ValueError("straight_length must be positive")
        self.straight_length = straight_length
        r = 0.5 * straight_length
        self.radius = r
        self.center_offset = r * math.sqrt(2.0)
        arc = 1.5 * math.pi * r
        # Segment boundaries: half straight, loop, full straight, loop, half straight.
        self._bounds = (r, r + arc, 3.0 * r + arc, 3.0 * r + 2.0 * arc, 4.0 * r + 2.0 * arc)
        self.length = self._bounds[-1]
        # Arc positions of the two origin crossings and their direction index.
        self.crossings = ((0.0, 0), (2.0 * r + arc, 1))

    def pose(self, s: float) -> tuple[float, float, float, float]:
        """(x, y, heading, curvature) at arc position ``s`` (wrapped)."""
        s = s % self.length
        r = self.radius
        c = self.center_offset
        half = math.sqrt(0.5)
        b0, b1, b2, b3, _ = self._bounds
        if s < b0:
            return s * half, s * half, math.pi / 4.0, 0.0
        if s < b1:
            ang = 0.75 * math.pi - (s - b0) / r
            return (
                c + r * math.cos(ang),
                r * math.sin(ang),
                float(wrap_angle(ang - 0.5 * math.pi)),
                -1.0 / r,
            )
        if s < b2:
            u = s - b1
            return r * half - u * half, -r * half + u * half, 0.75 * math.pi, 0.0
        if s < b3:
            ang = 0.25 * math.pi + (s - b2) / r
            return (
                -c + r * math.cos(ang),
                r * math.sin(ang),
                float(wrap_angle(ang + 0.5 * math.pi)),
                1.0 / r,
            )
        u = s - b3
        return -r * half + u * half, -r * half + u * half, math.pi / 4.0, 0.0

    def position(self, s: float) -> np.ndarray:
        x, y, _, _ = self.pose(s)
        return np.array([x, y])

    def next_crossing(self, s: float) -> tuple[float, int]:
        """Distance along the path to the nearest upcoming crossing and its direction."""
        s = s % self.length
        best = (math.inf, 0)
        for cross_s, direction in self.crossings:
            dist = (cross_s - s) % self.length
            if dist < best[0]:
                best = (dist, direction)
        return best


def light_is_green(direction: int, t: float) -> bool:
    """Whether the crossing's light shows green to ``direction`` (0 or 1) at ``t``."""
    return (t + LIGHT_OFFSET * direction) % (LIGHT_GREEN + LIGHT_RED) < LIGHT_GREEN


@dataclass
class VehicleState:
    """Path-following vehicle: arc position, speed, and stop-decision latch."""

    s: float
    v: float
    stopping: bool = False


def step_vehicle(
    vehicle: VehicleState,
    path: FigureEightPath,
    dt: float,
    light_state: tuple[bool, bool],
    target_speed: float,
    accel: float = 1.0,
    gap_ahead: float = math.inf,
    min_gap: float = 0.0,
    crossing_blocked: bool = False,
) -> VehicleState:
    """Advance one vehicle by ``dt`` with trapezoidal speed control.

    The vehicle holds at the stop line (``STOP_OFFSET_FRACTION`` of the
    straight before the crossing) for a red light at its next crossing
    (or while the crossing is occupied by conflicting traffic) when it can
    still stop comfortably; otherwise it is committed and clears the
    intersection.  It never closes within ``min_gap`` of the vehicle ahead
    on the path.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")

    dist_cross, direction = path.next_crossing(vehicle.s)
    dist_stop = dist_cross - STOP_OFFSET_FRACTION * path.straight_length
    hold = (not light_state[direction]) or crossing_blocked

    stopping = vehicle.stopping
    if not hold:
        stopping = False
    elif not stopping and dist_stop >= 0.0 and vehicle.v**2 <= 2.0 * accel * dist_stop + 1e-12:
        stopping = True

    limit = target_speed
    if stopping:
        headroom = max(0.0, dist_stop)
        limit = min(limit, math.sqrt(2.0 * accel * headroom), headroom / dt)
    if math.isfinite(gap_ahead):
        headroom = max(0.0, gap_ahead - min_gap)
        limit = min(limit, math.sqrt(2.0 * accel * headroom), headroom / dt)

    v_new = max(0.0, min(vehicle.v + accel * dt, limit))
    s_new = (vehicle.s + v_new * dt) % path.length
    return VehicleState(s=s_new, v=v_new, stopping=stopping)


def _gauss_markov(prev: tuple[float, float] | None, sigma: float, rho: float, rng) -> float:
    """Next AR(1) error with marginal N(0, sigma^2) after ``prev`` = (error,
    sigma), rescaled to the new sigma; None starts with a fresh draw."""
    if prev is None:
        return sigma * rng.normal()
    error, prev_sigma = prev
    return rho * error * (sigma / prev_sigma) + sigma * math.sqrt(max(1.0 - rho * rho, 0.0)) * rng.normal()


DETECTION_CLASSES = ("vehicle", "other")


@dataclass(frozen=True)
class StreamTable:
    """A run's sensing noise streams, one per (platform, pipeline), and the
    (stream, target) pairs each can see.

    Stream s is platform ``platforms[s]``'s pipeline: it draws from
    ``rngs[s]``, its row s of ``sensors`` holds the mount pose and the
    truth models, and it sees out to ``max_range[s]`` within ``fov[s]``.
    Pair k is stream ``streams[k]`` looking at target ``targets[k]``; pairs
    are ordered by stream, then by target.
    """

    rngs: list[np.random.Generator]
    platforms: np.ndarray
    sensors: SensorTable
    max_range: np.ndarray
    fov: np.ndarray
    streams: np.ndarray
    targets: np.ndarray


def stream_table(
    streams: Sequence[tuple[int, SensorPipelineConfig, np.random.Generator, Sequence[int]]],
) -> StreamTable:
    """The table of (platform index, truth pipeline, noise stream, target
    indices) rows; raises ``ModelError`` unless every model uses the
    distance predictor."""
    pipelines = [pipeline for _, pipeline, _, _ in streams]
    targets = [list(row[3]) for row in streams]
    return StreamTable(
        rngs=[rng for _, _, rng, _ in streams],
        platforms=np.array([row[0] for row in streams], dtype=np.intp),
        sensors=sensor_table([(p.pose, p.distal_model, p.perp_model) for p in pipelines]),
        max_range=np.array([p.max_range for p in pipelines], dtype=float),
        fov=np.array([p.fov for p in pipelines], dtype=float),
        streams=np.repeat(np.arange(len(streams)), [len(row) for row in targets]),
        targets=np.array([j for row in targets for j in row], dtype=np.intp),
    )


@dataclass
class SensingErrors:
    """Gauss-Markov sensing error of each (stream, target) pair: the last
    error along and across the ray (``error``, (n, 2)), the sigmas it was
    drawn with (``sigma``) and whether the pair has drawn one (``drawn``).
    A pair out of view keeps its row until it is seen again."""

    error: np.ndarray
    sigma: np.ndarray
    drawn: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "SensingErrors":
        # A unit sigma keeps the carried term of an undrawn pair finite.
        return cls(np.zeros((n, 2)), np.ones((n, 2)), np.zeros(n, dtype=bool))


@dataclass
class Detections:
    """One tick's detections as columns, stream by stream: row k was
    measured at ``distances[k]`` and bearing ``bearings[k]`` (wrapped) and
    is clutter (class "other", else "vehicle") where ``clutter[k]``; stream
    s emitted rows ``bounds[s]`` to ``bounds[s + 1]``."""

    distances: np.ndarray
    bearings: np.ndarray
    clutter: np.ndarray
    bounds: np.ndarray


def _draws(
    rngs: list[np.random.Generator],
    counts: list[int],
    rows: list[int],
    miss_probability: float,
    clutter_rate: float,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every stream's draws, stream by stream, in the order of a per-target
    loop.  Stream s sees the next ``counts[s]`` of ``rows``.  Without misses
    it draws two normals per row; with them, a uniform per row, then two
    normals if the row is kept.  Then, with clutter, a Poisson count and two
    uniforms per clutter detection.  Returns the kept rows, their (k, 2)
    standard normals and each stream's (c, 2) clutter uniforms."""
    kept, normals, clutter = [], [], []
    start = 0
    for rng, count in zip(rngs, counts):
        stream_rows = rows[start : start + count]
        start += count
        if miss_probability > 0.0:
            for row in stream_rows:
                if not rng.random() < miss_probability:
                    kept.append(row)
                    normals.append(rng.standard_normal((1, 2)))
        else:
            kept.extend(stream_rows)
            normals.append(rng.standard_normal((count, 2)))
        if clutter_rate > 0.0:
            clutter.append(rng.random((rng.poisson(clutter_rate), 2)))
    return np.array(kept, dtype=np.intp), np.concatenate([np.empty((0, 2)), *normals]), clutter


def sense(
    table: StreamTable,
    errors: SensingErrors,
    platforms: np.ndarray,
    targets: np.ndarray,
    miss_probability: float,
    clutter_rate: float,
    rho: float,
) -> Detections:
    """Noisy polar detections by every stream of ``table`` for one tick.

    ``platforms`` holds each platform's world (x, y, theta) and ``targets``
    each target's world (x, y).  Noise is drawn along and across the true
    sensor-to-target ray with std-devs from the stream's truth models at the
    true distance, then converted back to range and bearing.  A target in
    view is missed with ``miss_probability``, and each stream adds a
    Poisson(``clutter_rate``) count of clutter detections.  Each pair's
    error follows a Gauss-Markov process with correlation ``rho`` (0 draws
    afresh each tick) whose marginal stays N(0, sigma(d)^2).  Every step is
    elementwise, with hypot, atan2, cos and sin through ``math``, so a
    detection gets the bits a per-target loop gives it.
    """
    observers = table.platforms
    trig = cos_sin(platforms[:, 2]).take(observers, axis=0)
    origins = platforms.take(observers, axis=0)
    mounts = table.sensors.poses
    sensor_x = origins[:, 0] + mounts[:, 0] * trig[:, 0] - mounts[:, 1] * trig[:, 1]
    sensor_y = origins[:, 1] + mounts[:, 0] * trig[:, 1] + mounts[:, 1] * trig[:, 0]
    heading = origins[:, 2] + mounts[:, 2]

    pairs = table.streams
    seen_targets = targets.take(table.targets, axis=0)
    rel_x = (seen_targets[:, 0] - sensor_x.take(pairs)).tolist()
    rel_y = (seen_targets[:, 1] - sensor_y.take(pairs)).tolist()
    dist = np.fromiter(map(math.hypot, rel_x, rel_y), float, len(rel_x))
    ray = np.fromiter(map(math.atan2, rel_y, rel_x), float, len(rel_x))
    bearing = wrap_angle(ray - heading.take(pairs))
    out_of_view = (dist > table.max_range.take(pairs)) | (
        np.abs(bearing) > 0.5 * table.fov.take(pairs)
    )
    visible = (~out_of_view).nonzero()[0]
    kept, z, uniforms = _draws(
        table.rngs,
        np.bincount(pairs.take(visible), minlength=len(table.rngs)).tolist(),
        visible.tolist(),
        miss_probability,
        clutter_rate,
    )

    dist = dist.take(kept)
    streams = pairs.take(kept)
    sigma = table.sensors.sigmas(streams, dist)
    carried = (
        rho * errors.error[kept] * (sigma / errors.sigma[kept])
        + sigma * math.sqrt(max(1.0 - rho * rho, 0.0)) * z
    )
    eps = np.where(errors.drawn[kept, None], carried, sigma * z)
    errors.error[kept] = eps
    errors.sigma[kept] = sigma
    errors.drawn[kept] = True

    trig = cos_sin(bearing.take(kept))
    along = dist + eps[:, 0]
    px = (along * trig[:, 0] - eps[:, 1] * trig[:, 1]).tolist()
    py = (along * trig[:, 1] + eps[:, 1] * trig[:, 0]).tolist()
    distances = np.fromiter(map(math.hypot, px, py), float, len(px))
    bearings = np.fromiter(map(math.atan2, py, px), float, len(px))
    clutter = np.zeros(len(kept), dtype=bool)
    if clutter_rate > 0.0:
        # A stream's clutter follows its targets: uniform in area within
        # its range and uniform in bearing within its field of view.
        n_clutter = [len(u) for u in uniforms]
        u = np.concatenate([np.empty((0, 2)), *uniforms])
        clutter_streams = np.repeat(np.arange(len(uniforms)), n_clutter)
        order = np.argsort(np.concatenate([streams, clutter_streams]), kind="stable")
        streams = np.concatenate([streams, clutter_streams])[order]
        distances = np.concatenate(
            [distances, table.max_range[clutter_streams] * np.sqrt(u[:, 0])]
        )[order]
        bearings = np.concatenate([bearings, (u[:, 1] - 0.5) * table.fov[clutter_streams]])[order]
        clutter = order >= len(kept)
    return Detections(
        distances=distances,
        bearings=wrap_angle(bearings),
        clutter=clutter,
        bounds=np.searchsorted(streams, np.arange(len(table.rngs) + 1)),
    )


class LocalizerDrift:
    """Stateful localizer error: AR(1) drift with the models' marginal sigma.

    Odometry-style localization error is strongly correlated in time; each
    component follows a Gauss-Markov process rescaled so that the marginal
    distribution at every tick is exactly N(0, sigma(v)^2).  A correlation
    time of zero reduces to independent draws per tick.
    """

    def __init__(
        self,
        longitudinal: ErrorModel,
        lateral: ErrorModel,
        dt: float,
        correlation_time: float,
        heading_sigma: float = 0.01,
    ):
        self.longitudinal = longitudinal
        self.lateral = lateral
        self.heading_sigma = heading_sigma
        self.rho = math.exp(-dt / correlation_time) if correlation_time > 0.0 else 0.0
        self._state: tuple = (None, None)

    def measure(self, true_pose: PlatformPose, rng: np.random.Generator) -> PlatformPose:
        sigma_lon = eval_error_model(self.longitudinal, true_pose.v)
        sigma_lat = eval_error_model(self.lateral, true_pose.v)
        prev_lon, prev_lat = self._state
        eps_lon = _gauss_markov(prev_lon, sigma_lon, self.rho, rng)
        eps_lat = _gauss_markov(prev_lat, sigma_lat, self.rho, rng)
        self._state = ((eps_lon, sigma_lon), (eps_lat, sigma_lat))
        cos_h = math.cos(true_pose.theta)
        sin_h = math.sin(true_pose.theta)
        return PlatformPose(
            true_pose.x + eps_lon * cos_h - eps_lat * sin_h,
            true_pose.y + eps_lon * sin_h + eps_lat * cos_h,
            float(wrap_angle(true_pose.theta + rng.normal(0.0, self.heading_sigma))),
            true_pose.v,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one reproducible scenario run."""

    name: str
    straight_length: float
    cav_count: int
    cis_count: int
    duration: float
    seed: int
    tick_rate: float = 8.0
    target_speed: float = 0.5
    truth_models: ModelSet = DEFAULT_PARAMETERIZED_MODELS
    camera_range: float = 5.0
    lidar_range: float = 8.0
    miss_probability: float = 0.0
    clutter_rate: float = 0.0
    heading_noise: float = 0.01
    loc_correlation_time: float = 6.0
    sensing_correlation_time: float = 0.0
    cis_pose_var: float = 1e-6
    accel_limit: float = 1.0
    # One vehicle length at 1/10 scale; queued vehicles hold this arc gap.
    min_gap: float = 0.55

    def __post_init__(self):
        if not (self.straight_length > 0.0):
            raise ValueError("straight_length must be positive")
        for name in ("cav_count", "cis_count", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.cav_count < 0 or self.cis_count < 0:
            raise ValueError("platform counts must be >= 0")
        if self.cis_count > 2:
            raise ValueError("at most two infrastructure sensors are placed")
        if not (self.tick_rate > 0.0) or not (self.duration > 0.0):
            raise ValueError("duration and tick_rate must be positive")
        ticks = self.duration * self.tick_rate
        if not math.isfinite(ticks) or round(ticks) < 1:
            raise ValueError(f"duration * tick_rate must round to at least one tick, got {ticks}")
        if not (0.0 <= self.miss_probability <= 1.0):
            raise ValueError("miss_probability must be in [0, 1]")
        for name in ("camera_range", "lidar_range", "accel_limit"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        for name in (
            "target_speed",
            "clutter_rate",
            "heading_noise",
            "loc_correlation_time",
            "sensing_correlation_time",
            "cis_pose_var",
            "min_gap",
        ):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_json_dict() if f.name == "truth_models" else value
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown scenario config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "truth_models" in kwargs and not isinstance(kwargs["truth_models"], ModelSet):
            kwargs["truth_models"] = ModelSet.from_json_dict(kwargs["truth_models"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"scenario config: {exc}") from exc


@dataclass
class TickData:
    """Ground truth and measurements for one simulator tick; the detections
    run stream by stream in ``Simulation.streams`` order."""

    index: int
    t: float
    cav_poses: list[PlatformPose]
    cav_arcs: list[tuple[float, float]]
    loc_poses: list[PlatformPose]
    detections: Detections


def cav_id(index: int) -> str:
    return f"cav{index}"


def cis_id(index: int) -> str:
    return f"cis{index}"


def cis_poses(config: ScenarioConfig) -> list[PlatformPose]:
    """Surveyed CIS placements: above and below the crossing, facing it."""
    s_l = config.straight_length
    placements = [
        PlatformPose(0.0, s_l, -0.5 * math.pi, 0.0),
        PlatformPose(0.0, -s_l, 0.5 * math.pi, 0.0),
    ]
    return placements[: config.cis_count]


def sensor_pipelines(
    config: ScenarioConfig, kind: str, models: ModelSet
) -> list[SensorPipelineConfig]:
    """Pipeline configs for a platform kind (``"cav"`` or ``"cis"``) bound to a model set."""
    camera = SensorPipelineConfig(
        name="camera",
        pose=SensorPose(),
        fov=CAMERA_FOV,
        max_range=config.camera_range,
        distal_model=models.camera_distal,
        perp_model=models.camera_perpendicular,
    )
    if kind == "cis":
        return [camera]
    lidar = SensorPipelineConfig(
        name="lidar",
        pose=SensorPose(),
        fov=LIDAR_FOV,
        max_range=config.lidar_range,
        distal_model=models.lidar_distal,
        perp_model=models.lidar_perpendicular,
    )
    return [camera, lidar]


class Simulation:
    """Tick-synchronous world advancing CAVs, lights, and synthetic sensors."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.path = FigureEightPath(config.straight_length)
        self.dt = 1.0 / config.tick_rate
        # Equal arc-length spacing with a seeded common phase: the half-slot
        # shift keeps vehicles off the two crossings (which sit exactly half
        # a lap apart), and the formation phase varies how the loop beats
        # against the traffic-light cycle from seed to seed.
        spacing = self.path.length / max(config.cav_count, 1)
        phase = float(stream_rng(config.seed, "formation").uniform(0.0, self.path.length))
        self.vehicles = [
            VehicleState(s=(phase + (i + 0.5) * spacing) % self.path.length, v=config.target_speed)
            for i in range(config.cav_count)
        ]
        self.cav_ids = [cav_id(i) for i in range(config.cav_count)]
        self.cis_ids = [cis_id(i) for i in range(config.cis_count)]
        self.cis_poses = cis_poses(config)
        # One noise stream per (platform, pipeline): the CAVs, then the CIS,
        # each pipeline in ``sensor_pipelines`` order.  A CAV sees every
        # other CAV; a CIS sees every CAV.
        kinds = ["cav"] * config.cav_count + ["cis"] * config.cis_count
        truth_pipelines = [
            (i, pid, pipeline)
            for i, (kind, pid) in enumerate(zip(kinds, self.cav_ids + self.cis_ids))
            for pipeline in sensor_pipelines(config, kind, config.truth_models)
        ]
        self.streams = [(pid, pipeline.name) for _, pid, pipeline in truth_pipelines]
        self._sensing = stream_table(
            [
                (
                    i,
                    pipeline,
                    stream_rng(config.seed, f"{pid}/{pipeline.name}"),
                    [j for j in range(config.cav_count) if j != i],
                )
                for i, pid, pipeline in truth_pipelines
            ]
        )
        self._sensing_errors = SensingErrors.fresh(len(self._sensing.targets))
        self._localizer_rngs = [stream_rng(config.seed, f"{pid}/localizer") for pid in self.cav_ids]
        self._localizers = [
            LocalizerDrift(
                config.truth_models.localizer_longitudinal,
                config.truth_models.localizer_lateral,
                self.dt,
                config.loc_correlation_time,
                heading_sigma=config.heading_noise,
            )
            for _ in range(config.cav_count)
        ]
        self._sensing_rho = (
            math.exp(-self.dt / config.sensing_correlation_time)
            if config.sensing_correlation_time > 0.0
            else 0.0
        )

    def _advance_vehicles(self, t: float) -> None:
        cfg = self.config
        light_state = (light_is_green(0, t), light_is_green(1, t))
        current = list(self.vehicles)
        # A vehicle may not enter the crossing box while another vehicle
        # occupies it (they are solid; approaches conflict at the origin).
        box = 0.8 * STOP_OFFSET_FRACTION * self.path.straight_length
        occupied = [
            i
            for i, vehicle in enumerate(current)
            if float(np.hypot(*self.path.position(vehicle.s))) < box
        ]
        updated = []
        for i, vehicle in enumerate(current):
            gap = math.inf
            for j, other in enumerate(current):
                if j == i:
                    continue
                ahead = (other.s - vehicle.s) % self.path.length
                if 0.0 < ahead < gap:
                    gap = ahead
            blocked = any(j != i for j in occupied) and i not in occupied
            updated.append(
                step_vehicle(
                    vehicle,
                    self.path,
                    self.dt,
                    light_state,
                    cfg.target_speed,
                    accel=cfg.accel_limit,
                    gap_ahead=gap,
                    min_gap=cfg.min_gap,
                    crossing_blocked=blocked,
                )
            )
        self.vehicles = updated

    def tick(self, index: int) -> TickData:
        """Advance to tick ``index`` (call with 0, 1, 2, ... in order)."""
        t = index * self.dt
        if index > 0:
            self._advance_vehicles(t)

        cav_poses = []
        cav_arcs = []
        for vehicle in self.vehicles:
            x, y, heading, _ = self.path.pose(vehicle.s)
            cav_poses.append(PlatformPose(x, y, heading, vehicle.v))
            cav_arcs.append((vehicle.s, vehicle.v))

        loc_poses = [
            localizer.measure(pose, rng)
            for localizer, pose, rng in zip(self._localizers, cav_poses, self._localizer_rngs)
        ]

        platforms = np.array(
            [(pose.x, pose.y, pose.theta) for pose in cav_poses + self.cis_poses], dtype=float
        ).reshape(-1, 3)
        detections = sense(
            self._sensing,
            self._sensing_errors,
            platforms,
            platforms[: len(cav_poses), :2],
            self.config.miss_probability,
            self.config.clutter_rate,
            self._sensing_rho,
        )
        return TickData(
            index=index,
            t=t,
            cav_poses=cav_poses,
            cav_arcs=cav_arcs,
            loc_poses=loc_poses,
            detections=detections,
        )
