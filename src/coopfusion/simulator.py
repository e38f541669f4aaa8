"""Deterministic desk-scale scenario simulator.

The world is a figure-8 track: two straights of length ``s_l`` crossing at
the origin at +-45 degrees, each tangent to a constant-radius (``s_l/2``)
turn loop, the loops on opposite sides with opposite handedness.  Vehicles
follow the path at a target speed, obeying a fixed-cycle traffic light at
the crossing.  Sensors and localizers report ground truth perturbed by
noise drawn from configurable error models, one named RNG stream per sensor
per platform so any sensor can be removed without disturbing the others.
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
    PolarObservation,
    SensorPose,
    eval_error_model,
)
from .geometry import wrap_angle
from .local_fusion import LocalFrame, SensorPipelineConfig

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


def synth_sensor_frame(
    pipeline: SensorPipelineConfig,
    platform_pose: PlatformPose,
    targets: Sequence[np.ndarray],
    rng: np.random.Generator,
    miss_probability: float = 0.0,
    clutter_rate: float = 0.0,
    error_states: dict[int, tuple] | None = None,
    rho: float = 0.0,
) -> list[PolarObservation]:
    """Noisy polar detections of world-frame targets for one sensor tick.

    Noise is drawn along and across the true sensor-to-target ray with
    std-devs from the pipeline's (truth) error models evaluated at the true
    distance, then converted back to range/bearing.  When ``error_states``
    and ``rho`` are given, each target's error follows a Gauss-Markov
    process (recognizer error persists between frames while the viewing
    geometry persists); the per-tick marginal stays N(0, sigma(d)^2).
    """
    mount = pipeline.pose
    heading = math.cos(platform_pose.theta), math.sin(platform_pose.theta)
    sensor_x = platform_pose.x + mount.x_sensor * heading[0] - mount.y_sensor * heading[1]
    sensor_y = platform_pose.y + mount.x_sensor * heading[1] + mount.y_sensor * heading[0]
    sensor_heading = platform_pose.theta + mount.theta_sensor
    states = {} if error_states is None else error_states

    observations = []
    for target_idx, target in enumerate(targets):
        rel_x = float(target[0]) - sensor_x
        rel_y = float(target[1]) - sensor_y
        dist = math.hypot(rel_x, rel_y)
        if dist > pipeline.max_range:
            continue
        bearing = float(wrap_angle(math.atan2(rel_y, rel_x) - sensor_heading))
        if abs(bearing) > 0.5 * pipeline.fov:
            continue
        if miss_probability > 0.0 and rng.random() < miss_probability:
            continue
        sigma_distal = eval_error_model(pipeline.distal_model, dist)
        sigma_perp = eval_error_model(pipeline.perp_model, dist)
        prev_distal, prev_perp = states.get(target_idx, (None, None))
        eps_distal = _gauss_markov(prev_distal, sigma_distal, rho, rng)
        eps_perp = _gauss_markov(prev_perp, sigma_perp, rho, rng)
        states[target_idx] = ((eps_distal, sigma_distal), (eps_perp, sigma_perp))
        cos_b = math.cos(bearing)
        sin_b = math.sin(bearing)
        px = (dist + eps_distal) * cos_b - eps_perp * sin_b
        py = (dist + eps_distal) * sin_b + eps_perp * cos_b
        observations.append(
            PolarObservation(math.hypot(px, py), math.atan2(py, px), "vehicle")
        )
    if clutter_rate > 0.0:
        for _ in range(rng.poisson(clutter_rate)):
            dist = pipeline.max_range * math.sqrt(rng.random())
            bearing = (rng.random() - 0.5) * pipeline.fov
            observations.append(PolarObservation(dist, bearing, "other"))
    return observations


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
    """Ground truth and measurements for one simulator tick."""

    index: int
    t: float
    cav_poses: list[PlatformPose]
    cav_arcs: list[tuple[float, float]]
    loc_poses: list[PlatformPose]
    frames: dict[str, LocalFrame]


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
        self._rngs: dict[str, np.random.Generator] = {}
        self.cis_poses = cis_poses(config)
        self._truth_pipelines = {
            pid: sensor_pipelines(config, kind, config.truth_models)
            for kind, ids in (("cav", self.cav_ids), ("cis", self.cis_ids))
            for pid in ids
        }
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
        self._sensor_error_states: dict[str, dict[int, tuple]] = {}

    def rng(self, name: str) -> np.random.Generator:
        if name not in self._rngs:
            self._rngs[name] = stream_rng(self.config.seed, name)
        return self._rngs[name]

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

        loc_poses = []
        for i, (pid, pose) in enumerate(zip(self.cav_ids, cav_poses)):
            loc_poses.append(self._localizers[i].measure(pose, self.rng(f"{pid}/localizer")))

        frames: dict[str, LocalFrame] = {}
        all_positions = [pose.position for pose in cav_poses]
        for i, pid in enumerate(self.cav_ids):
            targets = [p for j, p in enumerate(all_positions) if j != i]
            frames[pid] = self._sense(pid, cav_poses[i], targets, t)
        for pid, pose in zip(self.cis_ids, self.cis_poses):
            frames[pid] = self._sense(pid, pose, all_positions, t)

        return TickData(
            index=index,
            t=t,
            cav_poses=cav_poses,
            cav_arcs=cav_arcs,
            loc_poses=loc_poses,
            frames=frames,
        )

    def _sense(
        self, pid: str, pose: PlatformPose, targets: list[np.ndarray], t: float
    ) -> LocalFrame:
        observations = {}
        for pipeline in self._truth_pipelines[pid]:
            stream = f"{pid}/{pipeline.name}"
            observations[pipeline.name] = synth_sensor_frame(
                pipeline,
                pose,
                targets,
                self.rng(stream),
                miss_probability=self.config.miss_probability,
                clutter_rate=self.config.clutter_rate,
                error_states=self._sensor_error_states.setdefault(stream, {}),
                rho=self._sensing_rho,
            )
        return LocalFrame(timestamp=t, observations=observations)
