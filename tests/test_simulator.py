import math

import numpy as np
import pytest
from scipy.integrate import quad

from coopfusion import simulator
from coopfusion.error_models import (
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    PlatformPose,
    SensorPose,
)
from coopfusion.evaluation import scenario_names, scenario_preset
from coopfusion.local_fusion import SensorPipelineConfig
from coopfusion.simulator import (
    DETECTION_CLASSES,
    FigureEightPath,
    LocalizerDrift,
    ScenarioConfig,
    SensingErrors,
    Simulation,
    VehicleState,
    light_is_green,
    sense,
    step_vehicle,
    stream_rng,
    stream_table,
)
from oracles import SimulationSensingReference, synth_sensor_frame_reference

MODELS = DEFAULT_PARAMETERIZED_MODELS


def scenario(**overrides) -> ScenarioConfig:
    base = dict(
        name="test",
        straight_length=1.0,
        cav_count=2,
        cis_count=0,
        duration=10.0,
        seed=42,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def detection_rows(detections, rows=slice(None)):
    """(distance, bearing, class) of each detection in ``rows``."""
    columns = (detections.distances, detections.bearings, detections.clutter)
    return [
        (d, theta, DETECTION_CLASSES[c])
        for d, theta, c in zip(*(column[rows].tolist() for column in columns))
    ]


def stream_detections(sim, tick, stream):
    """The detections of one (platform, sensor) stream."""
    s = sim.streams.index(stream)
    return detection_rows(tick.detections, slice(*tick.detections.bounds[s : s + 2]))


def one_stream(pipeline, rng, n_targets=1, miss_probability=0.0, clutter_rate=0.0, rho=0.0):
    """``sense`` with one stream that sees ``n_targets`` targets, its table
    and Gauss-Markov errors built once: a function of (platform pose,
    targets) giving one tick's detections."""
    table = stream_table([(0, pipeline, rng, range(n_targets))])
    errors = SensingErrors.fresh(n_targets)

    def frame(pose, targets):
        platform = np.array([[pose.x, pose.y, pose.theta]])
        targets = np.array(targets, dtype=float).reshape(-1, 2)
        return detection_rows(
            sense(table, errors, platform, targets, miss_probability, clutter_rate, rho)
        )

    return frame


def row_bits(rows):
    """The exact bits of each detection row's distance and bearing, and its class."""
    return [(d.hex(), theta.hex(), c) for d, theta, c in rows]


def observation_bits(observations):
    """The exact bits of each detection's distance and bearing, and its class."""
    return [
        (obs.distance_obs.hex(), obs.theta_obs.hex(), obs.object_class) for obs in observations
    ]


class TestFigureEightPath:
    def test_turn_radius_is_half_straight(self):
        path = FigureEightPath(1.0)
        assert path.radius == 0.5
        # curvature on the loops is the inverse radius
        _, _, _, curvature = path.pose(path.straight_length)
        assert abs(curvature) == pytest.approx(2.0, abs=1e-12)

    def test_closure(self):
        path = FigureEightPath(1.3)
        assert path.position(0.0) == pytest.approx(path.position(path.length), abs=1e-12)

    def test_total_length_matches_quadrature(self):
        path = FigureEightPath(1.0)

        def speed(s):
            h = 1e-6
            p0 = path.position(max(s - h, 0.0))
            p1 = path.position(min(s + h, path.length))
            return float(np.hypot(*(p1 - p0))) / (2 * h)

        total, _ = quad(speed, 0.0, path.length, limit=400)
        assert total == pytest.approx(path.length, abs=1e-5)
        assert path.length == pytest.approx(1.0 * (2 + 1.5 * math.pi), abs=1e-12)

    def test_tangent_continuity_at_segment_boundaries(self):
        path = FigureEightPath(2.0)
        for boundary in path._bounds:
            before = path.pose((boundary - 1e-9) % path.length)
            after = path.pose((boundary + 1e-9) % path.length)
            assert math.sin(before[2]) == pytest.approx(math.sin(after[2]), abs=1e-6)
            assert math.cos(before[2]) == pytest.approx(math.cos(after[2]), abs=1e-6)

    def test_crossings_sit_on_origin(self):
        path = FigureEightPath(1.7)
        for s, _ in path.crossings:
            assert path.position(s) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_next_crossing_wraps(self):
        path = FigureEightPath(1.0)
        dist, direction = path.next_crossing(path.length - 0.1)
        assert dist == pytest.approx(0.1, abs=1e-9)
        assert direction == 0

    def test_positive_length_required(self):
        with pytest.raises(ValueError):
            FigureEightPath(0.0)


class TestTrafficLight:
    def test_greens_never_overlap(self):
        for t in np.arange(0.0, 32.0, 0.05):
            assert not (light_is_green(0, t) and light_is_green(1, t))

    def test_duty_cycle(self):
        ts = np.arange(0.0, 16.0, 0.001)
        for direction in (0, 1):
            frac = np.mean([light_is_green(direction, t) for t in ts])
            assert frac == pytest.approx(6.0 / 16.0, abs=0.01)


class TestStepVehicle:
    def test_cruise_holds_target_speed(self):
        path = FigureEightPath(1.0)
        vehicle = VehicleState(s=1.0, v=0.5)
        out = step_vehicle(vehicle, path, 0.125, (True, True), 0.5)
        assert out.v == 0.5
        assert out.s == pytest.approx(1.0625)

    def test_red_light_stops_at_line(self):
        path = FigureEightPath(1.0)
        vehicle = VehicleState(s=path.length - 1.0, v=0.5)
        for _ in range(40):
            vehicle = step_vehicle(vehicle, path, 0.125, (False, True), 0.5)
        assert vehicle.v == 0.0
        dist, _ = path.next_crossing(vehicle.s)
        assert dist == pytest.approx(0.25, abs=0.02)  # holding at the stop line

    def test_deceleration_distance_closed_form(self):
        # rolling to a stop from v covers ~v^2/(2a) once braking starts
        path = FigureEightPath(2.0)
        accel = 1.0
        v0 = 0.5
        vehicle = VehicleState(s=path.length - 2.0, v=v0)
        braking_start = None
        for _ in range(80):
            nxt = step_vehicle(vehicle, path, 0.125, (False, True), v0, accel=accel)
            if braking_start is None and nxt.v < vehicle.v:
                braking_start = vehicle.s
            vehicle = nxt
            if vehicle.v == 0.0:
                break
        assert vehicle.v == 0.0
        travelled = vehicle.s - braking_start
        assert travelled == pytest.approx(v0**2 / (2 * accel), abs=0.07)

    def test_green_resumes_cruise(self):
        path = FigureEightPath(1.0)
        vehicle = VehicleState(s=path.length - 0.3, v=0.0, stopping=True)
        for _ in range(10):
            vehicle = step_vehicle(vehicle, path, 0.125, (True, True), 0.5)
        assert vehicle.v == 0.5

    def test_follower_keeps_min_gap(self):
        path = FigureEightPath(1.0)
        leader = VehicleState(s=1.0, v=0.0)
        follower = VehicleState(s=0.2, v=0.5)
        for _ in range(40):
            gap = (leader.s - follower.s) % path.length
            follower = step_vehicle(
                follower, path, 0.125, (True, True), 0.5, gap_ahead=gap, min_gap=0.55
            )
        assert (leader.s - follower.s) % path.length >= 0.55 - 1e-9


class TestSyntheticSensors:
    CAMERA = SensorPipelineConfig(
        name="camera",
        pose=SensorPose(),
        fov=math.radians(160),
        max_range=5.0,
        distal_model=MODELS.camera_distal,
        perp_model=MODELS.camera_perpendicular,
    )

    def test_target_outside_fov_absent(self):
        rng = stream_rng(1, "cam")
        bearing = math.radians(100)
        target = np.array([math.cos(bearing), math.sin(bearing)])
        obs = one_stream(self.CAMERA, rng)(PlatformPose(0, 0, 0, 0), [target])
        assert obs == []

    def test_target_beyond_range_absent(self):
        rng = stream_rng(1, "cam")
        obs = one_stream(self.CAMERA, rng)(PlatformPose(0, 0, 0, 0), [np.array([6.0, 0])])
        assert obs == []

    def test_zero_noise_recovers_truth(self):
        floored = SensorPipelineConfig(
            name="cam",
            pose=SensorPose(),
            fov=math.radians(160),
            max_range=5.0,
            distal_model=type(MODELS.camera_distal)((0.0,)),
            perp_model=type(MODELS.camera_distal)((0.0,)),
        )
        rng = stream_rng(1, "cam")
        obs = one_stream(floored, rng)(PlatformPose(1, 1, 0.3, 0), [np.array([2.0, 2.0])])
        assert len(obs) == 1
        assert obs[0][0] == pytest.approx(math.hypot(1, 1), abs=1e-5)
        assert obs[0][1] == pytest.approx(math.pi / 4 - 0.3, abs=1e-5)

    def test_monte_carlo_distal_sigma(self):
        # One stream over 100,000 copies of a target draws what 100,000
        # one-target ticks would, in the same order.
        rng = stream_rng(7, "mc")
        frame = one_stream(self.CAMERA, rng, 100_000)
        errors = [d - 1.0 for d, _, _ in frame(PlatformPose(0, 0, 0, 0), [[1.0, 0.0]] * 100_000)]
        expected = 0.0517 * 1.0 + 0.0126
        assert np.std(errors) == pytest.approx(expected, rel=0.03)

    def test_correlated_errors_keep_marginal_sigma(self):
        rng = stream_rng(7, "mc2")
        frame = one_stream(self.CAMERA, rng, rho=0.9)
        target = [np.array([1.0, 0.0])]
        errors = []
        for _ in range(100_000):
            errors.append(frame(PlatformPose(0, 0, 0, 0), target)[0][0] - 1.0)
        errors = np.array(errors)
        assert np.std(errors) == pytest.approx(0.0643, rel=0.03)
        lag1 = np.corrcoef(errors[:-1], errors[1:])[0, 1]
        assert lag1 == pytest.approx(0.9, abs=0.02)

    def test_clutter_rate(self):
        frame = one_stream(self.CAMERA, stream_rng(3, "clutter"), 0, clutter_rate=0.5)
        count = 0
        for _ in range(2000):
            count += len(frame(PlatformPose(0, 0, 0, 0), []))
        assert count / 2000 == pytest.approx(0.5, abs=0.05)


class TestSensingPass:
    """The one array pass against the per-target loop it replaced, bit for bit."""

    CONFIGS = {
        **{name: scenario_preset(name, 101, 10.0) for name in scenario_names()},
        "dense": ScenarioConfig(
            name="dense", straight_length=4.0, cav_count=16, cis_count=2, duration=5.0, seed=101
        ),
        "clutter": scenario_preset("lg/de/CIS", 202, 5.0, clutter_rate=2.0, miss_probability=0.1),
        "correlated": scenario_preset(
            "sm/de/CIS", 601, 20.0, sensing_correlation_time=0.5, miss_probability=0.1
        ),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_ticks_match_per_target_reference(self, name):
        config = self.CONFIGS[name]
        sim = Simulation(config)
        reference = SimulationSensingReference(config)
        for k in range(int(round(config.duration * config.tick_rate))):
            tick = sim.tick(k)
            expected = reference.frames(tick.cav_poses, sim.cis_poses)
            for (pid, sensor), observations in zip(sim.streams, expected):
                got = stream_detections(sim, tick, (pid, sensor))
                assert row_bits(got) == observation_bits(observations), (k, pid, sensor)
        if name == "correlated":
            assert reference.events["missed_with_state"] > 0
            assert reference.events["resumed"] > 0

    def test_one_stream_call_matches_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            pipeline = SensorPipelineConfig(
                name="probe",
                pose=SensorPose(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-math.pi, math.pi)),
                fov=rng.uniform(0.5, 2.0 * math.pi),
                max_range=rng.uniform(1.0, 6.0),
                distal_model=ErrorModel(tuple(rng.uniform(0.0, 0.05, rng.integers(1, 4)))),
                perp_model=ErrorModel(tuple(rng.uniform(0.0, 0.05, rng.integers(1, 4)))),
            )
            pose = PlatformPose(*rng.uniform(-2.0, 2.0, 2), rng.uniform(-math.pi, math.pi))
            miss, clutter, rho = (0.0, 0.0, 0.0) if trial % 2 else (0.2, 1.5, 0.8)
            frame = one_stream(pipeline, stream_rng(trial, "probe"), 6, miss, clutter, rho)
            want_rng, reference_states = stream_rng(trial, "probe"), {}
            for _ in range(10):
                targets = list(rng.uniform(-5.0, 5.0, (6, 2)))
                want = synth_sensor_frame_reference(
                    pipeline, pose, targets, want_rng, miss, clutter, reference_states, rho
                )
                assert row_bits(frame(pose, targets)) == observation_bits(want)


def independent_localizer(
    longitudinal=MODELS.localizer_longitudinal, lateral=MODELS.localizer_lateral, **kw
):
    """The simulator's localizer with correlation time 0: an independent draw per tick."""
    return LocalizerDrift(longitudinal, lateral, 0.125, 0.0, **kw)


class TestSynthLocalizer:
    def test_zero_speed_sigma(self):
        rng = stream_rng(11, "loc")
        localizer = independent_localizer()
        pose = PlatformPose(0, 0, 0, 0)
        xs = [localizer.measure(pose, rng).x for _ in range(100_000)]
        assert np.std(xs) == pytest.approx(0.0428, rel=0.03)

    def test_zero_noise_floor(self):
        floored_lon = type(MODELS.localizer_longitudinal)((0.0,), "speed")
        floored_lat = type(MODELS.localizer_lateral)((0.0,), "speed")
        rng = stream_rng(11, "loc")
        pose = PlatformPose(1.0, 2.0, 0.5, 0.3)
        localizer = independent_localizer(floored_lon, floored_lat, heading_sigma=1e-9)
        measured = localizer.measure(pose, rng)
        assert measured.x == pytest.approx(1.0, abs=1e-4)
        assert measured.y == pytest.approx(2.0, abs=1e-4)
        assert measured.v == 0.3

    def test_speed_increases_scatter(self):
        rng_slow = stream_rng(5, "slow")
        rng_fast = stream_rng(5, "fast")
        slow_localizer = independent_localizer()
        fast_localizer = independent_localizer()
        slow, fast = [], []
        for _ in range(20_000):
            slow.append(slow_localizer.measure(PlatformPose(0, 0, 0, 0.0), rng_slow).x)
            fast.append(fast_localizer.measure(PlatformPose(0, 0, 0, 0.5), rng_fast).x)
        assert np.var(fast) > np.var(slow)

    def test_zero_correlation_time_draws_independently(self):
        localizer = independent_localizer()
        rng = stream_rng(13, "independent")
        pose = PlatformPose(0, 0, 0, 0.0)
        xs = np.array([localizer.measure(pose, rng).x for _ in range(200_000)])
        lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert lag1 == pytest.approx(0.0, abs=0.01)

    def test_drift_keeps_marginal_and_correlates(self):
        drift = LocalizerDrift(
            MODELS.localizer_longitudinal, MODELS.localizer_lateral, 0.125, 6.0
        )
        rng = stream_rng(13, "drift")
        pose = PlatformPose(0, 0, 0, 0.0)
        xs = np.array([drift.measure(pose, rng).x for _ in range(200_000)])
        assert np.std(xs) == pytest.approx(0.0428, rel=0.03)
        lag1 = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert lag1 == pytest.approx(math.exp(-0.125 / 6.0), abs=0.02)


class TestSimulation:
    def test_deterministic_given_seed(self):
        def run():
            sim = Simulation(scenario())
            out = []
            for k in range(40):
                tick = sim.tick(k)
                out.append(
                    (
                        tuple(tuple(arc) for arc in tick.cav_arcs),
                        tuple((p.x, p.y, p.theta) for p in tick.loc_poses),
                        tuple(tick.detections.distances.tolist()),
                        tuple(tick.detections.bearings.tolist()),
                    )
                )
            return out

        assert run() == run()

    def test_vehicles_stay_on_path(self):
        sim = Simulation(scenario())
        for k in range(80):
            tick = sim.tick(k)
            for pose, (s, _) in zip(tick.cav_poses, tick.cav_arcs):
                assert pose.position == pytest.approx(sim.path.position(s), abs=1e-9)

    def test_arc_speed_consistent_with_position(self):
        sim = Simulation(scenario())
        previous = None
        for k in range(80):
            tick = sim.tick(k)
            if previous is not None:
                for (s0, _), (s1, v1) in zip(previous, tick.cav_arcs):
                    ds = (s1 - s0) % sim.path.length
                    assert ds == pytest.approx(v1 * sim.dt, abs=1e-9)
            previous = tick.cav_arcs

    def test_rng_streams_independent(self, monkeypatch):
        # removing the camera must not change the lidar noise sequence
        full = Simulation(scenario(seed=9))
        full_obs = [stream_detections(full, full.tick(k), ("cav0", "lidar")) for k in range(30)]

        pipelines = simulator.sensor_pipelines
        monkeypatch.setattr(
            simulator,
            "sensor_pipelines",
            lambda *args: [p for p in pipelines(*args) if p.name == "lidar"],
        )
        nocam = Simulation(scenario(seed=9))
        assert ("cav0", "camera") not in nocam.streams
        nocam_obs = [stream_detections(nocam, nocam.tick(k), ("cav0", "lidar")) for k in range(30)]
        assert full_obs == nocam_obs
        assert any(full_obs)

    def test_cis_placement(self):
        sim = Simulation(scenario(cis_count=2, straight_length=2.0))
        poses = sim.cis_poses
        assert poses[0].position == pytest.approx([0.0, 2.0])
        assert poses[0].theta == pytest.approx(-math.pi / 2)
        assert poses[1].position == pytest.approx([0.0, -2.0])

    def test_min_gap_enforced(self):
        sim = Simulation(scenario(cav_count=4, duration=60.0))
        for k in range(480):
            tick = sim.tick(k)
            arcs = sorted(s for s, _ in tick.cav_arcs)
            gaps = [
                (arcs[(i + 1) % 4] - arcs[i]) % sim.path.length for i in range(4)
            ]
            assert min(gaps) >= sim.config.min_gap - 1e-6

    def test_config_round_trip(self):
        cfg = scenario(cis_count=1, clutter_rate=0.1)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"name": "x", "bogus": 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("miss_probability", 1.5),
            ("target_speed", -0.5),
            ("loc_correlation_time", -6.0),
            ("cis_pose_var", -1.0),
            ("clutter_rate", -0.5),
            ("sensing_correlation_time", -1.0),
            ("heading_noise", -0.01),
            ("camera_range", 0.0),
            ("lidar_range", -8.0),
            ("accel_limit", 0.0),
            ("min_gap", -0.55),
            ("cav_count", 2.5),
            ("cis_count", 1.5),
            ("cav_count", True),
            ("seed", "7"),
            ("seed", 7.5),
            ("duration", 0.05),
        ],
    )
    def test_out_of_range_config_rejected(self, key, value):
        obj = scenario().to_dict()
        obj[key] = value
        with pytest.raises(ValueError, match=key):
            ScenarioConfig.from_dict(obj)
