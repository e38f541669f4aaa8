import json
import math

import numpy as np
import oracles
import pytest

from coopfusion.error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    ModelError,
    ModelSet,
    PlatformPose,
    PolarObservation,
    SensorPose,
    SIGMA_FLOOR,
    eval_error_model,
    load_model_set,
    localization_covariances,
    observation_estimates,
    rotated_covariance,
    save_model_set,
    sensor_table,
)
from coopfusion.geometry import wrap_angle

CAMERA_DISTAL = ErrorModel((0.0126, 0.0517))
CAMERA_PERP = ErrorModel((0.023, 0.0117))
FIXED_DISTAL = ErrorModel((0.0881,))
LOC_LON = ErrorModel((0.0428, 0.0782), "speed")
LOC_LAT = ErrorModel((0.0241, 0.0841), "speed")


def oracle_rotated(sigma_a, sigma_b, angle):
    """Independent 2x2 product: R diag(sa^2, sb^2) R^T, written out by hand."""
    c, s = math.cos(angle), math.sin(angle)
    a2, b2 = sigma_a**2, sigma_b**2
    return np.array(
        [
            [c * c * a2 + s * s * b2, c * s * a2 - s * c * b2],
            [s * c * a2 - c * s * b2, s * s * a2 + c * c * b2],
        ]
    )


class TestEvalErrorModel:
    def test_camera_distal_at_one_meter(self):
        assert eval_error_model(CAMERA_DISTAL, 1.0) == pytest.approx(0.0643, abs=1e-9)

    def test_fixed_model_ignores_predictor(self):
        for d in (0.0, 1.0, 7.3):
            assert eval_error_model(FIXED_DISTAL, d) == pytest.approx(0.0881, abs=1e-12)

    def test_constant_term_at_zero_predictor(self):
        assert eval_error_model(LOC_LON, 0.0) == pytest.approx(0.0428, abs=1e-12)

    def test_negative_output_clamped_to_floor(self):
        dipping = ErrorModel((0.01, -1.0))
        assert eval_error_model(dipping, 5.0) == SIGMA_FLOOR

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ModelError):
            ErrorModel(())

    def test_negative_predictor_rejected(self):
        with pytest.raises(ValueError):
            eval_error_model(CAMERA_DISTAL, -0.1)

    def test_monotone_for_nonnegative_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = ErrorModel(tuple(rng.uniform(0.0, 1.0, size=3)))
            grid = np.sort(rng.uniform(0.0, 5.0, size=20))
            values = [eval_error_model(model, p) for p in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def expanded(detections):
    """Detections of (observation, pose, distal, perp) through the array
    expansion, each with a table row of its own: (means, covariances)."""
    table = sensor_table([(pose, distal, perp) for _, pose, distal, perp in detections])
    return observation_estimates(
        table,
        np.arange(len(detections)),
        np.array([obs.distance_obs for obs, *_ in detections], dtype=float),
        np.array([obs.theta_obs for obs, *_ in detections], dtype=float),
    )


def observation_estimate(obs, pose, distal, perp):
    """One detection through the array expansion: (mean, covariance)."""
    means, covariances = expanded([(obs, pose, distal, perp)])
    return means[0], covariances[0]


UNIT_DISTAL = ErrorModel((1.0,))
THIN_PERP = ErrorModel((1e-3,))


def sensor_to_platform(obs, pose):
    """A detection's platform-frame mean and the bearing of its ray (modulo
    pi) through the array expansion: with sigma 1 along the ray and 1e-3
    across it, the covariance's major axis lies along the ray."""
    mean, cov = observation_estimate(obs, pose, UNIT_DISTAL, THIN_PERP)
    return mean, 0.5 * math.atan2(2.0 * cov[0, 1], cov[0, 0] - cov[1, 1])


class TestSensorToPlatform:
    def test_identity_transform(self):
        mu, phi = sensor_to_platform(PolarObservation(1.0, 0.0), SensorPose())
        assert mu == pytest.approx([1.0, 0.0])
        assert phi == 0.0

    def test_axis_aligned_rotation(self):
        mu, phi = sensor_to_platform(
            PolarObservation(2.0, 0.0), SensorPose(0.1, 0.0, math.pi / 2)
        )
        assert mu == pytest.approx([0.1, 2.0])
        assert phi == pytest.approx(math.pi / 2)

    def test_diagonal(self):
        mu, phi = sensor_to_platform(PolarObservation(math.sqrt(2.0), math.pi / 4), SensorPose())
        assert mu == pytest.approx([1.0, 1.0])
        assert phi == pytest.approx(math.pi / 4)

    def test_round_trip_recovers_polar(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pose = SensorPose(*rng.uniform(-2, 2, size=2), rng.uniform(-math.pi, math.pi))
            obs = PolarObservation(rng.uniform(0.01, 10.0), rng.uniform(-math.pi, math.pi))
            mu, _ = sensor_to_platform(obs, pose)
            rel = mu - np.array([pose.x_sensor, pose.y_sensor])
            d = float(np.hypot(*rel))
            theta = float(wrap_angle(math.atan2(rel[1], rel[0]) - pose.theta_sensor))
            assert d == pytest.approx(obs.distance_obs, abs=1e-9)
            assert math.sin(theta) == pytest.approx(math.sin(obs.theta_obs), abs=1e-9)
            assert math.cos(theta) == pytest.approx(math.cos(obs.theta_obs), abs=1e-9)


class TestRotatedCovariance:
    def test_zero_rotation_is_diagonal(self):
        cov = rotated_covariance(0.0643, 0.0347, 0.0)
        assert cov == pytest.approx(np.diag([0.0643**2, 0.0347**2]), abs=1e-15)

    def test_isotropic_invariance(self):
        for angle in (0.3, -1.2, 2.9):
            assert rotated_covariance(1.0, 1.0, angle) == pytest.approx(np.eye(2), abs=1e-12)

    def test_quarter_turn_degenerate_matches_oracle(self):
        cov = rotated_covariance(1.0, SIGMA_FLOOR, math.pi / 4)
        assert cov == pytest.approx(oracle_rotated(1.0, SIGMA_FLOOR, math.pi / 4), abs=1e-9)
        assert cov == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]), abs=1e-9)

    def test_matches_oracle_at_random_angles(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sa, sb = rng.uniform(0.01, 2.0, size=2)
            angle = rng.uniform(-math.pi, math.pi)
            assert rotated_covariance(sa, sb, angle) == pytest.approx(
                oracle_rotated(sa, sb, angle), abs=1e-12
            )

    def test_equals_single_2x2_product_bit_for_bit(self):
        # The stacked product gives each matrix the bits of R diag R^T alone.
        rng = np.random.default_rng(8)
        for _ in range(200):
            sa, sb = rng.uniform(1e-6, 2.0, size=2)
            angle = rng.uniform(-7, 7)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            single = rot @ np.diag([sa * sa, sb * sb]) @ rot.T
            np.testing.assert_array_equal(
                rotated_covariance(sa, sb, angle), 0.5 * (single + single.T)
            )

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            sa, sb = rng.uniform(0.01, 3.0, size=2)
            angle = rng.uniform(-4 * math.pi, 4 * math.pi)
            eigenvalues = np.linalg.eigvalsh(rotated_covariance(sa, sb, angle))
            assert eigenvalues == pytest.approx(sorted([sa**2, sb**2]), abs=1e-9)

    def test_half_turn_symmetry(self):
        cov_a = rotated_covariance(0.7, 0.2, 0.9)
        cov_b = rotated_covariance(0.7, 0.2, 0.9 + math.pi)
        assert cov_a == pytest.approx(cov_b, abs=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            cov = rotated_covariance(*rng.uniform(0.01, 2.0, size=2), rng.uniform(-7, 7))
            assert abs(cov[0, 1] - cov[1, 0]) < 1e-9
            assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            rotated_covariance(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rotated_covariance(1.0, -0.5, 0.0)


class TestObservationEstimate:
    def test_camera_models_straight_ahead(self):
        mean, cov = observation_estimate(
            PolarObservation(1.0, 0.0), SensorPose(), CAMERA_DISTAL, CAMERA_PERP
        )
        assert mean == pytest.approx([1.0, 0.0])
        assert cov == pytest.approx(np.diag([0.0643**2, 0.0347**2]), abs=1e-12)

    def test_fixed_models_ignore_distance(self):
        fixed_perp = ErrorModel((0.0401,))
        _, cov_near = observation_estimate(
            PolarObservation(0.5, 0.2), SensorPose(), FIXED_DISTAL, fixed_perp
        )
        _, cov_far = observation_estimate(
            PolarObservation(2.5, 0.2), SensorPose(), FIXED_DISTAL, fixed_perp
        )
        assert cov_near == pytest.approx(cov_far, abs=1e-12)

    def test_parameterized_trace_grows_with_distance(self):
        _, cov_near = observation_estimate(
            PolarObservation(0.5, 0.1), SensorPose(), CAMERA_DISTAL, CAMERA_PERP
        )
        _, cov_far = observation_estimate(
            PolarObservation(2.5, 0.1), SensorPose(), CAMERA_DISTAL, CAMERA_PERP
        )
        assert np.trace(cov_far) > np.trace(cov_near)

    def test_requires_distance_predictor(self):
        with pytest.raises(ModelError):
            observation_estimate(PolarObservation(1.0, 0.0), SensorPose(), LOC_LON, CAMERA_PERP)
        with pytest.raises(ModelError):
            sensor_table([(SensorPose(), CAMERA_DISTAL, CAMERA_PERP), (SensorPose(), CAMERA_DISTAL, LOC_LAT)])

    def test_batch_matches_per_detection_reference_bit_for_bit(self):
        rng = np.random.default_rng(41)
        models = [CAMERA_DISTAL, CAMERA_PERP, FIXED_DISTAL, ErrorModel((-0.5, 0.01))]
        for size in (0, 1, 2, 7, 40):
            detections = [
                (
                    PolarObservation(
                        float(rng.choice([0.0, rng.uniform(0.0, 9.0)])), rng.uniform(-7, 7)
                    ),
                    SensorPose(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-4, 4)),
                    models[rng.integers(len(models))],
                    models[rng.integers(len(models))],
                )
                for _ in range(size)
            ]
            means, covariances = expanded(detections)
            assert means.shape == (size, 2) and covariances.shape == (size, 2, 2)
            for k, detection in enumerate(detections):
                reference = oracles.observation_estimate(*detection)
                np.testing.assert_array_equal(means[k], reference.mean)
                np.testing.assert_array_equal(covariances[k], reference.covariance)


    def test_negative_distance_rejected(self):
        table = sensor_table([(SensorPose(), CAMERA_DISTAL, CAMERA_DISTAL)])
        with pytest.raises(ValueError):
            observation_estimates(table, np.zeros(1, dtype=int), np.array([-0.1]), np.zeros(1))

    def test_mixed_widths_in_one_frame_match_reference(self):
        # Pipelines whose models take 1, 2 and 3 coefficients share one
        # table; detections at distance 0, with bearings that wrap past pi
        # and through sensor headings near pi, and under a negative
        # intercept that clamps to SIGMA_FLOOR, gather their rows in any
        # order.  The -0.5 intercept clamps at any distance below 50.
        rng = np.random.default_rng(43)
        models = [
            FIXED_DISTAL,
            CAMERA_DISTAL,
            ErrorModel((0.02, -0.01, 0.004)),
            ErrorModel((-0.5, 0.01)),
        ]
        pipelines = [
            (SensorPose(0.2, -0.1, 3.1), models[0], models[2]),
            (SensorPose(), models[1], models[0]),
            (SensorPose(-0.3, 0.0, -3.1), models[2], models[3]),
            (SensorPose(0.0, 0.1, 0.7), models[3], models[1]),
        ]
        table = sensor_table(pipelines)
        assert table.coefficients.shape == (4, 2, 3)
        clamped = 0
        for size in (0, 1, 5, 60):
            rows = rng.integers(len(pipelines), size=size)
            observations = [
                PolarObservation(
                    float(rng.choice([0.0, rng.uniform(0.0, 9.0)])),
                    float(rng.choice([math.pi, -math.pi + 1e-12, rng.uniform(-7.0, 7.0)])),
                )
                for _ in range(size)
            ]
            means, covariances = observation_estimates(
                table,
                rows,
                np.array([obs.distance_obs for obs in observations], dtype=float),
                np.array([obs.theta_obs for obs in observations], dtype=float),
            )
            assert means.shape == (size, 2) and covariances.shape == (size, 2, 2)
            for obs, row, mean, cov in zip(observations, rows.tolist(), means, covariances):
                pose, distal, perp = pipelines[row]
                reference = oracles.observation_estimate(obs, pose, distal, perp)
                assert mean.tobytes() == reference.mean.tobytes()
                assert cov.tobytes() == reference.covariance.tobytes()
                clamped += models[3] in (distal, perp)
        assert clamped > 0


class TestLocalizationCovariance:
    def test_stationary_heading_zero(self):
        cov = localization_covariances([PlatformPose(0, 0, 0.0, 0.0)], LOC_LON, LOC_LAT)[0]
        assert cov == pytest.approx(np.diag([0.0428**2, 0.0241**2]), abs=1e-12)

    def test_target_speed(self):
        cov = localization_covariances([PlatformPose(0, 0, 0.0, 0.5)], LOC_LON, LOC_LAT)[0]
        assert cov == pytest.approx(np.diag([0.0819**2, 0.06615**2]), abs=1e-12)

    def test_quarter_turn_swaps_axes(self):
        pose = PlatformPose(0, 0, math.pi / 2, 0.3)
        cov = localization_covariances([pose], LOC_LON, LOC_LAT)[0]
        lon = eval_error_model(LOC_LON, 0.3)
        lat = eval_error_model(LOC_LAT, 0.3)
        assert cov == pytest.approx(np.diag([lat**2, lon**2]), abs=1e-12)

    def test_requires_speed_predictor(self):
        with pytest.raises(ModelError):
            localization_covariances([PlatformPose(0, 0, 0, 0)], CAMERA_DISTAL, LOC_LAT)


class TestTypes:
    def test_polar_observation_normalizes_angle(self):
        obs = PolarObservation(1.0, 3.5 * math.pi)
        assert -math.pi < obs.theta_obs <= math.pi

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            PolarObservation(-0.1, 0.0)

    def test_platform_pose_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            PlatformPose(0, 0, 0, -0.1)

    @pytest.mark.parametrize(
        "distance, bearing", [(math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)]
    )
    def test_non_finite_observation_rejected(self, distance, bearing):
        with pytest.raises(ValueError, match="finite"):
            PolarObservation(distance, bearing)

    @pytest.mark.parametrize(
        "pose",
        [
            (math.nan, 0.0, math.inf, 1.0),
            (math.nan, 0.0, 0.0, 1.0),
            (0.0, -math.inf, 0.0, 1.0),
            (0.0, 0.0, math.nan, 1.0),
            (0.0, 0.0, 0.0, math.inf),
        ],
    )
    def test_non_finite_platform_pose_rejected(self, pose):
        with pytest.raises(ValueError, match="finite"):
            PlatformPose(*pose)


class TestSerialization:
    def test_model_json_round_trip(self):
        obj = CAMERA_DISTAL.to_json_dict()
        assert obj == {"predictor": "distance", "coefficients": [0.0126, 0.0517]}
        assert ErrorModel.from_json_dict(obj) == CAMERA_DISTAL

    def test_model_set_file_round_trip(self, tmp_path):
        path = tmp_path / "models.json"
        save_model_set(DEFAULT_PARAMETERIZED_MODELS, path)
        loaded = load_model_set(path)
        assert loaded == DEFAULT_PARAMETERIZED_MODELS

    def test_model_set_requires_all_six(self, tmp_path):
        path = tmp_path / "models.json"
        save_model_set(DEFAULT_FIXED_MODELS, path)
        obj = json.loads(path.read_text())
        del obj["models"]["camera_distal"]
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelError):
            load_model_set(path)

    def test_model_set_rejects_wrong_predictor(self):
        obj = DEFAULT_FIXED_MODELS.to_json_dict()
        obj["localizer_lateral"]["predictor"] = "distance"
        with pytest.raises(ModelError):
            ModelSet.from_json_dict(obj)

    @pytest.mark.parametrize(
        "content", ["[]", '"models"', '{"schema": 1}', '{"schema": 1, "models": []}']
    )
    def test_non_object_rejected(self, tmp_path, content):
        path = tmp_path / "models.json"
        path.write_text(content)
        with pytest.raises(ModelError, match="JSON object"):
            load_model_set(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, tmp_path, value):
        with pytest.raises(ModelError, match="finite"):
            ErrorModel((0.01, value))
        obj = {"schema": 1, "models": DEFAULT_PARAMETERIZED_MODELS.to_json_dict()}
        obj["models"]["camera_distal"]["coefficients"][1] = value
        path = tmp_path / "models.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelError, match="finite"):
            load_model_set(path)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "models.json"
        path.write_text(json.dumps({"schema": 99, "models": {}}))
        with pytest.raises(ModelError):
            load_model_set(path)
