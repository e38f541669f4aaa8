import numpy as np
import pytest
from oracles import assignment_oracle, match_observations_to_truth_reference

from coopfusion.calibration import (
    DegenerateFitError,
    ErrorSample,
    HALF_NORMAL_FACTOR,
    LabeledSample,
    fit_error_model,
    fit_fixed_model,
    fit_quality,
    fit_sigma_model,
    match_observations_to_truth,
    read_samples_csv,
    samples_of,
    write_samples_csv,
)
from coopfusion.error_models import ErrorModel


def normal_equations_oracle(xs, ys, degree):
    """Textbook least squares through explicit normal equations."""
    design = np.vander(np.asarray(xs), degree + 1, increasing=True)
    return np.linalg.solve(design.T @ design, design.T @ np.abs(ys))


class TestFitErrorModel:
    def test_exact_affine_recovered(self):
        xs = np.linspace(0.0, 3.0, 40)
        samples = [ErrorSample(x, 0.0517 * x + 0.0126) for x in xs]
        model = fit_error_model(samples, degree=1)
        assert model.coefficients == pytest.approx((0.0126, 0.0517), abs=1e-9)

    def test_constant_samples_zero_slope(self):
        samples = [ErrorSample(x, 0.25) for x in np.linspace(0, 2, 10)]
        model = fit_error_model(samples, degree=1)
        assert model.coefficients[1] == pytest.approx(0.0, abs=1e-9)

    def test_noisy_recovery_matches_oracle(self):
        rng = np.random.default_rng(77)
        xs = rng.uniform(0.0, 3.0, size=10_000)
        ys = 0.05 + 0.08 * xs + rng.normal(0, 0.004, size=xs.size)
        samples = [ErrorSample(x, y) for x, y in zip(xs, ys)]
        model = fit_error_model(samples, degree=1)
        oracle = normal_equations_oracle(xs, ys, 1)
        assert model.coefficients == pytest.approx(tuple(oracle), abs=1e-9)
        assert model.coefficients[0] == pytest.approx(0.05, rel=0.02)
        assert model.coefficients[1] == pytest.approx(0.08, rel=0.02)

    def test_degenerate_design_raises(self):
        samples = [ErrorSample(1.0, 0.1 * k) for k in range(10)]
        with pytest.raises(DegenerateFitError):
            fit_error_model(samples, degree=1)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_error_model([ErrorSample(0, 0.1), ErrorSample(1, 0.2)], degree=1)

    def test_degree_zero_equals_fixed_fit(self):
        rng = np.random.default_rng(5)
        samples = [ErrorSample(x, e) for x, e in rng.uniform(0.1, 1.0, size=(30, 2))]
        assert fit_error_model(samples, degree=0).coefficients == pytest.approx(
            fit_fixed_model(samples).coefficients, abs=1e-12
        )


class TestFitSigmaModel:
    def test_scales_by_half_normal_factor(self):
        rng = np.random.default_rng(9)
        samples = [ErrorSample(x, e) for x, e in rng.uniform(0.1, 1.0, size=(50, 2))]
        raw = fit_error_model(samples, degree=1)
        sigma = fit_sigma_model(samples, degree=1)
        assert sigma.coefficients == pytest.approx(
            tuple(c * HALF_NORMAL_FACTOR for c in raw.coefficients), abs=1e-12
        )

    def test_recovers_sigma_from_gaussian_magnitudes(self):
        rng = np.random.default_rng(21)
        xs = rng.uniform(0.0, 3.0, size=40_000)
        sigmas = 0.02 + 0.05 * xs
        errors = rng.normal(0.0, 1.0, size=xs.size) * sigmas
        samples = [ErrorSample(x, e) for x, e in zip(xs, errors)]
        model = fit_sigma_model(samples, degree=1)
        assert model.coefficients[0] == pytest.approx(0.02, rel=0.05)
        assert model.coefficients[1] == pytest.approx(0.05, rel=0.05)


class TestFitFixedModel:
    def test_mean_of_two(self):
        model = fit_fixed_model([ErrorSample(0, 0.1), ErrorSample(1, 0.3)])
        assert model.coefficients == pytest.approx((0.2,), abs=1e-12)

    def test_single_sample(self):
        assert fit_fixed_model([ErrorSample(0.5, -0.4)]).coefficients == pytest.approx((0.4,))

    def test_uniform_distance_expectation(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.0, 3.0, size=10_000)
        samples = [ErrorSample(x, 0.0517 * x + 0.0126) for x in xs]
        model = fit_fixed_model(samples)
        assert model.coefficients[0] == pytest.approx(0.0517 * 1.5 + 0.0126, rel=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_fixed_model([])


class TestFitQuality:
    def test_perfect_fit(self):
        samples = [ErrorSample(x, 0.1 + 0.2 * x) for x in np.linspace(0, 2, 20)]
        model = fit_error_model(samples, degree=1)
        assert fit_quality(samples, model) == pytest.approx(1.0, abs=1e-9)

    def test_mean_model_scores_zero(self):
        rng = np.random.default_rng(15)
        samples = [ErrorSample(x, e) for x, e in rng.uniform(0.1, 1.0, size=(40, 2))]
        assert fit_quality(samples, fit_fixed_model(samples)) == pytest.approx(0.0, abs=1e-9)

    def test_known_noise_ratio(self):
        rng = np.random.default_rng(33)
        xs = rng.uniform(0.0, 2.0, size=50_000)
        slope, noise = 0.2, 0.05
        ys = 0.5 + slope * xs + rng.normal(0, noise, size=xs.size)
        samples = [ErrorSample(x, y) for x, y in zip(xs, ys)]
        model = fit_error_model(samples, degree=1)
        signal_var = slope**2 * np.var(xs)
        expected = signal_var / (signal_var + noise**2)
        assert fit_quality(samples, model) == pytest.approx(expected, abs=0.05)

    def test_fit_never_below_mean_model(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            samples = [ErrorSample(x, e) for x, e in rng.uniform(0.05, 1.0, size=(20, 2))]
            model = fit_error_model(samples, degree=1)
            assert fit_quality(samples, model) >= -1e-12

    def test_zero_variance_rejected(self):
        samples = [ErrorSample(x, 0.2) for x in range(5)]
        with pytest.raises(ValueError):
            fit_quality(samples, ErrorModel((0.2,)))


class TestMatching:
    def test_identical_lists_zero_error(self):
        points = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        result = match_observations_to_truth(points, points, 0.5)
        assert result.pairs == [(0, 0), (1, 1)]
        for sample in result.distal_samples + result.perpendicular_samples:
            assert sample.error == pytest.approx(0.0, abs=1e-12)

    def test_single_observation_matches_nearer_truth(self):
        result = match_observations_to_truth(
            [np.array([1.0, 0.0])], [np.array([1.2, 0.0]), np.array([5.0, 0.0])], 0.5
        )
        assert result.pairs == [(0, 0)]
        assert result.unmatched_truth == [1]

    def test_crossing_assignment_matches_brute_force(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            n, m = rng.integers(1, 5), rng.integers(1, 5)
            observations = [rng.uniform(-1, 1, 2) for _ in range(n)]
            truth = [rng.uniform(-1, 1, 2) for _ in range(m)]
            result = match_observations_to_truth(observations, truth, 0.8)
            oracle_pairs = assignment_oracle(observations, truth, 0.8)
            # compare total cost and pair count (ties can reorder pairs)
            def cost(pairs):
                return sum(
                    float(np.hypot(*(observations[i] - np.asarray(truth[j]))))
                    for i, j in pairs
                )

            assert len(result.pairs) == len(oracle_pairs)
            assert cost(result.pairs) == pytest.approx(cost(oracle_pairs), abs=1e-9)

    def test_components_relative_to_ray(self):
        truth = [np.array([2.0, 0.0])]
        obs = [np.array([2.3, 0.1])]
        result = match_observations_to_truth(obs, truth, 0.5)
        distal = result.distal_samples[0]
        perp = result.perpendicular_samples[0]
        assert distal.error == pytest.approx(0.3, abs=1e-12)
        assert perp.error == pytest.approx(0.1, abs=1e-12)
        assert distal.predictor == pytest.approx(float(np.hypot(2.3, 0.1)), abs=1e-12)

    def test_beyond_max_dist_unmatched(self):
        result = match_observations_to_truth([np.array([0.0, 0.0])], [np.array([2.0, 0.0])], 0.5)
        assert result.pairs == []
        assert result.unmatched_observations == [0]
        assert result.unmatched_truth == [0]


def match_fields(match):
    """Every field of a match, with the samples' floats as exact bits."""
    return (
        match.pairs,
        [(s.predictor.hex(), s.error.hex()) for s in match.distal_samples],
        [(s.predictor.hex(), s.error.hex()) for s in match.perpendicular_samples],
        match.unmatched_observations,
        match.unmatched_truth,
    )


class TestMatchingMatchesPairLoop:
    """The broadcast cost against the per-pair scalar ``np.hypot`` loop."""

    def check(self, observations, truth, max_dist):
        got = match_observations_to_truth(observations, truth, max_dist)
        want = match_observations_to_truth_reference(observations, truth, max_dist)
        assert match_fields(got) == match_fields(want)

    def test_random_scenes(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, m = rng.integers(0, 9, 2)
            observations = list(rng.uniform(-3.0, 3.0, (n, 2)))
            truth = list(rng.uniform(-3.0, 3.0, (m, 2)))
            self.check(observations, truth, rng.uniform(0.1, 2.0))

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0)])
    def test_empty_sides(self, n, m):
        rng = np.random.default_rng(n + 10 * m)
        self.check(list(rng.uniform(-1, 1, (n, 2))), list(rng.uniform(-1, 1, (m, 2))), 0.5)

    def test_ties(self):
        # Two observations equidistant from two truths, and duplicates.
        observations = [np.array([0.0, 0.1]), np.array([0.0, -0.1]), np.array([0.0, 0.1])]
        truth = [np.array([0.1, 0.0]), np.array([-0.1, 0.0]), np.array([0.1, 0.0])]
        self.check(observations, truth, 0.5)

    def test_points_exactly_at_max_dist(self):
        # 3-4-5 triangles: each distance is exactly 0.5 in binary floating point.
        observations = [np.array([0.3, 0.4]), np.array([-0.4, 0.3]), np.array([0.0, 0.5])]
        truth = [np.array([0.0, 0.0]), np.array([0.0, 1.0])]
        assert float(np.hypot(0.3, 0.4)) == 0.5
        self.check(observations, truth, 0.5)
        self.check(observations, truth, np.nextafter(0.5, 0.0))
        self.check(np.array(observations), np.array(truth), 0.5)


class TestCsv:
    def test_round_trip_and_filtering(self, tmp_path):
        rows = [
            LabeledSample(1.0, 0.05, "distal", "camera"),
            LabeledSample(2.0, -0.07, "perpendicular", "camera"),
            LabeledSample(0.5, 0.02, "distal", "lidar"),
        ]
        path = tmp_path / "samples.csv"
        write_samples_csv(path, rows)
        assert read_samples_csv(path) == rows
        filtered = read_samples_csv(path, component="distal", source="camera")
        assert filtered == [rows[0]]
        assert samples_of(filtered) == [ErrorSample(1.0, 0.05)]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("predictor,error\n1.0,0.1\n")
        with pytest.raises(ValueError):
            read_samples_csv(path)
