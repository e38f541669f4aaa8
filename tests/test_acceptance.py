"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail line
per criterion.  The comparison matrix (criteria 1-4) runs once as a module
fixture: 8 scenarios x 3 seeds x 2 modes x 2-minute runs.
"""

import math
import os
import time

import numpy as np
import pytest
from oracles import jpda_oracle
from scipy.stats import chi2

from coopfusion.association import AssociationConfig, Track, jpda_weights
from coopfusion.calibration import fit_sigma_model, match_observations_to_truth
from coopfusion.error_models import (
    DEFAULT_PARAMETERIZED_MODELS,
    ErrorModel,
    GaussianEstimate,
    PlatformPose,
    SensorPose,
    eval_error_model,
    rotated_covariance,
)
from coopfusion.evaluation import pooled_rmse, replay, run_matrix, run_scenario, scenario_preset
from coopfusion.global_fusion import covariance_union
from coopfusion.local_fusion import SensorPipelineConfig
from coopfusion.simulator import LocalizerDrift, SensingErrors, sense, stream_rng, stream_table
from coopfusion.tracking import (
    ProcessNoiseConfig,
    ctrv_jacobian,
    ctrv_motion,
    ctrv_predict,
    ekf_update,
    process_noise_matrix,
)

SEEDS = (101, 202, 303)
SCENARIOS = ("sm/sp", "sm/de", "lg/sp", "lg/de", "sm/sp/CIS", "sm/de/CIS", "lg/sp/CIS", "lg/de/CIS")
CIS_PAIRS = (("sm/sp", "sm/sp/CIS"), ("sm/de", "sm/de/CIS"), ("lg/sp", "lg/sp/CIS"), ("lg/de", "lg/de/CIS"))


def announce(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")


@pytest.fixture(scope="module")
def matrix():
    workers = min(4, os.cpu_count() or 1)
    started = time.monotonic()
    reports = run_matrix(SCENARIOS, SEEDS, duration=120.0, workers=workers)
    elapsed = time.monotonic() - started
    by_key = {}
    for report in reports:
        by_key.setdefault((report.scenario, report.mode), []).append(report)
    return {"reports": reports, "by_key": by_key, "elapsed": elapsed}


class TestCriterion1ParameterizedBeatsFixed:
    def test_ordering_ratio_runtime(self, matrix):
        by_key = matrix["by_key"]
        ordering_ok = []
        ratios = {}
        for name in SCENARIOS:
            param, _ = pooled_rmse(by_key[(name, "parameterized")])
            fixed, _ = pooled_rmse(by_key[(name, "fixed")])
            ordering_ok.append(param <= fixed)
            ratios[name] = fixed / param
        mean_ratio = float(np.mean(list(ratios.values())))
        runtime_ok = matrix["elapsed"] < 600.0
        passed = all(ordering_ok) and mean_ratio >= 1.15 and runtime_ok
        announce(
            1,
            "parameterized beats fixed",
            passed,
            f"ordering {sum(ordering_ok)}/8 scenarios, mean ratio {mean_ratio:.3f} "
            f"(need >= 1.15), runtime {matrix['elapsed']:.0f}s < 600s; "
            f"ratios: {', '.join(f'{k}={v:.2f}' for k, v in ratios.items())}",
        )
        assert all(ordering_ok), "parameterized must not lose to fixed in any scenario"
        assert matrix["elapsed"] < 600.0
        assert mean_ratio >= 1.15, (
            f"mean fixed/parameterized ratio {mean_ratio:.3f} below 1.15; "
            "see README, Tests and the acceptance suite, for the per-tick bound"
        )


class TestCriterion2LocalizationFloor:
    def test_parameterized_at_or_below_localization(self, matrix):
        by_key = matrix["by_key"]
        margins = {}
        for name in SCENARIOS:
            rmse_global, rmse_loc = pooled_rmse(by_key[(name, "parameterized")])
            margins[name] = rmse_global / rmse_loc
        passed = all(m <= 1.02 for m in margins.values())
        worst = max(margins, key=margins.get)
        announce(
            2,
            "localization floor",
            passed,
            f"worst global/localization = {margins[worst]:.3f} in {worst} (limit 1.02)",
        )
        assert passed, f"global RMSE exceeds 1.02x localization in {worst}"


class TestCriterion3CisBenefit:
    def test_cis_reduces_rmse(self, matrix):
        by_key = matrix["by_key"]
        outcomes = {}
        for base, with_cis in CIS_PAIRS:
            base_rmse, _ = pooled_rmse(by_key[(base, "parameterized")])
            cis_rmse, _ = pooled_rmse(by_key[(with_cis, "parameterized")])
            outcomes[base] = (base_rmse, cis_rmse)
        passed = all(cis < base for base, cis in outcomes.values())
        announce(
            3,
            "CIS benefit",
            passed,
            "; ".join(f"{k}: {v[0]:.4f} -> {v[1]:.4f}" for k, v in outcomes.items()),
        )
        assert passed


def stopped_rmse(report):
    """(global, localization-alone) RMSE over ticks where the tracked CAV is stopped."""
    fused = (
        math.sqrt(report.stopped_sse_total / report.stopped_matched_total)
        if report.stopped_matched_total
        else None
    )
    loc = (
        math.sqrt(report.stopped_loc_sse_total / report.stopped_loc_count_total)
        if report.stopped_loc_count_total
        else None
    )
    return fused, loc


class TestCriterion4FixedFailureMode:
    # The fixed localizer covariance is the mean over all speeds, so it is
    # most wrong for a stopped vehicle; over whole runs (~85% cruise) both
    # modes beat localization, so the comparison is made on stopped ticks.
    def test_fixed_exceeds_localization_somewhere_sparse_large(self, matrix):
        hits = []
        run_ratios = []
        for report in matrix["reports"]:
            if report.scenario not in ("lg/sp", "lg/sp/CIS") or report.mode != "fixed":
                continue
            run_ratios.append(report.rmse_global / report.rmse_localization_alone)
            param = next(
                r
                for r in matrix["reports"]
                if r.scenario == report.scenario
                and r.seed == report.seed
                and r.mode == "parameterized"
            )
            fixed, loc = stopped_rmse(report)
            param_fused, param_loc = stopped_rmse(param)
            if None in (fixed, loc, param_fused, param_loc):
                continue  # no stopped tick matched in this run
            if fixed > loc and param_fused <= param_loc:
                hits.append((report.scenario, report.seed))
        passed = bool(hits)
        announce(
            4,
            "fixed-model failure mode",
            passed,
            "stopped-interval seeds where fixed exceeds localization while parameterized "
            f"does not: {hits or 'none'}; best whole-run fixed/localization ratio "
            f"{max(run_ratios):.3f} (see README, Tests and the acceptance suite)",
        )
        assert passed, (
            "fixed-mode RMSE over stopped intervals never exceeded same-log localization "
            "RMSE in any sparse/large seed while parameterized stayed at or below it; "
            "see README, Tests and the acceptance suite"
        )


class TestCriterion5JpdaOracle:
    def test_equivalence_on_500_random_instances(self):
        rng = np.random.default_rng(2024)
        started = time.monotonic()
        worst = 0.0
        for _ in range(500):
            cfg = AssociationConfig(
                detection_probability=float(rng.uniform(0.5, 1.0)),
                clutter_density=float(rng.choice([0.0, 0.05, 0.3])),
            )
            tracks = []
            for tid in range(int(rng.integers(1, 4))):
                cov = np.diag(
                    [float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)), 1, 1, 1]
                )
                state = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0, 0, 0])
                tracks.append(Track(id=tid, estimate=GaussianEstimate(state, cov)))
            observations = [
                GaussianEstimate(
                    rng.uniform(-2, 2, size=2), float(rng.uniform(0.1, 2.0)) * np.eye(2)
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            result = jpda_weights(tracks, observations, cfg)
            weights, miss = jpda_oracle(tracks, observations, cfg)
            if weights.size:
                worst = max(worst, float(np.abs(result.weights - weights).max()))
            worst = max(worst, float(np.abs(result.miss - miss).max()))
        elapsed = time.monotonic() - started
        passed = worst <= 1e-9 and elapsed < 10.0
        announce(
            5,
            "JPDA oracle equivalence",
            passed,
            f"max deviation {worst:.2e} over 500 instances in {elapsed:.1f}s",
        )
        assert worst <= 1e-9
        assert elapsed < 10.0


class TestCriterion6EkfConsistency:
    def test_nees_band_and_jacobian(self):
        # near-linear regime: an extended filter can only be NEES-consistent
        # where first-order propagation holds, so the matched simulation uses
        # gentle process noise and tight priors
        cfg = ProcessNoiseConfig(sigma_a=0.1, sigma_psi=0.02, sigma_psi_dot=0.05)
        q = process_noise_matrix(cfg)
        meas_var = 0.05**2
        runs = 50
        frames = 200
        p0 = np.diag([0.04, 0.04, 0.04, 0.01, 0.01])
        sqrt_p0 = np.linalg.cholesky(p0)
        sqrt_q = np.linalg.cholesky(q + 1e-15 * np.eye(5))
        rng = np.random.default_rng(99)

        nees_sum = np.zeros(frames)
        for _ in range(runs):
            estimate_mean = np.array([0.0, 0.0, 0.5, 0.1, 0.3])
            truth = estimate_mean + sqrt_p0 @ rng.normal(size=5)
            means, covs = estimate_mean[None], p0[None]
            for k in range(frames):
                truth = ctrv_motion(truth, cfg.dt) + sqrt_q @ rng.normal(size=5)
                means, covs = ctrv_predict((means, covs), cfg)
                z = GaussianEstimate(
                    truth[:2] + math.sqrt(meas_var) * rng.normal(size=2), meas_var * np.eye(2)
                )
                _, means, covs = ekf_update((means, covs), z.mean[None], z.covariance[None])
                err = truth - means[0]
                err[3] = math.atan2(math.sin(err[3]), math.cos(err[3]))
                nees_sum[k] += float(err @ np.linalg.solve(covs[0], err))
        nees = nees_sum / runs
        lo = chi2.ppf(0.025, runs * 5) / runs
        hi = chi2.ppf(0.975, runs * 5) / runs
        inside = float(np.mean((nees >= lo) & (nees <= hi)))

        rng_j = np.random.default_rng(42)
        h = 1e-6
        worst_rel = 0.0
        for _ in range(100):
            state = np.array(
                [
                    rng_j.uniform(-5, 5),
                    rng_j.uniform(-5, 5),
                    rng_j.uniform(0, 2),
                    rng_j.uniform(-math.pi, math.pi),
                    rng_j.choice([-1, 1]) * rng_j.uniform(0.05, 2.0),
                ]
            )
            jac = ctrv_jacobian(state, cfg.dt)
            for col in range(5):
                bump = np.zeros(5)
                bump[col] = h
                fd = (_motion_raw(state + bump, cfg.dt) - _motion_raw(state - bump, cfg.dt)) / (
                    2 * h
                )
                rel = np.abs(jac[:, col] - fd) / np.maximum(1.0, np.abs(jac[:, col]))
                worst_rel = max(worst_rel, float(rel.max()))

        passed = inside >= 0.90 and worst_rel <= 1e-6
        announce(
            6,
            "EKF consistency",
            passed,
            f"NEES inside 95% band in {inside:.1%} of {frames} frames (need >= 90%), "
            f"worst Jacobian FD deviation {worst_rel:.2e} (need <= 1e-6)",
        )
        assert inside >= 0.90
        assert worst_rel <= 1e-6


def _motion_raw(state, dt):
    x, y, v, psi, psi_dot = state
    if abs(psi_dot) >= 1e-4:
        psi_next = psi + psi_dot * dt
        ratio = v / psi_dot
        return np.array(
            [
                x + ratio * (math.sin(psi_next) - math.sin(psi)),
                y + ratio * (math.cos(psi) - math.cos(psi_next)),
                v,
                psi_next,
                psi_dot,
            ]
        )
    return np.array(
        [x + v * math.cos(psi) * dt, y + v * math.sin(psi) * dt, v, psi + psi_dot * dt, psi_dot]
    )


class TestCriterion7CalibrationClosure:
    def sensing_samples(self, distal, perp, fov, seed, count=50_000):
        """Matched (measured distance, component error) samples via the sensor model."""
        pipeline = SensorPipelineConfig(
            name="probe",
            pose=SensorPose(),
            fov=fov,
            max_range=10.0,
            distal_model=distal,
            perp_model=perp,
        )
        rng = stream_rng(seed, "closure/sensing")
        table = stream_table([(0, pipeline, rng, [0])])
        errors = SensingErrors.fresh(1)
        platform = np.zeros((1, 3))
        distal_samples = []
        perp_samples = []
        while len(distal_samples) < count:
            u = rng.random()
            d = rng.uniform(0.05, 0.4) if u < 0.5 else rng.uniform(0.4, 3.0)
            bearing = rng.uniform(-0.45, 0.45) * fov
            target = d * np.array([math.cos(bearing), math.sin(bearing)])
            obs = sense(table, errors, platform, target[None, :], 0.0, 0.0, 0.0)
            if not len(obs.distances):
                continue
            d_obs, theta_obs = obs.distances[0], obs.bearings[0]
            measured = d_obs * np.array([math.cos(theta_obs), math.sin(theta_obs)])
            match = match_observations_to_truth([measured], [target], max_dist=2.0)
            distal_samples.extend(match.distal_samples)
            perp_samples.extend(match.perpendicular_samples)
        return distal_samples[:count], perp_samples[:count]

    def localizer_samples(self, longitudinal, lateral, seed, count=50_000):
        rng = stream_rng(seed, "closure/localizer")
        localizer = LocalizerDrift(longitudinal, lateral, 0.125, 0.0, heading_sigma=1e-9)
        lon_samples = []
        lat_samples = []
        from coopfusion.calibration import ErrorSample

        for _ in range(count):
            u = rng.random()
            v = rng.uniform(0.0, 0.05) if u < 0.5 else rng.uniform(0.05, 0.5)
            theta = rng.uniform(-math.pi, math.pi)
            truth = PlatformPose(0.0, 0.0, theta, v)
            measured = localizer.measure(truth, rng)
            delta = measured.position - truth.position
            heading = np.array([math.cos(theta), math.sin(theta)])
            lon_samples.append(ErrorSample(v, float(delta @ heading)))
            lat_samples.append(ErrorSample(v, float(delta @ np.array([-heading[1], heading[0]]))))
        return lon_samples, lat_samples

    def test_refit_recovers_generating_coefficients(self):
        models = DEFAULT_PARAMETERIZED_MODELS
        camera_d, camera_p = self.sensing_samples(
            models.camera_distal, models.camera_perpendicular, math.radians(160), seed=808
        )
        lidar_d, lidar_p = self.sensing_samples(
            models.lidar_distal, models.lidar_perpendicular, 2 * math.pi, seed=809
        )
        loc_lon, loc_lat = self.localizer_samples(
            models.localizer_longitudinal, models.localizer_lateral, seed=810
        )
        cases = [
            ("camera_distal", camera_d, models.camera_distal, "distance"),
            ("camera_perpendicular", camera_p, models.camera_perpendicular, "distance"),
            ("lidar_distal", lidar_d, models.lidar_distal, "distance"),
            ("lidar_perpendicular", lidar_p, models.lidar_perpendicular, "distance"),
            ("localizer_longitudinal", loc_lon, models.localizer_longitudinal, "speed"),
            ("localizer_lateral", loc_lat, models.localizer_lateral, "speed"),
        ]
        errors = {}
        for name, samples, truth_model, predictor in cases:
            fitted = fit_sigma_model(samples, degree=1, predictor=predictor)
            rel = [
                abs(f - t) / abs(t)
                for f, t in zip(fitted.coefficients, truth_model.coefficients)
            ]
            errors[name] = max(rel)
        worst = max(errors, key=errors.get)
        passed = all(e <= 0.03 for e in errors.values())
        announce(
            7,
            "calibration closure",
            passed,
            f"worst relative coefficient error {errors[worst]:.3%} ({worst}); "
            f"all: {', '.join(f'{k}={v:.2%}' for k, v in errors.items())}",
        )
        assert passed, f"coefficient recovery beyond 3% in {worst}: {errors[worst]:.3%}"


class TestCriterion8CovarianceAlgebra:
    def test_rotation_spectrum_union_psd_and_table_values(self):
        rng = np.random.default_rng(7)
        worst_spectrum = 0.0
        for _ in range(500):
            sa, sb = rng.uniform(0.01, 3.0, size=2)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            eigenvalues = np.linalg.eigvalsh(rotated_covariance(sa, sb, angle))
            worst_spectrum = max(
                worst_spectrum,
                float(np.abs(eigenvalues - np.sort([sa**2, sb**2])).max()),
            )

        min_union_eig = math.inf
        for _ in range(1000):
            a = rng.uniform(-1, 1, (2, 2))
            b = rng.uniform(-1, 1, (2, 2))
            union = covariance_union(a @ a.T, b @ b.T)
            min_union_eig = min(min_union_eig, float(np.linalg.eigvalsh(union).min()))

        models = DEFAULT_PARAMETERIZED_MODELS
        table_checks = {
            "camera distal @1m": (eval_error_model(models.camera_distal, 1.0), 0.0643),
            "camera perp @1m": (eval_error_model(models.camera_perpendicular, 1.0), 0.0347),
            "localizer lon @0": (eval_error_model(models.localizer_longitudinal, 0.0), 0.0428),
            "localizer lon @0.5": (eval_error_model(models.localizer_longitudinal, 0.5), 0.0819),
            "localizer lat @0.5": (eval_error_model(models.localizer_lateral, 0.5), 0.06615),
            "fixed camera distal": (eval_error_model(ErrorModel((0.0881,)), 2.0), 0.0881),
        }
        worst_table = max(abs(got - want) for got, want in table_checks.values())

        passed = worst_spectrum <= 1e-9 and min_union_eig >= -1e-12 and worst_table <= 1e-9
        announce(
            8,
            "covariance algebra",
            passed,
            f"spectrum dev {worst_spectrum:.2e}, min union eigenvalue {min_union_eig:.2e}, "
            f"table evaluation dev {worst_table:.2e}",
        )
        assert worst_spectrum <= 1e-9
        assert min_union_eig >= -1e-12
        assert worst_table <= 1e-9


class TestCriterion9Determinism:
    def test_bit_identical_runs_and_replay(self, tmp_path):
        config = scenario_preset("sm/sp/CIS", seed=31, duration=6.0)
        run_scenario(config, "parameterized", out_dir=tmp_path / "a")
        run_scenario(config, "parameterized", out_dir=tmp_path / "b")
        logs_match = (tmp_path / "a/log.ndjson").read_bytes() == (
            tmp_path / "b/log.ndjson"
        ).read_bytes()
        reports_match = (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        replayed = replay(tmp_path / "a/log.ndjson", "parameterized")
        replay_matches = (
            replayed.to_json() + "\n" == (tmp_path / "a/report.json").read_text()
        )
        passed = logs_match and reports_match and replay_matches
        announce(
            9,
            "determinism",
            passed,
            f"logs identical: {logs_match}, reports identical: {reports_match}, "
            f"replay reproduces report: {replay_matches}",
        )
        assert logs_match and reports_match and replay_matches
