import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coopfusion import cli, error_models, global_fusion, local_fusion
from coopfusion.association import TrackTable
from coopfusion.calibration import LabeledSample, write_samples_csv
from coopfusion.error_models import DEFAULT_PARAMETERIZED_MODELS
from coopfusion.evaluation import (
    ConfigError,
    LogError,
    RunReport,
    _ScenarioFusion,
    replay,
    run_scenario,
    scenario_names,
    scenario_preset,
    summarize,
)
from coopfusion.simulator import ScenarioConfig, cis_poses


def tiny(name="sm/sp", seed=5, duration=8.0, **kw):
    return scenario_preset(name, seed=seed, duration=duration, **kw)


def first(records, kind, platform=None):
    """The first log record of ``kind``, on ``platform`` if given."""
    return next(
        record
        for record in records
        if record["kind"] == kind and platform in (None, record.get("platform"))
    )


def first_detection(records):
    return next(rec for rec in records if rec["kind"] == "obs" and rec["detections"])["detections"][0]


def drop_obs(records, platform):
    for record in [rec for rec in records if rec["kind"] == "obs" and rec["platform"] == platform]:
        records.remove(record)


def add_copy(records, kind, **changes):
    """Insert, right after the first record of ``kind``, a copy of it with ``changes``."""
    record = first(records, kind)
    records.insert(records.index(record) + 1, {**record, **changes})


# Edits that each break the first tick of a recorded sm/sp/CIS log, each with
# the start of the message replay must report.
MALFORMED_TICK_0 = {
    "theta_not_a_number": (lambda recs: first_detection(recs).update(theta="abc"), "malformed"),
    "theta_missing": (lambda recs: first_detection(recs).pop("theta"), "malformed record: 'theta'"),
    "detections_a_string": (lambda recs: first(recs, "obs").update(detections="abc"), "malformed"),
    "detections_empty_string": (lambda recs: first(recs, "obs").update(detections=""), "malformed"),
    "loc_x_null": (lambda recs: first(recs, "loc").update(x=None), "malformed"),
    "truth_cav_without_x": (lambda recs: first(recs, "truth")["cavs"][0].pop("x"), "malformed"),
    "truth_cav_renamed": (
        lambda recs: first(recs, "truth")["cavs"][1].update(id="cav9"),
        "malformed record: truth CAVs",
    ),
    "truth_without_t": (lambda recs: first(recs, "truth").pop("t"), "malformed record: 't'"),
    "t_not_a_number": (lambda recs: first(recs, "truth").update(t="abc"), "malformed"),
    "t_nan": (lambda recs: first(recs, "truth").update(t=math.nan), "malformed record: time nan"),
    # JSON true and false read as the ints 1 and 0 in Python.
    "t_true": (lambda recs: first(recs, "truth").update(t=True), "malformed record: time True"),
    "truth_cav_v_true": (lambda recs: first(recs, "truth")["cavs"][0].update(v=True), "malformed"),
    "loc_theta_false": (lambda recs: first(recs, "loc").update(theta=False), "malformed"),
    "detection_d_true": (lambda recs: first_detection(recs).update(d=True), "malformed"),
    "detection_theta_false": (lambda recs: first_detection(recs).update(theta=False), "malformed"),
    "detection_class_a_number": (lambda recs: first_detection(recs).update({"class": 1}), "malformed"),
    "no_loc_for_cav1": (lambda recs: recs.remove(first(recs, "loc", "cav1")), "no loc record for cav1"),
    "no_obs_for_cis0": (lambda recs: drop_obs(recs, "cis0"), "no obs record for cis0"),
    "loc_for_unknown_cav7": (
        lambda recs: add_copy(recs, "loc", platform="cav7"),
        "malformed record: loc record for 'cav7', which is no CAV of the run",
    ),
    "loc_for_cis0": (
        lambda recs: add_copy(recs, "loc", platform="cis0"),
        "malformed record: loc record for 'cis0', which is no CAV of the run",
    ),
    "second_loc_for_cav0": (
        lambda recs: add_copy(recs, "loc"),
        "malformed record: second loc record for cav0",
    ),
    "obs_for_unknown_cav7": (
        lambda recs: add_copy(recs, "obs", platform="cav7"),
        "malformed record: obs record for 'cav7', which is no platform of the run",
    ),
    "obs_for_unknown_sensor": (
        lambda recs: add_copy(recs, "obs", sensor="radar"),
        "malformed record: obs record for sensor 'radar', which cav0 does not carry",
    ),
    "second_obs_for_one_sensor": (
        lambda recs: add_copy(recs, "obs"),
        "malformed record: second obs record for cav0",
    ),
}


class TestPresets:
    def test_small_sparse(self):
        cfg = scenario_preset("sm/sp", seed=1)
        assert (cfg.straight_length, cfg.cav_count, cfg.cis_count) == (1.0, 2, 0)

    def test_large_dense_cis(self):
        cfg = scenario_preset("lg/de/CIS", seed=1)
        assert (cfg.straight_length, cfg.cav_count, cfg.cis_count) == (2.0, 4, 2)

    def test_all_eight_exist(self):
        assert len(scenario_names()) == 8

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            scenario_preset("huge", seed=1)


class TestRunScenario:
    def test_report_shape(self):
        report = run_scenario(tiny(), "parameterized")
        assert report.scenario == "sm/sp"
        assert len(report.per_tick) == int(8.0 * 8)
        assert report.rmse_global is not None and report.rmse_global >= 0
        assert report.rmse_localization_alone is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario(tiny(), "magic")

    def test_truth_noise_independent_of_mode(self):
        out_p = run_scenario(tiny(), "parameterized")
        out_f = run_scenario(tiny(), "fixed")
        assert out_p.loc_sse_total == out_f.loc_sse_total
        assert out_p.stopped_loc_count_total == out_f.stopped_loc_count_total > 0
        assert out_p.stopped_loc_sse_total == out_f.stopped_loc_sse_total

    def test_output_files_written(self, tmp_path):
        run_scenario(tiny(duration=4.0), "parameterized", out_dir=tmp_path)
        assert (tmp_path / "log.ndjson").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "residuals.csv").exists()
        first = (tmp_path / "log.ndjson").read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "meta"


class TestTimeStep:
    def test_both_tiers_predict_over_the_scenario_tick(self):
        config = tiny("lg/de/CIS", tick_rate=4.0)
        fusion = _ScenarioFusion(config, DEFAULT_PARAMETERIZED_MODELS, cis_poses(config))
        assert len(fusion.local.pipelines) == 6
        assert fusion.local.noise.dt == 0.25
        assert fusion.rsu.noise.dt == 0.25
        assert fusion.local.noise == replace(local_fusion.PROCESS_NOISE, dt=0.25)
        assert fusion.rsu.noise == replace(global_fusion.PROCESS_NOISE, dt=0.25)


class TestTickAnchors:
    """What timing a tick from outside relies on: it starts at the local
    tier's step and ends when the RSU's step returns."""

    def test_one_local_then_one_global_step_per_tick(self, monkeypatch):
        calls = []
        inside_local = []
        local_step = local_fusion.LocalFusion.step
        global_step = global_fusion.GlobalFusion.step
        expand = error_models.observation_estimates

        def traced_local_step(fusion, frames):
            assert isinstance(fusion.table, TrackTable)
            inside_local.append(True)
            try:
                result = local_step(fusion, frames)
            finally:
                inside_local.pop()
            assert isinstance(fusion.table, TrackTable)
            calls.append("local")
            return result

        def traced_global_step(fusion, timestamp):
            calls.append("global")
            return global_step(fusion, timestamp)

        def traced_expand(*args):
            # Tier work outside the local step would leave the timed window.
            assert inside_local, "detections expanded outside LocalFusion.step"
            calls.append("expand")
            return expand(*args)

        monkeypatch.setattr(local_fusion.LocalFusion, "step", traced_local_step)
        monkeypatch.setattr(global_fusion.GlobalFusion, "step", traced_global_step)
        monkeypatch.setattr(error_models, "observation_estimates", traced_expand)
        monkeypatch.setattr(local_fusion, "observation_estimates", traced_expand)
        report = run_scenario(tiny("lg/de/CIS", duration=2.0), "parameterized")
        assert len(report.per_tick) == 16
        assert calls == ["expand", "local", "global"] * 16


class TestDeterminismAndReplay:
    def test_bit_identical_logs_and_reports(self, tmp_path):
        config = tiny(duration=5.0)
        run_scenario(config, "parameterized", out_dir=tmp_path / "a")
        run_scenario(config, "parameterized", out_dir=tmp_path / "b")
        assert (tmp_path / "a/log.ndjson").read_bytes() == (tmp_path / "b/log.ndjson").read_bytes()
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()

    def test_replay_reproduces_report(self, tmp_path):
        report = run_scenario(tiny(duration=5.0), "parameterized", out_dir=tmp_path)
        replayed = replay(tmp_path / "log.ndjson", "parameterized")
        assert replayed.to_json() == report.to_json()

    def test_replay_other_mode_differs_but_shares_truth(self, tmp_path):
        report = run_scenario(tiny(duration=5.0), "parameterized", out_dir=tmp_path)
        other = replay(tmp_path / "log.ndjson", "fixed")
        assert other.loc_sse_total == report.loc_sse_total
        assert other.stopped_loc_count_total == report.stopped_loc_count_total > 0
        assert other.stopped_loc_sse_total == report.stopped_loc_sse_total
        assert other.to_json() != report.to_json()

    def test_truncated_log_names_line(self, tmp_path):
        run_scenario(tiny(duration=3.0), "parameterized", out_dir=tmp_path)
        lines = (tmp_path / "log.ndjson").read_text().splitlines()
        broken = tmp_path / "broken.ndjson"
        broken.write_text("\n".join(lines[:10] + [lines[11][: len(lines[11]) // 2]]))
        with pytest.raises(LogError, match=r"line 11"):
            replay(broken, "parameterized")

    @pytest.mark.parametrize("lineno", [1, 6])
    def test_non_object_line_names_line(self, tmp_path, lineno):
        run_scenario(tiny(duration=3.0), "parameterized", out_dir=tmp_path)
        lines = (tmp_path / "log.ndjson").read_text().splitlines()
        lines[lineno - 1] = "[1, 2]"
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines))
        with pytest.raises(LogError, match=rf"line {lineno}: expected a JSON object"):
            replay(bad, "parameterized")

    def test_schema_mismatch_rejected(self, tmp_path):
        run_scenario(tiny(duration=3.0), "parameterized", out_dir=tmp_path)
        lines = (tmp_path / "log.ndjson").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["schema"] = 99
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([json.dumps(meta)] + lines[1:]))
        with pytest.raises(LogError, match="schema"):
            replay(bad, "parameterized")

    @pytest.mark.parametrize(
        "key, value", [("cav_count", 2.5), ("seed", "7"), ("seed", 7.5), ("duration", 0.05)]
    )
    def test_out_of_range_meta_config_rejected(self, tmp_path, key, value):
        run_scenario(tiny(duration=3.0), "parameterized", out_dir=tmp_path)
        lines = (tmp_path / "log.ndjson").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["config"][key] = value
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([json.dumps(meta)] + lines[1:]))
        with pytest.raises(LogError, match=key):
            replay(bad, "parameterized")

    @pytest.mark.parametrize("cis", [[], [{"id": "cis0", "x": 0, "y": 4, "theta": 0}] * 2])
    def test_cis_list_must_match_cis_count(self, tmp_path, cis):
        run_scenario(tiny("lg/sp/CIS", duration=3.0), "parameterized", out_dir=tmp_path)
        lines = (tmp_path / "log.ndjson").read_text().splitlines()
        meta = json.loads(lines[0])
        assert len(meta["cis"]) == meta["config"]["cis_count"] == 1
        meta["cis"] = cis
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([json.dumps(meta)] + lines[1:]))
        with pytest.raises(LogError, match="CIS"):
            replay(bad, "parameterized")

    def test_report_json_round_trip(self, tmp_path):
        report = run_scenario(tiny(duration=3.0), "fixed", out_dir=tmp_path)
        loaded = RunReport.from_json_dict(json.loads((tmp_path / "report.json").read_text()))
        assert loaded.to_json() == report.to_json()

    @pytest.mark.parametrize("obj", [[], "report", 3])
    def test_report_not_an_object_rejected(self, obj):
        with pytest.raises(LogError, match="JSON object"):
            RunReport.from_json_dict(obj)


STOPPED_KEYS = (
    "stopped_matched_total",
    "stopped_sse_total",
    "stopped_loc_count_total",
    "stopped_loc_sse_total",
)


def stopped_totals(report):
    return tuple(getattr(report, key) for key in STOPPED_KEYS)


class TestStoppedTotals:
    def test_bounded_by_all_tick_totals(self):
        report = run_scenario(tiny(duration=5.0), "parameterized")
        assert report.stopped_loc_count_total > 0  # the scenario does stop at the light
        assert report.stopped_matched_total <= report.matched_total
        assert report.stopped_sse_total <= report.sse_total
        assert report.stopped_loc_count_total <= report.loc_count_total
        assert report.stopped_loc_sse_total <= report.loc_sse_total
        # matching is one-to-one, so a stopped CAV is matched at most once a tick
        assert report.stopped_matched_total <= report.stopped_loc_count_total

    def test_localization_totals_match_log(self, tmp_path):
        report = run_scenario(tiny(duration=5.0), "fixed", out_dir=tmp_path)
        count = 0
        sse = 0.0
        truth = {}
        for line in (tmp_path / "log.ndjson").read_text().splitlines()[1:]:
            record = json.loads(line)
            if record["kind"] == "truth":
                truth = {cav["id"]: cav for cav in record["cavs"]}
            elif record["kind"] == "loc" and truth[record["platform"]]["v"] == 0.0:
                cav = truth[record["platform"]]
                count += 1
                sse += (record["x"] - cav["x"]) ** 2 + (record["y"] - cav["y"]) ** 2
        assert report.stopped_loc_count_total == count
        assert report.stopped_loc_sse_total == pytest.approx(sse, rel=1e-12)

    def test_survive_report_round_trip_and_replay(self, tmp_path):
        report = run_scenario(tiny(duration=5.0), "parameterized", out_dir=tmp_path)
        obj = json.loads((tmp_path / "report.json").read_text())
        assert tuple(obj[key] for key in STOPPED_KEYS) == stopped_totals(report)
        assert stopped_totals(RunReport.from_json_dict(obj)) == stopped_totals(report)
        assert stopped_totals(replay(tmp_path / "log.ndjson", "parameterized")) == (
            stopped_totals(report)
        )

    def test_report_without_stopped_keys_loads(self, tmp_path):
        run_dir = tmp_path / "old_run"
        run_scenario(tiny(duration=3.0), "fixed", out_dir=run_dir)
        obj = json.loads((run_dir / "report.json").read_text())
        for key in STOPPED_KEYS:
            del obj[key]
        loaded = RunReport.from_json_dict(obj)
        assert stopped_totals(loaded) == (0, 0.0, 0, 0.0)
        (run_dir / "report.json").write_text(json.dumps(obj))
        assert cli.main(["report", "--runs", str(tmp_path)]) == 0


class TestSummarize:
    def test_ratio_computed_per_scenario(self):
        config = tiny(duration=5.0)
        reports = [run_scenario(config, mode) for mode in ("parameterized", "fixed")]
        rows = summarize(reports)
        assert len(rows) == 2
        by_mode = {row["mode"]: row for row in rows}
        expected = by_mode["fixed"]["rmse"] / by_mode["parameterized"]["rmse"]
        assert by_mode["parameterized"]["ratio_fixed_over_parameterized"] == pytest.approx(
            expected
        )


class TestCli:
    def test_simulate_and_replay(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(
            [
                "simulate",
                "--preset",
                "sm/sp",
                "--seed",
                "5",
                "--duration",
                "4",
                "--mode",
                "parameterized",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "replay",
                "--log",
                str(out / "log.ndjson"),
                "--mode",
                "parameterized",
                "--out",
                str(tmp_path / "replay.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "replay.json").read_bytes() == (out / "report.json").read_bytes()

    def test_simulate_with_config_file(self, tmp_path):
        cfg = ScenarioConfig(
            name="custom", straight_length=1.0, cav_count=2, cis_count=0, duration=3.0, seed=2
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg.to_dict()))
        rc = cli.main(
            ["simulate", "--config", str(path), "--mode", "fixed", "--out", str(tmp_path / "c")]
        )
        assert rc == 0

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli.main(
            ["simulate", "--config", str(path), "--mode", "fixed", "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    @pytest.mark.parametrize("content, extra", [("[]", ["--duration", "1"]), ("5", [])])
    def test_non_object_config_exits_2(self, tmp_path, capsys, content, extra):
        path = tmp_path / "scenario.json"
        path.write_text(content)
        argv = ["simulate", "--config", str(path), "--mode", "fixed", *extra]
        assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("miss_probability", 1.5),
            ("loc_correlation_time", -6.0),
            ("cis_pose_var", -1.0),
            ("cav_count", 2.5),
            ("cis_count", 1.5),
            ("seed", "7"),
            ("seed", 7.5),
            ("duration", 0.05),
        ],
    )
    def test_out_of_range_config_exits_2_before_any_tick(self, tmp_path, key, value):
        obj = ScenarioConfig(
            name="custom", straight_length=1.0, cav_count=2, cis_count=1, duration=3.0, seed=2
        ).to_dict()
        obj[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--config", str(path), "--mode", "fixed", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_zero_duration_exits_2_before_any_tick(self, tmp_path):
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "sm/sp", "--duration", "0", "--mode", "fixed"]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_object_model_file_exits_2(self, tmp_path, capsys):
        models = tmp_path / "models.json"
        models.write_text("[]")
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "sm/sp", "--duration", "1", "--mode", "fixed"]
        assert cli.main([*argv, "--models-fixed", str(models), "--out", str(out)]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_model_coefficient_exits_2_before_any_tick(self, tmp_path, capsys, value):
        models = tmp_path / "models.json"
        obj = {"schema": 1, "models": DEFAULT_PARAMETERIZED_MODELS.to_json_dict()}
        obj["models"]["lidar_distal"]["coefficients"][0] = value
        models.write_text(json.dumps(obj))
        out = tmp_path / "run"
        argv = ["simulate", "--preset", "sm/sp", "--duration", "1", "--mode", "parameterized"]
        assert cli.main([*argv, "--models-parameterized", str(models), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_of_non_finite_detection_exits_2_without_report(self, tmp_path, capsys):
        run_scenario(tiny(duration=3.0), "parameterized", out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "log.ndjson").read_text().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record["kind"] == "obs" and record["detections"]:
                record["detections"][0]["theta"] = math.nan
                lines[index] = json.dumps(record)
                break
        else:
            pytest.fail("the log holds no detection")
        log = tmp_path / "bad.ndjson"
        log.write_text("\n".join(lines))
        out = tmp_path / "replay.json"
        argv = ["replay", "--log", str(log), "--mode", "parameterized", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "bearing must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", MALFORMED_TICK_0.values(), ids=MALFORMED_TICK_0.keys())
    def test_replay_of_malformed_record_exits_2_without_report(self, tmp_path, capsys, edit, message):
        run_scenario(tiny("sm/sp/CIS", duration=2.0), "parameterized", out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "log.ndjson").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        edit(records)
        log = tmp_path / "bad.ndjson"
        log.write_text("\n".join(json.dumps(record) for record in records))
        out = tmp_path / "replay.json"
        argv = ["replay", "--log", str(log), "--mode", "parameterized", "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"tick 0: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_of_extra_loc_record_every_tick_exits_2_without_report(self, tmp_path, capsys):
        # Keyed into a dict, these records used to add 16 localization
        # errors to the report and change its RMSE.
        run_scenario(tiny(duration=2.0), "parameterized", out_dir=tmp_path / "run")
        records = []
        for line in (tmp_path / "run" / "log.ndjson").read_text().splitlines():
            records.append(json.loads(line))
            if records[-1]["kind"] == "loc" and records[-1]["platform"] == "cav1":
                records.append({**records[-1], "platform": "cav7"})
        log = tmp_path / "bad.ndjson"
        log.write_text("\n".join(json.dumps(record) for record in records))
        out = tmp_path / "replay.json"
        argv = ["replay", "--log", str(log), "--mode", "parameterized", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "tick 0: malformed record: loc record for 'cav7'" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_of_truth_time_stepping_back_exits_2_naming_the_tick(self, tmp_path, capsys):
        run_scenario(tiny(duration=2.0), "parameterized", out_dir=tmp_path / "run")
        records = [
            json.loads(line) for line in (tmp_path / "run" / "log.ndjson").read_text().splitlines()
        ]
        truths = [record for record in records if record["kind"] == "truth"]
        assert truths[4]["t"] == 0.5
        truths[5]["t"] = 0.25
        log = tmp_path / "bad.ndjson"
        log.write_text("\n".join(json.dumps(record) for record in records))
        out = tmp_path / "replay.json"
        argv = ["replay", "--log", str(log), "--mode", "parameterized", "--out", str(out)]
        assert cli.main(argv) == 2
        message = "tick 5: malformed record: time 0.25 is not after the previous tick's 0.5"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replay_with_short_cis_list_exits_2_without_report(self, tmp_path, capsys):
        run_scenario(tiny("lg/sp/CIS", duration=3.0), "parameterized", out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "log.ndjson").read_text().splitlines()
        meta = json.loads(lines[0])
        meta["cis"] = []
        log = tmp_path / "bad.ndjson"
        log.write_text("\n".join([json.dumps(meta)] + lines[1:]))
        out = tmp_path / "replay.json"
        argv = ["replay", "--log", str(log), "--mode", "parameterized", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "0 CIS poses for cis_count 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_log_line_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.ndjson"
        log.write_text("[1, 2]\n")
        assert cli.main(["replay", "--log", str(log), "--mode", "fixed"]) == 2
        assert "line 1: expected a JSON object" in capsys.readouterr().err

    def test_non_object_report_exits_2(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "report.json").write_text("[]")
        assert cli.main(["report", "--runs", str(tmp_path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda obj: obj["per_tick"][0].pop("t"), "per_tick row 0"),
            (lambda obj: obj.update(sse_total="0.5"), "'sse_total'"),
            (lambda obj: obj.update(per_tick=3), "'per_tick'"),
        ],
        ids=["row_without_t", "string_total", "per_tick_not_a_list"],
    )
    def test_misshapen_report_exits_2(self, tmp_path, capsys, spoil, message):
        run_dir = tmp_path / "run"
        run_scenario(tiny(duration=2.0), "fixed", out_dir=run_dir)
        obj = json.loads((run_dir / "report.json").read_text())
        spoil(obj)
        (run_dir / "report.json").write_text(json.dumps(obj))
        assert cli.main(["report", "--runs", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and message in err

    def test_fit_command(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(500):
            d = rng.uniform(0.1, 3.0)
            sigma = 0.0126 + 0.0517 * d
            rows.append(LabeledSample(d, float(rng.normal(0, sigma)), "distal", "camera"))
        samples = tmp_path / "samples.csv"
        write_samples_csv(samples, rows)
        out = tmp_path / "model.json"
        rc = cli.main(
            [
                "fit",
                "--samples",
                str(samples),
                "--degree",
                "1",
                "--component",
                "distal",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        model = json.loads(out.read_text())
        assert model["predictor"] == "distance"
        assert len(model["coefficients"]) == 2

    def test_fit_empty_selection_exits_2(self, tmp_path):
        samples = tmp_path / "samples.csv"
        write_samples_csv(samples, [LabeledSample(1.0, 0.1, "distal", "camera")])
        rc = cli.main(
            [
                "fit",
                "--samples",
                str(samples),
                "--component",
                "lateral",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2

    def test_report_command(self, tmp_path):
        for seed, mode in ((1, "parameterized"), (1, "fixed")):
            cli.main(
                [
                    "simulate",
                    "--preset",
                    "sm/sp",
                    "--seed",
                    str(seed),
                    "--duration",
                    "3",
                    "--mode",
                    mode,
                    "--out",
                    str(tmp_path / f"run_{mode}"),
                ]
            )
        rc = cli.main(["report", "--runs", str(tmp_path)])
        assert rc == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("scenario,mode,")
        assert len(summary) == 3
        assert (tmp_path / "residuals_sm_sp.csv").exists()

    def test_report_without_runs_exits_2(self, tmp_path):
        assert cli.main(["report", "--runs", str(tmp_path)]) == 2
