"""Self-test of the benchmark, on the --smoke setting (one-second scenario runs).

Run from the repository root:

    python3 -m pytest benchmarks/selftest.py -q

The file name keeps it out of the library's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on sys.path)
from coopfusion import evaluation  # noqa: E402
from probes import TARGETS, Target, TickProbe, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Self times are parent minus children, so they sum to the root up to float
# round-off of the subtractions.
SELF_SUM_TOLERANCE = 1e-9


def _bench(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "101", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv + ["--smoke"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace:
            assert result["metrics"]["trace.absent_layers"]["value"] == 0


def _traced(targets) -> Tracer:
    probe = TickProbe()
    tracer = Tracer(targets)
    probe.install()
    tracer.install()
    try:
        with tracer.root():
            evaluation.run_scenario(evaluation.scenario_preset("sm/de/CIS", 3, 2.0), "parameterized")
    finally:
        tracer.uninstall()
        probe.uninstall()
    return tracer


def test_self_times_non_negative_and_sum_to_root():
    tracer = _traced(TARGETS)
    summary = tracer.summary()
    assert tracer.absent_layers() == []
    assert all(entry["min_self"] >= 0.0 for entry in summary.values())
    root = summary["evaluation"]["total"]
    assert abs(sum(entry["self"] for entry in summary.values()) - root) <= SELF_SUM_TOLERANCE * root


def test_missing_wrapper_target_reported_absent():
    missing = Target("coopfusion.tracking", "no_such_function", "tracking.missing")
    tracer = _traced(TARGETS + (missing,))
    assert tracer.absent_layers() == ["coopfusion.tracking.no_such_function"]


def test_uninstall_restores_library_attributes():
    from coopfusion import global_fusion

    _traced(TARGETS)
    assert evaluation.packetize is global_fusion.packetize
    assert global_fusion.GlobalFusion.step.__code__.co_name == "step"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
