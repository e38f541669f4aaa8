"""The benchmark's workloads, each a unit of public-API calls.

A unit's inputs come from its seed alone: the same seed always gives the
same scenes and the same reports.  See README.md in this directory for why
each workload exists.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from coopfusion import evaluation
from coopfusion.simulator import ScenarioConfig


@dataclass
class Run:
    """One public-API call (one scenario run or replay) and its tick accounting."""

    label: str
    planned: int
    completed: int = 0
    failed: int = 0
    report: evaluation.RunReport | None = None
    error: str | None = None

    def fail(self, reason: str) -> None:
        """Every tick of the run fails an output check."""
        self.failed = self.planned
        self.error = reason
        print(f"{self.label}: {reason}", file=sys.stderr)


def guarded_call(label: str, config: ScenarioConfig, call: Callable, probe, root) -> Run:
    """Run one library call, counting the ticks it completed before any failure.

    A call that raises fails its current tick and every later one; a report
    without an RSU-fused RMSE fails all of its ticks.
    """
    run = Run(label, int(round(config.duration * config.tick_rate)))
    probe.new_run()
    before = probe.completed
    try:
        with root():
            run.report = call()
    except Exception:
        run.error = traceback.format_exc(limit=4)
        print(f"{label}: raised\n{run.error}", file=sys.stderr)
    run.completed = probe.completed - before
    if run.report is None:
        run.failed = max(1, run.planned - run.completed)
    elif run.report.rmse_global is None:
        run.fail("report has no RSU-fused RMSE")
    return run


# A unit takes (seed, duration, workdir, call) and returns (runs, log bytes
# written); ``call`` is guarded_call with the probe and root span bound.


def presets_configs(seed: int, duration: float) -> list[ScenarioConfig]:
    return [evaluation.scenario_preset(name, seed, duration) for name in evaluation.scenario_names()]


def presets_unit(seed, duration, workdir: Path, call) -> tuple[list[Run], int]:
    """All 8 presets in both modes, in memory: the tasks of run_matrix(workers=1)."""
    runs = []
    for config in presets_configs(seed, duration):
        for mode in evaluation.MODES:
            runs.append(
                call(f"{config.name}:{mode}", config, lambda: evaluation.run_scenario(config, mode))
            )
    return runs, 0


def dense_configs(seed: int, duration: float) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            name="dense",
            straight_length=4.0,
            cav_count=16,
            cis_count=2,
            duration=duration,
            seed=seed,
        )
    ]


def dense_unit(seed, duration, workdir: Path, call) -> tuple[list[Run], int]:
    """16 CAVs and 2 CIS on the large map, parameterized mode, in memory."""
    (config,) = dense_configs(seed, duration)
    return [call("dense:parameterized", config, lambda: evaluation.run_scenario(config, "parameterized"))], 0


def clutter_replay_configs(seed: int, duration: float) -> list[ScenarioConfig]:
    return [
        evaluation.scenario_preset(
            "lg/de/CIS", seed, duration, clutter_rate=2.0, miss_probability=0.1
        )
    ]


def clutter_replay_unit(seed, duration, workdir: Path, call) -> tuple[list[Run], int]:
    """Record lg/de/CIS with clutter to a log, then replay the log in both modes.

    The parameterized replay must reproduce the recorded report.json byte for
    byte; a mismatch fails all of the replay's ticks.
    """
    (config,) = clutter_replay_configs(seed, duration)
    record_dir = workdir / "record"
    log = record_dir / "log.ndjson"
    recorded_report = record_dir / "report.json"
    replayed_report = workdir / "replay-parameterized.json"

    recorded = call(
        "record:parameterized",
        config,
        lambda: evaluation.run_scenario(config, "parameterized", out_dir=record_dir),
    )
    log_bytes = log.stat().st_size if log.exists() else 0
    same = call(
        "replay:parameterized",
        config,
        lambda: evaluation.replay(log, "parameterized", out_path=replayed_report),
    )
    if same.report is not None and (
        not recorded_report.exists()
        or replayed_report.read_bytes() != recorded_report.read_bytes()
    ):
        same.fail("parameterized replay does not reproduce the recorded report.json byte for byte")
    other = call("replay:fixed", config, lambda: evaluation.replay(log, "fixed"))
    return [recorded, same, other], log_bytes


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int, float], list[ScenarioConfig]]
    unit: Callable
    # Simulated seconds per scenario run in one unit.
    duration: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("presets", presets_configs, presets_unit, duration=10.0),
        Workload("dense", dense_configs, dense_unit, duration=5.0),
        Workload("clutter-replay", clutter_replay_configs, clutter_replay_unit, duration=5.0),
    )
}
