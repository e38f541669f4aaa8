"""coopfusion benchmark: per-tick fusion latency and throughput, plus a layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload dense --seed 101 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment stamp and details.
The library is imported from ``src/`` of this checkout and driven only
through ``evaluation.run_scenario`` and ``evaluation.replay``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy
    import scipy
    import coopfusion
    from coopfusion import evaluation
    from coopfusion.simulator import Simulation
except ImportError as exc:
    raise SystemExit(f"benchmark: cannot import coopfusion from {SRC}: {exc}")
if not Path(coopfusion.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"benchmark: coopfusion imported from {coopfusion.__file__}, not {SRC}")

from probes import TIERS, TickProbe, Tracer  # noqa: E402
from workloads import WORKLOADS, guarded_call  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "tick_ms_iqm": "ms",
    "tick_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ticks_ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "simulator.tick_ms": "ms",
    "error_models.observation_estimate_ms": "ms",
    "error_models.observations": "1/tick",
    **{
        f"{metric}.{tier}": unit
        for tier in TIERS
        for metric, unit in (
            ("tracking.predict_ms", "ms"),
            ("tracking.predicts", "1/tick"),
            ("tracking.multi_update_ms", "ms"),
            ("tracking.measurements_per_update", "1/call"),
            ("tracking.ekf_update_failed", "count"),
            ("association.jpda_weights_ms", "ms"),
            ("association.pairs", "1/tick"),
            ("association.gate_ratio", "ratio"),
            ("association.lifecycle_ms", "ms"),
            ("association.spawned", "1/tick"),
            ("association.spawn_confirm_ratio", "ratio"),
        )
    },
    "local_fusion.step_ms": "ms",
    "local_fusion.tracks_held": "1/tick",
    "global_fusion.packetize_ms": "ms",
    "global_fusion.packet_tracks": "1/tick",
    "global_fusion.step_ms": "ms",
    "global_fusion.tracks_held": "1/tick",
    "global_fusion.rejected_packets": "count",
    "calibration.match_ms": "ms",
    "evaluation.self_ms": "ms",
    "evaluation.log_bytes_per_tick": "B/tick",
    "evaluation.rmse_m": "m",
    "evaluation.false_tracks_per_tick": "1/tick",
    "trace_overhead": "ratio",
    "trace.self_sum_ratio": "ratio",
    "trace.absent_layers": "count",
}

SETUP_REPEATS = 3
# Simulated seconds per scenario run in the warm-up unit and under --smoke.
SHORT_DURATION = 1.0
# The shared machine's speed swings by up to 2x within seconds to minutes as
# other tenants come and go.  A probes.Calibrator sample every
# CALIBRATE_EVERY_S of fusion work tracks it, and the end-to-end times are
# rescaled to a machine whose speed index is SPEED_REFERENCE_S (its median
# on the 2-CPU machine the bounds were set on, when no neighbour was busy).
CALIBRATE_EVERY_S = 0.25
SPEED_REFERENCE_S = 0.0018
# p90 needs at least ten samples beyond it.
MIN_TICKS = 100
SMOKE_MIN_TICKS = 10
# Each unit of a run fuses a scene of its own, so a run averages over several
# scenes; the stride keeps the scenes of nearby --seed values apart.
UNIT_SEED_STRIDE = 100_003


# --- environment stamp -----------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def env_stamp() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


# --- set-up time -----------------------------------------------------------


def setup_probe(workload, seed: int, duration: float) -> None:
    """Child-process side of setup_s: build the workload's scenarios, then report ready."""
    evaluation.default_model_sets()
    for config in workload.configs(seed, duration):
        Simulation(config)
    print("ready", flush=True)


def measure_setup(workload, seed: int, smoke: bool, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ready-to-run, once per repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", workload.name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(ready)
    return samples


# --- measurement -------------------------------------------------------------


def run_units(
    workload, seed, duration, probe, call, reference, *, seconds=None, min_ticks=1, units=None
):
    """Run units with seeds seed, seed + UNIT_SEED_STRIDE, ... while they fit in
    ``seconds`` and until ``min_ticks`` ticks are fused, or exactly ``units`` of them.

    ``reference`` maps (unit seed, run label) to the report JSON of an earlier
    run of the same inputs; a run whose report differs fails all of its ticks.
    A unit's wall time leaves out the calibration samples.
    """
    done = []
    start = time.perf_counter()
    while True:
        scenario_seed = seed + len(done) * UNIT_SEED_STRIDE
        workdir = OUT / "work" / f"{workload.name}-{scenario_seed}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        first_latency = len(probe.latencies)
        first_calibration = len(probe.calibrations)
        calibration_s = probe.calibration_s
        unit_start = time.perf_counter()
        runs, log_bytes = workload.unit(scenario_seed, duration, workdir, call)
        wall = time.perf_counter() - unit_start - (probe.calibration_s - calibration_s)
        shutil.rmtree(workdir)
        for run in runs:
            if run.report is None or run.failed:
                continue
            text = run.report.to_json()
            if reference.setdefault((scenario_seed, run.label), text) != text:
                run.fail("report differs from an earlier run of the same inputs")
        done.append(
            {
                "runs": runs,
                "wall_s": wall,
                "log_bytes": log_bytes,
                "latencies": probe.latencies[first_latency:],
                "calibrations": probe.calibrations[first_calibration:],
            }
        )
        if units is not None:
            if len(done) >= units:
                return done
            continue
        # Stop before a unit that would likely end after ``seconds``.
        elapsed = time.perf_counter() - start
        ticks = sum(run.completed for unit in done for run in unit["runs"])
        if ticks >= min_ticks and elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def _tally(units) -> tuple[int, int, int, float]:
    runs = [run for unit in units for run in unit["runs"]]
    completed = sum(run.completed for run in runs)
    return (
        sum(run.planned for run in runs),
        sum(run.failed for run in runs),
        completed,
        sum(unit["wall_s"] for unit in units),
    )


def band_mean(values, low: float, high: float) -> float:
    """Mean of the values between the ``low`` and ``high`` quantiles.

    A band mean moves smoothly where a single order statistic jumps: the
    presets workload mixes 8 sparse-scene runs (2-4 ms per tick) with 8
    dense ones (8-15 ms), so its median falls into the gap between them, and
    on 100-200 ticks a p90 rests on the 10-20 slowest.
    """
    ordered = sorted(values)
    first = int(low * len(ordered))
    band = ordered[first : max(int(high * len(ordered)), first + 1)]
    return sum(band) / len(band)


def _timings(units, scaled: bool) -> dict[str, float]:
    """Tick latency quantiles and throughput, optionally at the reference machine speed.

    Scaling multiplies each unit's times by SPEED_REFERENCE_S over the
    median speed index measured during that unit.
    """
    latencies = []
    wall = 0.0
    for unit in units:
        factor = 1.0
        if scaled and unit["calibrations"]:
            factor = SPEED_REFERENCE_S / statistics.median(unit["calibrations"])
        latencies += [latency * factor for latency in unit["latencies"]]
        wall += unit["wall_s"] * factor
    _, _, completed, _ = _tally(units)
    return {
        "ticks_per_s": completed / wall,
        # The interquartile mean stands in for the median.
        "tick_ms_iqm": band_mean(latencies, 0.25, 0.75) * 1e3,
        # The 85th-95th percentile band estimates the 90th percentile.
        "tick_ms_p90": band_mean(latencies, 0.85, 0.95) * 1e3,
    }


def e2e_metrics(units, setup_samples) -> dict[str, float]:
    attempted, failed, _, _ = _tally(units)
    return {
        "setup_s": statistics.median(setup_samples),
        **_timings(units, scaled=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ticks_ok_ratio": (attempted - failed) / attempted,
    }


def layer_metrics(tracer: Tracer, traced_units, overhead: float) -> dict[str, float]:
    summary = tracer.summary()
    counts = tracer.counts
    ticks = max(1, summary.get("global_fusion.step", {}).get("calls", 0))

    def per_tick_ms(name, key="self"):
        return summary.get(name, {}).get(key, 0.0) * 1e3 / ticks

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    logged = [unit for unit in traced_units if unit["log_bytes"]]
    log_bytes = sum(unit["log_bytes"] for unit in logged)
    logged_ticks = sum(unit["runs"][0].completed for unit in logged)
    root = summary.get("evaluation", {}).get("total", 0.0)
    reports = [run.report for run in traced_units[0]["runs"] if run.report is not None]
    rmse, _ = evaluation.pooled_rmse(reports)
    values = {
        "simulator.tick_ms": per_tick_ms("simulator.tick"),
        "error_models.observation_estimate_ms": per_tick_ms("error_models.observation_estimate"),
        "error_models.observations": calls("error_models.observation_estimate") / ticks,
        "local_fusion.step_ms": per_tick_ms("local_fusion.step"),
        "local_fusion.tracks_held": counts.get("local_fusion.step.tracks_held", 0) / ticks,
        "global_fusion.packetize_ms": per_tick_ms("global_fusion.packetize"),
        "global_fusion.packet_tracks": counts.get("global_fusion.packet_tracks", 0) / ticks,
        "global_fusion.step_ms": per_tick_ms("global_fusion.step"),
        "global_fusion.tracks_held": counts.get("global_fusion.step.tracks_held", 0) / ticks,
        "global_fusion.rejected_packets": counts.get("global_fusion.rejected_packets", 0),
        "calibration.match_ms": per_tick_ms("calibration.match"),
        "evaluation.self_ms": per_tick_ms("evaluation"),
        "evaluation.log_bytes_per_tick": ratio(log_bytes, logged_ticks),
        "evaluation.rmse_m": rmse or 0.0,
        "evaluation.false_tracks_per_tick": ratio(
            sum(report.false_track_ticks for report in reports),
            sum(len(report.per_tick) for report in reports),
        ),
        "trace_overhead": overhead,
        "trace.self_sum_ratio": ratio(sum(e["self"] for e in summary.values()), root),
        "trace.absent_layers": len(tracer.absent_layers()),
    }
    for tier in TIERS:
        pairs = counts.get(f"association.pairs.{tier}", 0)
        spawned = counts.get(f"association.spawned.{tier}", 0)
        values.update(
            {
                f"tracking.predict_ms.{tier}": per_tick_ms(f"tracking.predict.{tier}"),
                f"tracking.predicts.{tier}": calls(f"tracking.predict.{tier}") / ticks,
                # Inclusive of the EKF updates it folds.
                f"tracking.multi_update_ms.{tier}": per_tick_ms(
                    f"tracking.multi_update.{tier}", "total"
                ),
                f"tracking.measurements_per_update.{tier}": ratio(
                    counts.get(f"tracking.measurements.{tier}", 0),
                    calls(f"tracking.multi_update.{tier}"),
                ),
                f"tracking.ekf_update_failed.{tier}": counts.get(
                    f"tracking.ekf_update_failed.{tier}", 0
                ),
                f"association.jpda_weights_ms.{tier}": per_tick_ms(
                    f"association.jpda_weights.{tier}"
                ),
                f"association.pairs.{tier}": pairs / ticks,
                f"association.gate_ratio.{tier}": ratio(
                    counts.get(f"association.gated_pairs.{tier}", 0), pairs
                ),
                f"association.lifecycle_ms.{tier}": per_tick_ms(f"association.lifecycle.{tier}"),
                f"association.spawned.{tier}": spawned / ticks,
                f"association.spawn_confirm_ratio.{tier}": ratio(
                    counts.get(f"association.spawn_confirmed.{tier}", 0), spawned
                ),
            }
        )
    return values


def benchmark(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    workload = WORKLOADS[args.workload]
    duration = SHORT_DURATION if args.smoke else workload.duration
    min_ticks = SMOKE_MIN_TICKS if args.smoke else MIN_TICKS
    details: dict = {"workload": workload.name, "seed": args.seed, "env": env_stamp()}

    setup_samples = []
    if not args.trace:
        setup_samples = measure_setup(workload, args.seed, args.smoke, 1 if args.smoke else SETUP_REPEATS)

    # The traced run calibrates nothing: calibration time would land in a span.
    probe = TickProbe(calibrate_every=None if args.trace else CALIBRATE_EVERY_S)
    probe.install()
    try:
        untraced = partial(guarded_call, probe=probe, root=contextlib.nullcontext)
        # Warm-up: one short unit, so lazy imports and caches fill untimed.
        run_units(workload, args.seed, SHORT_DURATION, probe, untraced, {}, units=1)
        reference: dict[str, str] = {}
        if not args.trace:
            units = run_units(
                workload, args.seed, duration, probe, untraced, reference,
                seconds=args.seconds, min_ticks=min_ticks,
            )
            metrics = e2e_metrics(units, setup_samples)
            units_all = units
            details["tick_samples"] = sum(len(unit["latencies"]) for unit in units)
            details["unscaled"] = _timings(units, scaled=False)
            details["speed_index_ms_per_unit"] = [
                statistics.median(unit["calibrations"]) * 1e3 for unit in units
            ]
            details["setup_samples_s"] = setup_samples
        else:
            # One unit untraced, then the same unit traced: the overhead ratio
            # compares equal work, and both must give the same reports.
            units = run_units(workload, args.seed, duration, probe, untraced, reference, units=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced_call = partial(guarded_call, probe=probe, root=tracer.root)
                traced = run_units(
                    workload, args.seed, duration, probe, traced_call, reference, units=1
                )
            finally:
                tracer.uninstall()
            _, _, plain_ticks, plain_wall = _tally(units)
            _, _, traced_ticks, traced_wall = _tally(traced)
            overhead = (traced_wall / max(traced_ticks, 1)) / (plain_wall / max(plain_ticks, 1))
            metrics = layer_metrics(tracer, traced, overhead)
            units_all = units + traced
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.tsv"
            tracer.write(trace_path)
            details["trace_file"] = str(trace_path.relative_to(ROOT))
            details["spans"] = len(tracer.spans)
            details["absent_layers"] = tracer.absent_layers()
    finally:
        probe.uninstall()

    attempted, failed, completed, wall = _tally(units_all)
    details["units"] = len(units_all)
    details["ticks"] = completed
    details["wall_s"] = wall
    details["errors"] = sorted(
        {run.error.splitlines()[0] for unit in units_all for run in unit["runs"] if run.error}
    )
    details["env"]["loadavg_end"] = _loadavg()
    units_of = E2E_UNITS if not args.trace else PER_LAYER_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    return result, details


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="very short scenario runs, for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed, SHORT_DURATION if args.smoke else workload.duration)
        return 0
    result, details = benchmark(args)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"details": details, **result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
