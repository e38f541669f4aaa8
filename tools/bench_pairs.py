"""Run alternating base/change benchmark pairs and summarize them in a BENCH file.

Each pair runs ``python3 benchmarks/run.py --workload W --seconds S --seed N
--trace 0`` once in the base checkout and once in the change checkout; the
side that goes first alternates from pair to pair.  The summary holds the
environment stamp of the first run, each side's git SHA and ``src/``
SHA-256, and per end-to-end metric each side's values, median and quartiles,
the number of pairs the change wins (ties count for neither side) and a
verdict, which is also printed:

- ``gain``: the change wins at least 9 of 10 pairs and its median is better
  than the base median by more than the base quartile distance;
- ``worse``: the change median is worse than the base median by more than
  the metric's ``bound`` (a fraction of the base median);
- ``unresolved``: neither;
- ``run_failed``: a run of the workload, on either side, exited non-zero.

A run that exits non-zero is recorded on its side with its exit code and
the last line of its standard error, and the remaining pairs still run;
no run is retried.

    python3 tools/bench_pairs.py --base ../base --change . --workload presets \\
        --pairs 10 --out BENCH_11.json

Running it again with another workload or seed adds to the same file; the
results of a (workload, seed) already in the file are replaced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run; returns its details and result lines merged, or,
    if it exits non-zero, its ``exit_code`` and the last line of its
    standard error (``stderr``)."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload]
    cmd += ["--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        last = done.stderr.strip().splitlines()[-1:] or [""]
        return {"exit_code": done.returncode, "stderr": last[0]}
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {**details, **result}


def completed(runs: list[dict]) -> list[dict]:
    """The runs that exited 0."""
    return [run for run in runs if "exit_code" not in run]


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(base: dict, change: dict, wins: int, pairs: int, better: str, bound: float) -> str:
    """``gain``, ``worse`` or ``unresolved`` for one metric's quartiles."""
    improvement = base["median"] - change["median"]
    if better != "lower":
        improvement = -improvement
    if 10 * wins >= 9 * pairs and improvement > base["q3"] - base["q1"]:
        return "gain"
    if -improvement > bound * abs(base["median"]):
        return "worse"
    return "unresolved"


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Each metric's summary.  When any run of either side failed, every
    metric's verdict is ``run_failed`` and a failed run's value is None."""
    failed = any("exit_code" in run for side in runs for run in runs[side])
    first = completed(runs["base"] + runs["change"])[:1]
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [
                None if "exit_code" in run else run["metrics"][name]["value"] for run in runs[side]
            ]
            for side in runs
        }
        entry = {
            "unit": first[0]["metrics"][name]["unit"] if first else None,
            "better": metric["better"],
            "bound": metric["bound"],
        }
        if failed:
            summary[name] = {**entry, "verdict": "run_failed", "values": values}
            continue
        lower = metric["better"] == "lower"
        wins = sum(
            (c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"])
        )
        base, change = quartiles(values["base"]), quartiles(values["change"])
        summary[name] = {
            **entry,
            "base": base,
            "change": change,
            "change_wins": wins,
            "verdict": verdict(
                base, change, wins, len(values["base"]), metric["better"], metric["bound"]
            ),
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            checkout = args.base if side == "base" else args.change
            run = run_once(checkout, args.workload, args.seconds, args.seed)
            runs[side].append(run)
            if "exit_code" in run:
                status = f"exited {run['exit_code']}: {run['stderr']}"
            else:
                status = f"tick_ms_iqm {run['metrics']['tick_ms_iqm']['value']:.3f}"
            print(f"pair {pair}: {side} {status}", file=sys.stderr)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    envs = {side: [run["details"]["env"] for run in completed(runs[side])] for side in runs}
    if envs["base"] or envs["change"]:
        first = (envs["base"] or envs["change"])[0]
        bench["env"] = {key: first[key] for key in ("python", "numpy", "scipy", "nproc")}
    for side in runs:
        if envs[side]:
            env = envs[side][0]
            bench[side] = {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"]}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "correct": {side: all(run["correct"] for run in completed(runs[side])) for side in runs},
        "loadavg": [env["loadavg_start"] for env in envs["base"] + envs["change"]],
        "failed_runs": [
            {"side": side, "pair": pair, "exit_code": run["exit_code"], "stderr": run["stderr"]}
            for side in runs
            for pair, run in enumerate(runs[side])
            if "exit_code" in run
        ],
        "metrics": summarize(runs, metrics),
    }
    for name, metric in entry["metrics"].items():
        if metric["verdict"] == "run_failed":
            print(f"{args.workload} seed {args.seed} {name}: run_failed")
            continue
        print(
            f"{args.workload} seed {args.seed} {name}: base median {metric['base']['median']:.4g}, "
            f"change median {metric['change']['median']:.4g}, change wins "
            f"{metric['change_wins']}/{args.pairs}: {metric['verdict']}"
        )
    results = [
        r for r in bench.get("results", []) if (r["workload"], r["seed"]) != (args.workload, args.seed)
    ]
    bench["results"] = results + [entry]
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
