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
- ``unresolved``: neither.

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
    """One benchmark run; returns its details and result lines merged."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload]
    cmd += ["--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    details, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return {**details, **result}


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
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        lower = metric["better"] == "lower"
        wins = sum(
            (c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"])
        )
        base, change = quartiles(values["base"]), quartiles(values["change"])
        summary[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
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
            runs[side].append(run_once(checkout, args.workload, args.seconds, args.seed))
            value = runs[side][-1]["metrics"]["tick_ms_iqm"]["value"]
            print(f"pair {pair}: {side} tick_ms_iqm {value:.3f}", file=sys.stderr)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    first = runs["base"][0]["details"]["env"]
    bench["env"] = {key: first[key] for key in ("python", "numpy", "scipy", "nproc")}
    for side in runs:
        env = runs[side][0]["details"]["env"]
        bench[side] = {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"]}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "correct": {side: all(run["correct"] for run in runs[side]) for side in runs},
        "loadavg": [run["details"]["env"]["loadavg_start"] for run in runs["base"] + runs["change"]],
        "metrics": summarize(runs, metrics),
    }
    for name, metric in entry["metrics"].items():
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
