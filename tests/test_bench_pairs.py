import json
import sys
import textwrap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import main, summarize  # noqa: E402

METRICS = [
    {"name": "tick_ms_iqm", "better": "lower", "bound": 0.24},
    {"name": "ticks_per_s", "better": "higher", "bound": 0.24},
]


def runs(base, change):
    """Synthetic runs from one value list per metric and side."""

    def side(values):
        return [
            {"metrics": {name: {"value": v, "unit": "x"} for name, v in zip(values, row)}}
            for row in zip(*values.values())
        ]

    return {"base": side(base), "change": side(change)}


def verdicts(base, change):
    summary = summarize(runs(base, change), METRICS)
    return {name: entry["verdict"] for name, entry in summary.items()}


BASE = [20.0, 20.5, 19.5, 21.0, 19.0, 20.2, 19.8, 20.6, 19.4, 20.0]


def test_gain_needs_nine_wins_and_a_median_drop_beyond_the_base_spread():
    faster = [v - 5.0 for v in BASE]
    assert verdicts(
        {"tick_ms_iqm": BASE, "ticks_per_s": [1000 / v for v in BASE]},
        {"tick_ms_iqm": faster, "ticks_per_s": [1000 / v for v in faster]},
    ) == {"tick_ms_iqm": "gain", "ticks_per_s": "gain"}


def test_eight_wins_are_unresolved():
    change = [v - 5.0 for v in BASE[:8]] + [v + 0.5 for v in BASE[8:]]
    summary = summarize(
        runs({"tick_ms_iqm": BASE, "ticks_per_s": BASE}, {"tick_ms_iqm": change, "ticks_per_s": BASE}),
        METRICS,
    )
    assert summary["tick_ms_iqm"]["change_wins"] == 8
    assert summary["tick_ms_iqm"]["verdict"] == "unresolved"
    # Equal runs tie every pair: neither a gain nor worse.
    assert summary["ticks_per_s"]["change_wins"] == 0
    assert summary["ticks_per_s"]["verdict"] == "unresolved"


def test_every_win_within_the_base_spread_is_unresolved():
    # Wins all ten pairs by 0.1, but the base quartile distance is wider.
    assert verdicts(
        {"tick_ms_iqm": BASE, "ticks_per_s": BASE},
        {"tick_ms_iqm": [v - 0.1 for v in BASE], "ticks_per_s": BASE},
    )["tick_ms_iqm"] == "unresolved"


def test_worse_beyond_the_bound_in_either_direction():
    assert verdicts(
        {"tick_ms_iqm": BASE, "ticks_per_s": BASE},
        {"tick_ms_iqm": [v * 1.3 for v in BASE], "ticks_per_s": [v * 0.7 for v in BASE]},
    ) == {"tick_ms_iqm": "worse", "ticks_per_s": "worse"}
    # Worse by less than the bound is unresolved.
    assert verdicts(
        {"tick_ms_iqm": BASE, "ticks_per_s": BASE},
        {"tick_ms_iqm": [v * 1.2 for v in BASE], "ticks_per_s": [v * 0.8 for v in BASE]},
    ) == {"tick_ms_iqm": "unresolved", "ticks_per_s": "unresolved"}


def test_a_failed_run_marks_every_metric_run_failed():
    values = {"tick_ms_iqm": BASE, "ticks_per_s": BASE}
    both = runs(values, {name: [v - 5.0 for v in column] for name, column in values.items()})
    both["change"][3] = {"exit_code": 1, "stderr": "StatisticsError: no median for empty data"}
    summary = summarize(both, METRICS)
    assert {name: entry["verdict"] for name, entry in summary.items()} == {
        "tick_ms_iqm": "run_failed",
        "ticks_per_s": "run_failed",
    }
    assert summary["tick_ms_iqm"]["values"]["change"][3] is None
    assert summary["tick_ms_iqm"]["values"]["base"] == BASE
    assert summary["tick_ms_iqm"]["unit"] == "x"


def fake_checkout(root: Path, script: str) -> Path:
    (root / "benchmarks").mkdir(parents=True)
    (root / "benchmarks" / "run.py").write_text(script)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return root


RESULT_LINES = textwrap.dedent(
    """\
    import json
    env = {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2, "git_sha": "g",
           "src_sha256": "s", "loadavg_start": "0.5"}
    print(json.dumps({"details": {"env": env}}))
    print(json.dumps({"correct": True, "metrics": {
        "tick_ms_iqm": {"value": 2.0, "unit": "ms"}, "ticks_per_s": {"value": 500.0, "unit": "1/s"}}}))
    """
)


def test_a_run_that_exits_non_zero_is_recorded_and_the_pairs_go_on(tmp_path):
    base = fake_checkout(tmp_path / "base", RESULT_LINES)
    # The change's first run crashes as a benchmark with no calibration
    # sample does; its later runs succeed.
    change = fake_checkout(
        tmp_path / "change",
        textwrap.dedent(
            """\
            import pathlib, sys
            crashed = pathlib.Path("crashed")
            if not crashed.exists():
                crashed.write_text("")
                print("Traceback (most recent call last):", file=sys.stderr)
                print("statistics.StatisticsError: no median for empty data", file=sys.stderr)
                sys.exit(1)
            """
        )
        + RESULT_LINES,
    )
    out = tmp_path / "bench.json"
    argv = ["--base", str(base), "--change", str(change), "--workload", "dense", "--pairs", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["failed_runs"] == [
        {
            "side": "change",
            "pair": 0,
            "exit_code": 1,
            "stderr": "statistics.StatisticsError: no median for empty data",
        }
    ]
    for metric in entry["metrics"].values():
        assert metric["verdict"] == "run_failed"
        assert len(metric["values"]["base"]) == 3 and None not in metric["values"]["base"]
        assert metric["values"]["change"][0] is None and None not in metric["values"]["change"][1:]
