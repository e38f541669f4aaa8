import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import summarize  # noqa: E402

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
