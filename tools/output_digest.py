"""Write a fixed set of run outputs and print the SHA-256 of every file.

The set is 59 files:

- the 8 presets in both modes (seed 601, 10 s), each run's ``log.ndjson``,
  ``report.json`` and ``residuals.csv``;
- a 5 s dense run (16 CAVs, 2 CIS, straight length 4, parameterized);
- a 5 s ``sm/de`` run with ``sensing_correlation_time`` 0.5
  (parameterized), so Gauss-Markov sensing errors are covered;
- a 5 s ``lg/de/CIS`` record with clutter (``clutter_rate`` 2,
  ``miss_probability`` 0.1) plus its parameterized and fixed replays.

One ``sha256  path`` line is printed per file, sorted by path relative to
OUT_DIR, so two checkouts produce byte-identical outputs exactly when
their listings are equal:

    python3 tools/output_digest.py OUT_DIR > digest.txt

With ``--against LISTING`` (such a listing from another checkout) it prints
instead each path whose digest differs from the listing's, is missing
from the run or is not in the listing, and exits 1 if there is any:

    python3 tools/output_digest.py OUT_DIR --against digest.txt

The package is imported from ``src/`` next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coopfusion.evaluation import (  # noqa: E402
    MODES,
    replay,
    run_scenario,
    scenario_names,
    scenario_preset,
)
from coopfusion.simulator import ScenarioConfig  # noqa: E402

SEED = 601
RUN_FILES = ("log.ndjson", "report.json", "residuals.csv")


def write_outputs(out: Path) -> list[Path]:
    """Run the whole set into ``out``; returns the paths written."""
    run_dirs = []
    for name in scenario_names():
        for mode in MODES:
            run_dir = out / "presets" / f"{name.replace('/', '_')}_{mode}"
            run_scenario(scenario_preset(name, SEED, 10.0), mode, out_dir=run_dir)
            run_dirs.append(run_dir)

    dense = ScenarioConfig(
        name="dense", straight_length=4.0, cav_count=16, cis_count=2, duration=5.0, seed=SEED
    )
    run_scenario(dense, "parameterized", out_dir=out / "dense")
    run_dirs.append(out / "dense")

    correlated = scenario_preset("sm/de", SEED, 5.0, sensing_correlation_time=0.5)
    run_scenario(correlated, "parameterized", out_dir=out / "correlated")
    run_dirs.append(out / "correlated")

    clutter = scenario_preset("lg/de/CIS", SEED, 5.0, clutter_rate=2.0, miss_probability=0.1)
    record = out / "clutter"
    run_scenario(clutter, "parameterized", out_dir=record)
    run_dirs.append(record)
    replays = []
    for mode in MODES:
        replays.append(record / f"replay_{mode}.json")
        replay(record / "log.ndjson", mode, out_path=replays[-1])

    return [run_dir / name for run_dir in run_dirs for name in RUN_FILES] + replays


def parse_listing(text: str) -> dict[str, str]:
    """Path -> digest of a ``sha256  path`` listing."""
    entries = (line.split("  ", 1) for line in text.splitlines() if line.strip())
    return {path: digest for digest, path in entries}


def compare(listing: str, reference: str) -> list[str]:
    """One line per path whose digest differs between two listings or that
    only one of them holds, sorted by path; empty when they agree."""
    got, want = parse_listing(listing), parse_listing(reference)
    lines = []
    for path in sorted(got.keys() | want.keys()):
        if path not in got:
            lines.append(f"missing  {path}")
        elif path not in want:
            lines.append(f"not in listing  {path}")
        elif got[path] != want[path]:
            lines.append(f"differs  {path}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", metavar="OUT_DIR", help="directory the outputs are written to")
    parser.add_argument(
        "--against",
        metavar="LISTING",
        help="compare with this listing: print the paths that differ, exit 1 if any",
    )
    args = parser.parse_args(argv)
    out = Path(args.out_dir)
    listing = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}\n"
        for path in sorted(write_outputs(out))
    )
    if args.against is None:
        print(listing, end="")
        return 0
    differences = compare(listing, Path(args.against).read_text())
    for line in differences:
        print(line)
    if not differences:
        print(f"all {len(parse_listing(listing))} files match {args.against}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
