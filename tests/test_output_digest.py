import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_digest import compare, main  # noqa: E402

A = "a" * 64
B = "b" * 64

REFERENCE = f"{A}  clutter/log.ndjson\n{A}  dense/report.json\n{B}  presets/x/log.ndjson\n"


def test_equal_listings_agree():
    assert compare(REFERENCE, REFERENCE) == []


def test_differing_missing_and_extra_paths_named():
    listing = f"{A}  clutter/log.ndjson\n{A}  presets/x/log.ndjson\n{B}  presets/y/log.ndjson\n"
    assert compare(listing, REFERENCE) == [
        "missing  dense/report.json",
        "differs  presets/x/log.ndjson",
        "not in listing  presets/y/log.ndjson",
    ]


def test_main_exits_1_on_a_difference(tmp_path, monkeypatch, capsys):
    # The run is replaced by two small files, so no scenario runs.
    def write_outputs(out):
        out.mkdir(parents=True)
        (out / "a.txt").write_text("one")
        (out / "b.txt").write_text("two")
        return [out / "a.txt", out / "b.txt"]

    monkeypatch.setattr(sys.modules["output_digest"], "write_outputs", write_outputs)
    assert main([str(tmp_path / "first")]) == 0
    listing = capsys.readouterr().out
    assert [line.split("  ")[1] for line in listing.splitlines()] == ["a.txt", "b.txt"]
    (tmp_path / "listing.txt").write_text(listing)

    assert main([str(tmp_path / "second"), "--against", str(tmp_path / "listing.txt")]) == 0
    assert capsys.readouterr().out == f"all 2 files match {tmp_path / 'listing.txt'}\n"

    (tmp_path / "listing.txt").write_text(listing.replace("a.txt", "c.txt"))
    assert main([str(tmp_path / "third"), "--against", str(tmp_path / "listing.txt")]) == 1
    assert capsys.readouterr().out == "not in listing  a.txt\nmissing  c.txt\n"


def test_set_is_59_files_with_a_correlated_sensing_run(tmp_path, monkeypatch):
    # Runs and replays are recorded, not made, so no scenario runs.
    runs, replays = [], []
    module = sys.modules["output_digest"]
    monkeypatch.setattr(module, "run_scenario", lambda config, mode, out_dir: runs.append(config))
    monkeypatch.setattr(module, "replay", lambda log, mode, out_path: replays.append(mode))
    paths = module.write_outputs(tmp_path)
    assert len(set(paths)) == len(paths) == 59
    assert len(runs) == 19 and len(replays) == 2
    correlated = [config for config in runs if config.sensing_correlation_time > 0.0]
    assert [(c.name, c.duration, c.sensing_correlation_time) for c in correlated] == [
        ("sm/de", 5.0, 0.5)
    ]
    assert tmp_path / "correlated" / "log.ndjson" in paths
