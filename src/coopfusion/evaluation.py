"""End-to-end scenario execution, log replay, and RMSE comparison reports.

A run writes a newline-delimited JSON log (ground truth, measurements,
packets, fused tracks) plus a deterministic JSON report.  Replaying a log
re-runs the fusion pipeline from the recorded measurements and reproduces
the originating report bit for bit when the mode matches.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .association import TrackTable
from .calibration import match_observations_to_truth
from .error_models import (
    DEFAULT_FIXED_MODELS,
    DEFAULT_PARAMETERIZED_MODELS,
    ModelSet,
    PlatformPose,
    PolarObservation,
    localization_covariances,
)
from .global_fusion import GlobalFusion, PlatformPacket, packet_to_wire, packetize
from .local_fusion import LocalFrame, LocalFusion
from .simulator import (
    DETECTION_CLASSES,
    Detections,
    ScenarioConfig,
    Simulation,
    TickData,
    cav_id,
    cis_id,
    sensor_pipelines,
)

LOG_SCHEMA = 1
MODES = ("parameterized", "fixed")
MATCH_MAX_DIST = 0.5


class ConfigError(ValueError):
    """Bad scenario/CLI configuration."""


class LogError(ValueError):
    """Malformed or incompatible run log."""


_PRESETS = {
    "sm/sp": (1.0, 2, 0),
    "sm/de": (1.0, 4, 0),
    "lg/sp": (2.0, 2, 0),
    "lg/de": (2.0, 4, 0),
    "sm/sp/CIS": (1.0, 2, 1),
    "sm/de/CIS": (1.0, 4, 2),
    "lg/sp/CIS": (2.0, 2, 1),
    "lg/de/CIS": (2.0, 4, 2),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def scenario_preset(name: str, seed: int, duration: float = 120.0, **overrides) -> ScenarioConfig:
    """One of the eight named map/density/CIS scenario setups."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {sorted(_PRESETS)}")
    straight_length, cavs, ciss = _PRESETS[name]
    return ScenarioConfig(
        name=name,
        straight_length=straight_length,
        cav_count=cavs,
        cis_count=ciss,
        duration=duration,
        seed=seed,
        **overrides,
    )


def default_model_sets() -> dict[str, ModelSet]:
    return {
        "parameterized": DEFAULT_PARAMETERIZED_MODELS,
        "fixed": DEFAULT_FIXED_MODELS,
    }


@dataclass
class RunReport:
    """Metrics of one scenario run under one error-model mode.

    The ``stopped_*`` totals repeat the four error totals over CAVs whose
    truth speed is 0 at that tick, where the fixed localizer model is
    furthest from the speed-parameterized one.  They default to 0 so
    reports written without them still load.
    """

    scenario: str
    mode: str
    seed: int
    duration: float
    tick_rate: float
    rmse_global: float | None
    rmse_localization_alone: float | None
    matched_total: int
    sse_total: float
    loc_count_total: int
    loc_sse_total: float
    false_track_ticks: int
    confirmed_tracks: int
    stopped_matched_total: int = 0
    stopped_sse_total: float = 0.0
    stopped_loc_count_total: int = 0
    stopped_loc_sse_total: float = 0.0
    per_tick: list[dict] = field(default_factory=list)
    per_track: dict[str, dict] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"schema": LOG_SCHEMA, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RunReport":
        """The report a JSON object holds; raises ``LogError`` unless every
        field has its declared type and every ``per_tick`` row its keys, and
        ``TypeError`` if a required field is missing."""
        if not isinstance(obj, dict):
            raise LogError("a report must be a JSON object")
        if obj.get("schema") != LOG_SCHEMA:
            raise LogError(f"unsupported report schema {obj.get('schema')!r}")
        kwargs = {k: v for k, v in obj.items() if k != "schema"}
        for name, value in kwargs.items():
            if name not in _REPORT_KINDS:
                raise LogError(f"unknown report field {name!r}")
            if isinstance(value, bool) or not isinstance(value, _REPORT_KINDS[name]):
                raise LogError(f"report field {name!r} has the wrong type: {value!r}")
        for index, row in enumerate(kwargs.get("per_tick", [])):
            if not isinstance(row, dict) or not all(key in row for key in _PER_TICK_KEYS):
                raise LogError(f"per_tick row {index} lacks one of {', '.join(_PER_TICK_KEYS)}")
        return cls(**kwargs)


_PER_TICK_KEYS = ("t", "matched", "sse", "false_tracks", "loc_count", "loc_sse")
# The JSON values each annotation of a RunReport field accepts.
_JSON_KINDS = {
    "str": str,
    "int": int,
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "list[dict]": list,
    "dict[str, dict]": dict,
}
_REPORT_KINDS = {f.name: _JSON_KINDS[f.type] for f in fields(RunReport)}


# --- log records ---------------------------------------------------------


def _meta_record(config: ScenarioConfig, model_sets: dict[str, ModelSet], cis_poses) -> dict:
    return {
        "kind": "meta",
        "schema": LOG_SCHEMA,
        "config": config.to_dict(),
        "fusion_models": {mode: ms.to_json_dict() for mode, ms in sorted(model_sets.items())},
        "cis": [
            {"id": f"cis{i}", "x": pose.x, "y": pose.y, "theta": pose.theta}
            for i, pose in enumerate(cis_poses)
        ],
    }


def _truth_record(tick: TickData, cav_ids: list[str]) -> dict:
    return {
        "kind": "truth",
        "t": tick.t,
        "cavs": [
            {
                "id": pid,
                "x": pose.x,
                "y": pose.y,
                "theta": pose.theta,
                "v": pose.v,
                "s": arc[0],
            }
            for pid, pose, arc in zip(cav_ids, tick.cav_poses, tick.cav_arcs)
        ],
    }


def _loc_record(t: float, pid: str, pose: PlatformPose) -> dict:
    return {
        "kind": "loc",
        "t": t,
        "platform": pid,
        "x": pose.x,
        "y": pose.y,
        "theta": pose.theta,
        "v": pose.v,
    }


def _obs_records(t: float, streams: list[tuple[str, str]], detections: Detections) -> list[dict]:
    """One obs record per stream, from the tick's detection columns."""
    distances = detections.distances.tolist()
    bearings = detections.bearings.tolist()
    classes = [DETECTION_CLASSES[c] for c in detections.clutter.tolist()]
    bounds = detections.bounds.tolist()
    return [
        {
            "kind": "obs",
            "t": t,
            "platform": pid,
            "sensor": sensor,
            "detections": [
                {"d": d, "theta": theta, "class": object_class}
                for d, theta, object_class in zip(
                    distances[start:stop], bearings[start:stop], classes[start:stop]
                )
            ],
        }
        for (pid, sensor), start, stop in zip(streams, bounds, bounds[1:])
    ]


@dataclass
class _TickGroup:
    """One tick's simulator-side records."""

    truth: dict
    loc: list[dict]
    obs: list[dict]


def _tick_groups_from_sim(sim: Simulation, n_ticks: int) -> Iterator[_TickGroup]:
    for k in range(n_ticks):
        tick = sim.tick(k)
        loc_records = [
            _loc_record(tick.t, pid, pose) for pid, pose in zip(sim.cav_ids, tick.loc_poses)
        ]
        yield _TickGroup(
            truth=_truth_record(tick, sim.cav_ids),
            loc=loc_records,
            obs=_obs_records(tick.t, sim.streams, tick.detections),
        )


# --- fusion pass ---------------------------------------------------------


class _ScenarioFusion:
    """Both fusion tiers of one run: the local tier of every platform plus the RSU."""

    def __init__(self, config: ScenarioConfig, models: ModelSet, cis_poses: list[PlatformPose]):
        self.config = config
        self.models = models
        self.cis_poses = cis_poses
        self.cav_ids = [cav_id(i) for i in range(config.cav_count)]
        self.cis_ids = [cis_id(i) for i in range(config.cis_count)]
        # Both tiers predict over one scenario tick.
        dt = 1.0 / config.tick_rate
        self.local = LocalFusion(
            {
                pid: sensor_pipelines(config, kind, models)
                for kind, ids in (("cav", self.cav_ids), ("cis", self.cis_ids))
                for pid in ids
            },
            dt,
        )
        self.rsu = GlobalFusion(dt)
        self.cis_pose_cov = config.cis_pose_var * np.eye(2)

    def process(
        self, t: float, loc_poses: dict[str, PlatformPose], frames: dict[str, LocalFrame]
    ) -> tuple[list[PlatformPacket], TrackTable]:
        local_tracks = self.local.step(frames)
        cav_poses = [loc_poses[pid] for pid in self.cav_ids]
        pose_covs = [
            *localization_covariances(
                cav_poses, self.models.localizer_longitudinal, self.models.localizer_lateral
            ),
            *[self.cis_pose_cov] * len(self.cis_ids),
        ]
        # The local tier holds the CAVs, then the CIS, in this order.
        packets = packetize(
            t,
            list(zip(self.cav_ids + self.cis_ids, cav_poses + self.cis_poses, pose_covs)),
            local_tracks,
        )
        self.rsu.ingest(packets)
        return packets, self.rsu.step(t)


def _parse_group(
    group: _TickGroup, index: int, last_t: float, cav_ids: list, sensors: dict[str, set[str]]
) -> tuple:
    """A tick's (time, truth poses, localized poses, frames).

    ``last_t`` is the previous tick's time and ``sensors`` maps every
    platform of the run to its sensors' names.  A record that cannot be
    read, a time not after ``last_t``, a loc record for anything but a CAV
    of the run, an obs record for a platform or sensor the run does not
    have, a second loc record for a platform or obs record for a sensor, or
    a platform without one raises ``LogError`` naming the tick.
    """
    try:
        t = group.truth["t"]
        if isinstance(t, bool) or not math.isfinite(t):
            raise ValueError(f"time {t} is not a finite number")
        if not t > last_t:
            raise ValueError(f"time {t} is not after the previous tick's {last_t}")
        cavs = group.truth["cavs"]
        if [cav["id"] for cav in cavs] != cav_ids:
            raise ValueError(f"truth CAVs are not {cav_ids}")
        truth = [PlatformPose(cav["x"], cav["y"], cav["theta"], cav["v"]) for cav in cavs]
        loc_poses: dict[str, PlatformPose] = {}
        for rec in group.loc:
            pid = rec["platform"]
            if pid not in cav_ids:
                raise ValueError(f"loc record for {pid!r}, which is no CAV of the run")
            if pid in loc_poses:
                raise ValueError(f"second loc record for {pid}")
            loc_poses[pid] = PlatformPose(rec["x"], rec["y"], rec["theta"], rec["v"])
        frames: dict[str, LocalFrame] = {}
        for rec in group.obs:
            pid, sensor = rec["platform"], rec["sensor"]
            if pid not in sensors:
                raise ValueError(f"obs record for {pid!r}, which is no platform of the run")
            if sensor not in sensors[pid]:
                raise ValueError(f"obs record for sensor {sensor!r}, which {pid} does not carry")
            frame = frames.setdefault(pid, LocalFrame(timestamp=t, observations={}))
            if sensor in frame.observations:
                raise ValueError(f"second obs record for {pid} {sensor}")
            if not isinstance(rec["detections"], list):
                raise TypeError("detections must be a list")
            frame.observations[sensor] = [
                PolarObservation(d["d"], d["theta"], d["class"]) for d in rec["detections"]
            ]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise LogError(f"tick {index}: malformed record: {exc}") from exc
    for kind, records, ids in (("loc", loc_poses, cav_ids), ("obs", frames, list(sensors))):
        missing = [pid for pid in ids if pid not in records]
        if missing:
            raise LogError(f"tick {index}: no {kind} record for {', '.join(missing)}")
    return t, truth, loc_poses, frames


def _fusion_pass(
    config: ScenarioConfig,
    mode: str,
    models: ModelSet,
    cis_poses: list[PlatformPose],
    groups: Iterable[_TickGroup],
    writer: Callable[[list[dict]], None] | None = None,
) -> RunReport:
    fusion = _ScenarioFusion(config, models, cis_poses)
    cis_positions = [pose.position for pose in cis_poses]
    n_cav = config.cav_count

    per_tick = []
    per_track: dict[str, dict] = {}
    confirmed_ids: set[int] = set()
    sse_total = 0.0
    matched_total = 0
    loc_sse_total = 0.0
    loc_count_total = 0
    false_track_ticks = 0
    stopped_sse_total = 0.0
    stopped_matched_total = 0
    stopped_loc_sse_total = 0.0
    stopped_loc_count_total = 0

    sensors = {pid: {p.name for p in pipes} for pid, pipes in fusion.local.pipelines.items()}
    t = -math.inf
    for index, group in enumerate(groups):
        t, truth, loc_poses, frames = _parse_group(group, index, t, fusion.cav_ids, sensors)
        packets, fused = fusion.process(t, loc_poses, frames)

        truth_positions = [pose.position for pose in truth] + cis_positions

        stopped = [pose.v == 0.0 for pose in truth]
        loc_sse = 0.0
        for pid, true_pose, is_stopped in zip(fusion.cav_ids, truth, stopped):
            pose = loc_poses[pid]
            err2 = (pose.x - true_pose.x) ** 2 + (pose.y - true_pose.y) ** 2
            loc_sse += err2
            if is_stopped:
                stopped_loc_sse_total += err2
                stopped_loc_count_total += 1
        loc_count = len(loc_poses)

        track_positions = fused.means[:, :2]
        match = match_observations_to_truth(track_positions, truth_positions, MATCH_MAX_DIST)
        tick_sse = 0.0
        tick_matched = 0
        for track_idx, truth_idx in match.pairs:
            if truth_idx >= n_cav:
                continue  # a pinned infrastructure platform, not a vehicle
            delta = track_positions[track_idx] - truth_positions[truth_idx]
            err2 = float(delta @ delta)
            tick_sse += err2
            tick_matched += 1
            if stopped[truth_idx]:
                stopped_sse_total += err2
                stopped_matched_total += 1
            key = str(fused.ids[track_idx])
            entry = per_track.setdefault(key, {"ticks": 0, "sse": 0.0})
            entry["ticks"] += 1
            entry["sse"] += err2
        false_tracks = len(match.unmatched_observations)

        confirmed_ids.update(fused.ids)
        sse_total += tick_sse
        matched_total += tick_matched
        loc_sse_total += loc_sse
        loc_count_total += loc_count
        false_track_ticks += false_tracks
        per_tick.append(
            {
                "t": t,
                "matched": tick_matched,
                "sse": tick_sse,
                "false_tracks": false_tracks,
                "loc_count": loc_count,
                "loc_sse": loc_sse,
            }
        )

        if writer is not None:
            records = [group.truth] + group.loc + group.obs
            records.extend({"kind": "packet", "t": t, "packet": packet_to_wire(p)} for p in packets)
            records.append(
                {
                    "kind": "fused",
                    "t": t,
                    "tracks": [
                        {"id": tid, "x": x, "y": y, "class": object_class}
                        for tid, (x, y), object_class in zip(
                            fused.ids, fused.means[:, :2].tolist(), fused.classes
                        )
                    ],
                }
            )
            writer(records)

    for entry in per_track.values():
        entry["rmse"] = math.sqrt(entry["sse"] / entry["ticks"])

    return RunReport(
        scenario=config.name,
        mode=mode,
        seed=config.seed,
        duration=config.duration,
        tick_rate=config.tick_rate,
        rmse_global=math.sqrt(sse_total / matched_total) if matched_total else None,
        rmse_localization_alone=(
            math.sqrt(loc_sse_total / loc_count_total) if loc_count_total else None
        ),
        matched_total=matched_total,
        sse_total=sse_total,
        loc_count_total=loc_count_total,
        loc_sse_total=loc_sse_total,
        false_track_ticks=false_track_ticks,
        confirmed_tracks=len(confirmed_ids),
        stopped_matched_total=stopped_matched_total,
        stopped_sse_total=stopped_sse_total,
        stopped_loc_count_total=stopped_loc_count_total,
        stopped_loc_sse_total=stopped_loc_sse_total,
        per_tick=per_tick,
        per_track=per_track,
    )


# --- live run and replay -------------------------------------------------


def _resolve_models(mode: str, model_sets: dict[str, ModelSet] | None) -> dict[str, ModelSet]:
    sets = model_sets if model_sets is not None else default_model_sets()
    if mode not in sets:
        raise ConfigError(f"unknown mode {mode!r}; choose from {sorted(sets)}")
    return sets


def run_scenario(
    config: ScenarioConfig,
    mode: str,
    out_dir: str | Path | None = None,
    model_sets: dict[str, ModelSet] | None = None,
) -> RunReport:
    """Simulate one scenario and fuse it under the given error-model mode.

    Truth noise always comes from ``config.truth_models``; the mode only
    selects which fitted models feed the fusion pipeline.  When ``out_dir``
    is given, writes ``log.ndjson``, ``report.json``, and ``residuals.csv``.
    """
    sets = _resolve_models(mode, model_sets)
    sim = Simulation(config)
    n_ticks = int(round(config.duration * config.tick_rate))
    meta = _meta_record(config, sets, sim.cis_poses)
    groups = _tick_groups_from_sim(sim, n_ticks)

    if out_dir is None:
        return _fusion_pass(config, mode, sets[mode], sim.cis_poses, groups)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "log.ndjson", "w") as log:
        log.write(json.dumps(meta) + "\n")

        def writer(records: list[dict]) -> None:
            for record in records:
                log.write(json.dumps(record) + "\n")

        report = _fusion_pass(config, mode, sets[mode], sim.cis_poses, groups, writer)
    write_report(report, out / "report.json")
    write_residuals_csv(report, out / "residuals.csv")
    return report


def write_report(report: RunReport, path: str | Path) -> None:
    Path(path).write_text(report.to_json() + "\n")


def write_residuals_csv(report: RunReport, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "matched", "sse", "false_tracks", "loc_count", "loc_sse"])
        for row in report.per_tick:
            writer.writerow(
                [
                    repr(row["t"]),
                    row["matched"],
                    repr(row["sse"]),
                    row["false_tracks"],
                    row["loc_count"],
                    repr(row["loc_sse"]),
                ]
            )


def _parse_log(path: str | Path) -> tuple[dict, list[_TickGroup]]:
    groups: list[_TickGroup] = []
    meta = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise LogError(f"line {lineno}: expected a JSON object")
            kind = record.get("kind")
            if lineno == 1:
                if kind != "meta":
                    raise LogError("line 1: expected a meta record")
                if record.get("schema") != LOG_SCHEMA:
                    raise LogError(
                        f"line 1: log schema {record.get('schema')!r} incompatible with {LOG_SCHEMA}"
                    )
                meta = record
                continue
            if kind == "truth":
                groups.append(_TickGroup(truth=record, loc=[], obs=[]))
            elif kind == "loc":
                if not groups:
                    raise LogError(f"line {lineno}: loc record before any truth record")
                groups[-1].loc.append(record)
            elif kind == "obs":
                if not groups:
                    raise LogError(f"line {lineno}: obs record before any truth record")
                groups[-1].obs.append(record)
            elif kind in ("packet", "fused"):
                continue  # outputs of the original run; replay recomputes them
            else:
                raise LogError(f"line {lineno}: unknown record kind {kind!r}")
    if meta is None:
        raise LogError("log is empty")
    return meta, groups


def replay(log_path: str | Path, mode: str, out_path: str | Path | None = None) -> RunReport:
    """Re-run fusion from a recorded log; deterministic given the same mode."""
    meta, groups = _parse_log(log_path)
    try:
        config = ScenarioConfig.from_dict(meta["config"])
        model_sets = {
            name: ModelSet.from_json_dict(obj) for name, obj in meta["fusion_models"].items()
        }
        cis_poses = [
            PlatformPose(rec["x"], rec["y"], rec["theta"], 0.0) for rec in meta["cis"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise LogError(f"malformed meta record: {exc}") from exc
    if len(cis_poses) != config.cis_count:
        raise LogError(
            f"meta record lists {len(cis_poses)} CIS poses for cis_count {config.cis_count}"
        )
    if mode not in model_sets:
        raise ConfigError(f"unknown mode {mode!r}; log carries {sorted(model_sets)}")
    report = _fusion_pass(config, mode, model_sets[mode], cis_poses, groups)
    if out_path is not None:
        write_report(report, out_path)
    return report


# --- comparison matrix ---------------------------------------------------


def _matrix_task(args: tuple[str, int, float, str]) -> RunReport:
    name, seed, duration, mode = args
    return run_scenario(scenario_preset(name, seed, duration), mode)


def run_matrix(
    scenarios: Sequence[str],
    seeds: Sequence[int],
    duration: float = 120.0,
    workers: int | None = None,
) -> list[RunReport]:
    """Run every scenario x seed x mode combination, optionally in parallel."""
    tasks = [
        (name, seed, duration, mode) for name in scenarios for seed in seeds for mode in MODES
    ]
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers <= 1 or len(tasks) <= 1:
        return [_matrix_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_matrix_task, tasks))


def pooled_rmse(reports: Iterable[RunReport]) -> tuple[float | None, float | None]:
    """(global, localization-alone) RMSE pooled over several runs' residuals."""
    sse = 0.0
    matched = 0
    loc_sse = 0.0
    loc_count = 0
    for report in reports:
        sse += report.sse_total
        matched += report.matched_total
        loc_sse += report.loc_sse_total
        loc_count += report.loc_count_total
    return (
        math.sqrt(sse / matched) if matched else None,
        math.sqrt(loc_sse / loc_count) if loc_count else None,
    )


def summarize(reports: Sequence[RunReport]) -> list[dict]:
    """Per-scenario/mode pooled summary rows with fixed/parameterized ratios."""
    by_key: dict[tuple[str, str], list[RunReport]] = {}
    for report in reports:
        by_key.setdefault((report.scenario, report.mode), []).append(report)

    rows = []
    scenarios = sorted({key[0] for key in by_key})
    for scenario in scenarios:
        pooled = {}
        for mode in MODES:
            runs = by_key.get((scenario, mode), [])
            if runs:
                pooled[mode] = pooled_rmse(runs)
        ratio = None
        if "parameterized" in pooled and "fixed" in pooled:
            param = pooled["parameterized"][0]
            fixed = pooled["fixed"][0]
            if param and fixed:
                ratio = fixed / param
        for mode in MODES:
            if mode not in pooled:
                continue
            rows.append(
                {
                    "scenario": scenario,
                    "mode": mode,
                    "runs": len(by_key[(scenario, mode)]),
                    "rmse": pooled[mode][0],
                    "rmse_localization": pooled[mode][1],
                    "ratio_fixed_over_parameterized": ratio,
                }
            )
    return rows


def write_summary_csv(rows: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["scenario", "mode", "runs", "rmse", "rmse_localization", "ratio_fixed_over_parameterized"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["scenario"],
                    row["mode"],
                    row["runs"],
                    _fmt(row["rmse"]),
                    _fmt(row["rmse_localization"]),
                    _fmt(row["ratio_fixed_over_parameterized"]),
                ]
            )


def _fmt(value) -> str:
    return "" if value is None else repr(value)
