"""Command-line entry points: simulate, replay, fit, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .association import CombinatorialOverflowError
from .calibration import (
    HALF_NORMAL_FACTOR,
    fit_error_model,
    fit_sigma_model,
    read_samples_csv,
    samples_of,
)
from .error_models import PREDICTOR_DISTANCE, PREDICTOR_SPEED, load_model_set
from .evaluation import (
    MODES,
    ConfigError,
    LogError,
    RunReport,
    replay,
    run_scenario,
    scenario_names,
    scenario_preset,
    summarize,
    write_summary_csv,
)
from .simulator import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopfusion",
        description="Cooperative-perception fusion engine and scenario simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario end to end")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="scenario config JSON file")
    source.add_argument("--preset", choices=scenario_names(), help="built-in scenario")
    sim.add_argument("--seed", type=int, default=1, help="seed when using --preset")
    sim.add_argument("--duration", type=float, help="override run duration in seconds")
    sim.add_argument("--mode", choices=MODES, required=True)
    sim.add_argument("--out", required=True, help="output directory for log and report")
    sim.add_argument("--models-parameterized", help="model file overriding the parameterized set")
    sim.add_argument("--models-fixed", help="model file overriding the fixed set")

    rep = sub.add_parser("replay", help="re-run fusion from a recorded log")
    rep.add_argument("--log", required=True)
    rep.add_argument("--mode", choices=MODES, required=True)
    rep.add_argument("--out", help="write the report JSON here (default: stdout)")

    fit = sub.add_parser("fit", help="fit an error model from a sample CSV")
    fit.add_argument("--samples", required=True, help="CSV with predictor,error,component,source")
    fit.add_argument("--degree", type=int, default=1)
    fit.add_argument("--out", required=True, help="output model JSON file")
    fit.add_argument("--component", help="only use rows with this component label")
    fit.add_argument("--source", help="only use rows with this source label")
    fit.add_argument(
        "--predictor", choices=(PREDICTOR_DISTANCE, PREDICTOR_SPEED), default=PREDICTOR_DISTANCE
    )
    fit.add_argument(
        "--raw",
        action="store_true",
        help=f"skip the half-normal sigma correction (x{HALF_NORMAL_FACTOR:.4f})",
    )

    rpt = sub.add_parser("report", help="aggregate run reports into CSV tables")
    rpt.add_argument("--runs", required=True, help="directory containing run subdirectories")
    rpt.add_argument("--out", help="output directory (default: the runs directory)")
    return parser


def _cmd_simulate(args) -> int:
    if args.config:
        try:
            obj = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        if args.duration is not None:
            obj["duration"] = args.duration
        config = ScenarioConfig.from_dict(obj)
    else:
        config = scenario_preset(
            args.preset, seed=args.seed, duration=120.0 if args.duration is None else args.duration
        )

    model_sets = None
    if args.models_parameterized or args.models_fixed:
        from .evaluation import default_model_sets

        model_sets = default_model_sets()
        if args.models_parameterized:
            model_sets["parameterized"] = load_model_set(args.models_parameterized)
        if args.models_fixed:
            model_sets["fixed"] = load_model_set(args.models_fixed)

    report = run_scenario(config, args.mode, out_dir=args.out, model_sets=model_sets)
    print(
        f"{config.name} [{args.mode}] seed={config.seed}: "
        f"rmse_global={_num(report.rmse_global)} "
        f"rmse_localization={_num(report.rmse_localization_alone)}"
    )
    return EXIT_OK


def _cmd_replay(args) -> int:
    report = replay(args.log, args.mode, out_path=args.out)
    if args.out is None:
        print(report.to_json())
    else:
        print(
            f"{report.scenario} [{report.mode}] replay: rmse_global={_num(report.rmse_global)}"
        )
    return EXIT_OK


def _cmd_fit(args) -> int:
    rows = read_samples_csv(args.samples, component=args.component, source=args.source)
    if not rows:
        raise ConfigError("no samples matched the requested component/source")
    samples = samples_of(rows)
    fitter = fit_error_model if args.raw else fit_sigma_model
    model = fitter(samples, degree=args.degree, predictor=args.predictor)
    Path(args.out).write_text(json.dumps(model.to_json_dict(), sort_keys=True) + "\n")
    print(f"fit {len(samples)} samples -> {model.to_json_dict()}")
    return EXIT_OK


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    report_files = sorted(runs_dir.glob("*/report.json"))
    if not report_files:
        raise ConfigError(f"no */report.json found under {runs_dir}")
    reports = []
    for path in report_files:
        try:
            reports.append(RunReport.from_json_dict(json.loads(path.read_text())))
        except (json.JSONDecodeError, TypeError, LogError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc

    out_dir = Path(args.out) if args.out else runs_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = summarize(reports)
    write_summary_csv(rows, out_dir / "summary.csv")

    by_scenario: dict[str, list[RunReport]] = {}
    for report in reports:
        by_scenario.setdefault(report.scenario, []).append(report)
    for scenario, runs in sorted(by_scenario.items()):
        name = scenario.replace("/", "_")
        with open(out_dir / f"residuals_{name}.csv", "w", newline="") as handle:
            handle.write("t,mode,seed,matched,sse,loc_count,loc_sse\n")
            for run in sorted(runs, key=lambda r: (r.mode, r.seed)):
                for row in run.per_tick:
                    handle.write(
                        f"{row['t']!r},{run.mode},{run.seed},{row['matched']},"
                        f"{row['sse']!r},{row['loc_count']},{row['loc_sse']!r}\n"
                    )
    print(f"wrote {out_dir / 'summary.csv'} and {len(by_scenario)} residual tables")
    return EXIT_OK


def _num(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "replay": _cmd_replay,
        "fit": _cmd_fit,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, LogError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CombinatorialOverflowError, RuntimeError) as exc:
        print(f"fusion error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
