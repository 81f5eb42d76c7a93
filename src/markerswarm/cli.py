"""Command-line entry point.

Two subcommands: ``run`` executes a scenario and writes the four
artifacts (map.json, trajectories.csv, report.json, metrics.json) into
the output directory; ``plot`` renders a report.json into a top-down
SVG. Exit codes: 0 success, 2 invalid input file, 3 runtime failure.
Set MSS_LOG=debug or MSS_LOG=info for log output.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import traceback
from pathlib import Path

from markerswarm.scenario import ScenarioError, load_scenario
from markerswarm.swarm.runner import MODES, run_scenario

log = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("MSS_LOG", "warning").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _write_trajectories_csv(path: Path, report: dict) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["tick", "sim_time", "drone_id", "source", "x", "y", "z", "alpha", "beta", "gamma"]
        )
        for drone_id in sorted(report["trajectories"], key=int):
            for row in report["trajectories"][drone_id]:
                for source in ("truth", "estimate"):
                    pose = row[source]
                    writer.writerow(
                        [row["tick"], row["time"], drone_id, source]
                        + [repr(float(v)) for v in pose["t"]]
                        + [repr(float(v)) for v in pose["euler"]]
                    )


def _dump_json(path: Path, payload) -> None:
    # dump, not dumps: with indent, dumps builds every chunk and then the whole string
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as err:
        print(f"invalid scenario: {err}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(scenario, seed=args.seed, mode=args.mode)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(
            out / "map.json",
            {
                "digest": report["digest"],
                "frames": report["frames"],
                "drone_frames": report["drone_frames"],
                "entries": report["map"],
            },
        )
        _write_trajectories_csv(out / "trajectories.csv", report)
        _dump_json(out / "report.json", report)
        _dump_json(out / "metrics.json", report["metrics"])
    except Exception as err:
        traceback.print_exc()
        print(f"run failed: {err}", file=sys.stderr)
        return 3
    print(f"wrote map.json, trajectories.csv, report.json, metrics.json to {out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    # imported here so that a run never loads it
    from markerswarm.svgplot import render_svg

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        svg = render_svg(report)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        print(f"malformed report: {err!r}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "plot.svg"
    target.write_text(svg, encoding="utf-8")
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markerswarm",
        description="Multi-drone marker mapping: simulate, estimate, merge, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write artifacts")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=_seed, help="override the scenario seed (non-negative)")
    run_p.add_argument("--mode", choices=MODES, default="lockstep")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    plot_p = sub.add_parser("plot", help="render a report.json as a top-down SVG")
    plot_p.add_argument("report", help="path to report.json")
    plot_p.add_argument("--out", default="out", help="output directory")
    plot_p.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
