"""Run one markerswarm benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload lab_long --seed 1 --seconds 50 --trace 0

The workload's scenario is generated from ``--seed`` into
``.perfbench_work/``, with the workload's program seeds. Each repetition
runs in a fresh child process (``perfbench/child.py``), one at a time,
cycling through the program seeds. With ``--trace 0`` repetitions run
untraced until ``--seconds`` is used up (at least MIN_REPS, and every
program seed once), after SETUP_PROBES children that only set up, and the
end-to-end metrics are reported. With
``--trace 1`` one untraced and one traced repetition run on the first
program seed, and the per-layer metrics of the traced one are reported
with the tracing overhead. Every repetition is checked (see checks.py);
failures are listed and counted.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
with the metric names and units of BENCHMARK.json. The lines before it
give each metric's median, unit, quartile spread and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import failures, reference_digest
from workloads import ROOT, WORKLOADS, scenario_digest

HERE = Path(__file__).resolve().parent
MIN_REPS = 2  # two repetitions of one input can be compared byte for byte
SETUP_PROBES = 3  # set-up-only children, so setup_s is a median of five or more
DEADLINE_S = 170.0  # a run must end within 180 s, whatever its children do
QUALITY_UNITS = {"mapped_markers": "count", "marker_rmse_m": "m", "ate_m": "m"}
# The reference loop's CPU time (child.py) with the host of README.md in its
# fast state; run_ref_s scales each repetition's run_s to that speed.
REFERENCE_MS = 0.3
UNITS = {"setup_s": "s", "run_ref_s": "s", "run_s": "s", "write_s": "s", "peak_rss_mb": "MB",
         "tick_p50_ms": "ms", "tick_p99_ms": "ms", **QUALITY_UNITS}


def spawn(scenario: Path, seed: int, mode: str, work: Path, name: str, traced: bool,
          timeout: float, setup_only: bool = False) -> dict:
    """Run one repetition in a child process and return what it measured.

    A child still running after ``timeout`` seconds is killed and waited for;
    its repetition counts as failed. A ``setup_only`` child stops once the
    scenario is loaded and reports ``setup_s`` alone.
    """
    result_path = work / f"{name}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), "--scenario", str(scenario),
        "--seed", str(seed), "--mode", mode, "--out", str(work / name),
        "--result", str(result_path),
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    rep = {"seed": seed, "mode": mode, "traced": traced}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**rep, "exit_code": "timeout", "wall_s": time.monotonic() - started}
    wall = time.monotonic() - started
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} could not run (exit code {proc.returncode})")
    return {**json.loads(result_path.read_text(encoding="utf-8")), **rep, "wall_s": wall}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def ticks(rep: dict) -> list[float]:
    """Milliseconds from one tick's flush to the next (lockstep only)."""
    return rep.get("segment_ms", [])[1:-1]


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, tuple]:
    """Per metric: (median, spread, sample count) over untraced repetitions.

    ``setup_s`` also takes the ``setups`` of set-up-only children. Tick
    percentiles pool the ticks of every repetition; their spread is that of
    the tick durations. ``run_ref_s`` is ``run_s`` scaled by REFERENCE_MS
    over the median reference loop of the same repetition.
    """
    timed = [r for r in reps if not r["traced"] and "run_s" in r]
    out = {"setup_s": (*spread(setups + [r["setup_s"] for r in timed]),
                       len(setups) + len(timed))}
    for key in ("run_s", "write_s", "peak_rss_mb"):
        values = [r[key] for r in timed]
        if values:
            out[key] = (*spread(values), len(values))
    scaled = [r["run_s"] * REFERENCE_MS / r["reference_ms"] for r in timed if "reference_ms" in r]
    if scaled:
        out["run_ref_s"] = (*spread(scaled), len(scaled))
    pooled = [t for r in timed for t in ticks(r)]
    if pooled:
        p50, tick_spread = spread(pooled)
        out["tick_p50_ms"] = (p50, tick_spread, len(pooled))
        out["tick_p99_ms"] = (percentile(pooled, 99), tick_spread, len(pooled))
    facts = [r["report"] for r in timed if "report" in r]
    for key in QUALITY_UNITS:
        values = [f[key] for f in facts if f[key] is not None]
        if values:
            out[key] = (*spread(values), len(values))
    return out


def trace_metrics(reps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced repetition, with the tracing overhead."""
    traced = next(r for r in reps if r["traced"])
    untraced = next(r for r in reps if not r["traced"])
    if "layers" not in traced or "report" not in traced or "run_s" not in untraced:
        return {}
    layers = dict(traced["layers"])
    layers["trace.run_s"] = traced["run_s"]
    layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    # too noisy here for a bound (see README.md), so reported per layer, untraced
    layers["cli.write_s"] = untraced["write_s"]
    layers["runner.run_s"] = untraced["run_s"]
    if ticks(untraced):
        layers["runner.tick_p50_ms"] = statistics.median(ticks(untraced))
        layers["runner.tick_p99_ms"] = percentile(ticks(untraced), 99)
    for key in QUALITY_UNITS:
        layers[f"metrics.{key}"] = traced["report"][key]
    within_run = sum(v for k, v in layers.items() if k.endswith(".self_s") and
                     k.count(".") == 1 and not k.startswith("scenario."))
    layers["trace.unaccounted_s"] = traced["run_s"] - within_run
    for name in sorted(layers):
        print(f"{name:40s} {layers[name]:14.6g}")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one markerswarm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "markerswarm" / "__init__.py").is_file():
        print(f"no markerswarm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    seeds = workload.seeds(args.seed)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = workload.build(args.seed)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    digest = scenario_digest(raw)
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"scenario digest {digest}, program seeds {seeds}")

    reps: list[dict] = []
    start = time.monotonic()

    def run_rep(mode: str, seed: int, traced: bool = False) -> dict:
        timeout = max(DEADLINE_S - (time.monotonic() - start), 1.0)
        rep = spawn(scenario, seed, mode, work, f"rep{len(reps)}", traced, timeout)
        reps.append(rep)
        return rep

    lockstep_rmse = {}
    if workload.parity:
        # criterion 7 compares against lockstep on the same scenario and seed
        for seed in seeds:
            lockstep_rmse[seed] = run_rep("lockstep", seed).get("report", {}).get("marker_rmse_m")
    if args.trace:
        run_rep(workload.mode, seeds[0])
        run_rep(workload.mode, seeds[0], traced=True)
    else:
        setups = [
            spawn(scenario, seeds[0], workload.mode, work, f"setup{k}", False,
                  DEADLINE_S, setup_only=True)["setup_s"]
            for k in range(SETUP_PROBES)
        ]
        while True:
            walls = [r["wall_s"] for r in reps if r["mode"] == workload.mode]
            if len(walls) >= max(MIN_REPS, len(seeds)) and (
                time.monotonic() - start + statistics.median(walls) > args.seconds
            ):
                break
            run_rep(workload.mode, seeds[len(walls) % len(seeds)])

    failed = 0
    for index, rep in enumerate(reps):
        seed = rep["seed"]
        lockstep = [r for r in reps if r["mode"] == "lockstep" and r["seed"] == seed]
        expected = {
            "scenario_digest": digest,
            "report_sha256": reference_digest(lockstep),
            "lockstep_rmse_m": lockstep_rmse.get(seed),
        }
        reasons = failures(rep, workload, expected)
        failed += bool(reasons)
        if not reasons:
            shutil.rmtree(work / f"rep{index}", ignore_errors=True)
        status = "FAIL " + "; ".join(reasons) if reasons else "ok"
        print(f"rep {index} seed {seed} {rep['mode']}{' traced' if rep['traced'] else ''} "
              f"wall {rep['wall_s']:.2f} s: {status}")
    shown = set()
    for rep in reps:
        if "report" in rep and (rep["seed"], rep["mode"]) not in shown:
            shown.add((rep["seed"], rep["mode"]))
            print(f"report seed {rep['seed']} {rep['mode']}: "
                  + ", ".join(f"{k} {v}" for k, v in rep["report"].items()))
    print(f"failed_frac {failed / len(reps):.3f} ({failed} of {len(reps)} repetitions)")

    mine = [r for r in reps if r["mode"] == workload.mode]
    if args.trace:
        measured = trace_metrics(mine)
    else:
        measured = end_to_end(mine, setups)
        print(f"{'metric':16s} {'median':>12s} {'unit':6s} {'spread':>7s}  samples")
        for name, (value, rel, count) in measured.items():
            print(f"{name:16s} {value:12.6g} {UNITS[name]:6s} {rel:7.1%}  n={count}")

    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            print(f"metric {metric['name']} was not measured", file=sys.stderr)
            continue
        metrics[metric["name"]] = {
            "value": value[0] if isinstance(value, tuple) else value, "unit": metric["unit"]
        }
    if not failed:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
