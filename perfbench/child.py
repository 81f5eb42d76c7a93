"""One repetition of a benchmark workload, in a fresh interpreter.

Runs what ``markerswarm run SCENARIO --seed N --mode M --out DIR`` runs,
through ``markerswarm.cli.main``, and writes what it measured to a JSON
file. The parent passes its ``time.monotonic()`` at spawn, so ``setup_s``
covers interpreter start, importing markerswarm and loading the scenario
(CLOCK_MONOTONIC is system-wide on Linux).

Untraced, only three names are wrapped: the CLI's ``load_scenario`` and
``run_scenario`` (to split set-up, run and write time) and
``GroundStation.flush`` (whose returns mark tick ends in lockstep). After
each untraced lockstep flush the child times a fixed pure-Python loop in
thread CPU time, a sample of how fast the shared host runs at that moment;
the loops' wall time is taken out of ``run_s`` and of the tick segments.
Traced,
every layer is wrapped where it is looked up: ``nodes`` and ``runner``
import names such as ``predict`` or ``sense_markers`` into their own
namespace, so those module attributes are patched, not only the defining
module's. ``geom`` is called from every layer and gets no span.

With ``--setup-only`` the child stops once the scenario is loaded and
reports ``setup_s`` alone.

Usage: python3 perfbench/child.py --scenario S --seed N --mode M --out DIR
       --result FILE --started T [--trace | --setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, summarize  # noqa: E402

LAYERS = (
    "scenario", "worldsim", "ekf", "protocol", "nodes", "mapstore", "framemerge", "bundle",
    "metrics", "runner",
)
MESSAGE_TYPES = (
    "Hello", "MarkerObs", "PoseReport", "MapSnapshot", "FrameMerged", "KeyposeCommit", "Shutdown",
)
REFERENCE_LOOP = 4000  # iterations of reference_loop: about 0.3 ms of CPU


def reference_loop() -> float:
    """Thread CPU seconds a fixed pure-Python loop takes: the host's speed now.

    CPU time, so a thread holding the GIL elsewhere cannot lengthen it, but
    a busy neighbour on the same physical core does.
    """
    start = time.thread_time()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return time.thread_time() - start


def _count_detections(tracer, args, kwargs, result):
    tracer.counts["worldsim.detections"] += len(result)
    tracer.counts["worldsim.marker_checks"] += len(args[1].markers)


def _count_update(tracer, args, kwargs, result):
    tracer.counts["ekf.accepted"] += bool(result[1])


def _count_message(tracer, args, kwargs, result):
    kind = type(args[0]).__name__
    tracer.counts[f"protocol.messages.{kind}"] += 1
    tracer.counts[f"protocol.bytes.{kind}"] += len(result.encode("utf-8"))


def _count_fit(tracer, args, kwargs, result):
    from markerswarm.framemerge import SCALE_BAND

    tracer.counts["framemerge.fits"] += 1
    tracer.counts["framemerge.fit_scale_out_of_band"] += not (
        SCALE_BAND[0] <= result.scale <= SCALE_BAND[1]
    )


def _count_refine(tracer, args, kwargs, result):
    tracer.counts["framemerge.refine_accepted"] += result is not None


def _count_optimize(tracer, args, kwargs, result):
    problem = args[0]
    counts = tracer.counts
    counts["bundle.iterations"] += result.iterations
    counts["bundle.aborted"] += result.aborted
    counts["bundle.observations"] += len(problem.observations)
    counts["bundle.keyposes_max"] = max(counts["bundle.keyposes_max"], len(problem.keyposes))
    counts["bundle.variables_max"] = max(counts["bundle.variables_max"], problem.n_variables)


def _count_idle_poll(tracer, args, kwargs, result):
    tracer.counts["runner.station_idle_polls"] += result is None


def _residuals_name(args, kwargs):
    with_jacobian = args[2] if len(args) > 2 else kwargs.get("with_jacobian", True)
    return "bundle.residuals.jac" if with_jacobian else "bundle.residuals.nojac"


def instrument(tracer: Tracer, traced: bool, sense_host: bool) -> list[tuple]:
    """Patch markerswarm for one repetition.

    Returns the list of flushes, each as (return time, time the reference
    loop after it ended, the loop's CPU seconds); the loop runs only when
    ``sense_host`` is set, otherwise the two times are equal and the CPU
    time is None.
    """
    from markerswarm import bundle, cli, framemerge, mapstore
    from markerswarm.swarm import nodes, protocol, runner

    flushes: list[tuple] = []

    def mark_flush(tracer, args, kwargs, result):
        end = time.perf_counter()
        if not sense_host:
            flushes.append((end, end, None))
            return
        cpu = reference_loop()
        flushes.append((end, time.perf_counter(), cpu))

    tracer.wrap(cli, "load_scenario", "scenario.load_scenario")
    tracer.wrap(cli, "run_scenario", "runner.run_scenario")
    if not traced:
        tracer.count(nodes.GroundStation, "flush", mark_flush)
        return flushes

    for attr in ("step_drone", "sense_odometry"):
        tracer.wrap(runner, attr, f"worldsim.{attr}")
    tracer.wrap(runner, "sense_markers", "worldsim.sense_markers", _count_detections)
    tracer.wrap(runner, "compute_metrics", "metrics.compute_metrics")
    for attr in ("predict", "observation_from_marker", "detection_noise", "remap_frame"):
        tracer.wrap(nodes, attr, f"ekf.{attr}")
    tracer.wrap(nodes, "update", "ekf.update", _count_update)
    # merges fit through nodes' name, refines through framemerge's own
    tracer.wrap(nodes, "estimate_transform", "framemerge.estimate_transform", _count_fit)
    tracer.wrap(framemerge, "estimate_transform", "framemerge.estimate_transform", _count_fit)
    for attr in ("find_matches", "merge_frames"):
        tracer.wrap(nodes, attr, f"framemerge.{attr}")
    tracer.wrap(nodes, "refine_transform", "framemerge.refine_transform", _count_refine)
    tracer.wrap(nodes, "select_keypose", "bundle.select_keypose")
    tracer.wrap(nodes.BaProblem, "__init__", "bundle.BaProblem")
    tracer.wrap(nodes, "optimize", "bundle.optimize", _count_optimize)
    tracer.wrap(bundle, "residuals", _residuals_name)
    for attr in ("insert_marker", "fuse_observation", "replace_entry", "entries_in_frame",
                 "snapshot"):
        tracer.wrap(mapstore.GlobalMap, attr, f"mapstore.{attr}")
    # Endpoint.send, the station and decode_guarded all look these up on the module
    tracer.wrap(protocol, "encode", "protocol.encode", _count_message)
    tracer.wrap(protocol, "decode", "protocol.decode")
    tracer.wrap(nodes.NavptsNode, "tick", "nodes.NavptsNode.tick")
    tracer.wrap(nodes.GroundStation, "handle_line", "nodes.GroundStation.handle_line")
    tracer.wrap(nodes.GroundStation, "flush", "nodes.GroundStation.flush", mark_flush)
    tracer.count(protocol.QueueTransport, "recv_line", _count_idle_poll)
    return flushes


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (see perfbench/README.md)."""
    out = summarize(tracer.spans)
    counts = tracer.counts

    def get(key):
        return out[key] if key in out else counts.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        key: get(key)
        for key in (
            "scenario.load_scenario.s",
            "worldsim.step_drone.s", "worldsim.sense_markers.s", "worldsim.sense_markers.calls",
            "worldsim.sense_odometry.s", "worldsim.detections",
            "ekf.predict.s", "ekf.update.s", "ekf.update.calls",
            "protocol.encode.s", "protocol.decode.s",
            "nodes.NavptsNode.tick.self_s", "nodes.GroundStation.handle_line.self_s",
            "nodes.GroundStation.flush.self_s",
            "mapstore.fuse_observation.s", "mapstore.fuse_observation.calls",
            "mapstore.insert_marker.calls",
            "framemerge.merge_frames.calls", "framemerge.refine_transform.calls",
            "framemerge.fits", "framemerge.fit_scale_out_of_band",
            "bundle.optimize.s", "bundle.optimize.calls", "bundle.iterations",
            "bundle.keyposes_max", "bundle.variables_max", "bundle.observations",
            "bundle.aborted",
            "metrics.compute_metrics.s",
            "runner.self_s", "runner.station_idle_polls",
        )
    }
    for kind in MESSAGE_TYPES:
        metrics[f"protocol.messages.{kind}"] = get(f"protocol.messages.{kind}")
        metrics[f"protocol.bytes.{kind}"] = get(f"protocol.bytes.{kind}")
    metrics["worldsim.visible_ratio"] = ratio(
        counts.get("worldsim.detections", 0.0), counts.get("worldsim.marker_checks", 0.0)
    )
    metrics["ekf.accept_ratio"] = ratio(get("ekf.accepted"), get("ekf.update.calls"))
    metrics["framemerge.refine_accept_ratio"] = ratio(
        get("framemerge.refine_accepted"), get("framemerge.refine_transform.calls")
    )
    metrics["bundle.residuals.jac_s"] = get("bundle.residuals.jac.s")
    metrics["bundle.residuals.nojac_s"] = get("bundle.residuals.nojac.s")
    # every accepted LM step costs one trial evaluation; rejected ones cost one each too
    metrics["bundle.step_accept_ratio"] = ratio(
        get("bundle.iterations"), get("bundle.residuals.nojac.calls")
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = get(f"{layer}.self_s")
        metrics[f"{layer}.wait_s"] = get(f"{layer}.wait_s")
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from markerswarm import cli

    if args.setup_only:
        cli.load_scenario(args.scenario)
        result = {"exit_code": 0, "setup_s": time.monotonic() - args.started}
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = Tracer()
    flushes = instrument(tracer, args.trace, sense_host=not args.trace and args.mode == "lockstep")
    exit_code = cli.main(
        ["run", args.scenario, "--seed", str(args.seed), "--mode", args.mode, "--out", args.out]
    )
    finished = time.perf_counter()
    spans = {s.name: s for s in tracer.spans if s.name in ("scenario.load_scenario",
                                                           "runner.run_scenario")}
    result = {"exit_code": exit_code}
    if "scenario.load_scenario" in spans and "runner.run_scenario" in spans:
        load, run = spans["scenario.load_scenario"], spans["runner.run_scenario"]
        inside = [f for f in flushes if run.start <= f[0] <= run.end]
        loops = sum(resumed - end for end, resumed, _ in inside)
        # monotonic and perf_counter share CLOCK_MONOTONIC on Linux
        result["setup_s"] = load.end - args.started
        result["run_s"] = run.end - run.start - loops
        result["write_s"] = finished - run.end
        # lockstep flushes once per tick, then once more after the shutdowns;
        # threaded mode flushes whenever the station's inbox is idle. The
        # segments cut the run at tick ends: the first runs up to the first
        # tick's flush, the last from the last tick's flush to the report.
        if args.mode == "lockstep" and inside:
            ticks, (last_end, last_resumed, _) = inside[:-1], inside[-1]
            starts = [run.start] + [resumed for _, resumed, _ in ticks]
            stops = [end for end, _, _ in ticks] + [run.end - (last_resumed - last_end)]
            result["segment_ms"] = [1e3 * (b - a) for a, b in zip(starts, stops)]
        cpu = [c for _, _, c in inside if c is not None]
        if cpu:
            result["reference_ms"] = 1e3 * statistics.median(cpu)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report_path = Path(args.out) / "report.json"
    if exit_code == 0 and report_path.exists():
        raw = report_path.read_bytes()
        result["report_sha256"] = hashlib.sha256(raw).hexdigest()
        result["report"] = report_facts(json.loads(raw))
    if args.trace:
        result["layers"] = layer_metrics(tracer)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def report_facts(report: dict) -> dict:
    """The parts of report.json that the pass/fail rules and quality metrics read."""
    metrics = report["metrics"]
    frames = [f for f in metrics["frames"].values() if f["marker_position_rmse"] is not None]
    ates = [v for f in frames for v in f["ate"].values()]
    mapped = sum(f["marker_count"] for f in frames)
    return {
        "scenario_digest": report["digest"],
        "frame_count": metrics["frame_count"],
        "mapped_markers": metrics["mapped_markers"],
        "true_markers": metrics["true_markers"],
        # pooled over frames, each aligned to truth on its own; with one frame
        # these are report.json's marker_position_rmse and the mean of its ate
        "marker_rmse_m": (
            math.sqrt(sum(f["marker_count"] * f["marker_position_rmse"] ** 2 for f in frames)
                      / mapped) if mapped else None
        ),
        "ate_m": sum(ates) / len(ates) if ates else None,
        "merge_count": metrics["merge_count"],
        "ba_runs": metrics["ba_runs"],
        "ba_aborted": sum(r["status"] == "aborted_singular" for r in report["ba_reports"]),
        "station_errors": report["counters"]["station"]["errors"],
        "station_malformed": report["counters"]["station"]["malformed"],
    }


if __name__ == "__main__":
    sys.exit(main())
