"""The benchmark's tracer still finds every markerswarm name it wraps.

``perfbench/child.py`` patches functions and methods by name for
``--trace 1``, and some of its counters read a call's arguments by
position (``sense_markers``'s ``args[1].markers``). Deleting or renaming
one of those names, or moving an argument, breaks the benchmark, not the
program, so these program-side tests instrument a run's worth of names,
run a short scenario under them and restore them.
"""

import importlib
import json
from pathlib import Path

from markerswarm import cli
from markerswarm.swarm import nodes, protocol

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child"), importlib.import_module("tracing")


def test_traced_instrumentation_wraps_every_name_and_restores(monkeypatch):
    child, tracing = load_child(monkeypatch)
    originals = (nodes.find_matches, protocol.decode, nodes.GroundStation.flush)
    tracer = tracing.Tracer()
    try:
        child.instrument(tracer, traced=True, sense_host=False)
        wrapped = (nodes.find_matches, protocol.decode, nodes.GroundStation.flush)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert (nodes.find_matches, protocol.decode, nodes.GroundStation.flush) == originals


def test_traced_run_counts_every_layer_and_reports_as_untraced(monkeypatch, tmp_path):
    child, tracing = load_child(monkeypatch)
    raw = json.loads((ROOT / "scenarios" / "two_drone_demo.json").read_text(encoding="utf-8"))
    raw["duration"] = 3.0
    scenario = tmp_path / "demo.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")

    def run(out):
        argv = ["run", str(scenario), "--seed", "1", "--mode", "lockstep", "--out", str(out)]
        assert cli.main(argv) == 0
        return (out / "report.json").read_bytes()

    untraced = run(tmp_path / "untraced")
    tracer = tracing.Tracer()
    try:
        child.instrument(tracer, traced=True, sense_host=False)
        traced = run(tmp_path / "traced")
    finally:
        tracer.restore()
    layers = child.layer_metrics(tracer)
    assert layers["worldsim.detections"] > 0
    assert layers["ekf.update.calls"] > 0
    assert layers["protocol.messages.Hello"] == len(raw["drones"])
    assert traced == untraced
