import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from child import LAYERS
from workloads import bundled

CHILD = Path(__file__).resolve().parent.parent / "child.py"


def run_child(tmp_path, traced, setup_only=False):
    raw = bundled("two_drone_demo")
    raw["duration"] = 3.0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(CHILD), "--scenario", str(scenario), "--seed", "7",
           "--mode", "lockstep", "--out", str(tmp_path / "out"), "--result", str(result),
           "--started", repr(time.monotonic())]
    cmd += ["--trace"] if traced else []
    cmd += ["--setup-only"] if setup_only else []
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return json.loads(result.read_text())


def test_untraced_repetition_times_every_tick(tmp_path):
    rep = run_child(tmp_path, traced=False)
    assert rep["exit_code"] == 0
    assert 0 < rep["setup_s"] and 0 < rep["run_s"] and 0 < rep["write_s"]
    assert rep["reference_ms"] > 0  # the host-speed samples between ticks
    segments = rep["segment_ms"]
    assert len(segments) == 30 + 1
    assert sum(segments) == pytest.approx(1e3 * rep["run_s"], rel=1e-9)
    assert "layers" not in rep


def test_setup_only_child_stops_after_loading_the_scenario(tmp_path):
    rep = run_child(tmp_path, traced=False, setup_only=True)
    assert rep.keys() == {"exit_code", "setup_s"} and rep["setup_s"] > 0
    assert not (tmp_path / "out").exists()


def test_traced_repetition_sees_calls_made_through_imported_names(tmp_path):
    plain = run_child(tmp_path, traced=False)
    rep = run_child(tmp_path, traced=True)
    layers = rep["layers"]
    ticks, drones = 30, 2
    # runner and nodes call these through names they imported
    assert layers["worldsim.sense_markers.calls"] == ticks * drones
    assert layers["ekf.predict.s"] > 0
    assert layers["protocol.messages.PoseReport"] == ticks * drones
    assert layers["protocol.messages.Hello"] == drones
    assert layers["metrics.compute_metrics.s"] > 0
    # the layer self times inside the run add up to the traced run_s
    inside = sum(layers[f"{layer}.self_s"] for layer in LAYERS if layer != "scenario")
    assert inside == pytest.approx(rep["run_s"], rel=1e-9)
    assert "reference_ms" not in rep  # no host-speed loop inside traced spans
    # tracing must not change the report
    assert rep["report_sha256"] == plain["report_sha256"]
