"""Determinism pin: a lockstep run's four artifacts, and its plot, are byte-identical
across changes; so are the lab scenario's seed 11 report, the demo's seed 7
report with bundle adjustment off, and the reports of the benchmark's two
workloads (``lab_long`` and ``marker_dense``, built by ``perfbench/workloads.py``).

A change that is meant to alter lockstep results (a new model, a bug fix
that moves numbers) updates the digests below and declares the new value,
with its reason, in CHANGES.md. Any other change must leave it alone.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from markerswarm.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TWO_DRONE_DEMO_SEED_7 = "76949986555d9ed89cdd4b911840aa92c751e7d515a6612f2c06d7a655f6b102"
TWO_DRONE_DEMO_SEED_7_PLOT = "25706e210efd7eb94d4ac96f254f27c011276913cc0af3b7818c378e5d33360a"
# the other three artifacts of the same run
TWO_DRONE_DEMO_SEED_7_ARTIFACTS = {
    "map.json": "fc1f782b0a6b1c9401b5deec7b3ed53b0216af9b328dd4281000049296d4997b",
    "metrics.json": "81d1fcb30b688d92c658d468121876ea4931896d8dde1843589284fd44a80184",
    "trajectories.csv": "40fb67609aa3e5ce5315abec5cb0b7c86ee13740fccbf128d4dd73dd52a3f3b9",
}
# the same run with "ba": {"enabled": false}: no keyposes, no adjustment
TWO_DRONE_DEMO_SEED_7_BA_OFF = "6fb570421737b0fb91d3caa036a7fb2d245f4d5d44012c2500152183985d3338"
LAB_THREE_DRONES_SEED_11 = "6a0371d115108d5d5ba41a3958ce1b416781e65d9755b30aeb37e6f99694ba43"
# the benchmark's workloads, on the program seed each runs for workload seed 1
WORKLOAD_REPORTS = {
    "lab_long": "9bd44ab2fc196cebc0e27eab13b87e37d606cc04a7d6d9fc1d3584b8fd3a4579",
    "marker_dense": "61d3ba5246621ee0cd98c8b64025ecc47749a939f0f302be45d9018b5936fba0",
}


def test_two_drone_demo_seed_7_report_digest(tmp_path):
    argv = ["run", str(SCENARIOS / "two_drone_demo.json"), "--seed", "7", "--mode", "lockstep"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == TWO_DRONE_DEMO_SEED_7, (
        f"two_drone_demo seed 7 lockstep report.json sha256 is {digest}, pinned "
        f"{TWO_DRONE_DEMO_SEED_7}. If this change is meant to alter lockstep results, "
        "declare the new digest and the reason in CHANGES.md and update the pin."
    )


def test_two_drone_demo_seed_7_plot_digest(tmp_path):
    argv = ["run", str(SCENARIOS / "two_drone_demo.json"), "--seed", "7", "--mode", "lockstep"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    assert cli_main(["plot", str(tmp_path / "report.json"), "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "plot.svg").read_bytes()).hexdigest()
    assert digest == TWO_DRONE_DEMO_SEED_7_PLOT, (
        f"two_drone_demo seed 7 plot.svg sha256 is {digest}, pinned {TWO_DRONE_DEMO_SEED_7_PLOT}"
    )


def test_two_drone_demo_seed_7_artifact_digests(tmp_path):
    argv = ["run", str(SCENARIOS / "two_drone_demo.json"), "--seed", "7", "--mode", "lockstep"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in TWO_DRONE_DEMO_SEED_7_ARTIFACTS
    }
    assert digests == TWO_DRONE_DEMO_SEED_7_ARTIFACTS


def test_two_drone_demo_seed_7_ba_off_report_digest(tmp_path):
    raw = json.loads((SCENARIOS / "two_drone_demo.json").read_text(encoding="utf-8"))
    raw["ba"]["enabled"] = False
    scenario = tmp_path / "two_drone_demo_ba_off.json"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    argv = ["run", str(scenario), "--seed", "7", "--mode", "lockstep"]
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == TWO_DRONE_DEMO_SEED_7_BA_OFF, (
        f"two_drone_demo seed 7 BA-off lockstep report.json sha256 is {digest}, pinned "
        f"{TWO_DRONE_DEMO_SEED_7_BA_OFF}. If this change is meant to alter lockstep results, "
        "declare the new digest and the reason in CHANGES.md and update the pin."
    )


def lab_seed_11_report_digest(tmp_path, blas_threads: int) -> str:
    """sha256 of a lab seed 11 ``report.json`` from a fresh process with that many BLAS threads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
    }
    out = tmp_path / f"threads_{blas_threads}"
    proc = subprocess.run(
        [sys.executable, "-m", "markerswarm.cli", "run", str(SCENARIOS / "lab_three_drones.json"),
         "--seed", "11", "--mode", "lockstep", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256((out / "report.json").read_bytes()).hexdigest()


def test_lab_report_independent_of_blas_thread_count(tmp_path):
    # bundle adjustment once summed its Schur complement in one BLAS product,
    # whose summation order changed with the number of OpenBLAS threads
    digest = lab_seed_11_report_digest(tmp_path, 1)
    assert digest == lab_seed_11_report_digest(tmp_path, 2)
    assert digest == LAB_THREE_DRONES_SEED_11, (
        f"lab_three_drones seed 11 lockstep report.json sha256 is {digest}, pinned "
        f"{LAB_THREE_DRONES_SEED_11}. If this change is meant to alter lockstep results, "
        "declare the new digest and the reason in CHANGES.md and update the pin."
    )


@pytest.mark.parametrize("name", sorted(WORKLOAD_REPORTS))
def test_benchmark_workload_report_digest(name, monkeypatch, tmp_path):
    # the benchmark's own generator, imported as perfbench/run.py imports it
    monkeypatch.syspath_prepend(str(SCENARIOS.parent / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(workload.build(1)), encoding="utf-8")
    argv = ["run", str(scenario), "--seed", str(workload.seeds(1)[0]), "--mode", workload.mode]
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == WORKLOAD_REPORTS[name], (
        f"{name} workload seed 1 lockstep report.json sha256 is {digest}, pinned "
        f"{WORKLOAD_REPORTS[name]}. If this change is meant to alter lockstep results, "
        "declare the new digest and the reason in CHANGES.md and update the pin."
    )
