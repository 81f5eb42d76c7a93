"""Determinism pin: a lockstep run's four artifacts, and its plot, are byte-identical
across changes.

A change that is meant to alter lockstep results (a new model, a bug fix
that moves numbers) updates the digests below and declares the new value,
with its reason, in CHANGES.md. Any other change must leave it alone.
"""

import hashlib
from pathlib import Path

from markerswarm.cli import main as cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TWO_DRONE_DEMO_SEED_7 = "4e76be35d34a4be9d1fa9aca47c35dc85bf0d6f79c2b22dd4d0b0b17e61043d5"
TWO_DRONE_DEMO_SEED_7_PLOT = "8ee3740cb7760fa17924c587bed0c7ad7a14bdf92e1a7ddaee716a911a098c5e"
# the other three artifacts of the same run
TWO_DRONE_DEMO_SEED_7_ARTIFACTS = {
    "map.json": "5abca87cd7ad692dda585b2497e0912ee4d9f92a5b136ef295d24ca99b05b79e",
    "metrics.json": "4cb0be6717252d8b2790b3a460cf10e51ee29ad1f431663995354e83eafea40e",
    "trajectories.csv": "7c9c583aff44a440b51881e30c511a3a0fa7aead1510aefc24d6d2dab07d7cdc",
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
