import itertools
import math

from workloads import (
    LAB_LONG_DURATION, WORKLOADS, bundled, marker_dense, program_seed, scenario_digest,
)


def test_marker_dense_is_a_pure_function_of_the_seed():
    assert scenario_digest(marker_dense(5)) == scenario_digest(marker_dense(5))
    digests = {scenario_digest(marker_dense(seed)) for seed in range(5)}
    assert len(digests) == 5


def test_marker_dense_layout():
    raw = marker_dense(3)
    assert len(raw["markers"]) == 256
    assert len({m["id"] for m in raw["markers"]}) == 256
    assert raw["ba"] == {"enabled": False}
    half = raw["bounds"]["max"][0]
    assert all(abs(c) < half for m in raw["markers"] for c in m["pose"]["t"][:2])
    starts = [d["start_pose"]["t"] for d in raw["drones"]]
    assert len(starts) == 3
    for a, b in itertools.combinations(starts, 2):
        assert math.dist(a, b) <= 2.0
    assert all(d["ekf_start_pose"]["t"] == [0.0, 0.0, 0.0] for d in raw["drones"])


def test_lab_long_is_the_bundled_lab_stretched():
    raw = WORKLOADS["lab_long"].build(9)
    lab = bundled("lab_three_drones")
    assert raw["duration"] == LAB_LONG_DURATION > lab["duration"]
    raw["duration"] = lab["duration"]
    assert raw == lab


def test_lab_long_runs_the_seed_criterion_8_pins_and_lab_seeds_sweeps():
    lab_seed = bundled("lab_three_drones")["seed"]
    assert WORKLOADS["lab_long"].seeds(1) == WORKLOADS["lab_long"].seeds(2) == [lab_seed]
    sweep = WORKLOADS["lab_seeds"]
    assert sweep.criterion8 and sweep.build(4) == WORKLOADS["lab_long"].build(4)
    assert sweep.seeds(4) == [12, 13, 14]
    assert set(sweep.seeds(4)).isdisjoint(sweep.seeds(5))


def test_program_seed_is_non_negative():
    assert program_seed(7) == 7
    assert program_seed(-1) == 2**32 - 1
