"""Outcome pins: what a run decides, as bundle adjustment on the rotation manifold decides it.

The values below were taken when bundle adjustment moved from Euler
variables to quaternions stepped by Exp, which changes outcomes: demo
seeds 5, 8 and 9 change their counts, and every RMSE moves. Before that,
the float kernels of the per-detection path (``observation_from_marker``,
``update``, ``predict``, ``sense_markers``), the single normalization in
``Pose6D.from_euler`` and the keypose-ordered Schur sums of bundle
adjustment changed lockstep reports in the last bits only. A change of
that kind keeps every count a run makes (updates, gated detections,
forwards, keyposes, messages handled, refines, merges, mapped markers,
frames) equal to the value pinned below, and the marker RMSE within a
rounding distance of it. The station's ``handled`` counts the lines it
handled: it fell when a drone-tick's forwarded detections and its keypose
came to share one ``MarkerObs`` line, and no other count moved.

Those distances differ. Bundle adjustment solves a reduced system whose
solve loses about its condition number times the machine epsilon, so a
last-bit change in its input moves the adjusted map by about 1e-8 m on
``two_drone_demo``: each of the last-bit changes above alone moved that
scenario's RMSE by up to 1.4e-8 m over seeds 1, 4, 5 and 10. On the lab
seed the move stays below 1e-12 m.
"""

from pathlib import Path

import pytest

from markerswarm.scenario import load_scenario
from markerswarm.swarm.runner import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEMO_RMSE_TOL = 1e-7  # m
LAB_RMSE_TOL = 1e-9  # m


def counters(handled, refines, drones):
    """The report's ``counters`` from (updates, gated, forwarded, keyposes) per drone."""
    station = {"errors": 0, "handled": handled, "malformed": 0, "refines": refines, "stale": 0}
    return {
        "station": station,
        "drones": {
            str(d): dict(zip(("updates", "gated", "forwarded", "keyposes"), row))
            for d, row in enumerate(drones)
        },
    }


# seed: (counters, merge_count, mapped_markers, frame_count, marker RMSE in m)
DEMO = {
    1: (counters(876, 0, [(367, 2, 18, 19), (390, 3, 20, 21)]), 1, 6, 1, 0.049776864439690184),
    2: (counters(884, 0, [(512, 2, 23, 23), (504, 2, 14, 27)]), 1, 6, 1, 0.0714995109734456),
    3: (counters(884, 0, [(480, 5, 20, 23), (503, 5, 19, 25)]), 1, 6, 1, 0.08248375285212105),
    4: (counters(889, 1, [(482, 0, 26, 23), (516, 1, 14, 29)]), 1, 6, 1, 0.06315293940088751),
    5: (counters(885, 0, [(446, 6, 14, 23), (478, 20, 24, 27)]), 1, 6, 1, 0.0646274522372929),
    6: (counters(880, 0, [(448, 5, 20, 21), (485, 0, 19, 24)]), 1, 6, 1, 0.05256019358396703),
    7: (counters(873, 1, [(363, 6, 14, 18), (492, 5, 19, 25)]), 1, 5, 1, 0.054214935573230046),
    8: (counters(884, 0, [(465, 3, 18, 23), (468, 6, 20, 26)]), 1, 6, 1, 0.04350860840633674),
    9: (counters(890, 1, [(467, 37, 20, 23), (519, 21, 19, 30)]), 1, 6, 1, 0.06045565116052569),
    10: (counters(885, 0, [(505, 3, 18, 25), (464, 2, 20, 27)]), 1, 6, 1, 0.02394337164646516),
}
LAB_SEED_11 = (
    counters(1968, 1, [(748, 5, 15, 44), (748, 6, 17, 42), (756, 5, 20, 37)]),
    2,
    8,
    1,
    0.0564493679003772,
)


def assert_outcome(report, pinned, rmse_tol):
    want_counters, merges, mapped, frames, rmse = pinned
    metrics = report["metrics"]
    assert report["counters"] == want_counters
    assert (metrics["merge_count"], metrics["mapped_markers"], metrics["frame_count"]) == (
        merges,
        mapped,
        frames,
    )
    assert abs(metrics["marker_position_rmse"] - rmse) < rmse_tol, metrics["marker_position_rmse"]


@pytest.mark.parametrize("seed", sorted(DEMO))
def test_two_drone_demo_outcomes_unchanged(seed):
    report = run_scenario(load_scenario(str(SCENARIOS / "two_drone_demo.json")), seed=seed)
    assert_outcome(report, DEMO[seed], DEMO_RMSE_TOL)


def test_lab_seed_11_outcome_unchanged():
    report = run_scenario(load_scenario(str(SCENARIOS / "lab_three_drones.json")), seed=11)
    assert_outcome(report, LAB_SEED_11, LAB_RMSE_TOL)
