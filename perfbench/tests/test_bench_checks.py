import copy

from checks import failures, reference_digest
from workloads import WORKLOADS

LAB = WORKLOADS["lab_long"]
DENSE = WORKLOADS["marker_dense"]
THREADED = WORKLOADS["demo_threaded"]


def good_rep(mode="lockstep"):
    return {
        "exit_code": 0,
        "mode": mode,
        "traced": False,
        "report_sha256": "aaa",
        "report": {
            "scenario_digest": "scn",
            "frame_count": 1,
            "mapped_markers": 8,
            "true_markers": 8,
            "marker_rmse_m": 0.05,
            "ate_m": 0.08,
            "merge_count": 2,
            "ba_runs": 10,
            "ba_aborted": 0,
            "station_errors": 0,
            "station_malformed": 0,
        },
    }


EXPECTED = {"scenario_digest": "scn", "report_sha256": "aaa", "lockstep_rmse_m": 0.05}


def doctored(**facts):
    rep = good_rep()
    rep["report"].update(facts)
    return rep


def test_a_clean_repetition_passes():
    assert failures(good_rep(), LAB, EXPECTED) == []
    assert failures(good_rep(), DENSE, EXPECTED) == []


def test_station_errors_fail():
    reasons = failures(doctored(station_errors=1), DENSE, EXPECTED)
    assert reasons == ["station_errors = 1"]
    assert failures(doctored(station_malformed=2), DENSE, EXPECTED) == ["station_malformed = 2"]


def test_a_changed_report_digest_fails():
    rep = good_rep()
    rep["report_sha256"] = "bbb"
    assert any("digest" in r for r in failures(rep, DENSE, EXPECTED))
    rep["traced"] = True
    assert any(r.startswith("traced") for r in failures(rep, DENSE, EXPECTED))


def test_reference_digest_is_the_majority():
    reps = [good_rep(), good_rep(), good_rep()]
    reps[0]["report_sha256"] = "bbb"
    assert reference_digest(reps) == "aaa"
    assert reference_digest([]) is None


def test_a_failed_run_or_aborted_adjustment_fails():
    rep = good_rep()
    rep["exit_code"] = 3
    del rep["report"]
    assert failures(rep, DENSE, EXPECTED) == ["markerswarm run failed (exit code 3)"]
    assert failures(doctored(ba_aborted=1), DENSE, EXPECTED)


def test_the_program_must_run_the_generated_scenario():
    assert failures(doctored(scenario_digest="other"), DENSE, EXPECTED)


def test_criterion_8_applies_to_lab_long_only():
    for facts in ({"frame_count": 2}, {"mapped_markers": 7}, {"marker_rmse_m": 0.10},
                  {"marker_rmse_m": None}):
        rep = doctored(**facts)
        assert any(r.startswith("criterion 8") for r in failures(rep, LAB, EXPECTED)), facts
        assert failures(rep, DENSE, EXPECTED) == []


def test_threaded_parity_against_lockstep():
    rep = good_rep("threaded")
    rep["report_sha256"] = "whatever"  # threaded runs are not byte-identical
    assert failures(rep, THREADED, EXPECTED) == []
    rep["report"]["marker_rmse_m"] = 0.1001
    assert any("parity" in r for r in failures(rep, THREADED, EXPECTED))
    rep["report"]["marker_rmse_m"] = 0.1
    assert failures(rep, THREADED, EXPECTED) == []
    no_reference = dict(EXPECTED, lockstep_rmse_m=None)
    assert failures(rep, THREADED, no_reference)
    lockstep = copy.deepcopy(rep)
    lockstep["mode"] = "lockstep"
    lockstep["report_sha256"] = "aaa"
    lockstep["report"]["marker_rmse_m"] = 0.5  # the reference itself is not parity-checked
    assert failures(lockstep, THREADED, EXPECTED) == []
