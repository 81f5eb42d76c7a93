"""Pass or fail for each repetition of a workload.

A repetition fails when any rule below names a reason. The reasons are
kept, printed and counted; a known defect is reported as it stands, never
hidden by a different seed or a smaller workload.
"""

from __future__ import annotations

from collections import Counter

CRITERION8_RMSE_M = 0.10
PARITY_FACTOR = 2.0


def reference_digest(reps: list[dict]) -> str | None:
    """The report digest most repetitions agree on (the earliest wins a tie)."""
    digests = [rep.get("report_sha256") for rep in reps if rep.get("report_sha256")]
    return Counter(digests).most_common(1)[0][0] if digests else None


def failures(rep: dict, workload, expected: dict) -> list[str]:
    """Reasons one repetition fails; empty when it passes.

    ``expected`` holds ``scenario_digest`` (of the generated scenario),
    ``report_sha256`` (the lockstep digest the run agreed on, see
    :func:`reference_digest`) and, for parity, ``lockstep_rmse_m``.
    """
    if rep.get("exit_code") != 0 or "report" not in rep:
        return [f"markerswarm run failed (exit code {rep.get('exit_code')})"]
    facts = rep["report"]
    reasons = []
    if facts["scenario_digest"] != expected["scenario_digest"]:
        reasons.append("the program ran a different scenario than the one generated")
    for counter in ("station_errors", "station_malformed"):
        if facts[counter]:
            reasons.append(f"{counter} = {facts[counter]}")
    if facts["ba_aborted"]:
        reasons.append(f"{facts['ba_aborted']} bundle adjustment run(s) aborted_singular")
    if rep.get("mode") == "lockstep" and rep.get("report_sha256") != expected.get("report_sha256"):
        kind = "traced" if rep.get("traced") else "untraced"
        reasons.append(f"{kind} lockstep report digest differs from the other repetitions")
    rmse = facts["marker_rmse_m"]
    if workload.criterion8 and not (
        facts["frame_count"] == 1
        and facts["mapped_markers"] == facts["true_markers"]
        and rmse is not None
        and rmse < CRITERION8_RMSE_M
    ):
        reasons.append(
            f"criterion 8: {facts['frame_count']} frame(s), "
            f"{facts['mapped_markers']}/{facts['true_markers']} markers, RMSE {rmse}"
        )
    if workload.parity and rep.get("mode") == workload.mode:
        reference = expected["lockstep_rmse_m"]
        if not (
            facts["frame_count"] == 1
            and rmse is not None
            and reference is not None
            and rmse <= PARITY_FACTOR * reference
        ):
            reasons.append(
                f"criterion 7 parity: {facts['frame_count']} frame(s), RMSE {rmse} "
                f"against {PARITY_FACTOR:g}x lockstep {expected['lockstep_rmse_m']}"
            )
    return reasons
