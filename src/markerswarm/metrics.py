"""Run evaluation: frame-aligned error metrics from a report dict.

The estimated map lives in arbitrary per-run frames (each anchored at a
drone's believed start), so raw coordinates are meaningless against
ground truth. Every metric therefore first fits a rigid transform from
the estimated frame to the truth frame over all mapped markers, then
measures what survives the alignment: marker position and orientation
RMSE, and per-drone absolute trajectory error under the same transform.

Everything here recomputes from the report's raw fields; the "metrics"
key embedded in a report must be reproducible by calling compute_metrics
on that same report.
"""

from __future__ import annotations

import numpy as np

from markerswarm.framemerge import estimate_transform
from markerswarm.geom import Pose6D, rotation_angle_between


def _rmse(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return float(np.sqrt(np.mean(np.square(values))))


def truth_alignments(report: dict) -> dict[int, tuple[list, Pose6D]]:
    """Per frame holding a marker that exists in ground truth: its pairs and fit.

    The pairs are (marker id, true pose, estimated pose), by ascending id;
    the fit is the rigid transform taking the frame's estimates to truth.
    Frames come in ascending order. The metrics and the plot both align
    through this one function.
    """
    truth_markers = {
        int(mid): Pose6D.from_dict(d) for mid, d in report["world"]["markers"].items()
    }
    by_frame: dict[int, list[dict]] = {}
    for entry in report["map"]:
        by_frame.setdefault(int(entry["frame"]), []).append(entry)

    aligned = {}
    for frame in sorted(by_frame):
        pairs = []
        for entry in sorted(by_frame[frame], key=lambda e: e["marker_id"]):
            marker_id = int(entry["marker_id"])
            if marker_id in truth_markers:
                pairs.append((marker_id, truth_markers[marker_id], Pose6D.from_dict(entry["pose"])))
        if pairs:
            fit = estimate_transform(
                [(truth, est) for _, truth, est in pairs], from_frame=frame, to_frame=-1
            )
            aligned[frame] = (pairs, fit.rt)
    return aligned


def compute_metrics(report: dict) -> dict:
    """Metrics dict for one run report; all values JSON-native.

    Per live frame with at least one marker that exists in ground truth:
    fit estimate-to-truth, then marker position RMSE (m), marker
    orientation RMSE (rad) and per-drone trajectory position RMSE (m)
    over the ticks spent in that frame. When exactly one frame holds
    markers the same numbers are mirrored at the top level.
    """
    frames_out: dict[str, dict] = {}
    for frame, (pairs, rt) in truth_alignments(report).items():
        position_errors = [np.linalg.norm(rt.apply(est.t) - truth.t) for _, truth, est in pairs]
        angle_errors = [
            rotation_angle_between(rt.compose(est).q, truth.q) for _, truth, est in pairs
        ]

        ate: dict[str, float] = {}
        for drone_id, rows in sorted(report["trajectories"].items()):
            errors = []
            for row in rows:
                if int(row["frame"]) != frame:
                    continue
                est_t = np.asarray(row["estimate"]["t"], dtype=float)
                truth_t = np.asarray(row["truth"]["t"], dtype=float)
                errors.append(np.linalg.norm(rt.apply(est_t) - truth_t))
            value = _rmse(errors)
            if value is not None:
                ate[drone_id] = value

        frames_out[str(frame)] = {
            "marker_count": len(pairs),
            "marker_ids": [marker_id for marker_id, _, _ in pairs],
            "marker_position_rmse": _rmse(position_errors),
            "marker_orientation_rmse": _rmse(angle_errors),
            "ate": ate,
        }

    metrics: dict = {
        "frames": frames_out,
        "frame_count": len(report["frames"]),
        "mapped_markers": sum(f["marker_count"] for f in frames_out.values()),
        "true_markers": len(report["world"]["markers"]),
        "merge_count": len(report["merge_events"]),
        "ba_runs": len(report["ba_reports"]),
        "ba_iterations": int(sum(r["iterations"] for r in report["ba_reports"])),
    }
    if len(frames_out) == 1:
        only = next(iter(frames_out.values()))
        metrics["marker_position_rmse"] = only["marker_position_rmse"]
        metrics["marker_orientation_rmse"] = only["marker_orientation_rmse"]
        metrics["ate"] = only["ate"]
    else:
        metrics["marker_position_rmse"] = None
        metrics["marker_orientation_rmse"] = None
        metrics["ate"] = {}
    return metrics
