"""Coordinate-frame matching, merging and post-merge refinement.

Two drones that have never seen a common marker live in unrelated frames.
The first shared marker id yields pose pairs (same physical marker
expressed in both frames), from which a rigid transform is estimated:

* three or more pairs with non-collinear positions: orthogonal Procrustes
  on the positions (SVD, reflection corrected to det +1);
* fewer pairs, or a degenerate spread: fall back to the marker
  orientations, averaging the per-pair candidate transforms
  ``pose_in_a * inverse(pose_in_b)``.

The frame with the lower id always wins a merge; the loser's entries are
re-expressed through the transform and its drones are reassigned, which
retires the loser for good. Each merge leaves one record, whose transform
names both frames, so that later matches against pre-merge entries can
refine the transform and re-transform the affected markers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from markerswarm.geom import (
    Pose6D,
    quat_angle,
    quat_chordal_mean,
    rot_to_quat,
    transport_covariance,
)
from markerswarm.mapstore import GlobalMap, MapContractError

log = logging.getLogger(__name__)

SCALE_BAND = (0.95, 1.05)  # rigid-transform sanity band for the scale diagnostic
COLLINEAR_REL_TOL = 1e-6
REFINE_EPS_TRANSLATION = 1e-3  # m
REFINE_EPS_ROTATION = 1e-3  # rad


@dataclass(frozen=True)
class FrameTransform:
    """Rigid transform taking poses in ``from_frame`` to ``to_frame``."""

    from_frame: int
    to_frame: int
    rt: Pose6D
    residual: float  # RMS position error over the supporting pairs
    support: int  # number of marker pairs used
    scale: float  # spread ratio diagnostic, 1.0 for a perfectly rigid fit

    def to_dict(self) -> dict:
        return {
            "from": int(self.from_frame),
            "to": int(self.to_frame),
            "rt": self.rt.to_dict(),
            "residual": float(self.residual),
            "support": int(self.support),
            "scale": float(self.scale),
        }


def find_matches(
    gmap: GlobalMap, frame_a: int, frame_b: int, pending_obs: dict[int, Pose6D]
) -> list[int]:
    """Marker ids known in frame_a that have a pending observation in frame_b, sorted.

    The store holds one entry per marker id, so frame_b holds no entry for
    a marker frame_a knows: the pending observations are the only evidence.
    """
    if frame_a == frame_b:
        raise ValueError(f"match query needs two distinct frames, got {frame_a} twice")
    return sorted(
        marker_id
        for marker_id, entry in gmap.entries.items()
        if entry.frame == frame_a and marker_id in pending_obs
    )


def hops_to_live(frame: int, merges) -> list[tuple[int, int, Pose6D]]:
    """The (retired, winner, rt) hops of the frame table ``merges`` that take ``frame`` live.

    A frame only merges into a live one, so in the oldest-first table each hop follows the last.
    """
    hops = []
    for hop in merges:
        if hop[0] == frame:
            hops.append(hop)
            frame = hop[1]
    return hops


def estimate_transform(
    pairs: list[tuple[Pose6D, Pose6D]], from_frame: int = -1, to_frame: int = -1
) -> FrameTransform:
    """Fit rt such that rt * pose_in_b approximates pose_in_a.

    ``pairs`` holds (pose_in_a, pose_in_b) for the same physical markers.
    """
    if not pairs:
        raise ValueError("cannot estimate a transform from zero pairs")
    a_pts = np.array([p.t for p, _ in pairs])
    b_pts = np.array([p.t for _, p in pairs])
    n = len(pairs)

    use_kabsch = False
    if n >= 3:
        spread = np.linalg.svd(b_pts - b_pts.mean(axis=0), compute_uv=False)
        use_kabsch = spread[1] > COLLINEAR_REL_TOL * max(spread[0], 1.0)

    if use_kabsch:
        centroid_a = a_pts.mean(axis=0)
        centroid_b = b_pts.mean(axis=0)
        h = (b_pts - centroid_b).T @ (a_pts - centroid_a)
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        rt = Pose6D(centroid_a - rot @ centroid_b, rot_to_quat(rot))
    else:
        # too few or degenerate positions: lean on the marker orientations
        candidates = [pa.compose(pb.inverse()) for pa, pb in pairs]
        q_mean = quat_chordal_mean([c.q for c in candidates])
        t_mean = np.mean([c.t for c in candidates], axis=0)
        rt = Pose6D(t_mean, q_mean)

    residual = float(
        np.sqrt(np.mean([np.sum((rt.apply(b) - a) ** 2) for a, b in zip(a_pts, b_pts)]))
    )

    scale = 1.0
    if n >= 2:
        spread_b = float(np.sum((b_pts - b_pts.mean(axis=0)) ** 2))
        spread_a = float(np.sum((a_pts - a_pts.mean(axis=0)) ** 2))
        if spread_b > 1e-18:
            scale = float(np.sqrt(spread_a / spread_b))
    if not (SCALE_BAND[0] <= scale <= SCALE_BAND[1]):
        log.warning(
            "rigid fit scale %.4f outside %s (support %d, frames %d->%d)",
            scale, SCALE_BAND, n, from_frame, to_frame,
        )
    return FrameTransform(from_frame, to_frame, rt, residual, n, scale)


@dataclass
class MergeRecord:
    """Everything needed to refine one executed merge later.

    ``transform`` takes the loser (``from_frame``) into the winner (``to_frame``).
    """

    transform: FrameTransform
    # (marker_id, pose_in_winner, pose_in_loser) pairs backing the transform
    pairs: list[tuple[int, Pose6D, Pose6D]]
    # loser-frame poses of every transformed entry, frozen at merge time
    pre_merge_poses: dict[int, Pose6D] = field(default_factory=dict)

    def paired_ids(self) -> set[int]:
        return {marker_id for marker_id, _, _ in self.pairs}


def merge_frames(
    gmap: GlobalMap,
    transform: FrameTransform,
    pairs: list[tuple[int, Pose6D, Pose6D]] | None = None,
) -> tuple[MergeRecord, list[int]]:
    """Fold ``transform.from_frame`` (the loser) into ``transform.to_frame`` (the winner).

    Loser entries are re-expressed (pose composed, covariance transported);
    the store holds one entry per marker id, so no marker can sit in both
    frames. Drones in the loser frame are reassigned; the returned list
    names them so the caller can broadcast the merge. Returns the merge
    record for later refinement.
    """
    winner, loser = transform.to_frame, transform.from_frame
    if winner == loser:
        raise MapContractError(f"self-merge of frame {winner}")
    if loser < winner:
        raise MapContractError(f"frame {winner} cannot win over lower id {loser}")
    rt = transform.rt
    rot = rt.rotation()
    pre_merge: dict[int, Pose6D] = {}
    for entry in gmap.entries_in_frame(loser):
        pre_merge[entry.marker_id] = entry.pose
        gmap.replace_entry(
            replace(
                entry,
                frame=winner,
                pose=rt.compose(entry.pose),
                cov=transport_covariance(entry.cov, rot),
            )
        )
    moved_drones = gmap.reassign_frame(loser, winner)
    record = MergeRecord(transform, pairs=list(pairs or []), pre_merge_poses=pre_merge)
    return record, moved_drones


def refine_transform(
    gmap: GlobalMap,
    record: MergeRecord,
    new_matches: list[tuple[int, Pose6D]],
) -> FrameTransform | None:
    """Re-estimate a past merge when fresh matches of its entries appear.

    ``new_matches`` holds (marker_id, pose_in_winner) for markers that were
    transformed by the merge; their pre-merge loser poses complete the new
    pairs. If the re-estimated transform differs from the applied one by
    more than the REFINE_EPS_* thresholds, every transformed entry is
    corrected by the delta and the record is updated. A refit whose scale
    lies outside SCALE_BAND is refused with a log line: the new pairs stay
    on the record, but neither the entries nor its transform move. Returns the new
    transform when a correction was applied, None otherwise.
    """
    known = record.paired_ids()
    added = False
    for marker_id, pose_in_winner in new_matches:
        if marker_id in known or marker_id not in record.pre_merge_poses:
            continue
        record.pairs.append((marker_id, pose_in_winner, record.pre_merge_poses[marker_id]))
        known.add(marker_id)
        added = True
    if not added:
        return None

    applied = record.transform
    refit = estimate_transform(
        [(pw, pl) for _, pw, pl in record.pairs], applied.from_frame, applied.to_frame
    )
    if not (SCALE_BAND[0] <= refit.scale <= SCALE_BAND[1]):
        log.warning("refit refused: its scale is outside %s", SCALE_BAND)
        return None
    delta = refit.rt.compose(applied.rt.inverse())
    if (
        float(np.linalg.norm(delta.t)) <= REFINE_EPS_TRANSLATION
        and quat_angle(delta.q) <= REFINE_EPS_ROTATION
    ):
        return None

    rot = delta.rotation()
    for marker_id in record.pre_merge_poses:
        entry = gmap.lookup(marker_id)
        if entry is None:
            continue
        gmap.replace_entry(
            replace(
                entry,
                pose=delta.compose(entry.pose),
                cov=transport_covariance(entry.cov, rot),
            )
        )
    record.transform = refit
    return refit
