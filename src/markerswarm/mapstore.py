"""Ground-station marker map: one entry per marker id, grouped by frame.

Every drone is registered to exactly one coordinate frame, a frame is
live exactly while a drone is in it, and every entry lives in a live
frame. A fresh marker enters the map with the pose implied by its first
observation and is then refined by the next few observations
(information-form position fusion, covariance-trace-weighted slerp for
the orientation). After ``n_fuse`` observations the entry freezes: later
corrections flow through bundle adjustment only, which keeps a stable map
under sensor noise once a marker is well established.

The store itself is not thread safe; only the ground station mutates it,
from the runner's thread, once the drones' ticks of a tick have returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from markerswarm.geom import Pose6D, quat_slerp
from markerswarm.worldsim import MARKER_ID_MAX

DEFAULT_N_FUSE = 5


class MapContractError(Exception):
    """Raised when a caller violates a map invariant (duplicate insert,
    dead frame, out-of-range id, unknown marker)."""


@dataclass(frozen=True)
class MapEntry:
    marker_id: int
    frame: int
    pose: Pose6D
    cov: np.ndarray
    obs_count: int

    def __post_init__(self) -> None:
        # kept, not copied, and frozen: each caller hands over a new array or a frozen one
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (6, 6):
            cov = cov.reshape(6, 6)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)

    def to_dict(self) -> dict:
        """The file form (``map.json``, ``report.json``): ``cov`` as 36 values, row-major."""
        return {
            "marker_id": int(self.marker_id),
            "frame": int(self.frame),
            "pose": self.pose.to_dict(),
            "cov": self.cov.reshape(-1).tolist(),
            "obs_count": int(self.obs_count),
        }


def fuse_pose(
    pose_old: Pose6D, cov_old: np.ndarray, pose_new: Pose6D, cov_new: np.ndarray
) -> tuple[Pose6D, np.ndarray]:
    """Fuse two pose estimates of the same marker.

    Position blocks combine in information form (precisions add, means are
    precision-weighted). Orientation is a spherical interpolation toward
    the new quaternion with weight tr(old angle cov) / (tr old + tr new),
    so a poorly known entry moves almost all the way to a sharp new
    observation and vice versa. Position and orientation are treated as
    independent: cross blocks of the fused covariance are zero.
    """
    # Each level is one batched inverse of the (position, angle) blocks. The
    # batch solves each block alone, with the bits of its own call.
    info = np.linalg.inv(
        np.array((cov_old[:3, :3], cov_old[3:, 3:], cov_new[:3, :3], cov_new[3:, 3:]))
    )
    fused = np.linalg.inv(info[:2] + info[2:])  # (position, angle)
    t_fused = fused[0] @ (info[0] @ pose_old.t + info[2] @ pose_new.t)

    # the angle traces, summed in np.trace's order
    _, _, _, a0, a1, a2 = cov_old.diagonal().tolist()
    _, _, _, b0, b1, b2 = cov_new.diagonal().tolist()
    tr_old, tr_new = a0 + a1 + a2, b0 + b1 + b2
    weight_new = tr_old / (tr_old + tr_new)
    q_fused = quat_slerp(pose_old.q, pose_new.q, weight_new)

    fused = 0.5 * (fused + fused.transpose(0, 2, 1))  # symmetrize, block by block
    cov = np.zeros((6, 6))
    cov[:3, :3], cov[3:, 3:] = fused
    return Pose6D(t_fused, q_fused), cov


class GlobalMap:
    """All marker entries plus the frame registry, keyed by marker id."""

    def __init__(self, n_fuse: int = DEFAULT_N_FUSE) -> None:
        if n_fuse < 1:
            raise ValueError(f"n_fuse {n_fuse} must be >= 1")
        self.n_fuse = int(n_fuse)
        self.entries: dict[int, MapEntry] = {}
        self.membership: dict[int, int] = {}  # drone id -> frame id

    # -- frames and drones --------------------------------------------

    @property
    def frames(self) -> set[int]:
        """The live frames: those a drone is in."""
        return set(self.membership.values())

    def register_drone(self, drone_id: int, frame: int) -> None:
        self.membership[int(drone_id)] = int(frame)

    def reassign_frame(self, loser: int, winner: int) -> list[int]:
        """Move every drone in ``loser`` to ``winner``, which retires ``loser``."""
        if winner not in self.frames:
            raise MapContractError(f"winner frame {winner} is not live")
        moved = sorted(d for d, f in self.membership.items() if f == loser)
        for drone_id in moved:
            self.membership[drone_id] = winner
        return moved

    def entries_in_frame(self, frame: int) -> list[MapEntry]:
        return sorted(
            (e for e in self.entries.values() if e.frame == frame), key=lambda e: e.marker_id
        )

    # -- entries ------------------------------------------------------

    def lookup(self, marker_id: int) -> MapEntry | None:
        return self.entries.get(int(marker_id))

    def insert_marker(self, frame: int, marker_id: int, pose: Pose6D, cov: np.ndarray) -> MapEntry:
        marker_id = int(marker_id)
        if not (0 <= marker_id <= MARKER_ID_MAX):
            raise MapContractError(f"marker id {marker_id} outside 0..{MARKER_ID_MAX}")
        if marker_id in self.entries:
            raise MapContractError(f"marker {marker_id} already mapped")
        if frame not in self.frames:
            raise MapContractError(f"frame {frame} is not live")
        entry = MapEntry(marker_id, int(frame), pose, cov, obs_count=1)
        self.entries[marker_id] = entry
        return entry

    def fuse_observation(self, marker_id: int, pose: Pose6D, cov: np.ndarray) -> MapEntry:
        """Fold one more observation into an existing entry.

        Entries with ``obs_count >= n_fuse`` are frozen: the observation is
        ignored and the entry is returned unchanged.
        """
        entry = self.lookup(marker_id)
        if entry is None:
            raise MapContractError(f"marker {marker_id} not in map")
        if entry.obs_count >= self.n_fuse:
            return entry
        fused_pose, fused_cov = fuse_pose(entry.pose, entry.cov, pose, np.asarray(cov, float))
        updated = MapEntry(
            entry.marker_id, entry.frame, fused_pose, fused_cov, obs_count=entry.obs_count + 1
        )
        self.entries[marker_id] = updated
        return updated

    def replace_entry(self, entry: MapEntry) -> None:
        """Overwrite an entry wholesale (frame merges, bundle adjustment)."""
        if entry.frame not in self.frames:
            raise MapContractError(f"frame {entry.frame} is not live")
        self.entries[entry.marker_id] = entry

    # -- export -------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Wire/file form, sorted by marker id for deterministic output."""
        return [self.entries[k].to_dict() for k in sorted(self.entries)]
