"""Ground-truth world: marker field, drone kinematics, simulated sensors.

The truth model is deliberately simple. Drones are velocity-driven points
with yaw; the attitude controller is assumed perfect, so true roll and
pitch are pinned to zero (estimators still carry all six degrees of
freedom). Cameras detect fiducial markers inside a view cone and report the
marker pose relative to the camera, corrupted by range-dependent Gaussian
noise. Odometry is a finite-difference body-velocity sensor.

A reading holds what was measured and nothing else: neither a detection
nor an odometry reading carries a drone id or a time. The caller knows
both, and the one uplink line of a drone-tick that carries its
detections (``swarm.protocol.MarkerObs``) names its sender and its time
once. The wire form of a detection is the protocol's: nothing here
encodes or checks one.

All randomness flows through per-drone counter-based generators
(:func:`drone_rng`), so draws depend only on (seed, drone id, call order)
and never on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from markerswarm.geom import (
    Pose6D,
    _compose,
    _euler_quat,
    _inverse,
    _quat_euler,
    _quat_unit,
    _rotate,
    wrap_angle,
)

MARKER_ID_MAX = 1023  # 1024 distinct marker patterns, ids 0..1023
MAX_STEP_DT = 0.5
# Slack on the array cull in sense_markers. The cull compares each marker's
# distance from the camera before any rotation, and its depth along one
# column of the camera rotation; the exact per-marker test composes the
# marker into the camera frame. The two float paths differ by about
# 1e-15 m; 1e-6 m keeps every marker the exact test would accept, so the
# cull never changes a detection or an RNG draw.
CULL_MARGIN = 1e-6  # m


def drone_rng(seed: int, drone_id: int) -> np.random.Generator:
    """Independent counter-based stream for one drone.

    Philox is keyed, not sequential, so streams for different drones cannot
    collide and the draw sequence is a pure function of (seed, drone_id).
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(drone_id)))))


@dataclass(frozen=True)
class World:
    """Static marker field inside an axis-aligned flight volume.

    ``markers`` is read once, at construction, into ``marker_ids`` (sorted)
    and ``marker_positions`` (the matching ``(N, 3)`` positions) for the
    sensing cull; those are plain attributes, not fields, so they take no
    part in ``==`` or ``repr``. Do not mutate ``markers`` afterwards.
    """

    markers: dict[int, Pose6D]
    bounds_min: np.ndarray
    bounds_max: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.bounds_min, dtype=float).reshape(3)
        hi = np.asarray(self.bounds_max, dtype=float).reshape(3)
        if not np.all(lo < hi):
            raise ValueError(f"degenerate bounds {lo} .. {hi}")
        object.__setattr__(self, "bounds_min", lo)
        object.__setattr__(self, "bounds_max", hi)
        ids = sorted(self.markers)
        positions = np.array([self.markers[m].t for m in ids], dtype=float).reshape(len(ids), 3)
        positions.flags.writeable = False
        object.__setattr__(self, "marker_ids", ids)
        object.__setattr__(self, "marker_positions", positions)


# built per drone per tick, so not frozen: that sets each field via object.__setattr__
@dataclass(slots=True)
class DroneTruth:
    """True state of one drone; roll and pitch are exactly zero."""

    pose: Pose6D
    # the pose's Euler angles, as floats: stepping, odometry and the report read them
    euler: tuple[float, float, float]

    def __init__(self, pose: Pose6D) -> None:
        self.pose = pose
        self.euler = _quat_euler(pose.q)


@dataclass(slots=True)
class VelocityCommand:
    """Body-frame linear velocity, three floats, plus yaw rate."""

    v_body: tuple[float, float, float]
    yaw_rate: float = 0.0

    @staticmethod
    def hover() -> "VelocityCommand":
        return VelocityCommand((0.0, 0.0, 0.0), 0.0)


@dataclass(frozen=True)
class CameraParams:
    """Rigid camera on the drone body; optical axis is camera +z."""

    name: str
    extrinsics: Pose6D
    fov_half_angle: float
    max_range: float

    def __post_init__(self) -> None:
        if not (0.0 < self.fov_half_angle < math.pi / 2):
            raise ValueError(f"fov half-angle {self.fov_half_angle} outside (0, pi/2)")
        if self.max_range <= 0.0:
            raise ValueError(f"max range {self.max_range} must be positive")
        # the body pose in the camera frame, not a field
        object.__setattr__(self, "inverse_extrinsics", self.extrinsics.inverse())


# The one camera table: a drone names its cameras from it.
CAMERAS = MappingProxyType({
    # looking along body -z (roll the optics by pi)
    "down": CameraParams("down", Pose6D.from_euler([0.0, 0.0, 0.0], [math.pi, 0.0, 0.0]), 0.9, 4.0),
    # looking along body +x (pitch the optics by pi/2)
    "forward": CameraParams(
        "forward", Pose6D.from_euler([0.0, 0.0, 0.0], [0.0, math.pi / 2, 0.0]), 0.8, 5.0
    ),
})


@dataclass(frozen=True, slots=True)
class MarkerDetection:
    """One marker seen by one camera; its range is |rel_pose.t|, which is not stored."""

    marker_id: int
    camera: str  # a key of CAMERAS
    rel_pose: Pose6D  # marker pose in the camera frame


@dataclass(slots=True)
class OdometryReading:
    dt: float
    v_body: tuple[float, float, float]
    euler_rates: tuple[float, float, float]


@dataclass(frozen=True)
class SensorNoise:
    """Detection noise grows linearly with range; odometry noise is flat."""

    pos_base: float = 0.02  # m
    pos_per_m: float = 0.01  # m per m of range
    ang_base: float = 0.01  # rad
    ang_per_m: float = 0.005  # rad per m of range
    odom_vel_sigma: float = 0.05  # m/s
    odom_rate_sigma: float = 0.02  # rad/s
    dropout: float = 0.0  # false-negative probability per would-be detection

    def pos_sigma(self, rng_range: float) -> float:
        return self.pos_base + self.pos_per_m * rng_range

    def ang_sigma(self, rng_range: float) -> float:
        return self.ang_base + self.ang_per_m * rng_range


def step_drone(truth: DroneTruth, cmd: VelocityCommand, dt: float, world: World) -> DroneTruth:
    """Advance one drone by dt seconds under a velocity command.

    Position integrates the body velocity rotated into the world frame by
    the pose at the start of the interval, then clamps to the flight
    volume. Yaw integrates the yaw rate; roll/pitch stay zero.
    """
    v_body = cmd.v_body
    # clamping would turn a NaN step silently into bounds_min
    if not (all(map(math.isfinite, v_body)) and math.isfinite(cmd.yaw_rate)):
        raise ValueError(f"non-finite command {cmd}")
    offset = _rotate(truth.pose.q, [v * dt for v in v_body])
    lows, highs = world.bounds_min.tolist(), world.bounds_max.tolist()
    # np.clip's comparisons, in its order, so even a signed zero clips alike
    pos = [min(hi, max(lo, t + r)) for t, r, lo, hi in zip(truth.pose.t, offset, lows, highs)]
    yaw = wrap_angle(truth.euler[2] + cmd.yaw_rate * dt)
    return DroneTruth(Pose6D(pos, _euler_quat(0.0, 0.0, yaw)))


def sense_markers(
    truth: DroneTruth,
    world: World,
    cam: CameraParams,
    noise: SensorNoise,
    rng: np.random.Generator,
) -> list[MarkerDetection]:
    """Detections of all markers inside the camera cone, noisy, id-sorted.

    Marker ids are never corrupted; noise only perturbs the relative pose.
    A dropout draw can suppress an otherwise valid detection (false
    negative). Visibility depends on truth alone, so the number and order
    of RNG draws is deterministic for a given truth trajectory.

    The camera pose is composed and inverted on floats, each quaternion
    normalized as the two ``Pose6D`` of ``compose`` and ``inverse`` would
    be. One array pass over all marker positions then culls by distance
    from the camera, which needs no rotation, and by depth along the
    optical axis, one column of the camera rotation; both are widened by
    ``CULL_MARGIN``, so the survivors are a superset of the markers the
    exact per-marker test below accepts. That test, the dropout draw and
    the noise then run on the survivors only, in ascending id order, so
    detections and draws are the same as with no cull at all. Each
    survivor is composed into the camera frame and perturbed on floats by
    one draw of six normals (the stream two draws of three would give);
    the detection's ``rel_pose`` is the one pose built per marker.
    """
    ext = cam.extrinsics
    (cx, cy, cz), cq = _compose(truth.pose.t, truth.pose.q, ext.t, ext.q)
    # normalized as the camera's Pose6D and then its inverse's would be
    cw, qx, qy, qz = cq = _quat_unit(cq)
    cam_t, cam_q = _inverse((cx, cy, cz), cq)
    cam_q = _quat_unit(cam_q)
    cos_fov = math.cos(cam.fov_half_angle)
    offsets = world.marker_positions - (cx, cy, cz)
    dists = np.sqrt((offsets * offsets).sum(axis=1))
    # the optical axis in the world: the third column of quat_to_rot(cq)
    axis = (2 * (qx * qz + cw * qy), 2 * (qy * qz - cw * qx), 1 - 2 * (qx * qx + qy * qy))
    depth = offsets @ axis
    near = (dists <= cam.max_range + CULL_MARGIN) & (depth >= dists * cos_fov - CULL_MARGIN)
    out: list[MarkerDetection] = []
    for index in near.nonzero()[0].tolist():
        marker_id = world.marker_ids[index]
        marker = world.markers[marker_id]
        (x, y, z), q = _compose(cam_t, cam_q, marker.t, marker.q)
        dist = math.sqrt(x * x + y * y + z * z)
        if dist <= 0.0 or dist > cam.max_range:
            continue
        if z < dist * cos_fov:
            continue
        if noise.dropout > 0.0 and rng.uniform() < noise.dropout:
            continue
        sigma_p = noise.pos_sigma(dist)
        sigma_a = noise.ang_sigma(dist)
        if sigma_p > 0.0 or sigma_a > 0.0:
            nx, ny, nz, na, nb, ng = rng.standard_normal(6).tolist()
            x, y, z = x + sigma_p * nx, y + sigma_p * ny, z + sigma_p * nz
            alpha, beta, gamma = _quat_euler(q)
            q = _euler_quat(
                wrap_angle(alpha + sigma_a * na),
                wrap_angle(beta + sigma_a * nb),
                wrap_angle(gamma + sigma_a * ng),
            )
        out.append(
            MarkerDetection(
                marker_id=marker_id,
                camera=cam.name,
                rel_pose=Pose6D((x, y, z), q),
            )
        )
    return out


def sense_odometry(
    prev: DroneTruth,
    curr: DroneTruth,
    dt: float,
    noise: SensorNoise,
    rng: np.random.Generator,
) -> OdometryReading:
    """Finite-difference odometry over one step, in the starting body frame.

    Exact for the step_drone motion model at zero noise: rotating the true
    displacement back through the start pose recovers the commanded body
    velocity even when the flight-volume clamp shortened the step.
    """
    (cx, cy, cz), (px, py, pz) = curr.pose.t, prev.pose.t
    delta = np.array((cx - px, cy - py, cz - pz))
    rot = prev.pose.rotation()
    v_body = (rot.T @ delta / dt).tolist()
    # wrap_angle per axis: the IEEE operations of the array wrap (tests/reference.py)
    rates = [wrap_angle(c - p) / dt for c, p in zip(curr.euler, prev.euler)]
    sigma_v, sigma_r = noise.odom_vel_sigma, noise.odom_rate_sigma
    if sigma_v > 0.0 or sigma_r > 0.0:
        draws = rng.standard_normal(6).tolist()
        v_body = [v + sigma_v * n for v, n in zip(v_body, draws[:3])]
        rates = [r + sigma_r * n for r, n in zip(rates, draws[3:])]
    return OdometryReading(dt=dt, v_body=tuple(v_body), euler_rates=tuple(rates))
