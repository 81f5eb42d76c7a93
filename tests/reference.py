"""Reference forms the tests compare the package against.

None of these runs in a scenario. ``predict_jacobian`` is built from the
live kernels ``predict`` runs (``_euler_rotate`` and
``_transition_jacobian``), so a test of it checks them; the others are
matrix forms written without the float kernels, or the array forms that
the float kernels replaced, kept here so that the kernels can be checked
against them bit for bit.
"""

import math

import numpy as np

from markerswarm.ekf import GATE_THRESHOLD, STATE_DIM, EkfState, _transition_jacobian
from markerswarm.geom import (
    _QUAT_NORM_TOL,
    Pose6D,
    _euler_quat,
    _euler_rotate,
    _multiply,
    quat_to_euler,
    symmetrize,
    wrap_angle,
    wrap_angles,
)
from markerswarm.swarm.nodes import PROGRESS_EPS, STALL_LIMIT
from markerswarm.worldsim import (
    DroneTruth,
    MarkerDetection,
    OdometryReading,
    VelocityCommand,
    World,
)


def euler_rot_derivatives(euler: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rotation matrix and its three partial derivatives d R / d angle."""
    alpha, beta, gamma = float(euler[0]), float(euler[1]), float(euler[2])
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)

    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])

    drx = np.array([[0, 0, 0], [0, -sa, -ca], [0, ca, -sa]])
    dry = np.array([[-sb, 0, cb], [0, 0, 0], [-cb, 0, -sb]])
    drz = np.array([[-sg, -cg, 0], [cg, -sg, 0], [0, 0, 0]])

    rot = rz @ ry @ rx
    return rot, [rz @ ry @ drx, rz @ dry @ rx, drz @ ry @ rx]


def predict_jacobian(mean: np.ndarray, v_body: np.ndarray, dt: float) -> np.ndarray:
    """State-transition Jacobian of the odometry integration, as ``predict`` builds it."""
    alpha, beta, gamma = np.asarray(mean, dtype=float)[3:].tolist()
    _, derivs = _euler_rotate(alpha, beta, gamma, np.asarray(v_body, dtype=float).tolist())
    return _transition_jacobian(derivs, dt)


def nees(state: EkfState, truth: np.ndarray) -> float:
    """Normalized estimation error squared against a true state vector."""
    err = state.mean - np.asarray(truth, dtype=float).reshape(STATE_DIM)
    err[3:] = wrap_angles(err[3:])
    return float(err @ np.linalg.solve(state.cov, err))


def pose_matrix(pose: Pose6D) -> np.ndarray:
    """The 4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation()
    m[:3, 3] = pose.t
    return m


def step_drone_numpy(
    truth: DroneTruth, cmd: VelocityCommand, dt: float, world: World
) -> DroneTruth:
    """``worldsim.step_drone`` on arrays: ``Pose6D.apply``, ``np.clip`` and ``from_euler``."""
    pos = truth.pose.apply(cmd.v_body * dt)
    pos = np.clip(pos, world.bounds_min, world.bounds_max)
    yaw = wrap_angle(truth.pose.euler[2] + cmd.yaw_rate * dt)
    return DroneTruth(Pose6D.from_euler(pos, [0.0, 0.0, yaw]))


# -- the array forms of the per-drone-tick kernels, as they were before
# the one-pass Pose6D constructor and the float glue


def quat_normalize_array(q: np.ndarray) -> np.ndarray:
    """``geom.quat_normalize`` before it shared ``Pose6D``'s float normalization."""
    q = np.asarray(q, dtype=float)
    norm = math.sqrt(q.dot(q))
    if not math.isfinite(norm) or norm < _QUAT_NORM_TOL:
        raise ValueError(f"cannot normalize quaternion with norm {norm!r}")
    w, x, y, z = q.tolist()
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    if w < 0.0:
        return np.array([-w, -x, -y, -z])
    return np.array([w, x, y, z])


def pose_arrays(t, q) -> tuple[np.ndarray, np.ndarray]:
    """``(t, q)`` as ``Pose6D.__post_init__`` stored them, rejections included."""
    t = np.array(t, dtype=float).reshape(3)
    if not all(map(math.isfinite, t.tolist())):
        raise ValueError(f"non-finite translation {t}")
    return t, quat_normalize_array(np.asarray(q, dtype=float).reshape(4))


def sense_markers_every_marker(truth, world, cam, noise, rng):
    """``sense_markers`` on every marker, in id order, with no cull.

    The camera pose is ``truth.pose.compose(cam.extrinsics).inverse()``, two
    ``Pose6D`` objects. Each marker reaches the camera frame as ``apply`` of
    its position and the raw product of the two quaternions, which is what
    the composition computes before it normalizes. The noise is two draws
    of three, added on arrays.
    """
    world_in_cam = truth.pose.compose(cam.extrinsics).inverse()
    cos_fov = math.cos(cam.fov_half_angle)
    out = []
    for marker_id in sorted(world.markers):
        marker = world.markers[marker_id]
        t = world_in_cam.apply(marker.t)
        q = np.array(_multiply(world_in_cam.q.tolist(), marker.q.tolist()))
        dist = norm3(t)
        if dist <= 0.0 or dist > cam.max_range:
            continue
        if t[2] < dist * cos_fov:
            continue
        if noise.dropout > 0.0 and rng.uniform() < noise.dropout:
            continue
        sigma_p = noise.pos_sigma(dist)
        sigma_a = noise.ang_sigma(dist)
        if sigma_p > 0.0 or sigma_a > 0.0:
            t = t + sigma_p * rng.standard_normal(3)
            euler = wrap_angles(quat_to_euler(q) + sigma_a * rng.standard_normal(3))
            rel = Pose6D.from_euler(t, euler)
        else:
            rel = Pose6D(t, q)
        out.append(MarkerDetection(marker_id, cam.name, rel))
    return out


def norm3(v) -> float:
    """Euclidean norm as a sequential float sum of squares."""
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def sense_odometry_array(prev: DroneTruth, curr: DroneTruth, dt, noise, rng) -> OdometryReading:
    """``worldsim.sense_odometry`` on arrays, with two draws of three."""
    delta = curr.pose.t - prev.pose.t
    v_body = prev.pose.rotation().T @ delta / dt
    rates = wrap_angles(np.subtract(curr.euler, prev.euler)) / dt
    if noise.odom_vel_sigma > 0.0 or noise.odom_rate_sigma > 0.0:
        v_body = v_body + noise.odom_vel_sigma * rng.standard_normal(3)
        rates = rates + noise.odom_rate_sigma * rng.standard_normal(3)
    return OdometryReading(dt=dt, v_body=v_body, euler_rates=rates)


def transition_jacobian_array(derivs, dt: float) -> np.ndarray:
    """``ekf._transition_jacobian`` from the array of the three derivatives."""
    jac = np.eye(STATE_DIM)
    jac[:3, 3:] = np.array(derivs).T * dt
    return jac


def detection_noise_array(det, config) -> np.ndarray:
    """``ekf.detection_noise`` through ``np.diag`` of a list."""
    distance = norm3(det.rel_pose.t)
    sigma_p = config.det_pos_base + config.det_pos_per_m * distance
    sigma_a = config.det_ang_base + config.det_ang_per_m * distance
    return np.diag([sigma_p**2] * 3 + [sigma_a**2] * 3)


def innovation_array(state, obs) -> np.ndarray:
    """``ekf.innovation`` with the angles wrapped by ``wrap_angles``."""
    diff = obs.vector - state.mean
    diff[3:] = wrap_angles(diff[3:])
    return diff


def update_array(state, obs, config) -> tuple[EkfState, bool]:
    """``ekf.update`` with array wraps and a fresh identity."""
    y = innovation_array(state, obs)
    p = state.cov
    s = symmetrize(p + obs.cov)
    rhs = np.empty((STATE_DIM, STATE_DIM + 1))
    rhs[:, 0] = y
    rhs[:, 1:] = p
    sol = np.linalg.solve(s, rhs)
    if config.gate_enabled and float(y @ sol[:, 0]) > GATE_THRESHOLD:
        return state, False
    gain = sol[:, 1:].T
    mean = state.mean + gain @ y
    mean[3:] = wrap_angles(mean[3:])
    a = np.eye(STATE_DIM) - gain
    cov = a @ p @ a.T + gain @ obs.cov @ gain.T
    return EkfState(mean, symmetrize(cov), state.frame), True


def ba_arrays(problem, cameras, config) -> dict[str, np.ndarray]:
    """``BaProblem``'s per-observation arrays, built one observation at a time."""
    dets = [d for _, d in problem.observations]
    extrinsics = [cameras[d.camera].extrinsics for d in dets]
    return {
        "_cam_rot": np.array([e.rotation() for e in extrinsics]),
        "_cam_t": np.array([e.t for e in extrinsics]),
        "_obs_t": np.array([d.rel_pose.t for d in dets]),
        "_obs_euler": np.array([d.rel_pose.euler for d in dets]),
        "_sigma": np.sqrt([np.diag(detection_noise_array(d, config)) for d in dets]),
    }


def ba_initial_vector(problem) -> np.ndarray:
    """``BaProblem.initial_vector`` as one ``to_vector`` per pose, concatenated."""
    parts = [kp.pose.to_vector() for kp in problem.keyposes[1:]]
    parts += [problem.marker_init[m].to_vector() for m in problem.marker_ids]
    return np.concatenate(parts)


def from_vector_array(vec) -> tuple[np.ndarray, np.ndarray]:
    """``(t, q)`` of ``Pose6D.from_vector``, through slices and ``from_euler``'s arrays."""
    vec = np.asarray(vec, dtype=float).reshape(6)
    euler = np.asarray(vec[3:], dtype=float).reshape(3)
    return pose_arrays(np.asarray(vec[:3], dtype=float), _euler_quat(*euler.tolist()))


def choose_destination_array(policy, pose: Pose6D) -> VelocityCommand:
    """``SweepPolicy.choose_destination`` with a (distance, index) key and array arithmetic."""
    position = pose.t
    d = policy.cells - position
    distances = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel()).tolist()
    for index, distance in enumerate(distances):
        if index not in policy.visited and distance <= policy.config.r_visit:
            policy.visited.add(index)
    while True:
        if len(policy.visited) == len(policy.cells):
            policy.visited.clear()
        best = min(
            (i for i in range(len(policy.cells)) if i not in policy.visited),
            key=lambda i: (distances[i], i),
        )
        if best != policy._target:
            policy._target = best
            policy._best_distance = float("inf")
            policy._no_progress = 0
        distance = distances[best]
        if distance < policy._best_distance - PROGRESS_EPS:
            policy._best_distance = distance
            policy._no_progress = 0
            break
        policy._no_progress += 1
        if policy._no_progress < STALL_LIMIT:
            break
        policy.visited.add(best)
        policy._target = None
    delta = policy.cells[best] - position
    if distance < 1e-9:
        return VelocityCommand(np.zeros(3))
    speed = min(policy.config.speed, distance)
    v_world = delta / distance * speed
    return VelocityCommand(pose.rotation().T @ v_world)
