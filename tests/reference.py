"""Reference forms the tests compare the package against.

None of these runs in a scenario. ``predict_jacobian`` is built from the
live kernels ``predict`` runs (``_euler_rotate`` and
``_transition_jacobian``), so a test of it checks them; the others are
matrix forms written without the float kernels.
"""

import math

import numpy as np

from markerswarm.ekf import STATE_DIM, EkfState, _transition_jacobian
from markerswarm.geom import Pose6D, _euler_rotate, wrap_angle, wrap_angles
from markerswarm.worldsim import DroneTruth, VelocityCommand, World


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
