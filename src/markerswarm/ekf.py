"""Per-drone extended Kalman filter over the 6-DOF pose.

State vector (x, y, z, alpha, beta, gamma): position plus roll/pitch/yaw in
the drone's coordinate frame. A state is its mean, covariance and frame;
it keeps no clock, since the tick that steps it knows the time.
Prediction integrates body-frame odometry; corrections come from
detections of markers whose map pose is already known, treated as direct
pose observations (H = identity). Per-axis measurement errors are modeled
as independent, so detection noise is a strictly positive diagonal that
grows linearly with range.

That diagonal is isotropic in blocks: ``sigma_p^2 I`` on the position and
``sigma_a^2 I`` on the angles. A detection is measured in the camera
frame, but an isotropic block is the same in every frame, since
``R (s^2 I) R^T = s^2 R R^T = s^2 I`` for any rotation ``R``. So the noise
adds to the map entry's covariance as it is, with no rotation into the
drone's frame.

Multiple detections in one tick are applied as sequential updates in
detection order. An update whose normalized innovation squared exceeds
GATE_THRESHOLD, the chi-square 0.999 quantile with 6 degrees of freedom,
is rejected. A scenario sets only the detection noise, through its noise
block; the process noise and the ungated mode are set in code only, as
acceptance criterion 2 and the filter tests set them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from markerswarm.geom import (
    Pose6D,
    _compose,
    _euler_rotate,
    _inverse,
    _quat_euler,
    symmetrize,
    transport_covariance,
    wrap_angle,
)
from markerswarm.worldsim import CameraParams, MarkerDetection, OdometryReading

STATE_DIM = 6
_EYE = np.eye(STATE_DIM)
_EYE.setflags(write=False)
# the 0.999 quantile of chi-square with 6 degrees of freedom, the innovation
# gate on the Mahalanobis distance (scipy's chi2.ppf(0.999, 6) is one ulp lower)
GATE_THRESHOLD = 22.457744484825326


@dataclass(frozen=True)
class EkfConfig:
    # continuous-time diagonal process noise, per second
    q_pos: float = 2.5e-3  # m^2 / s
    q_ang: float = 4.0e-4  # rad^2 / s
    # assumed detection noise, sigma = base + per_m * range
    det_pos_base: float = 0.02
    det_pos_per_m: float = 0.01
    det_ang_base: float = 0.01
    det_ang_per_m: float = 0.005
    # innovation gate at GATE_THRESHOLD; the ungated paper-faithful mode is
    # set in code only (acceptance criterion 2 runs it)
    gate_enabled: bool = True

    @cached_property
    def process_noise(self) -> np.ndarray:
        q = np.diag([self.q_pos] * 3 + [self.q_ang] * 3).astype(float)
        q.flags.writeable = False
        return q


@dataclass(frozen=True)
class EkfState:
    mean: np.ndarray  # (6,)
    cov: np.ndarray  # (6, 6)
    frame: int

    def __post_init__(self) -> None:
        mean, cov = _frozen_copies(self.mean, self.cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @cached_property
    def pose(self) -> Pose6D:
        return Pose6D.from_vector(self.mean)

    @staticmethod
    def from_pose(pose: Pose6D, cov: np.ndarray, frame: int) -> "EkfState":
        return EkfState(pose.to_vector(), cov, frame)


@dataclass(frozen=True)
class PoseObservation:
    """Direct observation of the state vector, derived from one marker detection."""

    vector: np.ndarray  # (x, y, z, alpha, beta, gamma)
    cov: np.ndarray

    def __post_init__(self) -> None:
        vector, cov = _frozen_copies(self.vector, self.cov)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "cov", cov)


def _frozen_copies(vector, cov) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float copies of a state vector and its covariance, shapes checked."""
    vector = np.array(vector, dtype=float)
    if vector.shape != (STATE_DIM,):
        vector = vector.reshape(STATE_DIM)
    cov = np.array(cov, dtype=float)
    if cov.shape != (STATE_DIM, STATE_DIM):
        cov = cov.reshape(STATE_DIM, STATE_DIM)
    vector.setflags(write=False)
    cov.setflags(write=False)
    return vector, cov


def _transition_jacobian(derivs, dt: float) -> np.ndarray:
    (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = derivs
    jac = _EYE.copy()
    # column 3 + k is d(R v)/d angle k, times dt
    jac[:3, 3:] = (
        (a0 * dt, b0 * dt, g0 * dt),
        (a1 * dt, b1 * dt, g1 * dt),
        (a2 * dt, b2 * dt, g2 * dt),
    )
    return jac


def predict(state: EkfState, odo: OdometryReading, config: EkfConfig) -> EkfState:
    """Integrate one odometry reading; covariance grows by F P F^T + Q dt."""
    v_body = odo.v_body.tolist()
    rates = odo.euler_rates.tolist()
    dt = float(odo.dt)
    if not (all(map(math.isfinite, [*v_body, *rates, dt])) and dt > 0.0):
        raise ValueError(f"non-finite or non-positive odometry {odo}")
    x, y, z, alpha, beta, gamma = state.mean.tolist()
    (rx, ry, rz), derivs = _euler_rotate(alpha, beta, gamma, v_body)
    rate_a, rate_b, rate_g = rates
    mean = (
        x + rx * dt,
        y + ry * dt,
        z + rz * dt,
        wrap_angle(alpha + rate_a * dt),
        wrap_angle(beta + rate_b * dt),
        wrap_angle(gamma + rate_g * dt),
    )
    jac = _transition_jacobian(derivs, dt)
    cov = symmetrize(jac @ state.cov @ jac.T + config.process_noise * dt)
    return EkfState(mean, cov, state.frame)


def detection_variances(det: MarkerDetection, config: EkfConfig) -> tuple[float, float]:
    """Position and angle variance of one detection at its range |rel_pose.t|, per axis."""
    x, y, z = det.rel_pose.t.tolist()
    distance = math.sqrt(x * x + y * y + z * z)  # as sense_markers measures it
    sigma_p = config.det_pos_base + config.det_pos_per_m * distance
    sigma_a = config.det_ang_base + config.det_ang_per_m * distance
    if sigma_p <= 0.0 or sigma_a <= 0.0:
        raise ValueError(f"detection noise must be strictly positive, got {sigma_p}, {sigma_a}")
    return sigma_p**2, sigma_a**2


def detection_noise(det: MarkerDetection, config: EkfConfig) -> np.ndarray:
    """Diagonal measurement covariance for one detection at its range."""
    var_p, var_a = detection_variances(det, config)
    noise = np.zeros((STATE_DIM, STATE_DIM))
    noise.flat[:: STATE_DIM + 1] = (var_p, var_p, var_p, var_a, var_a, var_a)
    return noise


def observation_from_marker(
    det: MarkerDetection, entry, cam: CameraParams, config: EkfConfig
) -> PoseObservation:
    """Invert a detection of a known marker into a drone-pose observation.

    ``entry`` is the marker's map record (``pose`` and ``cov`` in the
    drone's frame). The observed pose is ``entry * rel^-1 * cam^-1``,
    composed on floats straight to the state vector. The detection noise
    adds to the map uncertainty as it is: see the module docstring for why
    it needs no rotation into the frame.
    """
    marker, rel, cam_inv = entry.pose, det.rel_pose, cam.inverse_extrinsics
    t, q = _compose(marker.t.tolist(), marker.q.tolist(), *_inverse(rel.t.tolist(), rel.q.tolist()))
    t, q = _compose(t, q, cam_inv.t.tolist(), cam_inv.q.tolist())
    return PoseObservation(
        vector=(*t, *_quat_euler(q)),
        cov=entry.cov + detection_noise(det, config),
    )


def innovation(state: EkfState, obs: PoseObservation) -> np.ndarray:
    x, y, z, alpha, beta, gamma = (obs.vector - state.mean).tolist()
    # wrap_angle per angle: the IEEE operations wrap_angles runs elementwise
    return np.array((x, y, z, wrap_angle(alpha), wrap_angle(beta), wrap_angle(gamma)))


def update(state: EkfState, obs: PoseObservation, config: EkfConfig) -> tuple[EkfState, bool]:
    """One measurement update; returns (state, accepted).

    The observation is rejected (state returned unchanged) when its
    Mahalanobis distance exceeds GATE_THRESHOLD and the gate is enabled.
    """
    y = innovation(state, obs)
    p = state.cov
    s = symmetrize(p + obs.cov)
    # one factorization for both right-hand sides: S^-1 y and S^-1 P
    rhs = np.empty((STATE_DIM, STATE_DIM + 1))
    rhs[:, 0] = y
    rhs[:, 1:] = p
    sol = np.linalg.solve(s, rhs)
    if config.gate_enabled and float(y @ sol[:, 0]) > GATE_THRESHOLD:
        return state, False
    gain = sol[:, 1:].T  # P S^-1, via symmetric S
    px, py, pz, alpha, beta, gamma = (state.mean + gain @ y).tolist()
    mean = (px, py, pz, wrap_angle(alpha), wrap_angle(beta), wrap_angle(gamma))  # as in innovation
    # Joseph form keeps the posterior symmetric PSD under roundoff
    a = _EYE - gain
    cov = a @ p @ a.T + gain @ obs.cov @ gain.T
    return EkfState(mean, symmetrize(cov), state.frame), True


def remap_frame(state: EkfState, rt: Pose6D, new_frame: int) -> EkfState:
    """Re-express the state in another frame after a merge (rt: old -> new)."""
    pose = rt.compose(state.pose)
    cov = transport_covariance(state.cov, rt.rotation())
    return EkfState(pose.to_vector(), cov, new_frame)
