"""The per-detection float kernels against the pose and matrix forms they replaced.

``observation_from_marker``, ``predict``, ``update`` and ``sense_markers``
compute on Python floats, with no intermediate ``Pose6D``. Each is checked
here on 20 000 random inputs (pitch within 1.4 rad of level, away from the
Euler singularity) against a reference written with ``Pose6D`` algebra,
``euler_rot_derivatives`` and ``transport_covariance``. The kernels do
different roundings, so they agree to 1e-12, not bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from reference import euler_rot_derivatives, quat_to_euler, wrap_angles

from markerswarm.ekf import (
    GATE_THRESHOLD,
    EkfConfig,
    EkfState,
    PoseObservation,
    detection_noise,
    innovation,
    observation_from_marker,
    predict,
    update,
)
from markerswarm.geom import (
    Pose6D,
    _euler_rotate,
    symmetrize,
    transport_covariance,
)
from markerswarm.worldsim import (
    CAMERAS,
    MARKER_ID_MAX,
    DroneTruth,
    MarkerDetection,
    SensorNoise,
    World,
    drone_rng,
    sense_markers,
)

CASES = 20_000
TOL = 1e-12
MAX_PITCH = 1.4
# ids named after the rig functions the table replaced
RIGS = pytest.mark.parametrize(
    "cam", [CAMERAS["down"], CAMERAS["forward"]], ids=["downward_camera", "forward_camera"]
)


def random_euler(rng, n):
    return rng.uniform([-math.pi, -MAX_PITCH, -math.pi], [math.pi, MAX_PITCH, math.pi], (n, 3))


def random_cov(rng, scale):
    a = rng.standard_normal((6, 6)) * scale
    return a @ a.T + scale**2 * np.eye(6)


def vector_error(got, want):
    diff = np.asarray(got, dtype=float) - np.asarray(want, dtype=float)
    diff[3:] = wrap_angles(diff[3:])
    return float(np.max(np.abs(diff)))


# -- references: the pose and matrix forms the kernels replaced


def reference_observation(det, entry, cam, config):
    pose = entry.pose.compose(det.rel_pose.inverse()).compose(cam.inverse_extrinsics)
    cov = transport_covariance(detection_noise(det, config), pose.rotation()) + entry.cov
    return pose.to_vector(), symmetrize(cov)


def reference_predict(state, odo, config):
    dt = float(odo.dt)
    rot, derivs = euler_rot_derivatives(state.mean[3:])
    mean = state.mean.copy()
    mean[:3] = mean[:3] + rot @ odo.v_body * dt
    mean[3:] = wrap_angles(mean[3:] + odo.euler_rates * dt)
    jac = np.eye(6)
    for k in range(3):
        jac[:3, 3 + k] = derivs[k] @ odo.v_body * dt
    return mean, symmetrize(jac @ state.cov @ jac.T + config.process_noise * dt)


def reference_update(state, obs):
    y = innovation(state, obs)
    s = symmetrize(state.cov + obs.cov)
    nis = float(y @ np.linalg.solve(s, y))
    gain = np.linalg.solve(s, state.cov).T
    mean = state.mean + gain @ y
    mean[3:] = wrap_angles(mean[3:])
    ident = np.eye(6)
    cov = (ident - gain) @ state.cov @ (ident - gain).T + gain @ obs.cov @ gain.T
    return nis, mean, symmetrize(cov)


def reference_sense_markers(truth, world, cam, noise, rng):
    """``sense_markers`` with ``Pose6D`` algebra on every marker, no cull."""
    world_in_cam = truth.pose.compose(cam.extrinsics).inverse()
    cos_fov = math.cos(cam.fov_half_angle)
    out = []
    for marker_id in sorted(world.markers):
        rel = world_in_cam.compose(world.markers[marker_id])
        dist = float(np.linalg.norm(rel.t))
        if dist <= 0.0 or dist > cam.max_range or rel.t[2] < dist * cos_fov:
            continue
        if noise.dropout > 0.0 and rng.uniform() < noise.dropout:
            continue
        t = rel.t + noise.pos_sigma(dist) * rng.standard_normal(3)
        euler = wrap_angles(quat_to_euler(rel.q) + noise.ang_sigma(dist) * rng.standard_normal(3))
        rel = Pose6D.from_euler(t, euler)
        out.append((marker_id, rel, float(np.linalg.norm(rel.t))))
    return out


# -- the kernels


def test_euler_rotate_matches_rotation_derivatives():
    rng = np.random.default_rng(1501)
    worst = 0.0
    for euler, v in zip(random_euler(rng, CASES), rng.uniform(-2.0, 2.0, (CASES, 3))):
        rv, derivs = _euler_rotate(*euler.tolist(), v.tolist())
        rot, want = euler_rot_derivatives(euler)
        worst = max(worst, float(np.max(np.abs(np.array(rv) - rot @ v))))
        for got, d_rot in zip(derivs, want):
            worst = max(worst, float(np.max(np.abs(np.array(got) - d_rot @ v))))
    assert worst < TOL, worst


@RIGS
def test_observation_from_marker_matches_pose_composition(cam):
    cfg = EkfConfig()
    rng = np.random.default_rng(1502)
    drones, rels = random_euler(rng, CASES), random_euler(rng, CASES)
    worst_vector = worst_cov = 0.0
    for drone_euler, rel_euler in zip(drones, rels):
        drone = Pose6D.from_euler(rng.uniform(-5.0, 5.0, 3), drone_euler)
        rel = Pose6D.from_euler(rng.uniform(-3.0, 3.0, 3), rel_euler)
        entry = drone.compose(cam.extrinsics).compose(rel)
        det = MarkerDetection(7, cam.name, rel)
        record = SimpleNamespace(pose=entry, cov=random_cov(rng, 0.01))
        obs = observation_from_marker(det, record, cam, cfg)
        want_vector, want_cov = reference_observation(det, record, cam, cfg)
        worst_vector = max(worst_vector, vector_error(obs.vector, want_vector))
        worst_cov = max(worst_cov, float(np.max(np.abs(obs.cov - want_cov))))
    assert worst_vector < TOL, worst_vector
    assert worst_cov < TOL, worst_cov


def test_predict_matches_matrix_form():
    cfg = EkfConfig()
    rng = np.random.default_rng(1503)
    worst_mean = worst_cov = 0.0
    for euler in random_euler(rng, CASES):
        mean = np.concatenate([rng.uniform(-5.0, 5.0, 3), euler])
        state = EkfState(mean, random_cov(rng, 0.05), 0)
        odo = SimpleNamespace(
            dt=float(rng.uniform(0.01, 0.5)),
            v_body=rng.uniform(-1.0, 1.0, 3),
            euler_rates=rng.uniform(-0.5, 0.5, 3),
        )
        got = predict(state, odo, cfg)
        want_mean, want_cov = reference_predict(state, odo, cfg)
        worst_mean = max(worst_mean, vector_error(got.mean, want_mean))
        worst_cov = max(worst_cov, float(np.max(np.abs(got.cov - want_cov))))
    assert worst_mean < TOL, worst_mean
    assert worst_cov < TOL, worst_cov


def test_update_matches_two_solve_form():
    cfg = EkfConfig(gate_enabled=False)
    gated = EkfConfig(gate_enabled=True)
    rng = np.random.default_rng(1504)
    worst = 0.0
    same_gate = 0
    for euler in random_euler(rng, CASES):
        mean = np.concatenate([rng.uniform(-5.0, 5.0, 3), euler])
        state = EkfState(mean, random_cov(rng, 0.1), 0)
        vector = state.mean + rng.standard_normal(6) * 0.2
        obs = PoseObservation(vector, random_cov(rng, 0.05))
        nis, want_mean, want_cov = reference_update(state, obs)
        got, accepted = update(state, obs, cfg)
        assert accepted
        worst = max(worst, vector_error(got.mean, want_mean))
        worst = max(worst, float(np.max(np.abs(got.cov - want_cov))))
        _, accepted = update(state, obs, gated)
        same_gate += accepted == (nis <= GATE_THRESHOLD)
    assert worst < TOL, worst
    assert same_gate == CASES


@RIGS
def test_sense_markers_matches_pose_composition(cam):
    noise = SensorNoise(dropout=0.2)
    rng = np.random.default_rng(1505)
    count = MARKER_ID_MAX + 1
    points = rng.uniform([-4.0, -4.0, 0.0], [4.0, 4.0, 4.0], (count, 3))
    markers = {
        marker_id: Pose6D.from_euler(point, euler)
        for marker_id, (point, euler) in enumerate(zip(points, random_euler(rng, count)))
    }
    world = World(markers, np.array([-5.0, -5.0, 0.0]), np.array([5.0, 5.0, 5.0]))
    detected = 0
    worst = 0.0
    for trial in range(CASES // 100):
        position = rng.uniform([-3.0, -3.0, 0.5], [3.0, 3.0, 3.5])
        euler = rng.uniform([-0.3, -0.3, -math.pi], [0.3, 0.3, math.pi])
        truth = DroneTruth(Pose6D.from_euler(position, euler))
        rng_got, rng_want = drone_rng(trial, 0), drone_rng(trial, 0)
        got = sense_markers(truth, world, cam, noise, rng_got)
        want = reference_sense_markers(truth, world, cam, noise, rng_want)
        assert [d.marker_id for d in got] == [marker_id for marker_id, _, _ in want]
        np.testing.assert_equal(rng_got.bit_generator.state, rng_want.bit_generator.state)
        for det, (_, rel, dist) in zip(got, want):
            worst = max(worst, vector_error(det.rel_pose.to_vector(), rel.to_vector()))
            worst = max(worst, abs(float(np.linalg.norm(det.rel_pose.t)) - dist))
        detected += len(got)
    assert detected > CASES // 2
    assert worst < TOL, worst
