"""Filter contracts: Jacobians vs. finite differences, gating, consistency."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2

from reference import (
    detection_noise_array,
    innovation_array,
    nees,
    predict_jacobian,
    transition_jacobian_array,
    update_array,
    wrap_angles,
)

from markerswarm.ekf import (
    GATE_THRESHOLD,
    EkfConfig,
    EkfState,
    PoseObservation,
    _transition_jacobian,
    detection_noise,
    innovation,
    observation_from_marker,
    predict,
    remap_frame,
    update,
)
from markerswarm.geom import Pose6D, _euler_rotate
from markerswarm.worldsim import (
    CAMERAS,
    DroneTruth,
    MarkerDetection,
    SensorNoise,
    VelocityCommand,
    World,
    drone_rng,
    sense_markers,
    sense_odometry,
    step_drone,
)

NO_NOISE = SensorNoise(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def make_state(mean=None, cov=None, frame=0):
    mean = np.zeros(6) if mean is None else np.asarray(mean, dtype=float)
    cov = np.eye(6) if cov is None else np.asarray(cov, dtype=float)
    return EkfState(mean, cov, frame)


def make_detection(rel_pose, marker_id=0, camera="down"):
    return MarkerDetection(marker_id, camera, rel_pose)


def odometry(v, rates, dt=0.1):
    return SimpleNamespace(
        dt=dt,
        v_body=np.asarray(v, dtype=float),
        euler_rates=np.asarray(rates, dtype=float),
    )


class TestPredict:
    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(12)
        cfg = EkfConfig()
        h = 1e-6
        for _ in range(50):
            mean = np.concatenate(
                [rng.uniform(-3, 3, size=3),
                 [rng.uniform(-2.5, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5)]]
            )
            v = rng.uniform(-1, 1, size=3)
            rates = rng.uniform(-0.5, 0.5, size=3)
            dt = 0.1
            jac = predict_jacobian(mean, v, dt)

            def mean_map(x):
                st = make_state(mean=x, cov=np.eye(6))
                out = predict(st, odometry(v, rates, dt), cfg)
                return out.mean

            fd = np.zeros((6, 6))
            for k in range(6):
                xp, xm = mean.copy(), mean.copy()
                xp[k] += h
                xm[k] -= h
                diff = mean_map(xp) - mean_map(xm)
                diff[3:] = wrap_angles(diff[3:])
                fd[:, k] = diff / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-6

    def test_mean_integration_matches_truth_stepper(self):
        world = World({}, np.array([-50.0, -50, -50]), np.array([50.0, 50, 50]))
        cfg = EkfConfig()
        truth = DroneTruth(Pose6D.from_euler([1.0, 2.0, 1.5], [0, 0, 0.6]))
        state = EkfState.from_pose(truth.pose, np.zeros((6, 6)), 0)
        rng = drone_rng(0, 0)
        for k in range(100):
            cmd = VelocityCommand([0.3, -0.1, 0.05], yaw_rate=0.2)
            moved = step_drone(truth, cmd, 0.1, world)
            odo = sense_odometry(truth, moved, 0.1, NO_NOISE, rng)
            state = predict(state, odo, cfg)
            truth = moved
        err = state.mean - truth.pose.to_vector()
        err[3:] = wrap_angles(err[3:])
        assert np.max(np.abs(err)) < 1e-9

    def test_covariance_never_shrinks(self):
        cfg = EkfConfig()
        state = make_state(cov=np.diag([0.01] * 6))
        for _ in range(20):
            new = predict(state, odometry([0.5, 0.2, 0.0], [0, 0, 0.3]), cfg)
            assert np.trace(new.cov) >= np.trace(state.cov)
            state = new

    def test_rejects_non_finite_odometry(self):
        cfg = EkfConfig()
        with pytest.raises(ValueError):
            predict(make_state(), odometry([np.nan, 0, 0], [0, 0, 0]), cfg)
        with pytest.raises(ValueError):
            predict(make_state(), odometry([0, 0, 0], [0, 0, np.inf]), cfg)
        with pytest.raises(ValueError):
            predict(make_state(), odometry([0, 0, 0], [0, 0, 0], dt=0.0), cfg)


class TestDetectionNoise:
    def test_strictly_positive_diagonal_zero_elsewhere(self):
        cfg = EkfConfig()
        det = make_detection(Pose6D.from_euler([0, 0, 2.0], [0, 0, 0]))
        cov = detection_noise(det, cfg)
        assert np.all(np.diag(cov) > 0)
        assert np.max(np.abs(cov - np.diag(np.diag(cov)))) == 0.0

    def test_grows_linearly_with_range(self):
        cfg = EkfConfig(det_pos_base=0.02, det_pos_per_m=0.01, det_ang_base=0.01, det_ang_per_m=0.005)
        near = detection_noise(make_detection(Pose6D.from_euler([0, 0, 1.0], [0, 0, 0])), cfg)
        far = detection_noise(make_detection(Pose6D.from_euler([0, 0, 3.0], [0, 0, 0])), cfg)
        assert near[0, 0] == pytest.approx(0.03**2)
        assert far[0, 0] == pytest.approx(0.05**2)
        assert near[3, 3] == pytest.approx(0.015**2)
        assert far[3, 3] == pytest.approx(0.025**2)

    def test_zero_config_rejected(self):
        cfg = EkfConfig(det_pos_base=0.0, det_pos_per_m=0.0)
        with pytest.raises(ValueError):
            detection_noise(make_detection(Pose6D.from_euler([0, 0, 1.0], [0, 0, 0])), cfg)


class TestObservationFromMarker:
    def test_recovers_drone_pose_from_exact_detection(self):
        rng = np.random.default_rng(77)
        cfg = EkfConfig()
        for cam in CAMERAS.values():
            for _ in range(50):
                truth = Pose6D.from_euler(rng.uniform(-3, 3, 3), [0, 0, rng.uniform(-3, 3)])
                marker = Pose6D.from_euler(
                    rng.uniform(-3, 3, 3), rng.uniform(-1.2, 1.2, 3)
                )
                rel = truth.compose(cam.extrinsics).inverse().compose(marker)
                det = make_detection(rel, camera=cam.name)
                entry = SimpleNamespace(pose=marker, cov=np.zeros((6, 6)))
                obs = observation_from_marker(det, entry, cam, cfg)
                assert np.max(np.abs(obs.vector[:3] - truth.t)) < 1e-9
                assert np.max(np.abs(wrap_angles(obs.vector[3:] - truth.euler))) < 1e-9

    def test_zero_entry_cov_identity_rotation_gives_detection_noise(self):
        cfg = EkfConfig()
        cam = CAMERAS["down"]
        # marker placed so the recovered drone pose has identity rotation
        marker = Pose6D.from_euler([0.0, 0.0, 0.0], [math.pi, 0.0, 0.0])
        truth = Pose6D.from_euler([0.0, 0.0, 1.5], [0.0, 0.0, 0.0])
        rel = truth.compose(cam.extrinsics).inverse().compose(marker)
        det = make_detection(rel, camera=cam.name)
        entry = SimpleNamespace(pose=marker, cov=np.zeros((6, 6)))
        obs = observation_from_marker(det, entry, cam, cfg)
        assert np.max(np.abs(wrap_angles(obs.vector[3:]))) < 1e-12
        assert np.max(np.abs(obs.cov - detection_noise(det, cfg))) < 1e-15

    def test_trace_is_additive_in_map_uncertainty(self):
        cfg = EkfConfig()
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.3, -0.2, 0.0], [0.2, 0.1, 1.0])
        truth = Pose6D.from_euler([0.1, 0.2, 1.4], [0, 0, -0.8])
        rel = truth.compose(cam.extrinsics).inverse().compose(marker)
        det = make_detection(rel, camera=cam.name)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        entry_cov = a @ a.T
        obs = observation_from_marker(det, SimpleNamespace(pose=marker, cov=entry_cov), cam, cfg)
        want = np.trace(detection_noise(det, cfg)) + np.trace(entry_cov)
        assert abs(np.trace(obs.cov) - want) < 1e-12 * max(1.0, want)


class TestUpdate:
    def test_scalar_sanity_halves_variance(self):
        # prior mean 0 var 1, observation mean 1 var 1 -> posterior (0.5, 0.5)
        cfg = EkfConfig(gate_enabled=False)
        state = make_state(mean=np.zeros(6), cov=np.eye(6))
        obs = PoseObservation(vector=[1.0, 0, 0, 0, 0, 0], cov=np.eye(6))
        new, accepted = update(state, obs, cfg)
        assert accepted
        assert new.mean[0] == pytest.approx(0.5, abs=1e-12)
        assert new.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_posterior_trace_never_exceeds_prior(self):
        rng = np.random.default_rng(31)
        cfg = EkfConfig(gate_enabled=False)
        for _ in range(100):
            a = rng.standard_normal((6, 6))
            p = a @ a.T + 0.1 * np.eye(6)
            b = rng.standard_normal((6, 6))
            r = b @ b.T + 0.1 * np.eye(6)
            state = make_state(mean=rng.uniform(-1, 1, 6) * 0.1, cov=p)
            obs = PoseObservation(rng.uniform(-1, 1, 6) * 0.1, r)
            new, _ = update(state, obs, cfg)
            assert np.trace(new.cov) <= np.trace(state.cov) + 1e-12
            assert np.max(np.abs(new.cov - new.cov.T)) < 1e-12

    def test_gate_rejects_wild_observation(self):
        cfg = EkfConfig(gate_enabled=True)
        state = make_state(cov=1e-4 * np.eye(6))
        wild = PoseObservation([5.0, 0, 0, 0, 0, 0], 1e-4 * np.eye(6))
        new, accepted = update(state, wild, cfg)
        assert not accepted
        assert new is state

    def test_gate_disabled_accepts_everything(self):
        cfg = EkfConfig(gate_enabled=False)
        state = make_state(cov=1e-4 * np.eye(6))
        wild = PoseObservation([5.0, 0, 0, 0, 0, 0], 1e-4 * np.eye(6))
        _, accepted = update(state, wild, cfg)
        assert accepted

    def test_gate_threshold_is_chi2_999_of_6dof(self):
        assert GATE_THRESHOLD == pytest.approx(22.457744, abs=1e-5)

    def test_gate_threshold_matches_scipy_quantile(self):
        assert GATE_THRESHOLD == pytest.approx(chi2.ppf(0.999, 6), rel=1e-15, abs=0.0)

    def test_innovation_wraps_angles(self):
        state = make_state(mean=[0, 0, 0, 0, 0, 3.1])
        obs = PoseObservation([0, 0, 0, 0, 0, -3.1], np.eye(6))
        y = innovation(state, obs)
        assert y[5] == pytest.approx(2 * math.pi - 6.2, abs=1e-12)


class TestStatePose:
    def test_pose_is_derived_once_and_bit_identical(self):
        state = make_state(mean=[0.5, -1.0, 1.2, 0.1, -0.2, 3.0])
        assert state.pose is state.pose
        want = Pose6D.from_vector(state.mean)
        assert np.array_equal(state.pose.t, want.t)
        assert np.array_equal(state.pose.q, want.q)

    def test_replaced_state_derives_its_own_pose(self):
        state = make_state(mean=[0.5, -1.0, 1.2, 0.1, -0.2, 3.0])
        first = state.pose
        # a step replaces a state by a new one, as predict and update build it
        moved = EkfState(np.array([2.0, 0.0, 1.0, 0.0, 0.0, -1.0]), state.cov, state.frame)
        assert moved.pose is not first
        assert np.array_equal(moved.pose.t, [2.0, 0.0, 1.0])
        assert np.array_equal(moved.pose.q, Pose6D.from_vector(moved.mean).q)
        assert state.pose is first


def seam_angles(rng, n):
    """Angles anywhere, a third of them at or within 1e-9 of 0 and +-pi, signed zeros included."""
    angles = rng.uniform(-math.pi, math.pi, n)
    edge = rng.random(n) < 1.0 / 3.0
    angles[edge] = rng.choice([0.0, -0.0, math.pi, -math.pi], int(edge.sum())) + rng.choice(
        [0.0, -1e-9, 1e-9], int(edge.sum())
    )
    return angles


def spd(rng, scale):
    a = rng.standard_normal((6, 6)) * scale
    return a @ a.T + scale**2 * np.eye(6)


class TestBitIdenticalToArrayForms:
    """The float glue of the filter against the array forms it replaced."""

    @pytest.mark.parametrize("gate_enabled", [True, False])
    def test_innovation_and_update(self, gate_enabled):
        cfg = EkfConfig(gate_enabled=gate_enabled)
        rng = np.random.default_rng(2027)
        accepted = 0
        for _ in range(4000):
            mean = np.concatenate([rng.uniform(-5.0, 5.0, 3), seam_angles(rng, 3)])
            vector = np.concatenate([mean[:3] + rng.standard_normal(3), seam_angles(rng, 3)])
            state = EkfState(mean, spd(rng, 0.3), 0)
            obs = PoseObservation(vector, spd(rng, 0.1))
            assert innovation(state, obs).tobytes() == innovation_array(state, obs).tobytes()
            got, got_accepted = update(state, obs, cfg)
            want, want_accepted = update_array(state, obs, cfg)
            assert got_accepted == want_accepted
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.cov.tobytes() == want.cov.tobytes()
            accepted += got_accepted
        # the gate rejects some and passes others
        assert 0 < accepted < 4000 if gate_enabled else accepted == 4000

    def test_transition_jacobian(self):
        rng = np.random.default_rng(2028)
        for _ in range(4000):
            euler = [*seam_angles(rng, 1), *rng.uniform(-1.5, 1.5, 1), *seam_angles(rng, 1)]
            v = (rng.standard_normal(3) * rng.choice([0.0, 1.0], 3)).tolist()  # signed zeros
            _, derivs = _euler_rotate(*euler, v)
            dt = float(rng.uniform(0.01, 0.5))
            got, want = _transition_jacobian(derivs, dt), transition_jacobian_array(derivs, dt)
            assert got.tobytes() == want.tobytes()

    def test_detection_noise(self):
        rng = np.random.default_rng(2029)
        cfg = EkfConfig()
        for distance in [0.0, *rng.uniform(0.0, 10.0, 1000)]:
            direction = rng.standard_normal(3)
            t = distance * direction / np.linalg.norm(direction)  # a range of about distance
            det = make_detection(Pose6D(t, [1.0, 0.0, 0.0, 0.0]))
            assert detection_noise(det, cfg).tobytes() == detection_noise_array(det, cfg).tobytes()


class TestRemapFrame:
    def test_pose_composes_and_covariance_transports(self):
        rt = Pose6D.from_euler([1.0, -2.0, 0.5], [0, 0, 1.2])
        state = make_state(mean=[0.5, 0.5, 1.0, 0, 0, 0.3], cov=np.diag([0.1] * 3 + [0.01] * 3))
        out = remap_frame(state, rt, new_frame=7)
        assert out.frame == 7
        want = rt.compose(state.pose)
        assert np.max(np.abs(out.pose.t - want.t)) < 1e-12
        assert abs(np.trace(out.cov) - np.trace(state.cov)) < 1e-12


class TestZeroNoiseTracking:
    def test_locks_to_truth_after_first_marker_update(self):
        # offset initial belief, wide prior, near-exact measurements of a
        # perfectly known marker: the first update must snap to truth
        world = World(
            {0: Pose6D.from_euler([0.5, 0.5, 0.0], [0, 0, 0])},
            np.array([-5.0, -5, 0]),
            np.array([5.0, 5, 3]),
        )
        cam = CAMERAS["down"]
        cfg = EkfConfig(
            q_pos=1e-8, q_ang=1e-8,
            det_pos_base=1e-4, det_pos_per_m=0.0,
            det_ang_base=1e-4, det_ang_per_m=0.0,
        )
        truth = DroneTruth(Pose6D.from_euler([0.4, 0.6, 1.5], [0, 0, 0.2]))
        offset_mean = truth.pose.to_vector() + np.array([0.3, -0.2, 0.1, 0, 0, 0.05])
        state = EkfState(offset_mean, np.eye(6), 0)
        entry = SimpleNamespace(pose=world.markers[0], cov=np.zeros((6, 6)))
        rng = drone_rng(0, 0)

        first_error = None
        for k in range(20):
            cmd = VelocityCommand([0.1, 0.05, 0.0], yaw_rate=0.1)
            moved = step_drone(truth, cmd, 0.1, world)
            odo = sense_odometry(truth, moved, 0.1, NO_NOISE, rng)
            state = predict(state, odo, cfg)
            dets = sense_markers(moved, world, cam, NO_NOISE, rng)
            for det in dets:
                obs = observation_from_marker(det, entry, cam, cfg)
                state, accepted = update(state, obs, cfg)
                assert accepted
            truth = moved
            err = state.mean - truth.pose.to_vector()
            err[3:] = wrap_angles(err[3:])
            if dets and first_error is None:
                first_error = np.max(np.abs(err))
        assert first_error is not None and first_error < 1e-6
        assert np.max(np.abs(err)) < 1e-6


class TestConsistency:
    def test_nees_mini_monte_carlo(self):
        # 50-run smoke version of the consistency experiment; the full
        # 200-run check with the tight band lives in the acceptance suite
        mean_nees = run_nees_experiment(runs=50, seed0=1000)
        assert 4.0 < mean_nees < 8.5


def run_nees_experiment(runs: int, seed0: int, ticks: int = 60) -> float:
    world = World(
        {
            0: Pose6D.from_euler([0.0, 0.0, 0.0], [0, 0, 0.0]),
            1: Pose6D.from_euler([1.5, 0.5, 0.0], [0, 0, 0.7]),
            2: Pose6D.from_euler([0.5, 1.5, 0.0], [0, 0, -0.4]),
        },
        np.array([-1.0, -1.0, 0.0]),
        np.array([2.5, 2.5, 2.5]),
    )
    cam = replace(CAMERAS["down"], fov_half_angle=1.1, max_range=4.0)
    dt = 0.1
    sim_noise = SensorNoise(
        pos_base=0.02, pos_per_m=0.0, ang_base=0.002, ang_per_m=0.0,
        odom_vel_sigma=0.03, odom_rate_sigma=0.01, dropout=0.0,
    )
    # filter matched to the simulation: same detection noise, Q = sigma^2 dt
    cfg = EkfConfig(
        q_pos=sim_noise.odom_vel_sigma**2 * dt,
        q_ang=sim_noise.odom_rate_sigma**2 * dt,
        det_pos_base=0.02, det_pos_per_m=0.0,
        det_ang_base=0.002, det_ang_per_m=0.0,
        gate_enabled=False,
    )
    entries = {k: SimpleNamespace(pose=world.markers[k], cov=np.zeros((6, 6))) for k in world.markers}
    init_sigma = np.array([0.05, 0.05, 0.05, 0.01, 0.01, 0.01])
    total = 0.0
    for run in range(runs):
        rng = drone_rng(seed0 + run, 0)
        truth = DroneTruth(Pose6D.from_euler([0.3, 0.4, 1.5], [0, 0, 0.1]))
        mean0 = truth.pose.to_vector() + init_sigma * rng.standard_normal(6)
        state = EkfState(mean0, np.diag(init_sigma**2), 0)
        for k in range(ticks):
            cmd = VelocityCommand(
                [0.25 * math.cos(0.2 * k * dt), 0.25 * math.sin(0.2 * k * dt), 0.0],
                yaw_rate=0.15,
            )
            moved = step_drone(truth, cmd, dt, world)
            odo = sense_odometry(truth, moved, dt, sim_noise, rng)
            state = predict(state, odo, cfg)
            for det in sense_markers(moved, world, cam, sim_noise, rng):
                obs = observation_from_marker(det, entries[det.marker_id], cam, cfg)
                state, _ = update(state, obs, cfg)
            truth = moved
        total += nees(state, truth.pose.to_vector())
    return total / runs
