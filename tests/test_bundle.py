"""Bundle adjustment tests.

The Jacobian is checked against central finite differences of the
residual vector through the retraction x [+] d (independent oracle), and
the batched residuals and Jacobian blocks against the per-observation
reference loop ``reference.ba_residuals``. The
Schur-complement step is checked against a dense solve of the damped
normal equations. Recovery and gauge tests build a zero-residual
configuration first so the expected optimum is known by construction,
never copied from the implementation.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from reference import IDENTITY, ba_arrays, ba_initial_vector, ba_residuals, pose_arrays

from markerswarm import bundle
from markerswarm.bundle import (
    BaProblem,
    Keypose,
    NormalEquations,
    optimize,
    residuals,
    retract,
    select_keypose,
)
from markerswarm.geom import Pose6D, rotation_angle_between
from markerswarm.ekf import EkfConfig, detection_noise
from markerswarm.swarm.protocol import MarkerObs, decode, encode
from markerswarm.worldsim import CAMERAS as TABLE, CameraParams, MarkerDetection

DOWN_CAM = Pose6D.from_euler(np.array([0.0, 0.0, 0.1]), np.array([math.pi, 0.0, 0.0]))
CAMERAS = {"down": CameraParams("down", DOWN_CAM, 0.9, 4.0)}
# sigma 0.02 m and 0.01 rad at every range
FLAT_NOISE = EkfConfig(det_pos_per_m=0.0, det_ang_per_m=0.0)


def detection(marker_id, rel_pose, camera="down"):
    return MarkerDetection(marker_id=marker_id, camera=camera, rel_pose=rel_pose)


def small_pose(rng, pos_scale, ang_scale):
    return Pose6D.from_euler(
        rng.normal(0.0, pos_scale, 3), rng.normal(0.0, ang_scale, 3)
    )


def make_problem(rng, n_keyposes=4, n_markers=5, obs_noise=0.0, drone_ids=None,
                 init_jitter=0.0, frame=0):
    """Keyposes hovering at z=2 with a downward camera over floor markers.

    Returns (problem, true_keyposes, true_markers). Observations are the
    exact relative poses, optionally perturbed by obs_noise; the problem's
    initial marker/keypose values are jittered by init_jitter.
    """
    if drone_ids is None:
        drone_ids = [0] * n_keyposes
    markers = {
        10 + j: Pose6D.from_euler(
            np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0]),
            rng.normal(0.0, 0.25, 3),
        )
        for j in range(n_markers)
    }
    keyposes = []
    for i in range(n_keyposes):
        pose = Pose6D.from_euler(
            np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1.5, 2.5)]),
            rng.normal(0.0, 0.25, 3),
        )
        # every other marker, shifted by index; marker 10 shared by all
        # keyposes so the observation graph stays connected to the anchor
        seen = sorted({10} | {10 + j for j in range(n_markers) if (i + j) % 2 == 0})
        obs = []
        for mid in seen:
            rel = pose.compose(DOWN_CAM).inverse().compose(markers[mid])
            if obs_noise > 0:
                rel = rel.compose(small_pose(rng, obs_noise, obs_noise / 2))
            obs.append(detection(mid, rel))
        keyposes.append(
            Keypose(
                drone_id=drone_ids[i],
                frame=frame,
                pose=pose,
                timestamp=float(i),
                observations=tuple(obs),
            )
        )
    init_markers = markers
    init_keyposes = keyposes
    if init_jitter > 0:
        init_markers = {
            m: small_pose(rng, init_jitter, init_jitter / 2).compose(p)
            for m, p in markers.items()
        }
        init_keyposes = [keyposes[0]] + [
            Keypose(
                kp.drone_id, kp.frame,
                small_pose(rng, init_jitter, init_jitter / 2).compose(kp.pose),
                kp.timestamp, kp.observations,
            )
            for kp in keyposes[1:]
        ]
    problem = BaProblem(init_keyposes, init_markers, CAMERAS, FLAT_NOISE)
    return problem, keyposes, markers


def variable_slices(problem, kp_index, marker_id):
    """Columns of keypose ``kp_index`` (None for the anchor) and of marker ``marker_id``.

    Keyposes after the anchor come first, then markers in ascending id.
    """
    kp_slice = None if kp_index == 0 else slice(6 * (kp_index - 1), 6 * kp_index)
    offset = 6 * (len(problem.keyposes) - 1 + sorted(problem.marker_ids).index(marker_id))
    return kp_slice, slice(offset, offset + 6)


def dense_jacobian(problem, jac):
    """The (6 x observations, n_variables) matrix the returned blocks stand for."""
    dense = np.zeros((6 * len(problem.observations), problem.n_variables))
    for row, (kp_index, det) in enumerate(problem.observations):
        rows = slice(6 * row, 6 * row + 6)
        kp_slice, mk_slice = variable_slices(problem, kp_index, det.marker_id)
        dense[rows, mk_slice] = jac.marker[row]
        if kp_slice is not None:
            dense[rows, kp_slice] = jac.keypose[row]
    return dense


def random_problem(rng, n_keyposes, n_markers):
    """Three drones, four named cameras on two rigs, range-dependent noise.

    Nothing is consistent: every value is drawn independently, and every
    orientation is uniform over all rotations. Each marker is observed
    through the cameras of one rig, and each rig carries two cameras with
    random offsets. Every keypose sees markers 10 (down rig) and 11
    (forward rig) and a random subset of the rest; drone ids cycle 1, 2, 0,
    so the anchor is not the first keypose given. Returns (problem,
    cameras, ekf_config).
    """
    rigs = [TABLE["down"], TABLE["forward"]]
    cameras = {
        f"{rig.name}{k}": replace(
            rig, name=f"{rig.name}{k}", extrinsics=Pose6D(rng.normal(0.0, 0.1, 3), rig.extrinsics.q)
        )
        for rig in rigs
        for k in range(2)
    }
    rig_of = {10 + j: rigs[j % 2] for j in range(n_markers)}
    markers = {m: random_pose(rng) for m in rig_of}
    keyposes = []
    for i in range(n_keyposes):
        others = [m for m in markers if m > 11]
        seen = [10, 11] + sorted(rng.choice(others, size=rng.integers(0, len(others) + 1),
                                            replace=False))
        obs = []
        for mid in seen:
            camera = f"{rig_of[int(mid)].name}{rng.integers(2)}"
            obs.append(detection(int(mid), random_pose(rng), camera=camera))
        keyposes.append(
            Keypose(
                drone_id=(i + 1) % 3,
                frame=0,
                pose=random_pose(rng),
                timestamp=float(i),
                observations=tuple(obs),
            )
        )
    ekf_config = EkfConfig()
    return BaProblem(keyposes, markers, cameras, ekf_config), cameras, ekf_config


def random_pose(rng):
    """Translation within a few metres; rotation uniform (a normalized Gaussian 4-vector)."""
    return Pose6D(rng.normal(0.0, 2.0, 3), rng.normal(size=4))


def fd_jacobian(problem, x, h=1e-7):
    """Central differences of the residuals along each tangent axis, ``x [+] (+-h e_j)``."""
    r0, _ = residuals(problem, x, with_jacobian=False)
    jac = np.zeros((len(r0), problem.n_variables))
    for j in range(problem.n_variables):
        step = np.zeros(problem.n_variables)
        step[j] = h
        rp, _ = residuals(problem, retract(x, step), with_jacobian=False)
        rm, _ = residuals(problem, retract(x, -step), with_jacobian=False)
        jac[:, j] = (rp - rm) / (2 * h)
    return jac


class TestSelectKeypose:
    ORIGIN = IDENTITY

    def test_first_sighting_commits(self):
        assert select_keypose(self.ORIGIN, None, visible_markers=1)

    def test_no_visible_markers_never_commits(self):
        far = Pose6D.from_euler(np.array([5.0, 0, 0]), np.zeros(3))
        assert not select_keypose(far, self.ORIGIN, visible_markers=0)
        assert not select_keypose(far, None, visible_markers=0)

    def test_small_motion_does_not_commit(self):
        near = Pose6D.from_euler(np.array([0.3, 0.2, 0.0]), np.array([0.0, 0.0, 0.2]))
        assert not select_keypose(near, self.ORIGIN, visible_markers=3)

    def test_translation_threshold(self):
        moved = Pose6D.from_euler(np.array([0.6, 0.0, 0.0]), np.zeros(3))
        assert select_keypose(moved, self.ORIGIN, visible_markers=1)

    def test_rotation_threshold(self):
        turned = Pose6D.from_euler(np.zeros(3), np.array([0.0, 0.0, 0.4]))
        assert select_keypose(turned, self.ORIGIN, visible_markers=1)


class TestProblemLayout:
    def test_variable_count(self):
        rng = np.random.default_rng(1)
        problem, _, _ = make_problem(rng, n_keyposes=4, n_markers=5)
        assert problem.n_variables == 6 * (4 - 1) + 6 * 5

    def test_anchor_is_first_keypose_of_lowest_drone(self):
        rng = np.random.default_rng(2)
        problem, _, _ = make_problem(rng, n_keyposes=4, drone_ids=[2, 1, 1, 2])
        # drone 1's earliest keypose has timestamp 1.0
        assert problem.keyposes[0].drone_id == 1
        assert problem.keyposes[0].timestamp == 1.0
        # the anchor is no variable: the vector starts at the next keypose
        first = problem.keyposes[1].pose
        np.testing.assert_array_equal(
            problem.initial_vector()[:7], np.concatenate([first.t, first.q])
        )

    def test_mixed_frames_rejected(self):
        rng = np.random.default_rng(3)
        _, keyposes, markers = make_problem(rng, n_keyposes=2)
        bad = [keyposes[0], Keypose(0, 7, keyposes[1].pose, 1.0, keyposes[1].observations)]
        with pytest.raises(ValueError):
            BaProblem(bad, markers, CAMERAS, FLAT_NOISE)

    def test_unknown_markers_dropped(self):
        rng = np.random.default_rng(4)
        _, keyposes, markers = make_problem(rng, n_keyposes=3, n_markers=4)
        known = {m: p for m, p in markers.items() if m != 10}
        problem = BaProblem(keyposes, known, CAMERAS, FLAT_NOISE)
        assert 10 not in problem.marker_ids
        assert all(obs.marker_id != 10 for _, obs in problem.observations)

    def test_anchor_alone_with_no_markers_rejected(self):
        rng = np.random.default_rng(5)
        _, keyposes, _ = make_problem(rng, n_keyposes=1, n_markers=2)
        with pytest.raises(ValueError):
            BaProblem(keyposes, {}, CAMERAS, FLAT_NOISE)

    def test_keypose_requires_observations(self):
        with pytest.raises(ValueError):
            Keypose(0, 0, IDENTITY, 0.0, ())

    def test_arrays_and_vectors_bit_identical_to_per_observation_forms(self):
        """One rotation per camera, one array per field, one pose per unpacked row."""
        rng = np.random.default_rng(7)
        _, keyposes, markers = make_problem(rng, n_keyposes=30, n_markers=12, obs_noise=0.05)
        cameras = {**CAMERAS, "forward": TABLE["forward"]}
        # every third detection through the forward camera, at range-dependent noise
        keyposes = [
            replace(kp, observations=tuple(
                replace(det, camera="forward") if (i + j) % 3 == 0 else det
                for j, det in enumerate(kp.observations)
            ))
            for i, kp in enumerate(keyposes)
        ]
        config = EkfConfig()
        problem = BaProblem(keyposes, markers, cameras, config)
        for name, want in ba_arrays(problem, cameras, config).items():
            got = getattr(problem, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        x = problem.initial_vector()
        assert x.tobytes() == ba_initial_vector(problem).tobytes()
        x = retract(x, rng.normal(0.0, 0.3, problem.n_variables))
        unpacked, unpacked_markers = problem.unpack(x)
        rows = iter(x.reshape(-1, 7))
        assert unpacked[0] is problem.keyposes[0]
        for got, kp in zip(unpacked[1:], problem.keyposes[1:], strict=True):
            row = next(rows)
            t, q = pose_arrays(row[:3], row[3:])
            assert np.array(got.pose.t + got.pose.q).tobytes() == np.concatenate([t, q]).tobytes()
            assert got == replace(kp, pose=got.pose)
        for marker_id in problem.marker_ids:
            row = next(rows)
            t, q = pose_arrays(row[:3], row[3:])
            pose = unpacked_markers[marker_id]
            assert np.array(pose.t + pose.q).tobytes() == np.concatenate([t, q]).tobytes()

    def test_keypose_dict_round_trip(self):
        # a keypose's wire form is the protocol's: it rides its tick's uplink line
        rng = np.random.default_rng(6)
        _, keyposes, _ = make_problem(rng, n_keyposes=2)
        kp = keyposes[0]
        line = encode(MarkerObs(kp.frame, kp.timestamp, (), kp), sender=9, seq=1)
        assert "drone_id" not in json.loads(line)["keypose"]
        loaded = decode(line).msg.keypose
        assert loaded.drone_id == 9  # the envelope's sender
        assert (loaded.frame, loaded.timestamp) == (keyposes[0].frame, keyposes[0].timestamp)
        np.testing.assert_allclose(loaded.pose.t, keyposes[0].pose.t)
        assert len(loaded.observations) == len(keyposes[0].observations)
        for got, sent in zip(loaded.observations, keyposes[0].observations):
            assert (got.marker_id, got.camera) == (sent.marker_id, sent.camera)
            np.testing.assert_allclose(got.rel_pose.t, sent.rel_pose.t)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            problem, _, _ = make_problem(
                rng, n_keyposes=3, n_markers=4, obs_noise=0.01, init_jitter=0.02
            )
            x = problem.initial_vector()
            _, analytic = residuals(problem, x, with_jacobian=True)
            numeric = fd_jacobian(problem, x)
            assert np.max(np.abs(dense_jacobian(problem, analytic) - numeric)) < 1e-5

    def test_anchor_columns_absent(self):
        rng = np.random.default_rng(11)
        problem, _, _ = make_problem(rng, n_keyposes=3, n_markers=3)
        _, jac = residuals(problem, problem.initial_vector())
        n_obs = len(problem.observations)
        assert dense_jacobian(problem, jac).shape == (6 * n_obs, problem.n_variables)
        assert jac.keypose.shape == jac.marker.shape == (n_obs, 6, 6)
        anchored = problem.obs_keypose == 0
        assert anchored.any()
        assert not jac.keypose[anchored].any()

    @pytest.mark.parametrize("n_keyposes", [1, 3, 6])
    def test_matches_per_observation_reference(self, n_keyposes):
        rng = np.random.default_rng(100 + n_keyposes)
        problem, cameras, ekf_config = random_problem(rng, n_keyposes=n_keyposes, n_markers=5)
        assert (problem.obs_keypose == 0).any()
        x = retract(problem.initial_vector(), rng.normal(0.0, 0.05, problem.n_variables))
        expected_res, expected_jac = ba_residuals(problem, x, cameras, ekf_config)
        res, jac = residuals(problem, x, with_jacobian=True)
        res_only, none = residuals(problem, x, with_jacobian=False)
        assert none is None
        np.testing.assert_allclose(res, expected_res, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res_only, expected_res, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense_jacobian(problem, jac), expected_jac, rtol=0, atol=1e-12)

    def test_keypose_and_marker_at_pitch_singularity_adjust(self):
        # Euler variables had no derivative at pitch +-pi/2; the tangent space has no such line
        rng = np.random.default_rng(13)
        _, keyposes, markers = make_problem(rng, n_keyposes=4, n_markers=4)
        markers[10] = Pose6D.from_euler(markers[10].t, [0.3, -math.pi / 2, -0.4])
        up = Pose6D.from_euler(keyposes[2].pose.t, [-0.2, math.pi / 2, 0.5])
        keyposes[2] = replace(keyposes[2], pose=up)
        # exact detections of the tilted poses
        keyposes = [
            replace(kp, observations=tuple(
                detection(d.marker_id, kp.pose.compose(DOWN_CAM).inverse().compose(
                    markers[d.marker_id]))
                for d in kp.observations
            ))
            for kp in keyposes
        ]
        assert keyposes[2].pose.to_vector()[4] == pytest.approx(math.pi / 2)
        assert markers[10].to_vector()[4] == pytest.approx(-math.pi / 2)
        jittered = [keyposes[0]] + [
            replace(kp, pose=small_pose(rng, 0.05, 0.025).compose(kp.pose)) for kp in keyposes[1:]
        ]
        start = {m: small_pose(rng, 0.05, 0.025).compose(p) for m, p in markers.items()}
        problem = BaProblem(jittered, start, CAMERAS, FLAT_NOISE)
        res, jac = residuals(problem, problem.initial_vector(), with_jacobian=True)
        assert np.all(np.isfinite(res))
        assert np.all(np.isfinite(jac.keypose)) and np.all(np.isfinite(jac.marker))
        result = optimize(problem)
        assert result.status == "converged" and result.final_cost < 1e-16
        for truth, est in zip(keyposes, result.keyposes):
            assert np.linalg.norm(np.subtract(est.pose.t, truth.pose.t)) < 1e-6
            assert rotation_angle_between(est.pose.q, truth.pose.q) < 1e-6
        for marker_id, pose in result.markers.items():
            assert np.linalg.norm(np.subtract(pose.t, markers[marker_id].t)) < 1e-6
            assert rotation_angle_between(pose.q, markers[marker_id].q) < 1e-6

    def test_zero_residual_at_truth(self):
        rng = np.random.default_rng(12)
        problem, _, _ = make_problem(rng, n_keyposes=3, n_markers=3)
        res, _ = residuals(problem, problem.initial_vector(), with_jacobian=False)
        assert np.max(np.abs(res)) < 1e-9


class TestNormalEquations:
    @pytest.mark.parametrize("damping", [1e-4, 1.0, 1e6])
    @pytest.mark.parametrize("n_keyposes", [1, 2, 5])
    def test_schur_step_matches_dense_solve(self, damping, n_keyposes):
        rng = np.random.default_rng(30 + n_keyposes)
        problem, _, _ = make_problem(
            rng, n_keyposes=n_keyposes, n_markers=4, obs_noise=0.01, init_jitter=0.05,
            drone_ids=[1, 0, 2, 0, 1][:n_keyposes],
        )
        res, jac = residuals(problem, problem.initial_vector())
        dense = dense_jacobian(problem, jac)
        gradient = dense.T @ res
        normal = NormalEquations(problem, res, jac)
        np.testing.assert_allclose(normal.gradient, gradient, rtol=1e-12, atol=1e-9)
        expected = np.linalg.solve(
            dense.T @ dense + damping * np.eye(problem.n_variables), -gradient
        )
        step = normal.step(damping)
        assert np.linalg.norm(step - expected) <= 1e-9 * np.linalg.norm(expected)


class TestOptimize:
    def test_already_optimal_is_a_no_op(self):
        rng = np.random.default_rng(20)
        problem, keyposes, markers = make_problem(rng, n_keyposes=3, n_markers=4)
        result = optimize(problem)
        assert result.status == "converged"
        assert result.iterations == 0 == len(result.cost_trace)
        assert result.to_dict()["iterations"] == 0
        for before, after in zip(problem.keyposes, result.keyposes):
            assert np.linalg.norm(np.subtract(after.pose.t, before.pose.t)) < 1e-9
        for mid, pose in result.markers.items():
            assert np.linalg.norm(np.subtract(pose.t, markers[mid].t)) < 1e-9

    def test_recovers_truth_from_perturbed_start(self):
        rng = np.random.default_rng(21)
        problem, keyposes, markers = make_problem(
            rng, n_keyposes=4, n_markers=5, init_jitter=0.05
        )
        result = optimize(problem)
        assert result.status == "converged"
        assert result.final_cost < 1e-16
        for mid, pose in result.markers.items():
            assert np.linalg.norm(np.subtract(pose.t, markers[mid].t)) < 1e-6
        for truth, est in zip(
            sorted(keyposes, key=lambda k: k.timestamp),
            sorted(result.keyposes, key=lambda k: k.timestamp),
        ):
            assert np.linalg.norm(np.subtract(est.pose.t, truth.pose.t)) < 1e-6

    def test_accepted_costs_strictly_decrease(self):
        rng = np.random.default_rng(22)
        problem, _, _ = make_problem(
            rng, n_keyposes=4, n_markers=5, obs_noise=0.02, init_jitter=0.05
        )
        result = optimize(problem)
        costs = [result.initial_cost] + result.cost_trace
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert result.final_cost == costs[-1]
        assert len(result.damping_trace) == result.iterations

    def test_gauge_invariance(self):
        rng = np.random.default_rng(23)
        problem, keyposes, markers = make_problem(
            rng, n_keyposes=3, n_markers=4, obs_noise=0.01, init_jitter=0.03
        )
        shift = Pose6D.from_euler(np.array([3.0, -1.0, 0.5]), np.array([0.1, -0.2, 0.8]))
        moved_keyposes = [
            Keypose(kp.drone_id, kp.frame, shift.compose(kp.pose), kp.timestamp,
                    kp.observations)
            for kp in problem.keyposes
        ]
        moved_markers = {m: shift.compose(p) for m, p in problem.marker_init.items()}
        moved = BaProblem(moved_keyposes, moved_markers, CAMERAS, FLAT_NOISE)

        res_a, _ = residuals(problem, problem.initial_vector(), with_jacobian=False)
        res_b, _ = residuals(moved, moved.initial_vector(), with_jacobian=False)
        assert math.isclose(float(res_a @ res_a), float(res_b @ res_b), rel_tol=1e-9)

        out_a = optimize(problem)
        out_b = optimize(moved)
        assert math.isclose(out_a.final_cost, out_b.final_cost, rel_tol=1e-6)

    def test_noisy_monte_carlo_improves_marker_positions(self):
        improved = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            problem, _, markers = make_problem(
                rng, n_keyposes=5, n_markers=5, obs_noise=0.01, init_jitter=0.08
            )
            before = _marker_rmse(problem.marker_init, markers)
            result = optimize(problem)
            assert result.final_cost < result.initial_cost
            if _marker_rmse(result.markers, markers) < before:
                improved += 1
        assert improved >= 18

    def test_keypose_order_does_not_change_the_result(self):
        # the station hands BA its frame's keyposes in merge order, not arrival order
        rng = np.random.default_rng(25)
        problem, _, _ = make_problem(
            rng, n_keyposes=9, n_markers=5, obs_noise=0.02, init_jitter=0.05
        )
        # three drones whose keyposes share times, as keyposes of one tick do;
        # (drone_id, timestamp) stays unique
        keyposes = [
            replace(kp, drone_id=i % 3, timestamp=float(i // 3))
            for i, kp in enumerate(problem.keyposes)
        ]
        orders = [list(range(9)), list(range(8, -1, -1))]
        orders += [np.random.default_rng(seed).permutation(9).tolist() for seed in range(4)]

        def outcome(order):
            shuffled = BaProblem(
                [keyposes[i] for i in order], problem.marker_init, CAMERAS, FLAT_NOISE
            )
            result = optimize(shuffled)
            assert result.iterations > 0
            return (
                [(kp.drone_id, kp.timestamp) for kp in shuffled.keyposes],
                shuffled.initial_vector().tobytes(),
                result.to_dict(),
                [(kp.drone_id, kp.timestamp, np.array(kp.pose.t + kp.pose.q).tobytes())
                 for kp in result.keyposes],
                [(m, np.array(p.t + p.q).tobytes()) for m, p in result.markers.items()],
            )

        first = outcome(orders[0])
        for order in orders[1:]:
            assert outcome(order) == first, order

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(24)
        problem, _, _ = make_problem(
            rng, n_keyposes=4, n_markers=4, obs_noise=0.05, init_jitter=0.3
        )
        result = optimize(problem, max_iterations=2)
        assert result.iterations <= 2
        assert result.status in ("converged", "max_iterations")

    @pytest.mark.parametrize(
        "seed, max_iterations, message",
        [
            (20, 100, "gradient below tolerance"),
            (22, 100, "relative cost decrease below tolerance"),
            (24, 2, ""),
        ],
    )
    def test_jacobian_computed_only_where_a_step_reads_it(
        self, monkeypatch, seed, max_iterations, message
    ):
        rng = np.random.default_rng(seed)
        problem, _, _ = make_problem(
            rng, n_keyposes=4, n_markers=5, obs_noise=0.02 * (seed != 20),
            init_jitter=0.05 * (seed != 20),
        )
        calls = []

        def counted(problem, x, with_jacobian=True):
            calls.append(with_jacobian)
            return residuals(problem, x, with_jacobian)

        monkeypatch.setattr(bundle, "residuals", counted)
        result = optimize(problem, max_iterations=max_iterations)
        assert result.message == message
        # a run that ends on the gradient test reads its last Jacobian; one that
        # ends on the relative cost test or the cap computes none after its last step
        expected = result.iterations + (message == "gradient below tolerance")
        assert calls.count(True) == expected

    def test_singular_system_aborts_with_variables_untouched(self):
        rng = np.random.default_rng(25)
        _, keyposes, markers = make_problem(rng, n_keyposes=3, n_markers=3)
        # variances of 1e-320: whitened residuals overflow J^T J
        tiny = EkfConfig(det_pos_base=1e-160, det_pos_per_m=0.0,
                         det_ang_base=1e-160, det_ang_per_m=0.0)
        assert np.all(np.diag(detection_noise(keyposes[0].observations[0], tiny)) > 0.0)
        problem = BaProblem(keyposes, markers, CAMERAS, tiny)
        result = optimize(problem)
        assert result.status == "aborted_singular"
        assert result.aborted
        assert result.to_dict()["iterations"] == result.iterations == len(result.cost_trace)
        for mid, pose in result.markers.items():
            np.testing.assert_array_equal(pose.t, markers[mid].t)


def _marker_rmse(estimate, truth):
    errs = [np.linalg.norm(np.subtract(estimate[m].t, truth[m].t)) for m in truth]
    return float(np.sqrt(np.mean(np.square(errs))))
