"""Acceptance gate: one test per shipping criterion.

Each test prints a single line `PASS criterion N (<name>): <measured>` so
`pytest -v -s tests/test_acceptance.py` reads as a checklist. Every
numeric bound, corpus size and runtime budget is asserted, not just
reported.
"""

import json
import math
import time

import numpy as np

from reference import predict_jacobian, quat_to_euler, wrap_angles
from test_bundle import _marker_rmse, make_problem
from test_ekf import run_nees_experiment
from test_swarm import keys_differing_bar_mode

from markerswarm.bundle import optimize
from markerswarm.cli import main as cli_main
from markerswarm.ekf import (
    EkfConfig,
    EkfState,
    observation_from_marker,
    predict,
    update,
)
from markerswarm.framemerge import estimate_transform
from markerswarm.geom import Pose6D, rotation_angle_between
from markerswarm.mapstore import MapEntry, fuse_pose
from markerswarm.scenario import load_scenario, parse_scenario
from markerswarm.swarm import run_scenario
from markerswarm.worldsim import CAMERAS, MarkerDetection, OdometryReading


def merge_scenario_raw(seed, noise=True):
    """Two drones in offset believed frames sweeping a 4-marker floor."""
    sigma = {
        "pos_base": 0.02, "pos_per_m": 0.0, "ang_base": 0.01, "ang_per_m": 0.0,
        "odom_vel_sigma": 0.03, "odom_rate_sigma": 0.01, "dropout": 0.0,
    } if noise else {
        "pos_base": 0.0, "pos_per_m": 0.0, "ang_base": 0.0, "ang_per_m": 0.0,
        "odom_vel_sigma": 0.0, "odom_rate_sigma": 0.0, "dropout": 0.0,
    }
    return {
        "name": "merge-acceptance", "seed": seed, "duration": 12.0, "tick_rate": 10.0,
        "bounds": {"min": [-2.0, -2.0, 0.0], "max": [2.0, 2.0, 2.0]},
        "markers": [
            {"id": 1, "pose": {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.3]}},
            {"id": 2, "pose": {"t": [-1.2, 0.8, 0.0], "euler": [0.0, 0.0, -1.0]}},
            {"id": 3, "pose": {"t": [1.2, -0.8, 0.0], "euler": [0.0, 0.0, 1.7]}},
            {"id": 4, "pose": {"t": [0.9, 1.1, 0.0], "euler": [0.0, 0.0, -2.4]}},
        ],
        "drones": [
            {"id": 0, "start_pose": {"t": [-0.8, -0.6, 0.0], "euler": [0, 0, 0.0]},
             "ekf_start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]}, "cameras": ["down"]},
            {"id": 1, "start_pose": {"t": [0.8, 0.6, 0.0], "euler": [0, 0, 2.2]},
             "ekf_start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]}, "cameras": ["down"]},
        ],
        "noise": sigma,
        "policy": {"cell_size": 1.0, "altitude": 1.2, "speed": 0.7, "r_visit": 0.3},
        "fusion": {"n_fuse": 5},
        "ba": {"enabled": True, "every_keyposes": 8},
    }


def euler_matrix(euler):
    """Independent oracle: yaw-pitch-roll rotation via explicit matrices."""
    a, b, g = euler
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cg, sg = math.cos(g), math.sin(g)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]])
    return rz @ ry @ rx


def homogeneous(t, euler):
    mat = np.eye(4)
    mat[:3, :3] = euler_matrix(euler)
    mat[:3, 3] = t
    return mat


def pose_matrix(pose):
    mat = np.eye(4)
    mat[:3, :3] = pose.rotation()
    mat[:3, 3] = pose.t
    return mat


def random_pose(rng, span=5.0):
    t = rng.uniform(-span, span, size=3)
    euler = [rng.uniform(-np.pi, np.pi), rng.uniform(-1.4, 1.4), rng.uniform(-np.pi, np.pi)]
    return t, np.array(euler)


def test_criterion_1_geometry_matches_matrix_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t_a, e_a = random_pose(rng)
        t_b, e_b = random_pose(rng)
        a = Pose6D.from_euler(t_a, e_a)
        b = Pose6D.from_euler(t_b, e_b)
        mat_a = homogeneous(t_a, e_a)
        mat_b = homogeneous(t_b, e_b)

        worst = max(worst, np.max(np.abs(pose_matrix(a.compose(b)) - mat_a @ mat_b)))
        worst = max(worst, np.max(np.abs(pose_matrix(a.inverse()) - np.linalg.inv(mat_a))))
        point = rng.uniform(-3, 3, size=3)
        worst = max(worst, np.max(np.abs(a.apply(point) - (mat_a @ [*point, 1.0])[:3])))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nPASS criterion 1 (geometry oracle): max error {worst:.2e} "
          f"over 1000 trials in {elapsed:.2f}s")


def test_criterion_2_ekf_correctness():
    start = time.perf_counter()

    # (a) zero-noise full-stack run: the estimate never leaves the truth
    raw = {
        "name": "exact-track", "seed": 2, "duration": 5.0, "tick_rate": 10.0,
        "bounds": {"min": [-2.0, -2.0, 0.0], "max": [2.0, 2.0, 2.0]},
        "markers": [
            {"id": 1, "pose": {"t": [0.0, 0.0, 0.0], "euler": [0, 0, 0]}},
            {"id": 2, "pose": {"t": [0.8, 0.5, 0.0], "euler": [0, 0, 0.9]}},
        ],
        "drones": [{"id": 0, "start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]}}],
        "noise": {"pos_base": 0.0, "pos_per_m": 0.0, "ang_base": 0.0, "ang_per_m": 0.0,
                  "odom_vel_sigma": 0.0, "odom_rate_sigma": 0.0, "dropout": 0.0},
        "policy": {"cell_size": 1.0, "altitude": 1.2, "speed": 0.7},
    }
    report = run_scenario(parse_scenario(raw))
    track_err = 0.0
    for row in report["trajectories"]["0"]:
        truth = Pose6D.from_dict(row["truth"])
        est = Pose6D.from_dict(row["estimate"])
        track_err = max(track_err, float(np.linalg.norm(np.subtract(est.t, truth.t))))
        track_err = max(track_err, rotation_angle_between(est.q, truth.q))
    assert report["counters"]["drones"]["0"]["updates"] > 0
    assert track_err < 1e-6

    # (a cont.) an initial belief offset is pulled onto the truth by
    # repeated exact marker updates
    cam = CAMERAS["down"]
    cfg = EkfConfig(det_pos_base=1e-3, det_ang_base=1e-3, gate_enabled=False)
    markers = {
        1: Pose6D.from_euler([0.3, 0.0, 0.0], [0, 0, 0.2]),
        2: Pose6D.from_euler([-0.2, 0.4, 0.0], [0, 0, -0.5]),
        3: Pose6D.from_euler([0.1, -0.3, 0.0], [0, 0, 1.1]),
    }
    entries = {
        k: MapEntry(k, 0, p, np.zeros((6, 6)), obs_count=9)
        for k, p in markers.items()
    }
    truth = Pose6D.from_euler([0.0, 0.1, 1.5], [0.0, 0.0, 0.3])
    mean0 = truth.to_vector() + np.array([0.05, -0.04, 0.03, 0.02, -0.015, 0.025])
    state = EkfState(mean0, np.diag([0.1**2] * 3 + [0.05**2] * 3), 0)
    error0 = float(np.linalg.norm(np.subtract(state.mean, truth.to_vector())))
    first_update_error = None
    for _ in range(40):
        state = predict(state, OdometryReading(0.1, np.zeros(3), np.zeros(3)), cfg)
        for marker_id, marker_pose in markers.items():
            rel = truth.compose(cam.extrinsics).inverse().compose(marker_pose)
            det = MarkerDetection(marker_id, "down", rel)
            obs = observation_from_marker(det, entries[marker_id], cam, cfg)
            state, accepted = update(state, obs, cfg)
            assert accepted
        if first_update_error is None:
            first_update_error = float(np.linalg.norm(np.subtract(state.mean, truth.to_vector())))
    residual = np.subtract(state.mean, truth.to_vector())
    residual[3:] = wrap_angles(residual[3:])
    assert first_update_error < error0
    assert np.max(np.abs(residual)) < 1e-6

    # (b) transition Jacobian against central differences
    rng = np.random.default_rng(202)
    h = 1e-6
    jac_err = 0.0
    for _ in range(100):
        mean = np.concatenate(
            [rng.uniform(-3, 3, size=3),
             [rng.uniform(-2.5, 2.5), rng.uniform(-1.2, 1.2), rng.uniform(-2.5, 2.5)]]
        )
        v = rng.uniform(-1, 1, size=3)
        rates = rng.uniform(-0.5, 0.5, size=3)
        jac = predict_jacobian(mean, v, 0.1)

        def mean_map(x):
            st = EkfState(x, np.eye(6), 0)
            odo = OdometryReading(0.1, v, rates)
            return predict(st, odo, cfg).mean

        fd = np.zeros((6, 6))
        for k in range(6):
            xp, xm = mean.copy(), mean.copy()
            xp[k] += h
            xm[k] -= h
            diff = np.subtract(mean_map(xp), mean_map(xm))
            diff[3:] = wrap_angles(diff[3:])
            fd[:, k] = diff / (2 * h)
        jac_err = max(jac_err, float(np.max(np.abs(jac - fd))))
    assert jac_err < 1e-6

    # (c) consistency: mean NEES of 200 matched-filter runs near dim 6
    mean_nees = run_nees_experiment(runs=200, seed0=5000)
    assert 4.5 < mean_nees < 7.5

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2 (EKF): track {track_err:.2e}, jacobian {jac_err:.2e}, "
          f"NEES {mean_nees:.2f} in [4.5, 7.5], {elapsed:.1f}s")


def test_criterion_3_transform_recovery():
    rng = np.random.default_rng(303)
    start = time.perf_counter()

    def marker_set(support, collinear=False):
        poses = []
        origin = rng.uniform(-2, 2, size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        for index in range(support):
            if collinear:
                t = origin + direction * (0.5 * index)
            else:
                t = rng.uniform(-2, 2, size=3)
            poses.append(Pose6D.from_euler(t, rng.normal(0.0, 0.4, size=3)))
        return poses

    worst = 0.0
    for support in (1, 2, 3, 10):
        for trial in range(100):
            t_rt, e_rt = random_pose(rng, span=3.0)
            rt = Pose6D.from_euler(t_rt, e_rt)
            collinear = support == 3 and trial % 2 == 1
            in_b = marker_set(support, collinear)
            pairs = [(rt.compose(p), p) for p in in_b]
            fit = estimate_transform(pairs).rt
            worst = max(worst, float(np.linalg.norm(np.subtract(fit.t, rt.t))))
            worst = max(worst, rotation_angle_between(fit.q, rt.q))
    assert worst <= 1e-9

    medians = []
    for support in (3, 6, 12):
        errors = []
        for _ in range(200):
            t_rt, e_rt = random_pose(rng, span=3.0)
            rt = Pose6D.from_euler(t_rt, e_rt)
            in_b = marker_set(support)
            pairs = [
                (rt.compose(p), Pose6D(p.t + rng.normal(0.0, 0.01, size=3), p.q))
                for p in in_b
            ]
            fit = estimate_transform(pairs).rt
            errors.append(float(np.linalg.norm(np.subtract(fit.t, rt.t))))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 3 (transform recovery): exact {worst:.2e}, "
          f"noise medians {[f'{m:.4f}' for m in medians]} decreasing, {elapsed:.1f}s")


def test_criterion_4_merge_end_to_end():
    start = time.perf_counter()

    # (a) zero noise: the recovered frame transform is the loser drone's
    # true start pose expressed in the winner frame
    raw = merge_scenario_raw(seed=1, noise=False)
    raw["drones"][0].pop("ekf_start_pose")  # winner frame == truth frame
    report = run_scenario(parse_scenario(raw))
    assert len(report["frames"]) == 1
    assert len(report["merge_events"]) == 1
    rt = Pose6D.from_dict(report["merge_events"][0]["transform"]["rt"])
    true_loser_start = Pose6D.from_euler([0.8, 0.6, 0.0], [0, 0, 2.2])
    offset_t = float(np.linalg.norm(np.subtract(rt.t, true_loser_start.t)))
    offset_a = rotation_angle_between(rt.q, true_loser_start.q)
    assert offset_t < 1e-6 and offset_a < 1e-6

    # (b) 2 cm detection noise over 50 seeds
    successes = 0
    rmses = []
    for seed in range(50):
        noisy = run_scenario(parse_scenario(merge_scenario_raw(seed, noise=True)))
        metrics = noisy["metrics"]
        rmse = metrics["marker_position_rmse"]
        if len(noisy["frames"]) == 1 and rmse is not None and rmse < 0.05:
            successes += 1
            rmses.append(rmse)
    assert successes >= 45

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 4 (merge): zero-noise offset {offset_t:.2e} m / "
          f"{offset_a:.2e} rad; noisy {successes}/50 under 5 cm "
          f"(median {np.median(rmses):.3f} m), {elapsed:.1f}s")


def test_criterion_5_bundle_adjustment():
    start = time.perf_counter()

    descent_runs = 0
    for seed in range(25):
        rng = np.random.default_rng(500 + seed)
        problem, _, _ = make_problem(
            rng, n_keyposes=4 + seed % 3, n_markers=4 + seed % 2,
            obs_noise=0.01, init_jitter=0.08,
        )
        result = optimize(problem)
        costs = result.cost_trace
        assert all(b < a for a, b in zip(costs, costs[1:])), costs
        descent_runs += 1

    recover_err = 0.0
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        problem, keyposes, markers = make_problem(
            rng, n_keyposes=5, n_markers=5, obs_noise=0.0, init_jitter=0.05
        )
        result = optimize(problem)
        for kp_true, kp_est in zip(keyposes, result.keyposes):
            error = float(np.linalg.norm(np.subtract(kp_est.pose.t, kp_true.pose.t)))
            recover_err = max(recover_err, error)
            recover_err = max(recover_err, rotation_angle_between(kp_est.pose.q, kp_true.pose.q))
        for marker_id, pose in result.markers.items():
            error = float(np.linalg.norm(np.subtract(pose.t, markers[marker_id].t)))
            recover_err = max(recover_err, error)
    assert recover_err < 1e-6

    improved = 0
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        problem, _, markers = make_problem(
            rng, n_keyposes=5, n_markers=5, obs_noise=0.01, init_jitter=0.08
        )
        before = _marker_rmse(problem.marker_init, markers)
        result = optimize(problem)
        if _marker_rmse(result.markers, markers) < before:
            improved += 1
    assert improved >= 95

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 5 (adjustment): {descent_runs}/25 strictly decreasing, "
          f"recovery {recover_err:.2e}, improved {improved}/100, {elapsed:.1f}s")


def test_criterion_6_fusion_contracts_covariance():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(200):
        base = Pose6D.from_euler(rng.uniform(-2, 2, size=3), rng.normal(0.0, 0.5, size=3))
        other = Pose6D.from_euler(
            base.t + rng.normal(0.0, 0.05, size=3),
            quat_to_euler(base.q) + rng.normal(0.0, 0.02, size=3),
        )
        def psd():
            a = rng.normal(size=(6, 6)) * 0.1
            return a @ a.T + np.diag(rng.uniform(0.001, 0.05, size=6))
        cov_a, cov_b = psd(), psd()
        _, fused = fuse_pose(base, cov_a, other, cov_b)
        for cov_in in (cov_a, cov_b):
            # position block contracts in the Loewner order; angles fuse
            # blockwise the same way, so they contract too
            pos_gap = np.linalg.eigvalsh(fused[:3, :3] - cov_in[:3, :3])
            worst = max(worst, float(pos_gap.max()))
            ang_gap = np.linalg.eigvalsh(fused[3:, 3:] - cov_in[3:, 3:])
            worst = max(worst, float(ang_gap.max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"\nPASS criterion 6 (fusion contraction): max eigenvalue excess "
          f"{worst:.2e} over 200 pairs, {elapsed:.2f}s")


def test_criterion_7_determinism_and_threaded_parity():
    start = time.perf_counter()
    scenario = parse_scenario(merge_scenario_raw(seed=3, noise=True))

    a = run_scenario(scenario, seed=11, mode="lockstep")
    b = run_scenario(scenario, seed=11, mode="lockstep")
    identical = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert identical

    threaded = run_scenario(scenario, seed=11, mode="threaded")
    rmse_lock = a["metrics"]["marker_position_rmse"]
    rmse_thread = threaded["metrics"]["marker_position_rmse"]
    assert rmse_lock is not None, "lockstep run failed to converge to one frame"
    assert rmse_thread is not None, "threaded run failed to converge to one frame"
    assert rmse_thread <= 2.0 * max(rmse_lock, 1e-3)
    assert keys_differing_bar_mode(threaded, a) == []

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 7 (determinism): lockstep byte-identical; threaded equal to "
          f"lockstep bar mode, RMSE {rmse_thread:.4f} <= 2x lockstep {rmse_lock:.4f}, "
          f"{elapsed:.1f}s")


def test_threaded_equals_lockstep_on_criterion_7_program_seed_5():
    # the station once handled threaded mail after every drone's tick and
    # lockstep mail after each one: here that read 0.0163 m threaded
    # against 0.0077 m lockstep, over criterion 7's 2x bound
    scenario = parse_scenario(merge_scenario_raw(seed=3, noise=True))
    lockstep = run_scenario(scenario, seed=5, mode="lockstep")
    threaded = run_scenario(scenario, seed=5, mode="threaded")
    rmse_lock = lockstep["metrics"]["marker_position_rmse"]
    rmse_thread = threaded["metrics"]["marker_position_rmse"]
    assert rmse_thread <= 2.0 * max(rmse_lock, 1e-3), (rmse_thread, rmse_lock)
    assert keys_differing_bar_mode(threaded, lockstep) == []


def test_threaded_parity_on_ten_demo_seeds():
    # criterion 7's bound on many seeds, not only the one it pins
    scenario = load_scenario("scenarios/two_drone_demo.json")
    for seed in range(1, 11):
        lockstep_report = run_scenario(scenario, seed=seed, mode="lockstep")
        threaded_report = run_scenario(scenario, seed=seed, mode="threaded")
        lockstep, threaded = lockstep_report["metrics"], threaded_report["metrics"]
        assert lockstep["frame_count"] == 1, f"seed {seed}: lockstep left several frames"
        assert threaded["frame_count"] == 1, f"seed {seed}: threaded left several frames"
        rmse_lock = lockstep["marker_position_rmse"]
        rmse_thread = threaded["marker_position_rmse"]
        assert rmse_thread <= 2.0 * max(rmse_lock, 1e-3), (seed, rmse_thread, rmse_lock)
        assert keys_differing_bar_mode(threaded_report, lockstep_report) == [], seed


def test_criterion_8_lab_demo_via_cli(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "lab"
    assert cli_main(["run", "scenarios/lab_three_drones.json", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["frame_count"] == 1
    assert metrics["merge_count"] >= 2
    assert metrics["mapped_markers"] == 8
    rmse = metrics["marker_position_rmse"]
    assert rmse is not None and rmse < 0.10

    assert cli_main(["plot", str(out / "report.json"), "--out", str(out)]) == 0
    svg = (out / "plot.svg").read_text()
    map_doc = json.loads((out / "map.json").read_text())
    assert svg.count("<circle") == len(map_doc["entries"])
    assert svg.count('data-source="truth"') == 3
    assert svg.count('data-source="estimate"') == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 8 (lab demo): 1 frame, {metrics['merge_count']} merges, "
          f"8/8 markers, RMSE {rmse:.3f} m < 0.10, SVG rendered, {elapsed:.1f}s")
