"""Truth stepping and simulated sensing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from reference import sense_markers_every_marker, sense_odometry_array, step_drone_numpy

from markerswarm.ekf import EkfConfig, detection_variances
from markerswarm.geom import Pose6D, wrap_angles
from markerswarm.worldsim import (
    CAMERAS,
    CameraParams,
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
DOWN, FORWARD = CAMERAS["down"], CAMERAS["forward"]
# ids named after the rig functions the table replaced
RIGS = pytest.mark.parametrize("cam", [DOWN, FORWARD], ids=["downward_camera", "forward_camera"])


def make_world(markers=None):
    return World(
        markers=markers or {},
        bounds_min=np.array([-10.0, -10.0, 0.0]),
        bounds_max=np.array([10.0, 10.0, 5.0]),
    )


def drone_at(x=0.0, y=0.0, z=0.0, yaw=0.0):
    return DroneTruth(Pose6D.from_euler([x, y, z], [0.0, 0.0, yaw]))


def assert_same_step(got, want):
    assert got.pose.t.tobytes() == want.pose.t.tobytes()
    assert got.pose.q.tobytes() == want.pose.q.tobytes()
    assert np.array(got.euler).tobytes() == got.pose.euler.tobytes()


class TestStepDrone:
    def test_body_velocity_rotates_with_yaw(self):
        # 2 m/s along body x for half a second at yaw pi/2: one metre of world y
        world = make_world()
        truth = drone_at(yaw=math.pi / 2)
        moved = step_drone(truth, VelocityCommand([2.0, 0.0, 0.0]), 0.5, world)
        assert np.allclose(moved.pose.t, [0.0, 1.0, 0.0], atol=1e-12)

    def test_yaw_integrates_and_wraps(self):
        world = make_world()
        truth = drone_at(yaw=3.0)
        moved = step_drone(truth, VelocityCommand([0, 0, 0], yaw_rate=0.5), 0.5, world)
        assert moved.pose.euler[2] == pytest.approx(3.25 - 2 * math.pi)
        assert moved.pose.euler[0] == 0.0 and moved.pose.euler[1] == 0.0

    def test_clamped_to_bounds(self):
        world = make_world()
        truth = drone_at(x=9.9)
        moved = step_drone(truth, VelocityCommand([1.0, 0.0, 0.0]), 0.5, world)
        assert moved.pose.t[0] == 10.0

    def test_rejects_bad_dt(self):
        world = make_world()
        for dt in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                step_drone(drone_at(), VelocityCommand([0, 0, 0]), dt, world)

    def test_rejects_non_finite_command(self):
        world = make_world()
        with pytest.raises(ValueError):
            step_drone(drone_at(), VelocityCommand([np.nan, 0, 0]), 0.1, world)
        with pytest.raises(ValueError):
            step_drone(drone_at(), VelocityCommand([0, 0, 0], yaw_rate=math.inf), 0.1, world)

    def test_float_step_bit_identical_to_array_form(self):
        # random poses and commands, steps clamped at each of the six bounds,
        # a zero command, and a signed zero sitting on a bound
        world = make_world()
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(2000):
            t = rng.uniform(world.bounds_min, world.bounds_max)
            euler = rng.uniform(-math.pi, math.pi, 3) * [0.4, 0.4, 1.0]
            cmd = VelocityCommand(rng.normal(size=3) * 2.0, float(rng.normal()))
            cases.append((Pose6D.from_euler(t, euler), cmd, float(rng.uniform(0.01, 0.5))))
        for axis in range(3):
            for side, bound in ((-1.0, world.bounds_min), (1.0, world.bounds_max)):
                t = np.zeros(3)
                t[axis] = bound[axis] - side * 0.01
                v = np.zeros(3)
                v[axis] = side * 3.0
                pose = Pose6D.from_euler(t, [0.0, 0.0, float(rng.uniform(-0.1, 0.1))])
                cases.append((pose, VelocityCommand(pose.rotation().T @ v, 0.2), 0.5))
        hovering = Pose6D.from_euler([1.0, -2.0, 1.5], [0, 0, 2.0])
        cases.append((hovering, VelocityCommand.hover(), 0.1))
        clamped = 0
        for pose, cmd, dt in cases:
            truth = DroneTruth(pose)
            got = step_drone(truth, cmd, dt, world)
            assert_same_step(got, step_drone_numpy(truth, cmd, dt, world))
            clamped += bool(np.any(got.pose.t == world.bounds_min) or
                            np.any(got.pose.t == world.bounds_max))
        assert clamped >= 6
        # np.clip keeps the bound when the position equals it: -0.0 here, not 0.0
        floor = World({}, np.array([-1.0, -1.0, -0.0]), np.array([1.0, 1.0, 1.0]))
        truth = DroneTruth(Pose6D.from_euler([0.5, 0.5, 0.0], [0, 0, 0]))
        got = step_drone(truth, VelocityCommand.hover(), 0.1, floor)
        assert math.copysign(1.0, got.pose.t[2]) == -1.0
        assert_same_step(got, step_drone_numpy(truth, VelocityCommand.hover(), 0.1, floor))


class TestWorld:
    def test_rejects_out_of_range_marker_id(self):
        with pytest.raises(ValueError):
            make_world({1024: Pose6D.identity()})
        make_world({1023: Pose6D.identity()})  # boundary id is fine

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            World({}, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0]))


class TestSenseMarkers:
    def test_marker_dead_ahead_in_camera_convention(self):
        # forward camera looks along body +x; a marker 2 m ahead must land
        # on the optical axis at (0, 0, 2) in camera coordinates
        world = make_world({7: Pose6D.from_euler([2.0, 0.0, 0.0], [0, 0, 0])})
        rng = drone_rng(0, 0)
        dets = sense_markers(drone_at(), world, FORWARD, NO_NOISE, rng)
        assert len(dets) == 1
        det = dets[0]
        assert det.marker_id == 7
        assert det.camera == "forward"
        assert np.allclose(det.rel_pose.t, [0.0, 0.0, 2.0], atol=1e-12)

    def test_downward_camera_sees_floor_marker(self):
        world = make_world({3: Pose6D.from_euler([0.0, 0.0, 0.0], [0, 0, 0])})
        truth = drone_at(z=1.5)
        dets = sense_markers(truth, world, DOWN, NO_NOISE, drone_rng(0, 0))
        assert len(dets) == 1
        assert np.linalg.norm(dets[0].rel_pose.t) == pytest.approx(1.5, abs=1e-12)

    def test_zero_noise_relative_pose_is_exact(self):
        marker = Pose6D.from_euler([1.0, 0.5, 0.0], [0.1, -0.2, 0.9])
        world = make_world({4: marker})
        truth = drone_at(x=0.5, y=0.2, z=1.8, yaw=0.7)
        cam = replace(DOWN, fov_half_angle=1.2, max_range=6.0)
        dets = sense_markers(truth, world, cam, NO_NOISE, drone_rng(0, 0))
        assert len(dets) == 1
        want = truth.pose.compose(cam.extrinsics).inverse().compose(marker)
        assert np.max(np.abs(dets[0].rel_pose.t - want.t)) < 1e-12
        assert np.max(np.abs(wrap_angles(dets[0].rel_pose.euler - want.euler))) < 1e-12

    def test_out_of_range_and_behind_are_invisible(self):
        world = make_world(
            {
                1: Pose6D.from_euler([6.0, 0.0, 0.0], [0, 0, 0]),  # beyond max range 5
                2: Pose6D.from_euler([-2.0, 0.0, 0.0], [0, 0, 0]),  # behind the camera
                3: Pose6D.from_euler([2.0, 2.5, 0.0], [0, 0, 0]),  # outside the cone
            }
        )
        dets = sense_markers(drone_at(), world, FORWARD, NO_NOISE, drone_rng(0, 0))
        assert dets == []

    def test_range_equals_norm_of_noisy_translation(self):
        world = make_world({k: Pose6D.from_euler([2.0, 0.2 * k, 0.0], [0, 0, 0]) for k in range(4)})
        noise = SensorNoise(pos_base=0.05, pos_per_m=0.02, ang_base=0.02, ang_per_m=0.01)
        rng = drone_rng(3, 0)
        dets = sense_markers(drone_at(), world, FORWARD, noise, rng)
        assert len(dets) == 4
        # the noise model's range is |rel_pose.t| of the noisy detection, to the bit
        config = EkfConfig()
        for det in dets:
            x, y, z = det.rel_pose.t.tolist()
            distance = math.sqrt(x * x + y * y + z * z)
            assert distance == pytest.approx(float(np.linalg.norm(det.rel_pose.t)), abs=1e-15)
            assert detection_variances(det, config) == (
                (config.det_pos_base + config.det_pos_per_m * distance) ** 2,
                (config.det_ang_base + config.det_ang_per_m * distance) ** 2,
            )

    def test_ids_sorted_and_never_corrupted(self):
        world = make_world({k: Pose6D.from_euler([2.0, 0.1 * k, 0.0], [0, 0, 0]) for k in (9, 1, 5)})
        noise = SensorNoise(pos_base=0.1, ang_base=0.05)
        dets = sense_markers(drone_at(), world, FORWARD, noise, drone_rng(1, 0))
        assert [d.marker_id for d in dets] == [1, 5, 9]

    def test_position_noise_std_matches_config_within_5_percent(self):
        # sigma at 2 m range: 0.02 + 0.01 * 2 = 0.04
        world = make_world({0: Pose6D.from_euler([2.0, 0.0, 0.0], [0, 0, 0])})
        noise = SensorNoise(pos_base=0.02, pos_per_m=0.01, ang_base=0.0, ang_per_m=0.0)
        rng = drone_rng(42, 0)
        xs = []
        for _ in range(10_000):
            (det,) = sense_markers(drone_at(), world, FORWARD, noise, rng)
            xs.append(det.rel_pose.t)
        spread = np.std(np.array(xs) - np.array([0.0, 0.0, 2.0]), axis=0, ddof=1)
        assert np.all(np.abs(spread - 0.04) < 0.05 * 0.04)

    def test_dropout_rate(self):
        world = make_world({0: Pose6D.from_euler([2.0, 0.0, 0.0], [0, 0, 0])})
        noise = SensorNoise(0.0, 0.0, 0.0, 0.0, dropout=0.3)
        rng = drone_rng(5, 0)
        seen = sum(
            bool(sense_markers(drone_at(), world, FORWARD, noise, rng))
            for _ in range(10_000)
        )
        assert abs(seen / 10_000 - 0.7) < 0.02


def boundary_markers(truth, cam, rng, count):
    """Marker positions on the range sphere and on the cone edge, offset by 0 or +-1e-9 m."""
    cam_in_world = truth.pose.compose(cam.extrinsics)
    fov = cam.fov_half_angle
    points = []
    for _ in range(count):
        phi = rng.uniform(-math.pi, math.pi)
        offset = rng.choice([-1e-9, 0.0, 1e-9])
        if rng.uniform() < 0.5:  # on the range sphere, inside the cone
            theta = rng.uniform(0.0, 0.9 * fov)
            direction = np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )
            point = (cam.max_range + offset) * direction
        else:  # on the cone surface, inside the range, pushed along its outward normal
            cos_f, sin_f = math.cos(fov), math.sin(fov)
            along = np.array([sin_f * math.cos(phi), sin_f * math.sin(phi), cos_f])
            normal = np.array([cos_f * math.cos(phi), cos_f * math.sin(phi), -sin_f])
            point = rng.uniform(0.1, 0.95) * cam.max_range * along + offset * normal
        points.append(cam_in_world.apply(point))
    return points


class TestSenseMarkersCull:
    """The array cull in sense_markers never changes what the exact per-marker test yields."""

    @staticmethod
    def assert_same(truth, world, cam, noise, seed):
        rng_cull, rng_ref = drone_rng(seed, 0), drone_rng(seed, 0)
        got = sense_markers(truth, world, cam, noise, rng_cull)
        want = sense_markers_every_marker(truth, world, cam, noise, rng_ref)
        assert [d.marker_id for d in got] == [d.marker_id for d in want]
        for a, b in zip(got, want):
            assert a.camera == b.camera
            assert np.array_equal(a.rel_pose.t, b.rel_pose.t)
            assert np.array_equal(a.rel_pose.q, b.rel_pose.q)
        np.testing.assert_equal(rng_cull.bit_generator.state, rng_ref.bit_generator.state)
        return len(want)

    @RIGS
    @pytest.mark.parametrize(
        "noise",
        [NO_NOISE, SensorNoise(), SensorNoise(dropout=0.3)],
        ids=["no_noise", "noise", "dropout"],
    )
    def test_same_detections_and_draws_as_every_marker_loop(self, cam, noise):
        rng = np.random.default_rng(2024)
        detected = 0
        for trial in range(30):
            position = rng.uniform([-8.0, -8.0, 0.5], [8.0, 8.0, 4.5])
            euler = rng.uniform([-0.3, -0.3, -math.pi], [0.3, 0.3, math.pi])
            truth = DroneTruth(Pose6D.from_euler(position, euler))
            points = list(rng.uniform([-10.0, -10.0, 0.0], [10.0, 10.0, 5.0], size=(20, 3)))
            points += boundary_markers(truth, cam, rng, 40)
            ids = rng.permutation(1024)[: len(points)].tolist()  # dict order != id order
            markers = {
                marker_id: Pose6D.from_euler(point, rng.uniform(-math.pi, math.pi, size=3))
                for marker_id, point in zip(ids, points)
            }
            detected += self.assert_same(truth, make_world(markers), cam, noise, trial)
        assert detected > 0

    def test_empty_world(self):
        truth = drone_at(z=1.5)
        for cam in (DOWN, FORWARD):
            assert self.assert_same(truth, make_world(), cam, SensorNoise(dropout=0.3), 3) == 0

    @RIGS
    def test_camera_pose_bit_identical_to_compose_inverse_form(self, cam):
        """The camera pose on floats, normalized twice as two ``Pose6D`` would be.

        Drones at any attitude, so the camera quaternion takes every sign and
        its two normalizations move last bits; markers fill the view, so
        nearly every one is detected and perturbed from that pose.
        """
        rng = np.random.default_rng(2025)
        detected = 0
        for trial in range(150):
            truth = DroneTruth(
                Pose6D(rng.uniform(-3.0, 3.0, 3), rng.standard_normal(4) * rng.uniform(0.1, 10.0))
            )
            cam_in_world = truth.pose.compose(cam.extrinsics)
            in_view = rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 3.0], (12, 3))
            markers = {
                marker_id: Pose6D(cam_in_world.apply(point), rng.standard_normal(4))
                for marker_id, point in enumerate(in_view)
            }
            world = World(markers, np.full(3, -20.0), np.full(3, 20.0))
            detected += self.assert_same(truth, world, cam, SensorNoise(), trial)
        assert detected > 150 * 10


def test_one_draw_of_six_is_two_draws_of_three():
    """``sense_markers`` and ``sense_odometry`` draw six normals where they drew 3 + 3."""
    for seed in range(50):
        six, three = drone_rng(seed, 1), drone_rng(seed, 1)
        for _ in range(20):
            got = six.standard_normal(6)
            want = np.concatenate([three.standard_normal(3), three.standard_normal(3)])
            assert got.tobytes() == want.tobytes()
            assert six.uniform() == three.uniform()
        np.testing.assert_equal(six.bit_generator.state, three.bit_generator.state)


def test_detection_is_slotted():
    """A detection holds its three fields and nothing else: keyposes retain them."""
    assert MarkerDetection.__slots__ == ("marker_id", "camera", "rel_pose")
    det = MarkerDetection(1, "down", Pose6D.identity())
    assert not hasattr(det, "__dict__")


class TestSenseOdometry:
    def test_exact_at_zero_noise(self):
        prev = drone_at(x=0.0, yaw=0.0)
        curr = drone_at(x=1.0, yaw=0.0)
        odo = sense_odometry(prev, curr, 1.0, NO_NOISE, drone_rng(0, 0))
        assert np.allclose(odo.v_body, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(odo.euler_rates, 0.0, atol=1e-12)

    def test_recovers_commanded_velocity_through_step(self):
        world = make_world()
        rng = drone_rng(9, 0)
        truth = drone_at(x=1.0, y=-2.0, yaw=0.8)
        cmd = VelocityCommand([0.4, -0.2, 0.1], yaw_rate=0.3)
        moved = step_drone(truth, cmd, 0.1, world)
        odo = sense_odometry(truth, moved, 0.1, NO_NOISE, rng)
        assert np.allclose(odo.v_body, cmd.v_body, atol=1e-10)
        assert odo.euler_rates[2] == pytest.approx(0.3, abs=1e-10)

    def test_rate_wraps_across_pi(self):
        prev = drone_at(yaw=3.1)
        curr = drone_at(yaw=-3.1)  # crossed the +pi seam
        odo = sense_odometry(prev, curr, 0.1, NO_NOISE, drone_rng(0, 0))
        expected = (2 * math.pi - 6.2) / 0.1
        assert odo.euler_rates[2] == pytest.approx(expected, abs=1e-9)

    def test_noise_mean_within_monte_carlo_bound(self):
        prev = drone_at()
        curr = drone_at(x=0.1)
        noise = SensorNoise(odom_vel_sigma=0.05, odom_rate_sigma=0.02)
        rng = drone_rng(11, 0)
        vs = np.array(
            [sense_odometry(prev, curr, 0.1, noise, rng).v_body for _ in range(10_000)]
        )
        # standard error of the mean: 3 sigma / sqrt(N) = 3 sigma / 100
        assert np.all(np.abs(vs.mean(axis=0) - [1.0, 0.0, 0.0]) < 3 * 0.05 / 100)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            sense_odometry(drone_at(), drone_at(), 0.0, NO_NOISE, drone_rng(0, 0))

    @pytest.mark.parametrize(
        "noise", [NO_NOISE, SensorNoise(), SensorNoise(odom_rate_sigma=0.0)],
        ids=["no_noise", "noise", "velocity_noise_only"],
    )
    def test_bit_identical_to_array_form(self, noise):
        rng = np.random.default_rng(2026)
        got_rng, want_rng = drone_rng(4, 2), drone_rng(4, 2)
        for _ in range(3000):
            # any attitude, and yaws on both sides of the +-pi seam
            euler = rng.uniform(-math.pi, math.pi, (2, 3))
            euler[1, 2] = rng.choice([-1.0, 1.0]) * math.pi - rng.uniform(-0.2, 0.2)
            prev, curr = (
                DroneTruth(Pose6D.from_euler(rng.uniform(-5.0, 5.0, 3), e)) for e in euler
            )
            dt = float(rng.uniform(0.01, 0.5))
            got = sense_odometry(prev, curr, dt, noise, got_rng)
            want = sense_odometry_array(prev, curr, dt, noise, want_rng)
            assert got.v_body.tobytes() == want.v_body.tobytes()
            assert got.euler_rates.tobytes() == want.euler_rates.tobytes()
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


class TestDeterminism:
    def test_identical_seed_gives_bit_identical_streams(self):
        world = make_world({k: Pose6D.from_euler([2.0, 0.3 * k, 0.0], [0, 0, 0]) for k in range(3)})
        noise = SensorNoise(dropout=0.1)

        def run(seed):
            rng = drone_rng(seed, 1)
            truth = drone_at()
            frames = []
            for tick in range(50):
                moved = step_drone(truth, VelocityCommand([0.2, 0.05, 0.0], 0.1), 0.1, world)
                odo = sense_odometry(truth, moved, 0.1, noise, rng)
                dets = sense_markers(moved, world, FORWARD, noise, rng)
                frames.append((odo.v_body.tobytes(), [(d.marker_id, d.rel_pose.t.tobytes()) for d in dets]))
                truth = moved
            return frames

        assert run(77) == run(77)
        assert run(77) != run(78)

    def test_streams_independent_across_drones(self):
        a = drone_rng(123, 0).standard_normal(8)
        b = drone_rng(123, 1).standard_normal(8)
        assert not np.allclose(a, b)


class TestCameraValidation:
    def test_table_is_read_only_and_holds_the_two_rigs(self):
        with pytest.raises(TypeError):
            CAMERAS["thermal"] = DOWN
        assert list(CAMERAS) == ["down", "forward"]
        assert all(cam.name == name for name, cam in CAMERAS.items())
        assert (DOWN.fov_half_angle, DOWN.max_range) == (0.9, 4.0)
        assert (FORWARD.fov_half_angle, FORWARD.max_range) == (0.8, 5.0)
        assert DOWN.extrinsics.t.tolist() == FORWARD.extrinsics.t.tolist() == [0.0, 0.0, 0.0]
        # down looks along body -z, forward along body +x
        assert np.allclose(DOWN.extrinsics.apply([0.0, 0.0, 1.0]), [0.0, 0.0, -1.0])
        assert np.allclose(FORWARD.extrinsics.apply([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0])

    def test_bad_fov_or_range_rejected(self):
        with pytest.raises(ValueError):
            CameraParams("c", Pose6D.identity(), fov_half_angle=0.0, max_range=1.0)
        with pytest.raises(ValueError):
            CameraParams("c", Pose6D.identity(), fov_half_angle=math.pi / 2, max_range=1.0)
        with pytest.raises(ValueError):
            CameraParams("c", Pose6D.identity(), fov_half_angle=0.5, max_range=0.0)
