"""Map store invariants: uniqueness, fusion math, the freeze window."""

import numpy as np
import pytest

from reference import IDENTITY

from markerswarm.geom import Pose6D, rotation_angle_between
from markerswarm.mapstore import GlobalMap, MapContractError, fuse_pose
from markerswarm.swarm.protocol import STATION_ID, MapSnapshot, decode, encode


def make_map(n_fuse=5):
    gm = GlobalMap(n_fuse=n_fuse)
    gm.register_drone(0, 0)
    return gm


def diag_cov(pos=0.01, ang=0.001):
    return np.diag([pos] * 3 + [ang] * 3)


class TestInsert:
    def test_first_insert_has_obs_count_one(self):
        gm = make_map()
        entry = gm.insert_marker(0, 5, IDENTITY, diag_cov())
        assert entry.obs_count == 1
        assert gm.lookup(5) is entry

    def test_duplicate_insert_is_contract_violation(self):
        gm = make_map()
        gm.insert_marker(0, 5, IDENTITY, diag_cov())
        with pytest.raises(MapContractError):
            gm.insert_marker(0, 5, IDENTITY, diag_cov())

    def test_dead_frame_rejected(self):
        gm = make_map()
        with pytest.raises(MapContractError):
            gm.insert_marker(3, 1, IDENTITY, diag_cov())

    def test_lookup_missing_returns_none(self):
        assert make_map().lookup(9) is None


class TestFusePose:
    def test_equal_variance_positions_average(self):
        # positions 0 and 1 on x with equal unit variances: fused x = 0.5
        pa = Pose6D.from_vector([0, 0, 0, 0, 0, 0])
        pb = Pose6D.from_vector([1, 0, 0, 0, 0, 0])
        pose, cov = fuse_pose(pa, np.eye(6), pb, np.eye(6))
        assert pose.t[0] == pytest.approx(0.5, abs=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_identical_pose_halves_position_cov(self):
        p = Pose6D.from_euler([1.0, 2.0, 0.5], [0.1, 0.0, -0.4])
        base = diag_cov(0.04, 0.004)
        pose, cov = fuse_pose(p, base, p, base)
        assert np.max(np.abs(np.subtract(pose.t, p.t))) < 1e-12
        assert rotation_angle_between(pose.q, p.q) < 1e-12
        assert np.max(np.abs(cov[:3, :3] - base[:3, :3] / 2)) < 1e-12

    def test_information_weighting_favors_sharp_input(self):
        pa = Pose6D.from_vector([0, 0, 0, 0, 0, 0])
        pb = Pose6D.from_vector([1, 0, 0, 0, 0, 0])
        pose, _ = fuse_pose(pa, np.diag([0.01] * 3 + [1] * 3), pb, np.diag([1] * 3 + [1] * 3))
        assert pose.t[0] == pytest.approx(0.01 / 1.01, abs=1e-12)

    def test_orientation_slerp_weight_from_angle_traces(self):
        pa = Pose6D.from_euler([0, 0, 0], [0, 0, 0.0])
        pb = Pose6D.from_euler([0, 0, 0], [0, 0, 1.0])
        # old angle cov trace 3x the new: weight toward new = 3/4
        pose, _ = fuse_pose(pa, np.diag([1] * 3 + [3.0] * 3), pb, np.diag([1] * 3 + [1.0] * 3))
        assert pose.to_vector()[5] == pytest.approx(0.75, abs=1e-9)

    def test_fused_position_cov_contracts_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            ca, cb = np.eye(6), np.eye(6)
            ca[:3, :3] = a @ a.T + 0.05 * np.eye(3)
            cb[:3, :3] = b @ b.T + 0.05 * np.eye(3)
            pa = Pose6D.from_vector(rng.uniform(-1, 1, 6) * 0.2)
            pb = Pose6D.from_vector(rng.uniform(-1, 1, 6) * 0.2)
            _, fused = fuse_pose(pa, ca, pb, cb)
            for other in (ca, cb):
                gap = np.linalg.eigvalsh(other[:3, :3] - fused[:3, :3])[0]
                assert gap > -1e-10
            assert np.max(np.abs(fused - fused.T)) < 1e-12

    def test_position_fusion_is_symmetric_in_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pa = Pose6D.from_vector(rng.uniform(-1, 1, 6) * 0.3)
            pb = Pose6D.from_vector(rng.uniform(-1, 1, 6) * 0.3)
            ca = diag_cov(rng.uniform(0.01, 1.0), rng.uniform(0.001, 0.1))
            cb = diag_cov(rng.uniform(0.01, 1.0), rng.uniform(0.001, 0.1))
            p_ab, c_ab = fuse_pose(pa, ca, pb, cb)
            p_ba, c_ba = fuse_pose(pb, cb, pa, ca)
            assert np.max(np.abs(np.subtract(p_ab.t, p_ba.t))) < 1e-12
            assert np.max(np.abs(c_ab - c_ba)) < 1e-12
            # orientation is symmetric too with the complementary weight
            assert rotation_angle_between(p_ab.q, p_ba.q) < 1e-9


class TestFuseObservation:
    def test_obs_count_increments_through_window(self):
        gm = make_map(n_fuse=5)
        gm.insert_marker(0, 1, IDENTITY, diag_cov())
        for k in range(2, 6):
            entry = gm.fuse_observation(1, IDENTITY, diag_cov())
            assert entry.obs_count == k
        assert gm.lookup(1).obs_count == 5

    def test_sixth_observation_is_frozen(self):
        gm = make_map(n_fuse=5)
        gm.insert_marker(0, 1, IDENTITY, diag_cov())
        for k in range(4):
            gm.fuse_observation(1, IDENTITY, diag_cov())
        before = gm.lookup(1)
        wild = Pose6D.from_vector([5.0, -3.0, 1.0, 0.5, 0.2, -1.0])
        after = gm.fuse_observation(1, wild, diag_cov())
        assert after.obs_count == 5
        assert np.max(np.abs(np.subtract(after.pose.t, before.pose.t))) == 0.0
        assert rotation_angle_between(after.pose.q, before.pose.q) == 0.0
        assert after is before

    def test_fusing_unknown_marker_is_contract_violation(self):
        gm = make_map()
        with pytest.raises(MapContractError):
            gm.fuse_observation(4, IDENTITY, diag_cov())

    def test_fusion_tightens_entry(self):
        gm = make_map()
        gm.insert_marker(0, 2, Pose6D.from_vector([0, 0, 0, 0, 0, 0]), diag_cov(0.04))
        trace0 = np.trace(gm.lookup(2).cov)
        gm.fuse_observation(2, Pose6D.from_vector([0.01, 0, 0, 0, 0, 0]), diag_cov(0.04))
        assert np.trace(gm.lookup(2).cov) < trace0


class TestFramesAndSnapshot:
    def test_reassign_moves_drones_and_retires_frame(self):
        gm = GlobalMap()
        gm.register_drone(0, 0)
        gm.register_drone(1, 1)
        gm.register_drone(2, 1)
        moved = gm.reassign_frame(loser=1, winner=0)
        assert moved == [1, 2]
        assert gm.membership == {0: 0, 1: 0, 2: 0}
        assert gm.frames == {0}

    def test_entries_in_frame_sorted(self):
        gm = GlobalMap()
        gm.register_drone(0, 0)
        gm.register_drone(1, 1)
        gm.insert_marker(0, 9, IDENTITY, diag_cov())
        gm.insert_marker(0, 3, IDENTITY, diag_cov())
        gm.insert_marker(1, 4, IDENTITY, diag_cov())
        assert [e.marker_id for e in gm.entries_in_frame(0)] == [3, 9]
        assert [e.marker_id for e in gm.entries_in_frame(1)] == [4]

    def test_snapshot_round_trip(self):
        gm = make_map()
        pose = Pose6D.from_euler([1.0, 2.0, 0.0], [0.0, 0.0, 0.7])
        rng = np.random.default_rng(167)
        a = rng.standard_normal((6, 6))
        gm.insert_marker(0, 7, pose, 0.5 * (a @ a.T + (a @ a.T).T))
        entry = gm.lookup(7)
        snap = gm.snapshot()
        assert len(snap) == 1
        d = snap[0]
        # the file form: the whole matrix, row by row
        assert set(d) == {"marker_id", "frame", "pose", "cov", "obs_count"}
        assert d["cov"] == entry.cov.reshape(-1).tolist()
        # the wire form (21 values) gives back the same bits
        line = encode(MapSnapshot((entry,), ()), sender=STATION_ID, seq=1)
        (back,) = decode(line).msg.entries
        assert (back.marker_id, back.frame, back.obs_count) == (7, 0, 1)
        assert np.max(np.abs(np.subtract(back.pose.t, pose.t))) < 1e-15
        assert back.cov.tobytes() == entry.cov.tobytes()

    def test_snapshot_sorted_by_marker_id(self):
        gm = make_map()
        for marker_id in (9, 1, 5):
            gm.insert_marker(0, marker_id, IDENTITY, diag_cov())
        assert [d["marker_id"] for d in gm.snapshot()] == [1, 5, 9]
