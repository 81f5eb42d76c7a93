"""Transform estimation and frame merging."""

import logging
import math

import numpy as np
import pytest

from reference import IDENTITY

from markerswarm import framemerge
from markerswarm.geom import Pose6D, rotation_angle_between
from markerswarm.mapstore import GlobalMap, MapContractError
from markerswarm.framemerge import (
    FrameTransform,
    estimate_transform,
    find_matches,
    hops_to_live,
    merge_frames,
    refine_transform,
)


def random_transform(rng):
    return Pose6D.from_euler(
        rng.uniform(-5, 5, size=3),
        [rng.uniform(-3, 3), rng.uniform(-1.3, 1.3), rng.uniform(-3, 3)],
    )


def random_marker_pose(rng, collinear=False, index=0):
    if collinear:
        t = np.array([1.0, 2.0, 0.5]) + index * np.array([0.7, -0.3, 0.2])
    else:
        t = rng.uniform(-2, 2, size=3)
    return Pose6D.from_euler(t, [rng.uniform(-3, 3), rng.uniform(-1.2, 1.2), rng.uniform(-3, 3)])


def pose_error(a: Pose6D, b: Pose6D):
    return float(np.linalg.norm(np.subtract(a.t, b.t))), rotation_angle_between(a.q, b.q)


class TestEstimateTransformExact:
    @pytest.mark.parametrize("support", [1, 2, 3, 10])
    def test_exact_recovery_zero_noise(self, support):
        rng = np.random.default_rng(600 + support)
        for _ in range(100):
            truth = random_transform(rng)
            pairs = []
            for k in range(support):
                pose_b = random_marker_pose(rng, index=k)
                pairs.append((truth.compose(pose_b), pose_b))
            ft = estimate_transform(pairs, from_frame=2, to_frame=1)
            dt, dr = pose_error(ft.rt, truth)
            assert dt < 1e-9 and dr < 1e-9
            assert ft.residual < 1e-9
            assert ft.support == support
            assert abs(ft.scale - 1.0) < 1e-9 or support == 1

    def test_exact_recovery_collinear_triples(self):
        # rank-1 position spread exercises the orientation fallback
        rng = np.random.default_rng(61)
        for _ in range(100):
            truth = random_transform(rng)
            pairs = []
            for k in range(3):
                pose_b = random_marker_pose(rng, collinear=True, index=k)
                pairs.append((truth.compose(pose_b), pose_b))
            ft = estimate_transform(pairs)
            dt, dr = pose_error(ft.rt, truth)
            assert dt < 1e-9 and dr < 1e-9

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError):
            estimate_transform([])


class TestEstimateTransformNoise:
    def test_translation_error_decreases_with_support(self):
        rng = np.random.default_rng(62)
        sigma = 0.01
        medians = {}
        for support in (3, 6, 12):
            errors = []
            for _ in range(300):
                truth = random_transform(rng)
                pairs = []
                for _ in range(support):
                    pose_b = random_marker_pose(rng)
                    pose_a = truth.compose(pose_b)
                    noisy_a = Pose6D(pose_a.t + sigma * rng.standard_normal(3), pose_a.q)
                    pairs.append((noisy_a, pose_b))
                ft = estimate_transform(pairs)
                errors.append(np.linalg.norm(np.subtract(ft.rt.t, truth.t)))
            medians[support] = float(np.median(errors))
        assert medians[3] > medians[6] > medians[12]

    def test_rotation_always_proper(self):
        # near-planar clouds with heavy noise provoke the reflection case
        rng = np.random.default_rng(63)
        for _ in range(300):
            truth = random_transform(rng)
            pairs = []
            for _ in range(4):
                t = np.append(rng.uniform(-2, 2, size=2), 0.0)
                pose_b = Pose6D.from_euler(t, [0, 0, rng.uniform(-3, 3)])
                pose_a = truth.compose(pose_b)
                noisy_a = Pose6D(pose_a.t + 0.3 * rng.standard_normal(3), pose_a.q)
                pairs.append((noisy_a, pose_b))
            ft = estimate_transform(pairs)
            assert np.linalg.det(ft.rt.rotation()) == pytest.approx(1.0, abs=1e-9)

    def test_scale_diagnostic_flags_non_rigid_data(self, caplog):
        rng = np.random.default_rng(64)
        truth = random_transform(rng)
        pairs = []
        for _ in range(5):
            pose_b = random_marker_pose(rng)
            stretched = Pose6D(truth.apply(pose_b.t) * 1.12, truth.compose(pose_b).q)
            pairs.append((stretched, pose_b))
        with caplog.at_level(logging.WARNING, logger="markerswarm.framemerge"):
            ft = estimate_transform(pairs)
        assert not (0.95 <= ft.scale <= 1.05)
        assert any("scale" in rec.message for rec in caplog.records)


class TestFindMatches:
    def test_intersection_with_pending_observations_sorted(self):
        gmap = GlobalMap()
        gmap.register_drone(0, 0)
        gmap.register_drone(1, 1)
        for marker_id in (8, 2, 5):
            gmap.insert_marker(0, marker_id, IDENTITY, np.eye(6) * 0.01)
        gmap.insert_marker(1, 3, IDENTITY, np.eye(6) * 0.01)
        pending = {8: IDENTITY, 2: IDENTITY, 99: IDENTITY}
        assert find_matches(gmap, 0, 1, pending) == [2, 8]
        assert find_matches(gmap, 0, 1, {}) == []

    def test_same_frame_query_rejected(self):
        gmap = GlobalMap()
        gmap.register_drone(0, 0)
        gmap.insert_marker(0, 4, IDENTITY, np.eye(6) * 0.01)
        with pytest.raises(ValueError):
            find_matches(gmap, 0, 0, {})


def build_two_frame_map(rng, n_in_loser=3):
    gmap = GlobalMap()
    gmap.register_drone(0, 0)
    gmap.register_drone(1, 1)
    gmap.register_drone(2, 1)
    loser_entries = {}
    for k in range(n_in_loser):
        pose = random_marker_pose(rng, index=k)
        cov = np.diag([0.01] * 3 + [0.001] * 3)
        gmap.insert_marker(1, 10 + k, pose, cov)
        loser_entries[10 + k] = pose
    gmap.insert_marker(0, 1, random_marker_pose(rng), np.diag([0.02] * 3 + [0.002] * 3))
    return gmap, loser_entries


class TestMergeFrames:
    def test_entries_reexpressed_and_drones_reassigned(self):
        rng = np.random.default_rng(65)
        gmap, loser_entries = build_two_frame_map(rng)
        rt = random_transform(rng)
        ft = FrameTransform(1, 0, rt, 0.0, 1, 1.0)
        record, moved = merge_frames(gmap, ft)
        assert moved == [1, 2]
        assert gmap.frames == {0}
        for marker_id, old_pose in loser_entries.items():
            entry = gmap.lookup(marker_id)
            assert entry.frame == 0
            dt, dr = pose_error(entry.pose, rt.compose(old_pose))
            assert dt < 1e-12 and dr < 1e-12
            # transport preserves the uncertainty volume
            assert abs(np.trace(entry.cov) - (0.03 + 0.003)) < 1e-12
        assert record.pre_merge_poses.keys() == loser_entries.keys()

    def test_untouched_winner_entries(self):
        rng = np.random.default_rng(66)
        gmap, _ = build_two_frame_map(rng)
        before = gmap.lookup(1).pose
        ft = FrameTransform(1, 0, random_transform(rng), 0.0, 1, 1.0)
        merge_frames(gmap, ft)
        dt, dr = pose_error(gmap.lookup(1).pose, before)
        assert dt == 0.0 and dr < 1e-15

    def test_self_merge_rejected(self):
        rng = np.random.default_rng(67)
        gmap, _ = build_two_frame_map(rng)
        ft = FrameTransform(0, 0, IDENTITY, 0.0, 1, 1.0)
        with pytest.raises(MapContractError):
            merge_frames(gmap, ft)

    def test_higher_id_cannot_win(self):
        rng = np.random.default_rng(68)
        gmap, _ = build_two_frame_map(rng)
        ft = FrameTransform(0, 1, IDENTITY, 0.0, 1, 1.0)
        with pytest.raises(MapContractError):
            merge_frames(gmap, ft)

    def test_chain_of_merges_leaves_one_frame(self):
        rng = np.random.default_rng(69)
        gmap = GlobalMap()
        k = 4  # k+1 frames, k merges
        for frame in range(k + 1):
            gmap.register_drone(frame, frame)
            gmap.insert_marker(frame, 20 + frame, random_marker_pose(rng), np.eye(6) * 0.01)
        for loser in range(k, 0, -1):
            ft = FrameTransform(loser, 0, random_transform(rng), 0.0, 1, 1.0)
            merge_frames(gmap, ft)
        assert gmap.frames == {0}
        assert all(e.frame == 0 for e in gmap.entries.values())


class TestHopsToLive:
    rt_21 = Pose6D.from_euler([1.0, 0.0, 0.0], [0, 0, 0.2])
    rt_10 = Pose6D.from_euler([0.0, 2.0, 0.0], [0, 0, -0.4])
    rt_43 = Pose6D.from_euler([0.0, 0.0, 0.5], [0, 0, 0.1])
    # oldest first: 2 retired into 1, then 4 into 3, then 1 into 0
    table = ((2, 1, rt_21), (4, 3, rt_43), (1, 0, rt_10))

    def test_two_hop_chain_is_walked_in_one_pass(self):
        class OnePass:
            """The table, iterable exactly once."""

            def __init__(self, hops):
                self.hops = hops
                self.passes = 0

            def __iter__(self):
                self.passes += 1
                assert self.passes == 1
                return iter(self.hops)

        table = OnePass(self.table)
        hops = hops_to_live(2, table)
        assert hops == [(2, 1, self.rt_21), (1, 0, self.rt_10)]
        assert table.passes == 1

    def test_each_retired_frame_ends_in_its_live_frame(self):
        assert [(r, w) for r, w, _ in hops_to_live(1, self.table)] == [(1, 0)]
        assert [(r, w) for r, w, _ in hops_to_live(4, self.table)] == [(4, 3)]

    @pytest.mark.parametrize("frame", [0, 3])
    def test_live_frame_has_no_hop(self, frame):
        assert hops_to_live(frame, self.table) == []
        assert hops_to_live(frame, ()) == []

    def test_frame_the_table_does_not_name_has_no_hop(self):
        assert hops_to_live(7, self.table) == []


class TestRefineTransform:
    def _merged_map(self, rng, true_rt, noise=0.0):
        """Two markers in the loser frame; merge on the first only."""
        gmap = GlobalMap()
        gmap.register_drone(0, 0)
        gmap.register_drone(1, 1)
        poses_b = {30: random_marker_pose(rng, index=0), 31: random_marker_pose(rng, index=1)}
        for marker_id, pose in poses_b.items():
            gmap.insert_marker(1, marker_id, pose, np.eye(6) * 0.01)

        def observe_in_winner(marker_id):
            exact = true_rt.compose(poses_b[marker_id])
            if noise == 0.0:
                return exact
            return Pose6D(exact.t + noise * rng.standard_normal(3), exact.q)

        first = [(30, observe_in_winner(30), poses_b[30])]
        ft = estimate_transform([(w, l) for _, w, l in first], 1, 0)
        record, _ = merge_frames(gmap, ft, pairs=first)
        return gmap, record, observe_in_winner

    def test_consistent_second_match_is_noop(self):
        rng = np.random.default_rng(70)
        true_rt = random_transform(rng)
        gmap, record, observe = self._merged_map(rng, true_rt, noise=0.0)
        before = {m: gmap.lookup(m).pose for m in (30, 31)}
        result = refine_transform(gmap, record, [(31, observe(31))])
        assert result is None
        for marker_id, pose in before.items():
            dt, dr = pose_error(gmap.lookup(marker_id).pose, pose)
            assert dt == 0.0 and dr < 1e-15

    def test_no_new_matches_is_noop(self):
        rng = np.random.default_rng(71)
        gmap, record, observe = self._merged_map(rng, random_transform(rng))
        assert refine_transform(gmap, record, []) is None
        assert refine_transform(gmap, record, [(30, observe(30))]) is None  # already paired

    def test_noisy_second_match_reduces_residual(self, monkeypatch):
        rng = np.random.default_rng(72)
        true_rt = random_transform(rng)
        gmap, record, observe = self._merged_map(rng, true_rt, noise=0.02)
        old_rt = record.transform.rt
        monkeypatch.setattr(framemerge, "REFINE_EPS_TRANSLATION", 1e-6)
        refined = refine_transform(gmap, record, [(31, observe(31))])
        assert refined is not None
        pair_set = [(w, l) for _, w, l in record.pairs]

        def rms(rt):
            return math.sqrt(
                np.mean([np.sum((rt.apply(l.t) - w.t) ** 2) for w, l in pair_set])
            )

        assert rms(refined.rt) <= rms(old_rt) + 1e-12
        # entries carried the correction delta: net effect re-expresses the
        # pre-merge pose through the refined transform
        want = refined.rt.compose(record.pre_merge_poses[30])
        dt, _ = pose_error(gmap.lookup(30).pose, want)
        assert dt < 1e-9

    def test_refit_with_scale_outside_band_is_refused(self, caplog):
        rng = np.random.default_rng(73)
        gmap, record, observe = self._merged_map(rng, random_transform(rng))
        applied = record.transform
        before = {m: gmap.lookup(m) for m in (30, 31)}
        # marker 31 seen 20% farther from marker 30 than the loser frame holds it
        w30, w31 = observe(30), observe(31)
        stretched = Pose6D(w30.t + 1.2 * np.subtract(w31.t, w30.t), w31.q)
        with caplog.at_level(logging.WARNING, logger="markerswarm.framemerge"):
            assert refine_transform(gmap, record, [(31, stretched)]) is None
        assert any("refused" in rec.message for rec in caplog.records)
        assert record.transform is applied
        for marker_id, entry in before.items():
            assert gmap.lookup(marker_id) is entry
