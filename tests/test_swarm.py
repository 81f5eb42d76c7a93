"""Behavior tests for the sweep policy, drone node, station and runner."""

import json
import logging
import math
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import IDENTITY, choose_destination_array

from markerswarm.bundle import Keypose
from markerswarm.geom import Pose6D, rotation_angle_between
from markerswarm.scenario import PolicyConfig, load_scenario, parse_scenario
from markerswarm.swarm import protocol, run_scenario, runner
from markerswarm.swarm.nodes import (
    STALL_LIMIT,
    GroundStation,
    NavptsNode,
    SweepPolicy,
    _distances,
)
from markerswarm.swarm.protocol import (
    STATION_ID,
    Endpoint,
    Hello,
    MapSnapshot,
    MarkerObs,
    PoseReport,
    ProtocolError,
    QueueTransport,
    decode,
    encode,
)
from markerswarm.swarm.runner import MODES, _build_system, _handle_mail, _run_ticks
from markerswarm.worldsim import CAMERAS, MarkerDetection, OdometryReading

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- sweep policy ------------------------------------------------------


def square_policy(**overrides):
    fields = dict(cell_size=2.0, altitude=1.5, speed=0.8, r_visit=0.3)
    fields.update(overrides)
    return SweepPolicy([-2.0, -2.0, 0.0], [2.0, 2.0, 2.0], PolicyConfig(**fields))


def at(x, y, z=1.5, yaw=0.0):
    return Pose6D.from_euler([x, y, z], [0.0, 0.0, yaw])


class TestSweepPolicy:
    def test_grid_layout_row_major(self):
        policy = square_policy()
        expected = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
        assert len(policy.cells) == 4
        for cell, (x, y) in zip(policy.cells, expected):
            np.testing.assert_allclose(cell, [x, y, 1.5])

    def test_altitude_clipped_to_bounds(self):
        cfg = PolicyConfig(cell_size=2.0, altitude=9.0)
        policy = SweepPolicy([-2, -2, 0], [2, 2, 2], cfg)
        assert all(cell[2] == 2.0 for cell in policy.cells)

    def test_single_cell_when_cells_exceed_span(self):
        cfg = PolicyConfig(cell_size=1.2)
        policy = SweepPolicy([-0.4, -0.4, 0.0], [0.4, 0.4, 1.0], cfg)
        assert len(policy.cells) == 1
        np.testing.assert_allclose(policy.cells[0][:2], [0.0, 0.0])

    def test_nearest_cell_with_index_tiebreak(self):
        policy = square_policy()
        cmd = policy.choose_destination(at(0.0, 0.0))
        # all four centers equidistant; lowest index (-1,-1) wins
        direction = cmd.v_body[:2] / np.linalg.norm(cmd.v_body[:2])
        np.testing.assert_allclose(direction, [-1, -1] / np.sqrt(2), atol=1e-12)

    def test_teleport_sweep_visits_every_cell_nearest_first(self):
        policy = square_policy()
        pose = at(-1.0, -1.0)
        order = []
        for _ in range(3):
            policy.choose_destination(pose)
            order.append(policy._target)
            pose = at(*policy.cells[policy._target][:2])
        # serpentine outcome of nearest-first: right, up, then across
        assert order == [1, 3, 2]
        assert policy.visited == {0, 1, 3}
        # landing on the last cell completes the pass and starts a new one
        policy.choose_destination(pose)
        assert len(policy.visited) < 4

    def test_arrival_marks_visited_and_retargets(self):
        policy = square_policy()
        cmd = policy.choose_destination(at(-1.0, -1.0))
        assert 0 in policy.visited
        # next best is (1,-1): +x direction, tie against (-1,1) broken by index
        assert cmd.v_body[0] > 0 and abs(cmd.v_body[1]) < 1e-12

    def test_resweep_after_full_coverage(self):
        policy = square_policy()
        for index in range(4):
            policy.choose_destination(at(*policy.cells[index][:2]))
        # everything seen once; the policy must start over, not stall
        cmd = policy.choose_destination(at(0.0, 0.0))
        assert np.linalg.norm(cmd.v_body) > 0.1
        assert len(policy.visited) < 4

    def test_unreachable_target_abandoned_after_stall_limit(self):
        policy = square_policy()
        pose = at(0.0, 0.0)  # never moves, as if pinned against a wall
        for _ in range(1 + STALL_LIMIT):
            cmd = policy.choose_destination(pose)
        # first target (-1,-1) written off; new target (1,-1) flips v_x
        assert cmd.v_body[0] > 0
        assert 0 in policy.visited

    def test_stalled_policy_never_freezes(self):
        policy = square_policy()
        pose = at(0.0, 0.0)
        speeds = [
            float(np.linalg.norm(policy.choose_destination(pose).v_body))
            for _ in range(8 * STALL_LIMIT)
        ]
        assert min(speeds) > 0.1

    def test_speed_capped_and_tapered(self):
        policy = square_policy()
        far = policy.choose_destination(at(1.0, 1.0, 1.5))  # 2 m+ from cell 0
        assert np.linalg.norm(far.v_body) == pytest.approx(0.8)
        policy2 = square_policy()
        near = policy2.choose_destination(at(-1.0, -1.35, 1.5))  # 0.35 m out
        assert np.linalg.norm(near.v_body) == pytest.approx(0.35)

    def test_velocity_expressed_in_body_frame(self):
        policy = square_policy()
        yawed = at(0.0, 0.0, 1.5, yaw=np.pi / 2)
        cmd = policy.choose_destination(yawed)
        v_world = yawed.rotation() @ cmd.v_body
        direction = v_world[:2] / np.linalg.norm(v_world[:2])
        np.testing.assert_allclose(direction, [-1, -1] / np.sqrt(2), atol=1e-12)

    def test_commands_and_state_bit_identical_to_array_form(self):
        """Equal distances tie to the lowest index; the velocity arithmetic runs on floats."""
        rng = np.random.default_rng(20)
        got, want = square_policy(r_visit=0.5), square_policy(r_visit=0.5)
        pose = at(0.0, 0.0)  # equidistant from all four cells
        for step in range(3000):
            a, b = got.choose_destination(pose), choose_destination_array(want, pose)
            assert np.array(a.v_body).tobytes() == np.array(b.v_body).tobytes()
            assert a.yaw_rate == b.yaw_rate
            assert (got.visited, got._target, got._best_distance, got._no_progress) == (
                want.visited, want._target, want._best_distance, want._no_progress
            )
            # fly the command with a drift; now and then jump to a cell centre or a tie
            t = pose.t + pose.rotation() @ a.v_body * 0.3 + rng.normal(0.0, 0.05, 3)
            if step % 97 == 0:
                t = np.array(rng.choice([[0.0, 0.0, 1.5], [1.0, 1.0, 1.5], [0.0, 1.0, 1.5]]))
            pose = Pose6D.from_euler(t, [0.02, -0.01, rng.uniform(-math.pi, math.pi)])

    def test_batched_distances_bit_identical_to_per_row_dot(self):
        rng = np.random.default_rng(19)
        for scale in (1e-3, 1.0, 7.0, 1e4):
            cells = rng.normal(size=(2000, 3)) * scale
            position = rng.normal(size=3) * scale
            expected = [math.sqrt(d.dot(d)) for d in cells - position]
            assert _distances(cells, position) == expected
        policy = SweepPolicy([-3.0, -3.0, 0.0], [3.0, 3.0, 2.0], PolicyConfig(cell_size=0.7))
        position = np.array([0.3, -1.1, 1.4])
        expected = [math.sqrt(d.dot(d)) for d in policy.cells - position]
        assert _distances(policy.cells, position) == expected


# -- node fixtures -----------------------------------------------------


def node_scenario(n_fuse=5, extra=None):
    raw = {
        "name": "node-test",
        "seed": 1,
        "duration": 2.0,
        "tick_rate": 10.0,
        "bounds": {"min": [-3.0, -3.0, 0.0], "max": [3.0, 3.0, 2.0]},
        "markers": [{"id": 5, "pose": {"t": [0.5, 0.0, 0.0], "euler": [0, 0, 0]}}],
        "drones": [
            {"id": 0, "start_pose": {"t": [0, 0, 1], "euler": [0, 0, 0]}},
            {"id": 1, "start_pose": {"t": [1, 1, 1], "euler": [0, 0, 0]}},
        ],
        "fusion": {"n_fuse": n_fuse},
    }
    if extra:
        raw.update(extra)
    return parse_scenario(raw)


def make_node(scenario, drone_id=0):
    setup = next(d for d in scenario.drones if d.drone_id == drone_id)
    node = NavptsNode(setup, scenario)
    station_rx = Endpoint(STATION_ID, node.inbox)
    return node, node.outbox, station_rx


def still_odometry():
    return OdometryReading(0.1, np.zeros(3), np.zeros(3))


def detection_of(node_pose, marker_pose, cam, marker_id=5):
    rel = node_pose.compose(cam.extrinsics).inverse().compose(marker_pose)
    return MarkerDetection(marker_id=marker_id, camera=cam.name, rel_pose=rel)


def entry_for(node, marker_pose, obs_count, marker_id=5):
    from markerswarm.mapstore import MapEntry

    return MapEntry(
        marker_id=marker_id,
        frame=node.state.frame,
        pose=marker_pose,
        cov=np.eye(6) * 1e-4,
        obs_count=obs_count,
    )


# lines json itself cannot read, and lines that put a non-finite number in the envelope
HOSTILE_KINDS = ["deep-nesting", "5000-digit-seq", "nan-seq", "nan-type", "bom"]


def hostile_line(kind, sender):
    """A line from ``sender`` that decode must refuse, however it fails to read."""
    return {
        "deep-nesting": "[" * 100_000,  # past the recursion limit
        "5000-digit-seq": f'{{"type": "Hello", "sender": {sender}, "seq": {"9" * 5000}}}',
        "nan-seq": f'{{"type": "Hello", "sender": {sender}, "seq": NaN}}',
        "nan-type": f'{{"type": NaN, "sender": {sender}, "seq": 1}}',
        "bom": "\ufeff" + encode(Hello(), sender=sender, seq=1),
    }[kind]


def outbound_types(transport):
    return [type(decode(line).msg).__name__ for line in transport.drain()]


class TestNavptsNode:
    def test_known_settled_marker_updates_without_forwarding(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.map_view[5] = entry_for(node, marker, obs_count=sc.n_fuse)
        det = detection_of(node.state.pose, marker, cam)
        node.tick(0.1, still_odometry(), [det])
        node.steer(0.1)
        sent = [decode(line).msg for line in station_inbox.drain()]
        assert node.counters["updates"] == 1
        assert node.counters["forwarded"] == 0
        assert [type(msg).__name__ for msg in sent] == ["MarkerObs", "PoseReport"]
        # the tick's line carries no record, only the keypose of the first marker sighting
        assert sent[0].records == ()
        assert [(d.marker_id, d.camera) for d in sent[0].keypose.observations] == [(5, "down")]

    def test_known_young_marker_updates_and_forwards(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.map_view[5] = entry_for(node, marker, obs_count=sc.n_fuse - 1)
        det = detection_of(node.state.pose, marker, cam)
        node.tick(0.1, still_odometry(), [det])
        assert node.counters["updates"] == 1
        assert node.counters["forwarded"] == 1
        assert "MarkerObs" in outbound_types(station_inbox)

    def test_unknown_marker_forwarded_not_fused(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        det = detection_of(node.state.pose, marker, cam)
        node.tick(0.1, still_odometry(), [det])
        assert node.counters["updates"] == 0
        assert node.counters["forwarded"] == 1
        assert "MarkerObs" in outbound_types(station_inbox)

    def test_cross_frame_marker_forwarded_not_fused(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        entry = entry_for(node, marker, obs_count=sc.n_fuse)
        node.map_view[5] = type(entry)(
            marker_id=5, frame=7, pose=marker, cov=entry.cov, obs_count=5
        )
        node.tick(0.1, still_odometry(), [detection_of(node.state.pose, marker, cam)])
        assert node.counters["updates"] == 0
        assert node.counters["forwarded"] == 1

    def test_exact_detection_leaves_pose_unchanged(self):
        sc = node_scenario()
        node, _, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.map_view[5] = entry_for(node, marker, obs_count=sc.n_fuse)
        before = node.state.pose
        det = detection_of(before, marker, cam)
        node.tick(0.1, still_odometry(), [det])
        assert np.linalg.norm(np.subtract(node.state.pose.t, before.t)) < 1e-9
        assert rotation_angle_between(node.state.pose.q, before.q) < 1e-9

    def test_pure_prediction_inflates_covariance(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        trace0 = float(np.trace(node.state.cov))
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        assert float(np.trace(node.state.cov)) > trace0
        kinds = outbound_types(station_inbox)
        assert kinds == ["PoseReport"]
        assert node.counters["keyposes"] == 0

    def test_trajectory_row_per_tick(self):
        sc = node_scenario()
        node, _, _ = make_node(sc)
        for tick in range(1, 4):
            node.tick(tick * 0.1, still_odometry(), [])
            node.steer(tick * 0.1)
        assert len(node.trajectory) == 3
        assert all(row["frame"] == node.state.frame for row in node.trajectory)

    def test_map_snapshot_refreshes_view(self):
        sc = node_scenario()
        node, _, station_tx = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        station_tx.send(MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=()))
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        assert set(node.map_view) == {5}
        assert node.map_view[5].obs_count == 2

    def test_frame_merge_remaps_state_and_history(self):
        sc = node_scenario()
        node, _, station_tx = make_node(sc, drone_id=1)
        assert node.state.frame == 1
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        pose_before = node.state.pose
        rt = Pose6D.from_euler([2.0, -1.0, 0.0], [0, 0, 0.6])
        station_tx.send(MapSnapshot(entries=(), merges=((1, 0, rt),)))
        node.tick(0.2, still_odometry(), [])
        node.steer(0.2)
        assert node.state.frame == 0
        assert all(row["frame"] == 0 for row in node.trajectory)
        expected_row0 = rt.compose(pose_before)
        np.testing.assert_allclose(node.trajectory[0]["pose"].t, expected_row0.t, atol=1e-12)

    def test_tick_leaves_the_inbox_to_steer(self):
        # the estimation half reads only the drone's own state: a merge
        # already waiting in the inbox lands in steer, not in tick
        sc = node_scenario()
        node, station_inbox, station_tx = make_node(sc, drone_id=1)
        rt = Pose6D.from_euler([1.0, 0.0, 0.0], [0, 0, 0])
        station_tx.send(MapSnapshot(entries=(), merges=((1, 0, rt),)))
        node.tick(0.1, still_odometry(), [])
        assert node.state.frame == 1 and node.trajectory == []
        assert node.state.pose.t[0] == pytest.approx(1.0)
        assert outbound_types(station_inbox) == []
        node.steer(0.1)
        assert node.state.frame == 0
        assert node.state.pose.t[0] == pytest.approx(2.0)
        assert [row["frame"] for row in node.trajectory] == [0]
        assert outbound_types(station_inbox) == ["PoseReport"]

    def test_merge_for_other_frame_ignored(self):
        sc = node_scenario()
        node, _, station_tx = make_node(sc, drone_id=0)
        station_tx.send(MapSnapshot(entries=(), merges=((1, 0, IDENTITY),)))
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        assert node.state.frame == 0

    def test_snapshot_walks_a_drone_that_missed_merges_to_the_live_frame(self):
        # the merge snapshots of 2 -> 1 and 1 -> 0 never arrived; a later
        # snapshot's table carries the drone through both hops at once
        drones = [{"id": d, "start_pose": {"t": [d, d, 1], "euler": [0, 0, 0]}} for d in range(3)]
        sc = node_scenario(extra={"drones": drones})
        node, _, station_tx = make_node(sc, drone_id=2)
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        pose_before = node.state.pose
        rt_21 = Pose6D.from_euler([2.0, -1.0, 0.0], [0, 0, 0.6])
        rt_10 = Pose6D.from_euler([-0.5, 0.3, 0.0], [0, 0, -0.2])
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        entry = replace(entry_for(node, marker, obs_count=2), frame=0)
        station_tx.send(MapSnapshot(entries=(entry,), merges=((2, 1, rt_21), (1, 0, rt_10))))
        node.tick(0.2, still_odometry(), [])
        node.steer(0.2)
        assert node.state.frame == 0 and node.map_view[5].frame == 0
        assert [row["frame"] for row in node.trajectory] == [0, 0]
        expected = rt_10.compose(rt_21.compose(pose_before))
        np.testing.assert_allclose(node.trajectory[0]["pose"].t, expected.t, atol=1e-12)
        np.testing.assert_allclose(node.state.pose.t, expected.t, atol=1e-12)

    def test_frame_merged_line_is_malformed_and_moves_nothing(self, caplog):
        # the frame table rides on every snapshot; the old merge event is an unknown type
        sc = node_scenario()
        node, _, _ = make_node(sc, drone_id=1)
        rt = {"t": [1.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}
        doc = {"type": "FrameMerged", "sender": STATION_ID, "seq": 1, "loser": 1, "winner": 0}
        node.inbox.send_line(json.dumps({**doc, "rt": rt}))
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            node.tick(0.1, still_odometry(), [])
            node.steer(0.1)
        assert any("dropped a bad line" in rec.message for rec in caplog.records)
        assert node.state.frame == 1 and node.state.pose.t[0] == pytest.approx(1.0)

    def test_garbage_inbox_line_dropped(self):
        sc = node_scenario()
        node, _, _ = make_node(sc)
        node.inbox.send_line("{broken")
        node.inbox.send_line('{"type": "Mystery", "sender": -1, "seq": 0}')
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        assert node.map_view == {} and node.state.frame == 0

    def test_malformed_inbox_line_logged_and_dropped(self, caplog):
        sc = node_scenario()
        node, station_inbox, station_tx = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.inbox.send_line('{"type": "Hello", "sender": -1, "seq": 1.5}')
        station_tx.send(MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=()))
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            node.tick(0.1, still_odometry(), [])
            node.steer(0.1)
        assert any("dropped a bad line" in rec.message for rec in caplog.records)
        # the good line after the bad one still lands, and the tick completes
        assert set(node.map_view) == {5}
        assert outbound_types(station_inbox) == ["PoseReport"]

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_inbox_line_logged_and_dropped(self, kind, caplog):
        sc = node_scenario()
        node, station_inbox, station_tx = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.inbox.send_line(hostile_line(kind, STATION_ID))
        station_tx.send(MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=()))
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            node.tick(0.1, still_odometry(), [])
            node.steer(0.1)
        assert [rec.message.startswith("drone 0 dropped a bad line") for rec in caplog.records] \
            == [True]
        assert set(node.map_view) == {5}
        assert outbound_types(station_inbox) == ["PoseReport"]

    def test_replayed_older_snapshot_keeps_newer_view(self, caplog):
        sc = node_scenario()
        node, _, _ = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        older = MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=())
        newer = MapSnapshot(entries=(entry_for(node, marker, obs_count=3),), merges=())
        node.inbox.send_line(encode(newer, sender=STATION_ID, seq=4))
        node.inbox.send_line(encode(older, sender=STATION_ID, seq=3))
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            node.tick(0.1, still_odometry(), [])
            node.steer(0.1)
        assert node.map_view[5].obs_count == 3
        assert [rec.message for rec in caplog.records if "stale" in rec.message] == [
            "drone 0 dropped stale line seq 3 from -1"
        ]

    def test_stale_line_logged_and_dropped(self, caplog):
        sc = node_scenario()
        node, _, _ = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        node.inbox.send_line(encode(Hello(), sender=STATION_ID, seq=4))
        snapshot = MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=())
        node.inbox.send_line(encode(snapshot, sender=STATION_ID, seq=4))
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            node.tick(0.1, still_odometry(), [])
            node.steer(0.1)
        stale = [rec.message for rec in caplog.records if "stale" in rec.message]
        assert stale == ["drone 0 dropped stale line seq 4 from -1"]
        assert node.map_view == {}

    def test_map_snapshots_merge_into_view(self):
        sc = node_scenario()
        node, _, station_tx = make_node(sc)
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        station_tx.send(MapSnapshot(entries=(entry_for(node, marker, obs_count=2),), merges=()))
        station_tx.send(
            MapSnapshot(entries=(entry_for(node, marker, obs_count=1, marker_id=6),), merges=())
        )
        station_tx.send(MapSnapshot(entries=(entry_for(node, marker, obs_count=3),), merges=()))
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        assert {k: e.obs_count for k, e in node.map_view.items()} == {5: 3, 6: 1}

    def test_replayed_broadcast_applied_once(self):
        sc = node_scenario()
        node, _, _ = make_node(sc, drone_id=1)
        rt = Pose6D.from_euler([1.0, 0.0, 0.0], [0, 0, 0])
        merge = MapSnapshot(entries=(), merges=((1, 0, rt),))
        line = encode(merge, sender=STATION_ID, seq=5)
        node.inbox.send_line(line)
        node.inbox.send_line(line)
        node.tick(0.1, still_odometry(), [])
        node.steer(0.1)
        # one remap only: applying rt twice would shift x by 2
        assert node.state.pose.t[0] == pytest.approx(2.0)  # start (1,1,1) + 1

    def test_keypose_commit_after_sufficient_motion(self):
        sc = node_scenario()
        node, station_inbox, _ = make_node(sc)
        cam = CAMERAS["down"]
        marker = Pose6D.from_euler([0.5, 0.0, 0.0], [0, 0, 0])
        det = detection_of(node.state.pose, marker, cam)
        node.tick(0.1, still_odometry(), [det])
        assert node.counters["keyposes"] == 1  # first sighting commits
        station_inbox.drain()
        # stationary re-sighting: below both thresholds, no new keypose
        det2 = detection_of(node.state.pose, marker, cam)
        node.tick(0.2, still_odometry(), [det2])
        assert node.counters["keyposes"] == 1
        # teleport the belief far beyond d_key and look again
        moved = OdometryReading(0.1, np.array([8.0, 0.0, 0.0]), np.zeros(3))
        det3 = detection_of(node.state.pose, marker, cam)
        node.tick(0.3, moved, [det3])
        assert node.counters["keyposes"] == 2


# -- ground station ----------------------------------------------------


def station_scenario(**kw):
    return node_scenario(**kw)


def make_station(scenario, drone_ids=(0, 1)):
    inboxes = {d: QueueTransport() for d in drone_ids}
    station = GroundStation(scenario, Endpoint(STATION_ID, *inboxes.values()))
    senders = {d: Endpoint(d, _StationFeed(station)) for d in drone_ids}
    return station, senders, inboxes


class _StationFeed:
    """Transport stand-in that hands lines straight to handle_line."""

    def __init__(self, station):
        self.station = station

    def send_line(self, line):
        self.station.handle_line(line)


def world_marker():
    return Pose6D.from_euler([0.4, 0.2, 0.0], [0, 0, 0.3])


def record_from(believed_pose, true_pose, marker_pose, cam, marker_id=5):
    """A forwarded detection of ``marker_pose`` from ``true_pose``, taken at ``believed_pose``."""
    return (detection_of(true_pose, marker_pose, cam, marker_id), believed_pose, np.eye(6) * 1e-6)


def obs_from(drone_id, believed_pose, true_pose, marker_pose, cam, marker_id=5, now=0.5):
    """A drone's uplink line with one forwarded detection, stamped in the drone's own frame."""
    record = record_from(believed_pose, true_pose, marker_pose, cam, marker_id)
    return MarkerObs(frame=drone_id, timestamp=now, records=(record,), keypose=None)


def keypose_line(kp):
    """The uplink line of a tick that forwarded nothing and committed ``kp``."""
    return MarkerObs(frame=kp.frame, timestamp=kp.timestamp, records=(), keypose=kp)


class TestGroundStation:
    def test_first_observation_inserts_marker(self):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, pose, pose, world_marker(), cam))
        assert len(station.gmap.entries) == 1
        entry = station.gmap.lookup(5)
        assert entry.frame == 0 and entry.obs_count == 1
        expected = pose.compose(cam.extrinsics).compose(
            pose.compose(cam.extrinsics).inverse().compose(world_marker())
        )
        np.testing.assert_allclose(entry.pose.t, expected.t, atol=1e-12)

    def test_same_frame_reobservation_fuses(self):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        for now in (0.5, 0.6, 0.7):
            senders[0].send(obs_from(0, pose, pose, world_marker(), cam, now=now))
        entry = station.gmap.lookup(5)
        assert entry.obs_count == 3
        assert len(station.gmap.entries) == 1

    def test_cross_frame_observation_merges_with_true_offset(self):
        sc = station_scenario()
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        marker = world_marker()
        offset = Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9])  # frame1 origin in frame0
        senders[0].send(Hello())
        senders[1].send(Hello())

        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, true0, true0, marker, cam))

        true1 = Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4])
        believed1 = offset.inverse().compose(true1)
        senders[1].send(obs_from(1, believed1, true1, marker, cam, now=0.8))

        assert len(station.merge_events) == 1
        event = station.merge_events[0]
        assert event["winner"] == 0 and event["loser"] == 1
        rt = Pose6D.from_dict(event["transform"]["rt"])
        np.testing.assert_allclose(rt.t, offset.t, atol=1e-6)
        assert rotation_angle_between(rt.q, offset.q) < 1e-6
        assert station.gmap.membership[1] == 0
        entry = station.gmap.lookup(5)
        assert entry.frame == 0 and entry.obs_count == 2
        tables = [[(r, w) for r, w, _ in decode(line).msg.merges] for line in inboxes[0].drain()]
        assert [(1, 0)] in tables
        assert event["time"] == 0.8  # the MarkerObs's own time

    def test_hello_registers_the_envelope_sender(self):
        station, _, _ = make_station(station_scenario())
        station.handle_line(encode(Hello(), sender=7, seq=1))
        assert station.gmap.membership == {7: 7} and station.gmap.frames == {7}
        assert station.keyposes == {7: []}

    def test_second_hello_is_refused_and_keeps_the_merged_frame(self, caplog):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        cam = CAMERAS["down"]
        marker = world_marker()
        senders[0].send(Hello())
        senders[1].send(Hello())
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, true0, true0, marker, cam))
        senders[1].send(obs_from(1, true0, true0, marker, cam, now=0.8))
        assert station.gmap.frames == {0} and station.gmap.membership == {0: 0, 1: 0}
        with caplog.at_level(logging.ERROR, logger="markerswarm.swarm.nodes"):
            senders[1].send(Hello())
            senders[0].send(Hello())
        # frame 1 stays retired: a revived frame would end a carry-forward early
        assert station.counters["errors"] == 2 and station.counters["handled"] == 4
        assert [rec.exc_info[0] for rec in caplog.records if rec.exc_info] == [ProtocolError] * 2
        assert station.gmap.frames == {0} and station.gmap.membership == {0: 0, 1: 0}
        assert list(station.keyposes) == [0]

    def test_refine_corrects_merge_on_second_shared_marker(self):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        cam = CAMERAS["down"]
        marker_a = world_marker()
        marker_b = Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2])
        offset = Pose6D.from_euler([1.5, -0.5, 0.0], [0, 0, 0.5])
        senders[0].send(Hello())
        senders[1].send(Hello())

        # drone 1 maps both markers first, so they live in frame 1
        true1 = Pose6D.from_euler([0.2, 0.1, 1.1], [0, 0, 0.3])
        believed1 = offset.inverse().compose(true1)
        senders[1].send(obs_from(1, believed1, true1, marker_a, cam, marker_id=5, now=0.4))
        senders[1].send(obs_from(1, believed1, true1, marker_b, cam, marker_id=6, now=0.5))
        assert station.gmap.lookup(5).frame == 1

        # drone 0 sights marker 5 with a 5 mm pose bias: the single-pair
        # merge bakes that bias into the frame transform
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        biased0 = Pose6D.from_euler(np.add(true0.t, [0.005, 0.0, 0.0]), [0, 0, 0])
        senders[0].send(MarkerObs(0, 0.8, (record_from(biased0, true0, marker_a, cam),), None))
        assert len(station.merge_events) == 1
        # an exact re-sight of marker 6 (transformed but unpaired) exposes
        # the bias and triggers a correction of the recorded transform
        senders[0].send(obs_from(0, true0, true0, marker_b, cam, marker_id=6, now=0.9))
        assert station.counters["refines"] == 1
        assert len(station.merges[1].pairs) == 2

    def test_replayed_line_is_stale_and_ignored(self):
        sc = station_scenario()
        station, _, _ = make_station(sc)
        cam = CAMERAS["down"]
        station.handle_line(encode(Hello(), sender=0, seq=0))
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        line = encode(obs_from(0, pose, pose, world_marker(), cam), sender=0, seq=1)
        station.handle_line(line)
        station.handle_line(line)
        assert station.gmap.lookup(5).obs_count == 1
        assert station.counters["stale"] == 1

    def test_malformed_line_counted_not_raised(self):
        sc = station_scenario()
        station, _, _ = make_station(sc)
        station.handle_line("" if True else None)
        station.handle_line("{]")
        station.handle_line('{"type": "Hello", "sender": 0}')
        assert station.counters["malformed"] == 3
        assert station.counters["handled"] == 0

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_line_counted_not_raised(self, kind):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        station.handle_line(hostile_line(kind, sender=0))
        assert station.counters["malformed"] == 1
        # the sender is not registered, and its first good line still lands
        senders[0].send(Hello())
        assert station.counters == {"handled": 1, "malformed": 1, "stale": 0, "errors": 0,
                                    "refines": 0}
        assert list(station.gmap.membership) == [0]

    def test_bad_payload_counted_as_malformed(self):
        # an unknown camera or an out-of-range marker id fails at decode
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        senders[0].send(Hello())
        good = obs_from(0, IDENTITY, IDENTITY, world_marker(), CAMERAS["down"])
        ((det, pose, cov),) = good.records
        for field, value in [("camera", "sideways"), ("marker_id", -1), ("marker_id", 1024)]:
            senders[0].send(replace(good, records=((replace(det, **{field: value}), pose, cov),)))
        assert station.counters["malformed"] == 3
        assert station.counters["errors"] == 0 and station.counters["handled"] == 1
        assert len(station.gmap.entries) == 0

    def test_pose_report_handled_and_ignored(self):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        senders[0].send(Hello())
        senders[0].send(PoseReport(0, 1.5, tuple(np.arange(6.0).tolist())))
        assert station.counters["handled"] == 2
        assert station.counters["errors"] == 0
        assert station.gmap.entries == {}

    def test_shutdown_line_counts_as_malformed(self):
        sc = station_scenario()
        station, _, inboxes = make_station(sc)
        station.handle_line('{"type": "Shutdown", "sender": 0, "seq": 1}')
        assert station.counters["malformed"] == 1
        assert station.counters["handled"] == station.counters["errors"] == 0
        assert all(inbox.drain() == [] for inbox in inboxes.values())

    def test_string_nan_range_is_malformed_and_flush_succeeds(self):
        sc = station_scenario()
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        doc = json.loads(encode(obs_from(0, pose, pose, world_marker(), cam), sender=0, seq=2))
        doc["records"][0]["detection"]["range"] = "nan"
        station.handle_line(json.dumps(doc))
        assert station.counters["malformed"] == 1
        assert station.counters["handled"] == 1  # the Hello
        assert station.gmap.entries == {}
        station.flush()
        assert all(inbox.drain() == [] for inbox in inboxes.values())

    def test_flush_broadcasts_snapshot_once(self):
        sc = station_scenario()
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, pose, pose, world_marker(), cam))
        for box in inboxes.values():
            box.drain()
        station.flush()
        for box in inboxes.values():
            kinds = [type(decode(line).msg).__name__ for line in box.drain()]
            assert kinds == ["MapSnapshot"]
        station.flush()  # clean: nothing new to say
        assert all(box.drain() == [] for box in inboxes.values())

    def test_flush_and_merge_encode_once_for_every_drone(self, monkeypatch):
        drones = [{"id": d, "start_pose": {"t": [d, d, 1], "euler": [0, 0, 0]}} for d in range(3)]
        sc = station_scenario(extra={"drones": drones})
        station, senders, inboxes = make_station(sc, drone_ids=(0, 1, 2))
        cam = CAMERAS["down"]
        offset = Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9])  # frame1 origin in frame0
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        true1 = Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4])
        for d in (0, 1, 2):
            senders[d].send(Hello())
        senders[0].send(obs_from(0, true0, true0, world_marker(), cam))
        station_encodes = []

        def counting_encode(msg, sender, seq):
            if sender == STATION_ID:
                station_encodes.append(type(msg).__name__)
            return encode(msg, sender, seq)

        monkeypatch.setattr(protocol, "encode", counting_encode)

        def one_line_for_all():
            ((line,), *others) = [box.drain() for box in inboxes.values()]
            assert len(others) == 2 and all(other == [line] for other in others)
            assert all(other[0] is line for other in others)
            return decode(line).msg

        station.flush()
        assert station_encodes == ["MapSnapshot"]
        assert isinstance(one_line_for_all(), MapSnapshot)
        believed1 = offset.inverse().compose(true1)
        senders[1].send(obs_from(1, believed1, true1, world_marker(), cam, now=0.8))
        assert len(station.merge_events) == 1
        assert station_encodes == ["MapSnapshot", "MapSnapshot"]
        merge = one_line_for_all()
        assert isinstance(merge, MapSnapshot) and merge.entries == ()
        assert [(r, w) for r, w, _ in merge.merges] == [(1, 0)]

    def test_each_broadcast_is_decoded_once_and_shared(self, monkeypatch):
        # three drones read a merge and one snapshot; the station decodes its
        # own snapshot, and the drones get the very objects of its map
        drones = [{"id": d, "start_pose": {"t": [d, d, 1], "euler": [0, 0, 0]}} for d in range(3)]
        sc = station_scenario(extra={"drones": drones})
        station, nodes = _build_system(sc)
        for node in nodes.values():
            node.hello()
            _handle_mail(station, node.outbox)
        cam = CAMERAS["down"]
        offset = Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9])  # frame 1's origin in frame 0
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        true1 = Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4])
        station_decodes = Counter()

        def counting_decode(line):
            decoded = decode(line)
            if decoded.sender == STATION_ID:
                station_decodes[line] += 1
            return decoded

        monkeypatch.setattr(protocol, "decode", counting_decode)
        protocol._decode_broadcast.cache_clear()  # a line of an earlier test is not one of these
        nodes[0].link.send(obs_from(0, true0, true0, world_marker(), cam))
        _handle_mail(station, nodes[0].outbox)
        believed1 = offset.inverse().compose(true1)
        nodes[1].link.send(obs_from(1, believed1, true1, world_marker(), cam, now=0.8))
        _handle_mail(station, nodes[1].outbox)
        assert len(station.merge_events) == 1
        station.flush()
        for node in nodes.values():
            node.steer(0.1)
        assert len(station_decodes) == 2  # the merge's snapshot and the flush's
        assert set(station_decodes.values()) == {1}
        for node in nodes.values():
            assert node.map_view.keys() == station.gmap.entries.keys() == {5}
            assert all(node.map_view[k] is station.gmap.entries[k] for k in node.map_view)

    def test_flush_sends_only_replaced_entries(self):
        sc = station_scenario()
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        other = Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2])
        senders[0].send(obs_from(0, pose, pose, other, cam, marker_id=6))
        senders[0].send(obs_from(0, pose, pose, world_marker(), cam, marker_id=5))
        station.flush()
        assert sent_ids(inboxes) == [[5, 6]]
        senders[0].send(obs_from(0, pose, pose, other, cam, marker_id=6, now=0.6))
        station.flush()
        for box in inboxes.values():
            (line,) = box.drain()
            entries = decode(line).msg.entries
            assert [e.to_dict() for e in entries] == [station.gmap.lookup(6).to_dict()]

    def test_fuse_on_frozen_entry_sends_nothing(self):
        sc = station_scenario(n_fuse=1)
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, pose, pose, world_marker(), cam))
        station.flush()
        assert sent_ids(inboxes) == [[5]]
        frozen = station.gmap.lookup(5)
        senders[0].send(obs_from(0, pose, pose, world_marker(), cam, now=0.6))
        assert station.counters["handled"] == 3 and station.gmap.lookup(5) is frozen
        station.flush()
        assert all(box.drain() == [] for box in inboxes.values())

    def test_merge_sends_every_moved_entry(self):
        sc = station_scenario()
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        offset = Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9])  # frame1 origin in frame0
        markers = {
            5: world_marker(),
            6: Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2]),
            7: Pose6D.from_euler([0.3, -0.7, 0.0], [0, 0, 0.5]),
            8: Pose6D.from_euler([0.9, 0.9, 0.0], [0, 0, 0.1]),
        }
        senders[0].send(Hello())
        senders[1].send(Hello())
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        true1 = Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4])
        believed1 = offset.inverse().compose(true1)
        for marker_id in (5, 8):
            senders[0].send(obs_from(0, true0, true0, markers[marker_id], cam, marker_id))
        for marker_id in (6, 7):
            senders[1].send(obs_from(1, believed1, true1, markers[marker_id], cam, marker_id))
        station.flush()
        assert sent_ids(inboxes) == [[5, 6, 7, 8]]
        senders[1].send(obs_from(1, believed1, true1, markers[5], cam, 5, now=0.8))
        assert len(station.merge_events) == 1
        station.flush()
        for box in inboxes.values():
            merge, snapshot = [decode(line).msg for line in box.drain()]
            assert merge.entries == ()
            assert [(r, w, rt.to_dict()) for r, w, rt in merge.merges] == [
                (r, w, rt.to_dict()) for r, w, rt in snapshot.merges
            ] == [(1, 0, station.merges[1].transform.rt.to_dict())]
            # the moved entries of frame 1, and marker 5 fused in frame 0
            assert [e.to_dict() for e in snapshot.entries] == [
                station.gmap.lookup(k).to_dict() for k in (5, 6, 7)
            ]
            assert all(e.frame == 0 for e in snapshot.entries)


def sent_ids(inboxes):
    """Marker ids of the snapshots each inbox holds; the same for every inbox."""
    per_box = [
        [[e.marker_id for e in decode(line).msg.entries] for line in box.drain()]
        for box in inboxes.values()
    ]
    assert all(ids == per_box[0] for ids in per_box)
    return per_box[0]


class TestStationKeyposes:
    def make_keypose(self, sc, drone_id, pose, now, marker_poses):
        cam = CAMERAS["down"]
        detections = tuple(
            detection_of(pose, marker_pose, cam, marker_id)
            for marker_id, marker_pose in marker_poses.items()
        )
        return Keypose(drone_id, drone_id, pose, now, detections)

    def seed_station(self, every_keyposes=3):
        sc = station_scenario(extra={"ba": {"enabled": True, "every_keyposes": every_keyposes}})
        station, senders, inboxes = make_station(sc)
        cam = CAMERAS["down"]
        senders[0].send(Hello())
        markers = {
            5: Pose6D.from_euler([0.4, 0.2, 0.0], [0, 0, 0.3]),
            6: Pose6D.from_euler([-0.5, 0.4, 0.0], [0, 0, -0.1]),
        }
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        for marker_id, marker_pose in markers.items():
            senders[0].send(obs_from(0, pose, pose, marker_pose, cam, marker_id=marker_id))
        return sc, station, senders, markers

    def test_keypose_interval_triggers_adjustment(self):
        sc, station, senders, markers = self.seed_station(every_keyposes=3)
        poses = [
            Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0]),
            Pose6D.from_euler([0.6, 0.1, 1.2], [0, 0, 0.2]),
            Pose6D.from_euler([-0.4, 0.5, 1.3], [0, 0, -0.3]),
        ]
        for index, pose in enumerate(poses):
            kp = self.make_keypose(sc, 0, pose, 1.0 + index, markers)
            senders[0].send(keypose_line(kp))
        assert len(station.ba_reports) == 1
        report = station.ba_reports[0]
        assert report["trigger"] == "keypose_interval" and report["frame"] == 0
        assert station.keyposes_since_ba[0] == 0
        assert len(station.keyposes[0]) == 3

    def assert_keypose_refused_at_decode(self, caplog, **change):
        sc, station, senders, markers = self.seed_station(every_keyposes=2)
        poses = [
            Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0]),
            Pose6D.from_euler([0.6, 0.1, 1.2], [0, 0, 0.2]),
            Pose6D.from_euler([-0.4, 0.5, 1.3], [0, 0, -0.3]),
        ]
        senders[0].send(keypose_line(self.make_keypose(sc, 0, poses[0], 1.0, markers)))
        good = self.make_keypose(sc, 0, poses[1], 2.0, markers)
        bad = replace(
            good,
            observations=(replace(good.observations[0], **change),) + good.observations[1:],
        )
        with caplog.at_level(logging.WARNING, logger="markerswarm.swarm.nodes"):
            senders[0].send(keypose_line(bad))
        # a keypose BA cannot use would fail every later BA of its frame
        assert station.counters["malformed"] == 1 and station.counters["errors"] == 0
        assert "station dropped a malformed line" in caplog.text
        assert [kp.timestamp for kp in station.keyposes[0]] == [1.0]
        assert station.ba_reports == []
        # the refused keypose neither counts towards the interval nor blocks it
        senders[0].send(keypose_line(self.make_keypose(sc, 0, poses[2], 3.0, markers)))
        assert station.counters["malformed"] == 1 and station.counters["errors"] == 0
        assert [kp.timestamp for kp in station.keyposes[0]] == [1.0, 3.0]
        assert len(station.ba_reports) == 1
        assert station.ba_reports[0]["status"] != "aborted_singular"

    def test_keypose_with_unknown_camera_is_refused(self, caplog):
        self.assert_keypose_refused_at_decode(caplog, camera="thermal")

    @pytest.mark.parametrize("marker_id", [-1, 1024])
    def test_keypose_with_out_of_range_marker_id_is_refused(self, caplog, marker_id):
        self.assert_keypose_refused_at_decode(caplog, marker_id=marker_id)

    def test_adjustment_of_a_frame_with_no_mapped_marker_is_skipped(self, caplog):
        sc, station, senders, markers = self.seed_station(every_keyposes=1)
        senders[1].send(Hello())
        before = dict(station.gmap.entries)
        pose = Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0])
        kp = self.make_keypose(sc, 1, pose, 1.0, markers)  # frame 1 has mapped nothing
        with caplog.at_level(logging.DEBUG, logger="markerswarm.swarm.nodes"):
            senders[1].send(keypose_line(kp))
        assert station.counters["errors"] == 0
        assert "skipping adjustment of frame 1: no usable observations" in caplog.text
        assert station.ba_reports == []
        assert station.gmap.entries == before
        assert all(station.gmap.entries[k] is e for k, e in before.items())
        assert [k.timestamp for k in station.keyposes[1]] == [1.0]
        assert station.keyposes_since_ba[1] == 0

    def test_consistent_keyposes_leave_map_in_place(self):
        sc, station, senders, markers = self.seed_station(every_keyposes=2)
        before = {k: e.pose for k, e in station.gmap.entries.items()}
        poses = [
            Pose6D.from_euler([0.0, 0.0, 1.2], [0, 0, 0]),
            Pose6D.from_euler([0.6, 0.1, 1.2], [0, 0, 0.2]),
        ]
        for index, pose in enumerate(poses):
            senders[0].send(keypose_line(self.make_keypose(sc, 0, pose, 1.0 + index, markers)))
        assert len(station.ba_reports) == 1
        assert station.ba_reports[0]["status"] != "aborted_singular"
        for marker_id, pose in before.items():
            after = station.gmap.lookup(marker_id).pose
            assert np.linalg.norm(np.subtract(after.t, pose.t)) < 1e-6

    def test_keypose_for_dead_frame_chased_through_merge(self):
        sc = station_scenario()
        station, senders, _ = make_station(sc)
        cam = CAMERAS["down"]
        marker = world_marker()
        offset = Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9])
        senders[0].send(Hello())
        senders[1].send(Hello())
        true0 = Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0])
        senders[0].send(obs_from(0, true0, true0, marker, cam))
        true1 = Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4])
        believed1 = offset.inverse().compose(true1)
        senders[1].send(obs_from(1, believed1, true1, marker, cam, now=0.8))
        assert station.gmap.membership[1] == 0
        # a commit stamped in the dead frame 1 arrives after the merge
        kp = TestStationKeyposes().make_keypose(sc, 1, believed1, 0.81, {5: marker})
        senders[1].send(keypose_line(kp))
        assert list(station.keyposes) == [0]
        (stored,) = station.keyposes[0]
        assert stored.frame == 0
        expected = station.merges[1].transform.rt.compose(believed1)
        np.testing.assert_allclose(stored.pose.t, expected.t, atol=1e-9)


class TestCarryForward:
    """Messages stamped in a frame that a merge has since retired.

    Frame 0 is the world frame; the believed pose of a drone in frame k is
    its true pose seen from that frame's origin ``offsets[k]``. At zero
    noise every merge recovers the offsets exactly, so a message carried
    forward lands on the truth.
    """

    offsets = {
        1: Pose6D.from_euler([2.0, 1.0, 0.0], [0, 0, 0.9]),
        2: Pose6D.from_euler([-1.0, 1.5, 0.0], [0, 0, -0.7]),
    }
    truths = {
        0: Pose6D.from_euler([0.1, 0.0, 1.2], [0, 0, 0]),
        1: Pose6D.from_euler([0.3, 0.1, 1.1], [0, 0, 0.4]),
        2: Pose6D.from_euler([0.2, -0.1, 1.0], [0, 0, -0.3]),
    }

    def believed(self, drone_id):
        truth = self.truths[drone_id]
        return truth if drone_id == 0 else self.offsets[drone_id].inverse().compose(truth)

    def sight(self, drone_id, marker_pose, marker_id=5):
        truth = self.truths[drone_id]
        cam = CAMERAS["down"]
        return obs_from(drone_id, self.believed(drone_id), truth, marker_pose, cam, marker_id)

    def station(self, drone_ids):
        station, senders, _ = make_station(station_scenario(), drone_ids)
        for drone_id in drone_ids:
            senders[drone_id].send(Hello())
        return station, senders

    def test_observation_after_merge_is_mapped_at_carried_pose(self):
        station, senders = self.station((0, 1))
        marker_a = world_marker()
        marker_b = Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2])
        senders[0].send(self.sight(0, marker_a, marker_id=5))
        # two detections from one drone 1 tick, both stamped in frame 1: the
        # first merges frame 1 into frame 0, the second arrives after it
        senders[1].send(self.sight(1, marker_a, marker_id=5))
        assert station.gmap.membership[1] == 0
        late = self.sight(1, marker_b, marker_id=6)
        assert late.frame == 1
        senders[1].send(late)
        entry = station.gmap.lookup(6)
        assert entry.frame == 0
        np.testing.assert_allclose(entry.pose.t, marker_b.t, atol=1e-9)
        assert rotation_angle_between(entry.pose.q, marker_b.q) < 1e-9

    def test_keypose_after_two_merges_is_logged_in_the_live_frame(self):
        station, senders = self.station((0, 1, 2))
        marker = world_marker()
        senders[1].send(self.sight(1, marker))  # marker 5 enters frame 1
        senders[2].send(self.sight(2, marker))  # merge 2 -> 1
        senders[0].send(self.sight(0, marker))  # merge 1 -> 0
        assert [(e["loser"], e["winner"]) for e in station.merge_events] == [(2, 1), (1, 0)]
        kp = TestStationKeyposes().make_keypose(
            station_scenario(), 2, self.believed(2), 0.9, {5: marker}
        )
        assert kp.frame == 2
        senders[2].send(keypose_line(kp))
        assert station.counters["errors"] == 0
        assert list(station.keyposes) == [0]
        (stored,) = station.keyposes[0]
        assert stored.frame == 0
        np.testing.assert_allclose(stored.pose.t, self.truths[2].t, atol=1e-9)
        assert rotation_angle_between(stored.pose.q, self.truths[2].q) < 1e-9

    def test_line_merging_on_its_first_record_lands_the_rest_in_the_winner_frame(self):
        station, senders = self.station((0, 1))
        marker_a = world_marker()
        marker_b = Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2])
        senders[0].send(self.sight(0, marker_a, marker_id=5))
        # one drone 1 tick, stamped in frame 1: its first record merges frame 1
        # into frame 0, and its second record and its keypose follow on the same line
        cam = CAMERAS["down"]
        records = tuple(
            record_from(self.believed(1), self.truths[1], marker, cam, marker_id)
            for marker_id, marker in ((5, marker_a), (6, marker_b))
        )
        kp = TestStationKeyposes().make_keypose(
            station_scenario(), 1, self.believed(1), 0.5, {5: marker_a, 6: marker_b}
        )
        senders[1].send(MarkerObs(1, 0.5, records, kp))
        assert station.counters["errors"] == 0 and station.counters["handled"] == 4
        assert [(e["loser"], e["winner"]) for e in station.merge_events] == [(1, 0)]
        assert station.gmap.lookup(5).obs_count == 2
        entry = station.gmap.lookup(6)
        assert entry.frame == 0
        np.testing.assert_allclose(entry.pose.t, marker_b.t, atol=1e-9)
        assert rotation_angle_between(entry.pose.q, marker_b.q) < 1e-9
        assert list(station.keyposes) == [0]
        (stored,) = station.keyposes[0]
        assert stored.frame == 0
        np.testing.assert_allclose(stored.pose.t, self.truths[1].t, atol=1e-9)
        assert rotation_angle_between(stored.pose.q, self.truths[1].q) < 1e-9

    def test_line_stamped_in_an_unregistered_frame_counts_one_error(self, caplog):
        station, senders = self.station((0,))
        cam = CAMERAS["down"]
        markers = {5: world_marker(), 6: Pose6D.from_euler([-0.6, 0.5, 0.0], [0, 0, -0.2])}
        records = tuple(
            record_from(self.truths[0], self.truths[0], marker, cam, marker_id)
            for marker_id, marker in markers.items()
        )
        kp = TestStationKeyposes().make_keypose(station_scenario(), 0, self.truths[0], 0.9, markers)
        with caplog.at_level(logging.ERROR, logger="markerswarm.swarm.nodes"):
            senders[0].send(MarkerObs(3, 0.9, records, replace(kp, frame=3)))
        assert station.counters["errors"] == 1 and station.counters["handled"] == 1
        assert [rec.exc_info[0] for rec in caplog.records if rec.exc_info] == [ProtocolError]
        assert station.gmap.entries == {} and station.keyposes == {0: []}

    def test_frame_never_registered_is_rejected_for_both_message_kinds(self, caplog):
        station, senders = self.station((0,))
        obs = replace(self.sight(0, world_marker()), frame=3)
        kp = replace(
            TestStationKeyposes().make_keypose(
                station_scenario(), 0, self.truths[0], 0.9, {5: world_marker()}
            ),
            frame=3,
        )
        with caplog.at_level(logging.ERROR, logger="markerswarm.swarm.nodes"):
            senders[0].send(obs)
            senders[0].send(keypose_line(kp))
        assert station.counters["errors"] == 2
        failures = [rec.exc_info[0] for rec in caplog.records if rec.exc_info]
        assert failures == [ProtocolError, ProtocolError]
        assert station.gmap.entries == {} and station.keyposes == {0: []}


# -- runner ------------------------------------------------------------


def runner_raw(duration=3.0, drones=None, markers=None, **overrides):
    raw = {
        "name": "runner-test",
        "seed": 5,
        "duration": duration,
        "tick_rate": 10.0,
        "bounds": {"min": [-2.0, -2.0, 0.0], "max": [2.0, 2.0, 2.0]},
        "markers": markers
        or [{"id": 3, "pose": {"t": [0.3, 0.2, 0.0], "euler": [0, 0, 0.4]}}],
        "drones": drones
        or [{"id": 0, "start_pose": {"t": [0.0, 0.0, 0.0], "euler": [0, 0, 0]}}],
        "noise": {
            "pos_base": 0.0,
            "pos_per_m": 0.0,
            "ang_base": 0.0,
            "ang_per_m": 0.0,
            "odom_vel_sigma": 0.0,
            "odom_rate_sigma": 0.0,
            "dropout": 0.0,
        },
        "policy": {"cell_size": 1.0, "altitude": 1.2, "speed": 0.7, "r_visit": 0.3},
    }
    raw.update(overrides)
    return raw


def keys_differing_bar_mode(a, b):
    """The top-level report keys whose canonical bytes differ, ``mode`` aside.

    An empty list means the reports are byte-identical bar ``mode``; naming
    keys keeps a failure short where a diff of two whole reports is not.
    """
    def canon(report, key):
        return json.dumps(report.get(key), sort_keys=True)

    return sorted(k for k in a.keys() | b.keys() if k != "mode" and canon(a, k) != canon(b, k))


class TestRunScenario:
    def test_unknown_mode_rejected(self):
        sc = parse_scenario(runner_raw())
        with pytest.raises(ValueError, match="mode"):
            run_scenario(sc, mode="warp")

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_seed_rejected_before_anything_is_built(self, monkeypatch, mode):
        def build(*args):
            raise AssertionError("built a system for a negative seed")

        monkeypatch.setattr(runner, "_build_system", build)
        sc = parse_scenario(runner_raw())
        with pytest.raises(ValueError, match="seed -1 is negative"):
            run_scenario(sc, seed=-1, mode=mode)

    def test_zero_duration_runs_empty(self):
        sc = parse_scenario(runner_raw(duration=0.0))
        report = run_scenario(sc)
        assert report["trajectories"]["0"] == []
        assert report["map"] == []
        assert report["metrics"]["mapped_markers"] == 0

    def test_lockstep_reports_are_byte_identical(self):
        sc = parse_scenario(runner_raw(duration=2.0))
        a = run_scenario(sc, seed=9, mode="lockstep")
        b = run_scenario(sc, seed=9, mode="lockstep")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_noisy_run(self):
        raw = runner_raw(duration=2.0)
        raw["noise"]["pos_base"] = 0.02
        raw["noise"]["odom_vel_sigma"] = 0.05
        sc = parse_scenario(raw)
        a = run_scenario(sc, seed=1)
        b = run_scenario(sc, seed=2)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_noiseless_single_drone_maps_marker_exactly(self):
        sc = parse_scenario(runner_raw(duration=3.0))
        report = run_scenario(sc)
        assert len(report["map"]) == 1
        entry = report["map"][0]
        truth = sc.world.markers[3]
        est = Pose6D.from_dict(entry["pose"])
        assert np.linalg.norm(np.subtract(est.t, truth.t)) < 1e-6
        assert rotation_angle_between(est.q, truth.q) < 1e-6
        rows = report["trajectories"]["0"]
        assert len(rows) == sc.n_ticks
        assert report["metrics"]["frames"]["0"]["ate"]["0"] < 1e-6

    def test_report_shape(self):
        sc = parse_scenario(runner_raw(duration=1.0))
        report = run_scenario(sc, seed=2)
        assert report["digest"] == sc.digest
        assert report["mode"] == "lockstep" and report["seed"] == 2
        assert set(report["world"]["markers"]) == {"3"}
        assert report["counters"]["station"]["malformed"] == 0
        row = report["trajectories"]["0"][0]
        assert set(row) == {"tick", "time", "truth", "estimate", "frame"}

    def test_threaded_mode_completes_and_tracks(self):
        sc = parse_scenario(runner_raw(duration=2.0))
        report = run_scenario(sc, mode="threaded")
        assert report["mode"] == "threaded"
        rows = report["trajectories"]["0"]
        assert len(rows) == sc.n_ticks
        assert len(report["map"]) == 1

    def test_ba_off_run_commits_no_keyposes(self, monkeypatch):
        # only bundle adjustment reads keyposes: with it off no drone builds or
        # sends one, and the station stores none; with it on, the run commits some
        drones = [
            {"id": d, "start_pose": {"t": [0.5 * d, 0.0, 0.0], "euler": [0, 0, 0]}}
            for d in range(2)
        ]
        encoded = Counter()

        def counting_encode(msg, sender, seq):
            encoded[type(msg).__name__] += 1
            encoded["keyposes"] += getattr(msg, "keypose", None) is not None
            return encode(msg, sender, seq)

        monkeypatch.setattr(protocol, "encode", counting_encode)
        for enabled in (True, False):
            encoded.clear()
            sc = parse_scenario(runner_raw(duration=2.0, drones=drones, ba={"enabled": enabled}))
            station, nodes, _ = _run_ticks(sc, sc.seed)
            committed = sum(node.counters["keyposes"] for node in nodes.values())
            if enabled:
                assert encoded["keyposes"] == committed > 0
            else:
                assert encoded["keyposes"] == committed == 0
                assert station.keyposes and all(kps == [] for kps in station.keyposes.values())
                assert encoded["PoseReport"] == 2 * sc.n_ticks

    def test_lab_drones_send_at_most_one_marker_obs_a_tick(self, monkeypatch):
        raw = json.loads((SCENARIOS / "lab_three_drones.json").read_text(encoding="utf-8"))
        raw["duration"] = 20.0
        lines = []  # (sender, MarkerObs)

        def counting_encode(msg, sender, seq):
            if isinstance(msg, MarkerObs):
                lines.append((sender, msg))
            return encode(msg, sender, seq)

        monkeypatch.setattr(protocol, "encode", counting_encode)
        report = run_scenario(parse_scenario(raw), seed=11)
        per_tick = Counter((sender, msg.timestamp) for sender, msg in lines)
        assert max(per_tick.values()) == 1
        assert all(msg.records or msg.keypose for _, msg in lines)
        # some tick sends both kinds of news on its one line
        assert any(msg.records and msg.keypose for _, msg in lines)
        for drone, counters in report["counters"]["drones"].items():
            sent = [msg for sender, msg in lines if sender == int(drone)]
            assert sum(len(msg.records) for msg in sent) == counters["forwarded"]
            assert sum(msg.keypose is not None for msg in sent) == counters["keyposes"]

    @pytest.mark.parametrize("mode", MODES)
    def test_node_tick_error_reaches_the_caller(self, mode, monkeypatch):
        sc = parse_scenario(runner_raw(duration=1.0))
        for half in ("tick", "steer"):
            original = getattr(NavptsNode, half)

            def fail_at_tick_3(self, now, *args, half=half, original=original):
                if now == 3 * sc.dt:
                    raise RuntimeError(f"{half} 3 failed")
                return original(self, now, *args)

            with monkeypatch.context() as patch:
                patch.setattr(NavptsNode, half, fail_at_tick_3)
                before = set(threading.enumerate())
                with pytest.raises(RuntimeError, match=f"{half} 3 failed"):
                    run_scenario(sc, mode=mode)
            # the drones' pool is shut down, not left running
            assert set(threading.enumerate()) <= before

    def test_threaded_station_handles_every_line_under_contention(self, monkeypatch):
        # more drone threads than cores, switching as often as the
        # interpreter allows: each drone's own station inbox must lose,
        # duplicate or reorder none of its lines, so the report is lockstep's
        drones = [
            {"id": d, "start_pose": {"t": [0.4 * d - 0.6, 0.0, 0.0], "euler": [0, 0, 0]}}
            for d in range(4)
        ]
        sc = parse_scenario(runner_raw(duration=2.0, drones=drones))
        sent = []  # one item per drone line; list.append is atomic across threads

        def counting_encode(msg, sender, seq):
            if sender != STATION_ID:
                sent.append(type(msg).__name__)
            return encode(msg, sender, seq)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "encode", counting_encode)
                report = run_scenario(sc, mode="threaded")
        finally:
            sys.setswitchinterval(interval)
        assert keys_differing_bar_mode(report, run_scenario(sc, mode="lockstep")) == []
        station = report["counters"]["station"]
        # per drone: Hello, a PoseReport per tick and a MarkerObs per tick with news
        assert Counter(sent)["PoseReport"] == len(drones) * sc.n_ticks
        assert station["handled"] == len(sent)
        assert station["stale"] == station["malformed"] == station["errors"] == 0

    def test_threaded_drones_localize_against_the_map(self):
        # the station broadcasts the map every tick, not only when idle
        sc = load_scenario(str(SCENARIOS / "two_drone_demo.json"))
        report = run_scenario(sc, mode="threaded")
        updates = {d: c["updates"] for d, c in report["counters"]["drones"].items()}
        assert len(updates) == 2
        assert all(n > 100 for n in updates.values()), updates

    def test_two_drones_converge_to_one_frame(self):
        drones = [
            {"id": 0, "start_pose": {"t": [-0.8, -0.6, 0.0], "euler": [0, 0, 0]}},
            {
                "id": 1,
                "start_pose": {"t": [0.8, 0.6, 0.0], "euler": [0, 0, 2.2]},
                "ekf_start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]},
            },
        ]
        markers = [
            {"id": 1, "pose": {"t": [0.0, 0.0, 0.0], "euler": [0, 0, 0]}},
            {"id": 2, "pose": {"t": [-0.9, 0.6, 0.0], "euler": [0, 0, 1.0]}},
            {"id": 3, "pose": {"t": [0.9, -0.6, 0.0], "euler": [0, 0, -0.8]}},
        ]
        sc = parse_scenario(runner_raw(duration=8.0, drones=drones, markers=markers))
        report = run_scenario(sc, seed=4)
        assert len(report["frames"]) == 1
        assert report["metrics"]["merge_count"] == 1
        event = report["merge_events"][0]
        rt = Pose6D.from_dict(event["transform"]["rt"])
        # drone 1 believes it starts at the origin, so the recovered
        # frame transform is its true start pose expressed in frame 0
        true1 = Pose6D.from_euler([0.8, 0.6, 0.0], [0, 0, 2.2])
        assert np.linalg.norm(np.subtract(rt.t, true1.t)) < 1e-6
        assert rotation_angle_between(rt.q, true1.q) < 1e-6

    @staticmethod
    def run_lab_with_lossy_inboxes(monkeypatch, drop):
        """Lab seed 11 where ``drop(drone_id, line)`` loses broadcast lines at a drone's inbox.

        The loss wraps each inbox's ``send_line``; the station still sends
        every line, and the scenario does not know about it.
        """
        build = runner._build_system
        lost = Counter()

        def lossy_build(scenario):
            station, nodes = build(scenario)
            for drone_id, node in nodes.items():
                def send_line(line, drone_id=drone_id, deliver=node.inbox.send_line):
                    if drop(drone_id, line):
                        lost[drone_id] += 1
                    else:
                        deliver(line)

                node.inbox.send_line = send_line
            return station, nodes

        monkeypatch.setattr(runner, "_build_system", lossy_build)
        sc = load_scenario(str(SCENARIOS / "lab_three_drones.json"))
        return run_scenario(sc, seed=11, mode="lockstep"), lost

    def test_lost_merge_line_heals_at_the_next_broadcast(self, monkeypatch):
        told = []

        def first_merge_of_frame_1_to_drone_1(drone_id, line):
            if drone_id != 1 or told:
                return False
            if any(retired == 1 for retired, _, _ in decode(line).msg.merges):
                told.append(line)
                return True
            return False

        report, lost = self.run_lab_with_lossy_inboxes(
            monkeypatch, first_merge_of_frame_1_to_drone_1
        )
        assert lost == {1: 1}
        assert report["drone_frames"]["1"] == 0
        assert report["trajectories"]["1"][-1]["frame"] == 0
        assert "1" in report["metrics"]["ate"]

    def test_a_fifth_of_broadcast_lines_lost_leaves_every_drone_in_the_live_frame(
        self, monkeypatch
    ):
        lossless = run_scenario(load_scenario(str(SCENARIOS / "lab_three_drones.json")), seed=11)
        # with these seeds drone 1 loses the only line that tells it of its
        # merge: a drone that moved on a one-off merge event would stay in
        # frame 1 for the rest of the run, with 16 updates and no ATE
        rngs = {drone_id: random.Random(6 + drone_id) for drone_id in range(3)}
        report, lost = self.run_lab_with_lossy_inboxes(
            monkeypatch, lambda drone_id, line: rngs[drone_id].random() < 0.2
        )
        assert sorted(lost) == [0, 1, 2]
        for drone_id in ("0", "1", "2"):
            assert drone_id in report["metrics"]["ate"]
            assert report["drone_frames"][drone_id] == 0
            assert report["trajectories"][drone_id][-1]["frame"] == 0
            updates = report["counters"]["drones"][drone_id]["updates"]
            expected = lossless["counters"]["drones"][drone_id]["updates"]
            assert abs(updates - expected) <= 0.1 * expected, (drone_id, updates, expected)

    def test_lab_seed_12_logs_no_out_of_band_rigid_fit(self, caplog):
        # mis-framed detections once bent a support-2 refine of this run to
        # scale 1.1055, outside framemerge.SCALE_BAND
        sc = load_scenario(str(SCENARIOS / "lab_three_drones.json"))
        with caplog.at_level(logging.WARNING, logger="markerswarm.framemerge"):
            report = run_scenario(sc, seed=12, mode="lockstep")
        assert report["metrics"]["merge_count"] >= 2
        assert [rec.message for rec in caplog.records if "rigid fit scale" in rec.message] == []

    @staticmethod
    def assert_node_views_match_station_map(seed):
        # each drone builds its view from map deltas alone; once its inbox is
        # drained it must hold every station entry, merges and BA included
        sc = load_scenario(str(SCENARIOS / "lab_three_drones.json"))
        station, nodes, _ = _run_ticks(sc, seed)
        assert station.merge_events and station.ba_reports
        expected = {k: e.to_dict() for k, e in station.gmap.entries.items()}
        assert len(expected) == len(sc.world.markers)
        for node in nodes.values():
            for line in node.inbox.drain():
                node._apply_line(line)
            assert {k: e.to_dict() for k, e in node.map_view.items()} == expected

    def test_lockstep_node_views_match_station_map(self):
        self.assert_node_views_match_station_map(11)

    def test_node_views_keep_the_station_map_bits_through_the_euler_wire(self):
        # a pose travels as Euler angles; decoding and re-extracting them moved
        # the last bit of marker 27's yaw here, so the views differed from the
        # map until the station kept each entry as the drones decode it
        self.assert_node_views_match_station_map(3)
