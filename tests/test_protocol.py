"""Wire protocol tests: codec round trips, guards, transports and the wire's size."""

import dataclasses
import importlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from markerswarm.bundle import Keypose
from markerswarm.geom import Pose6D
from markerswarm.mapstore import MapEntry
from markerswarm.scenario import load_scenario
from markerswarm.swarm import protocol, run_scenario
from markerswarm.swarm.protocol import (
    STATION_ID,
    Decoded,
    Endpoint,
    Hello,
    KeyposeCommit,
    MapSnapshot,
    MarkerObs,
    PoseReport,
    ProtocolError,
    QueueTransport,
    SequenceGuard,
    decode,
    decode_broadcast,
    encode,
)
from markerswarm.worldsim import MarkerDetection


def sample_pose(seed=0):
    rng = np.random.default_rng(seed)
    return Pose6D.from_euler(rng.normal(size=3), rng.normal(size=3) * 0.5)


def sample_cov(seed=1):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    return a @ a.T + np.eye(6) * 0.1


def sample_detection():
    return MarkerDetection(marker_id=42, camera="down", rel_pose=sample_pose(2))


def sample_keypose():
    det = MarkerDetection(marker_id=7, camera="forward", rel_pose=sample_pose(3))
    return Keypose(
        drone_id=2, frame=0, pose=sample_pose(6), timestamp=4.5, observations=(det,)
    )


def all_messages():
    entry = MapEntry(
        marker_id=9, frame=0, pose=sample_pose(7), cov=sample_cov(8), obs_count=3
    )
    return [
        Hello(),
        MarkerObs(
            detection=sample_detection(),
            ekf_pose=sample_pose(10),
            ekf_cov=sample_cov(11),
            frame=1,
            timestamp=3.25,
        ),
        PoseReport(frame=1, timestamp=2.0, mean=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0)),
        MapSnapshot(entries=(entry,), merges=((2, 0, sample_pose(13)), (1, 0, sample_pose(14)))),
        KeyposeCommit(keypose=sample_keypose()),
    ]


def tampered(kind, path, value):
    """The encoded sample message of ``kind`` with the field at ``path`` set to ``value``."""
    msg = next(m for m in all_messages() if type(m).__name__ == kind)
    doc = json.loads(encode(msg, sender=0, seq=1))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


def flat(matrix):
    return [float(v) for v in np.asarray(matrix).reshape(-1)]


def upper(matrix):
    """The 21 upper-triangle values of a 6x6, row by row: a covariance's wire form."""
    return [float(matrix[i][j]) for i in range(6) for j in range(i, 6)]


NEGATIVE_EIGENVALUE = upper(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1e-6]))


# encode's output built the slow way: every number goes through float()
# one at a time, a covariance is indexed entry by entry, and json.dumps
# builds a new encoder per message.


def legacy_pose(p):
    return {"t": [float(v) for v in p.t], "euler": [float(v) for v in p.euler]}


def legacy_cov(cov):
    return upper(np.asarray(cov))


def legacy_entry(e):
    return {"marker_id": e.marker_id, "frame": e.frame, "pose": legacy_pose(e.pose),
            "cov": legacy_cov(e.cov), "obs_count": e.obs_count}


def legacy_detection(d):
    return {"marker_id": d.marker_id, "camera": d.camera,
            "rel_pose": legacy_pose(d.rel_pose)}


def legacy_keypose(kp):
    return {"frame": kp.frame, "pose": legacy_pose(kp.pose),
            "timestamp": float(kp.timestamp),
            "observations": [legacy_detection(d) for d in kp.observations]}


def legacy_payload(msg):
    if isinstance(msg, Hello):
        return {}
    if isinstance(msg, MarkerObs):
        return {"detection": legacy_detection(msg.detection),
                "ekf_pose": legacy_pose(msg.ekf_pose), "ekf_cov": legacy_cov(msg.ekf_cov),
                "frame": msg.frame, "timestamp": float(msg.timestamp)}
    if isinstance(msg, PoseReport):
        return {"frame": msg.frame,
                "timestamp": float(msg.timestamp), "mean": [float(v) for v in msg.mean]}
    if isinstance(msg, MapSnapshot):
        merges = [{"from": r, "to": w, "rt": legacy_pose(rt)} for r, w, rt in msg.merges]
        return {"entries": [legacy_entry(e) for e in msg.entries], "merges": merges}
    if isinstance(msg, KeyposeCommit):
        return {"keypose": legacy_keypose(msg.keypose)}
    return {}


def legacy_encode(msg, sender, seq):
    frame = {"type": type(msg).__name__, "sender": sender, "seq": seq, **legacy_payload(msg)}
    return json.dumps(frame, sort_keys=True, separators=(",", ":"), allow_nan=False)


def awkward_messages():
    """Messages whose float lists hold signed zeros, subnormals and extremes."""
    odd = np.array([-0.0, 0.0, 5e-324, -1e-300, 1e300, -1.7976931348623157e308])
    cov = np.diag(np.abs(odd) + 1e-3)
    cov[0, 1] = cov[1, 0] = -0.0
    entry = MapEntry(marker_id=3, frame=2, pose=Pose6D(odd[:3], [-0.0, 0.0, 1.0, -0.0]),
                     cov=cov, obs_count=1)
    return [
        PoseReport(frame=2, timestamp=-0.0, mean=tuple(odd.tolist())),
        MapSnapshot(entries=(entry, replace(entry, marker_id=4, cov=-cov)),
                    merges=((3, 2, entry.pose),)),
        MarkerObs(detection=sample_detection(), ekf_pose=entry.pose, ekf_cov=cov, frame=-0,
                  timestamp=-0.0),
    ]


def poses_close(a, b, tol=1e-12):
    return (
        np.linalg.norm(np.subtract(a.t, b.t)) < tol
        and abs(abs(float(np.dot(a.q, b.q))) - 1.0) < tol
    )


class TestCodec:
    @pytest.mark.parametrize("msg", all_messages(), ids=lambda m: type(m).__name__)
    def test_round_trip(self, msg):
        line = encode(msg, sender=3, seq=17)
        assert "\n" not in line
        out = decode(line)
        assert isinstance(out, Decoded)
        assert out.sender == 3 and out.seq == 17
        assert type(out.msg) is type(msg)

    def test_round_trip_preserves_values(self):
        msg = all_messages()[1]
        out = decode(encode(msg, sender=1, seq=0)).msg
        assert poses_close(out.ekf_pose, msg.ekf_pose)
        assert poses_close(out.detection.rel_pose, msg.detection.rel_pose)
        np.testing.assert_allclose(out.ekf_cov, msg.ekf_cov)
        assert out.detection.marker_id == 42 and out.detection.camera == "down"
        assert out.frame == 1 and out.timestamp == 3.25

    def test_snapshot_round_trip_preserves_the_frame_table(self):
        msg = next(m for m in all_messages() if isinstance(m, MapSnapshot))
        out = decode(encode(msg, sender=STATION_ID, seq=3)).msg
        assert [(r, w) for r, w, _ in out.merges] == [(2, 0), (1, 0)]
        assert all(poses_close(a[2], b[2]) for a, b in zip(out.merges, msg.merges, strict=True))

    def test_keypose_round_trip_preserves_observation(self):
        msg = KeyposeCommit(keypose=sample_keypose())
        out = decode(encode(msg, sender=2, seq=5)).msg
        kp = out.keypose
        assert kp.drone_id == 2 and kp.timestamp == 4.5
        (ob,) = kp.observations
        ref = msg.keypose.observations[0]
        assert (ob.marker_id, ob.camera) == (7, "forward")
        assert poses_close(ob.rel_pose, ref.rel_pose)

    def test_keypose_drone_is_the_envelope_sender(self):
        keypose = sample_keypose()
        assert keypose.drone_id == 2
        assert decode(encode(KeyposeCommit(keypose), sender=5, seq=1)).msg.keypose.drone_id == 5

    def test_detections_carry_no_range_and_keyposes_no_drone(self):
        obs = json.loads(encode(all_messages()[1], sender=1, seq=1))
        commit = json.loads(encode(KeyposeCommit(sample_keypose()), sender=2, seq=1))
        assert set(obs["detection"]) == {"marker_id", "camera", "rel_pose"}
        assert set(commit["keypose"]) == {"frame", "pose", "timestamp", "observations"}
        assert set(commit["keypose"]["observations"][0]) == {"marker_id", "camera", "rel_pose"}

    def test_hello_envelope_keys(self):
        line = encode(Hello(), sender=4, seq=1)
        doc = json.loads(line)
        assert set(doc) == {"type", "sender", "seq"}
        assert doc["type"] == "Hello"

    def test_station_sender_allowed(self):
        line = encode(MapSnapshot(entries=(), merges=()), sender=STATION_ID, seq=0)
        assert decode(line).sender == STATION_ID

    # A detection has no "range" key and a keypose no "drone_id": every JSON
    # object on a line has exactly its keys, so the cases that set either
    # key are malformed for the key alone, whatever its value.
    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"sender": 0, "seq": 1}',
            '{"type": "Warp", "sender": 0, "seq": 1}',
            '{"type": "MapSnapshot", "sender": -1, "seq": 1, "entries": []}',
            '{"type": "Hello", "seq": 1}',
            '{"type": "Hello", "sender": 0, "seq": -1}',
            '{"type": "Hello", "sender": 0, "seq": 1.5}',
            '{"type": "Hello", "sender": true, "seq": 1}',
            '{"type": "Hello", "sender": 0, "seq": "7"}',
            '{"type": "Shutdown", "sender": 0, "seq": 1}',
            "",
            tampered("MapSnapshot", ["merges", 0, "from"], 1.9),
            tampered("MapSnapshot", ["merges", 1, "to"], True),
            tampered("PoseReport", ["frame"], 1.5),
            tampered("MarkerObs", ["frame"], 1.0),
            tampered("MarkerObs", ["detection", "marker_id"], "42"),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], 9.0),
            tampered("MapSnapshot", ["entries", 0, "frame"], "0"),
            tampered("MapSnapshot", ["entries", 0, "obs_count"], 3.5),
            tampered("KeyposeCommit", ["keypose", "drone_id"], "2"),
            tampered("KeyposeCommit", ["keypose", "frame"], True),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "marker_id"], 7.0),
            tampered("MarkerObs", ["ekf_cov"], upper(-np.eye(6))),
            tampered("MarkerObs", ["ekf_cov"], NEGATIVE_EIGENVALUE),
            tampered("MarkerObs", ["ekf_cov"], upper(np.eye(6))[:20]),
            tampered("MarkerObs", ["ekf_cov"], flat(np.eye(6) + np.triu(np.ones((6, 6)), 1))),
            tampered("MarkerObs", ["ekf_cov"], upper(np.full((6, 6), np.nan))),
            tampered("MarkerObs", ["ekf_cov"], [0.125] + upper(np.eye(6))[1:]).replace(
                "0.125", "1e400"
            ),
            tampered("MarkerObs", ["ekf_cov"], ["1.0"] + upper(np.eye(6))[1:]),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "range"], "0.5"),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "camera"], 5),
            tampered("MarkerObs", ["detection", "range"], float("nan")),
            tampered("KeyposeCommit", ["keypose", "timestamp"], float("inf")),
            tampered("MapSnapshot", ["entries", 0, "cov"], upper(-np.eye(6))),
            tampered("MapSnapshot", ["entries", 0, "cov"], NEGATIVE_EIGENVALUE),
            tampered("MapSnapshot", ["entries", 0, "cov"], upper(np.eye(6))[:20]),
            tampered("MapSnapshot", ["entries", 0, "cov"],
                     flat(np.eye(6) + np.triu(np.ones((6, 6)), 1))),
            tampered("MapSnapshot", ["entries", 0, "cov"], upper(np.full((6, 6), np.nan))),
            tampered("MapSnapshot", ["entries", 0, "cov"], [0.125] + upper(np.eye(6))[1:]).replace(
                "0.125", "1e400"
            ),
            tampered("MapSnapshot", ["entries", 0, "cov"], True),
            tampered("MapSnapshot", ["entries", 0, "cov"], [True] + upper(np.eye(6))[1:]),
            tampered("MapSnapshot", ["entries", 0, "obs_count"], 0),
            tampered("MapSnapshot", ["entries", 0, "obs_count"], -3),
            tampered("PoseReport", ["mean"], [0.0, 1.0, 2.0, 3.0, 4.0]),
            tampered("PoseReport", ["mean"], [0.0, 1.0, 2.0, 3.0, 4.0, 0.125]).replace(
                "0.125", "1e400"
            ),
            tampered("MarkerObs", ["detection", "range"], "nan"),
            tampered("MarkerObs", ["detection", "range"], True),
            tampered("MarkerObs", ["detection", "range"], 0.125).replace("0.125", "1e400"),
            tampered("MarkerObs", ["timestamp"], "inf"),
            tampered("MarkerObs", ["detection", "camera"], 5),
            tampered("MarkerObs", ["detection", "rel_pose", "t"], ["0.1", 0.0, 0.0]),
            tampered("MarkerObs", ["ekf_pose", "euler"], [0.0, False, 0.0]),
            tampered("MarkerObs", ["ekf_cov"], [True if v else 0.0 for v in upper(np.eye(6))]),
            tampered("MapSnapshot", ["merges", 0, "rt", "t"], ["0.5", 0.0, 0.0]),
            tampered("PoseReport", ["timestamp"], "inf"),
            tampered("PoseReport", ["mean"], ["0.0", 1.0, 2.0, 3.0, 4.0, 5.0]),
            tampered("PoseReport", ["frame"], True),
            tampered("MapSnapshot", ["entries", 0, "cov"], [str(v) for v in upper(np.eye(6))]),
            tampered("MapSnapshot", ["entries", 0, "pose", "euler"], [0.0, 0.0, "0.5"]),
            tampered("KeyposeCommit", ["keypose", "timestamp"], "inf"),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "rel_pose", "t"],
                     [True, 0.0, 0.0]),
            tampered("MarkerObs", ["detection", "range"], -1.0),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "range"], -2.0),
            tampered("MarkerObs", ["detection", "range"], 0.0),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "range"], 0.0),
            '{"type": "FrameMerged", "sender": -1, "seq": 1, "loser": 1, "winner": 0, '
            '"rt": {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}}',
            tampered("MarkerObs", ["detection", "camera"], "thermal"),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "camera"], "thermal"),
            tampered("MarkerObs", ["detection", "camera"], ["down"]),
            tampered("MarkerObs", ["detection", "marker_id"], -1),
            tampered("MarkerObs", ["detection", "marker_id"], 1024),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "marker_id"], -1),
            tampered("KeyposeCommit", ["keypose", "observations", 0, "marker_id"], 1024),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], 1024),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], -7),
            tampered("Hello", ["drone_id"], 0),
            tampered("PoseReport", ["cov"], flat(np.eye(6))),
            tampered("MarkerObs", ["ekf_pose", "q"], [1.0, 0.0, 0.0, 0.0]),
            tampered("MapSnapshot", ["entries", 0, "seen"], 1),
            tampered("MapSnapshot", ["merges", 0, "time"], 1.0),
            tampered("MarkerObs", ["detection"], [42, "down"]),
        ],
        ids=[
            "raw-text",
            "array",
            "no-type",
            "unknown-type",
            "missing-field",
            "no-sender",
            "negative-seq",
            "float-seq",
            "bool-sender",
            "string-seq",
            "shutdown",
            "empty",
            "merged-float-loser",
            "merged-bool-winner",
            "report-float-state-frame",
            "obs-float-frame",
            "obs-string-marker-id",
            "snapshot-float-marker-id",
            "snapshot-string-frame",
            "snapshot-float-obs-count",
            "keypose-string-drone-id",
            "keypose-bool-frame",
            "keypose-float-observation-marker-id",
            "obs-negative-ekf-cov",
            "obs-negative-eigenvalue-ekf-cov",
            "obs-20-value-ekf-cov",
            "obs-36-value-ekf-cov",
            "obs-nan-ekf-cov",
            "obs-overflowing-ekf-cov",
            "obs-string-ekf-cov",
            "keypose-string-observation-range",
            "keypose-int-observation-camera",
            "obs-nan-range",
            "keypose-infinite-timestamp",
            "snapshot-negative-cov",
            "snapshot-negative-eigenvalue-cov",
            "snapshot-20-value-cov",
            "snapshot-36-value-cov",
            "snapshot-nan-cov",
            "snapshot-overflowing-cov",
            "snapshot-bool-cov",
            "snapshot-bool-cov-value",
            "snapshot-zero-obs-count",
            "snapshot-negative-obs-count",
            "report-short-state-mean",
            "report-overflowing-state-mean",
            "obs-string-range",
            "obs-bool-range",
            "obs-overflowing-range",
            "obs-string-timestamp",
            "obs-int-camera",
            "obs-string-rel-pose-t",
            "obs-bool-ekf-pose-euler",
            "obs-bool-ekf-cov",
            "merged-string-rt-t",
            "report-string-state-timestamp",
            "report-string-state-mean",
            "report-bool-state-frame",
            "snapshot-string-cov",
            "snapshot-string-pose-euler",
            "keypose-string-timestamp",
            "keypose-bool-observation-rel-pose-t",
            "obs-negative-range",
            "keypose-negative-observation-range",
            "obs-range-not-translation-norm",
            "keypose-observation-range-not-translation-norm",
            "frame-merged",
            "obs-unknown-camera",
            "keypose-unknown-observation-camera",
            "obs-list-camera",
            "obs-negative-marker-id",
            "obs-marker-id-1024",
            "keypose-negative-observation-marker-id",
            "keypose-observation-marker-id-1024",
            "snapshot-marker-id-1024",
            "snapshot-negative-marker-id",
            "hello-extra-key",
            "report-extra-key",
            "obs-extra-ekf-pose-key",
            "snapshot-extra-entry-key",
            "snapshot-extra-merge-key",
            "obs-list-detection",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            decode(line)

    @pytest.mark.parametrize(
        "msg", all_messages() + awkward_messages(), ids=lambda m: type(m).__name__
    )
    def test_encode_bytes_match_the_float_list_form(self, msg):
        assert encode(msg, sender=STATION_ID, seq=2**64 - 1) == legacy_encode(msg, -1, 2**64 - 1)

    @pytest.mark.parametrize(
        "line",
        [
            "\ufeff" + encode(Hello(), sender=0, seq=1),
            encode(Hello(), sender=0, seq=1).encode("utf-8"),
            None,
            7,
        ],
        ids=["bom", "bytes", "none", "int"],
    )
    def test_non_text_and_bom_lines_raise(self, line):
        with pytest.raises(ProtocolError):
            decode(line)
        with pytest.raises(ProtocolError):
            decode_broadcast(line)

    def test_decoded_messages_hold_no_writeable_array(self):
        # decode_broadcast hands one decoded message to every drone
        def mutable_parts(value, path):
            if isinstance(value, np.ndarray):
                if value.flags.writeable:
                    yield path
            elif isinstance(value, (list, dict, set)):
                yield path
            elif isinstance(value, tuple):
                for i, item in enumerate(value):
                    yield from mutable_parts(item, f"{path}[{i}]")
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield from mutable_parts(getattr(value, field.name), f"{path}.{field.name}")

        for msg in all_messages():
            decoded = decode(encode(msg, sender=0, seq=1))
            assert list(mutable_parts(decoded.msg, type(msg).__name__)) == []

    def test_pose_from_float64_inputs_holds_floats_and_encodes_alike(self):
        as_floats = Pose6D.from_euler([0.25, -1.5, 2.0], [0.1, -0.2, 0.3])
        from_arrays = Pose6D(np.array(as_floats.t), np.array(as_floats.q))
        from_scalars = Pose6D(
            tuple(map(np.float64, as_floats.t)), tuple(map(np.float64, as_floats.q))
        )
        lines = set()
        for pose in (as_floats, from_arrays, from_scalars):
            assert all(type(v) is float for v in (*pose.t, *pose.q))
            assert np.array(pose.t).tobytes() == np.array(as_floats.t).tobytes()
            assert np.array(pose.q).tobytes() == np.array(as_floats.q).tobytes()
            lines.add(encode(MapSnapshot(entries=(), merges=((1, 0, pose),)), sender=-1, seq=1))
        assert len(lines) == 1

    def test_encode_rejects_foreign_object(self):
        with pytest.raises(ProtocolError):
            encode(object(), sender=0, seq=0)

    def test_encode_rejects_non_finite_number(self):
        keypose = replace(sample_keypose(), timestamp=float("nan"))
        with pytest.raises(ProtocolError):
            encode(KeyposeCommit(keypose=keypose), sender=0, seq=1)


class TestSequenceGuard:
    def test_monotone_accept(self):
        g = SequenceGuard()
        assert g.accept(0, 0) and g.accept(0, 1) and g.accept(0, 5)

    def test_replay_and_regression_rejected(self):
        g = SequenceGuard()
        assert g.accept(0, 3)
        assert not g.accept(0, 3)
        assert not g.accept(0, 2)
        assert g.accept(0, 4)

    def test_senders_independent(self):
        g = SequenceGuard()
        assert g.accept(0, 10)
        assert g.accept(1, 0)
        assert not g.accept(1, 0)
        assert g.accept(0, 11)


class TestTransports:
    def test_queue_fifo_and_drain(self):
        t = QueueTransport()
        t.send_line("a")
        t.send_line("b")
        assert t.drain() == ["a", "b"]
        assert t.drain() == []

    def test_queue_recv_oldest_or_none(self):
        t = QueueTransport()
        assert t.recv_line() is None
        t.send_line("x")
        t.send_line("y")
        assert t.recv_line() == "x"
        assert t.drain() == ["y"]
        assert t.recv_line() is None


class TestEndpoint:
    def test_seq_strictly_increasing(self):
        t = QueueTransport()
        ep = Endpoint(2, t)
        for _ in range(4):
            ep.send(Hello())
        decoded = [decode(line) for line in t.drain()]
        seqs = [d.seq for d in decoded]
        assert seqs == sorted(set(seqs))
        assert all(d.sender == 2 for d in decoded)

    def test_one_encode_reaches_every_transport(self):
        boxes = [QueueTransport() for _ in range(3)]
        ep = Endpoint(STATION_ID, *boxes)
        ep.send(MapSnapshot(entries=(), merges=()))
        ep.send(MapSnapshot(entries=(), merges=()))
        first, *rest = [box.drain() for box in boxes]
        assert [decode(line).seq for line in first] == [1, 2]
        assert all(all(a is b for a, b in zip(lines, first, strict=True)) for lines in rest)

    def test_guard_accepts_endpoint_stream(self):
        t = QueueTransport()
        ep = Endpoint(5, t)
        guard = SequenceGuard()
        for _ in range(6):
            ep.send(PoseReport(frame=5, timestamp=0.0, mean=(0.0,) * 6))
        for line in t.drain():
            d = decode(line)
            assert d.sender == 5
            assert guard.accept(d.sender, d.seq)


# (messages, encoded bytes) per message type at protocol.encode, on the
# marker_dense benchmark workload for workload seed 1: the wire cannot grow
# unseen. A change that alters the wire on purpose updates these and says
# why in CHANGES.md.
MARKER_DENSE_WIRE = {
    "Hello": (3, 105),
    "MarkerObs": (337, 303888),
    "PoseReport": (150, 30568),
    "MapSnapshot": (48, 130447),
}


def test_marker_dense_wire_is_pinned(monkeypatch, tmp_path):
    # the benchmark's own generator, imported as perfbench/run.py imports it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS["marker_dense"]
    scenario = tmp_path / "marker_dense.json"
    scenario.write_text(json.dumps(workload.build(1)), encoding="utf-8")
    messages, size = Counter(), Counter()
    encode = protocol.encode

    def counted(msg, sender, seq):
        line = encode(msg, sender, seq)
        messages[type(msg).__name__] += 1
        size[type(msg).__name__] += len(line.encode("utf-8"))
        return line

    monkeypatch.setattr(protocol, "encode", counted)
    run_scenario(load_scenario(scenario), workload.seeds(1)[0], workload.mode)
    assert {kind: (messages[kind], size[kind]) for kind in messages} == MARKER_DENSE_WIRE
