"""Wire protocol tests: codec round trips, guards, transports and the wire's size."""

import dataclasses
import importlib
import json
import re
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
        drone_id=2, frame=1, pose=sample_pose(6), timestamp=3.25, observations=(det,)
    )


def sample_obs():
    """A drone-tick's line: one forwarded detection and a committed keypose."""
    record = (sample_detection(), sample_pose(10), sample_cov(11))
    return MarkerObs(frame=1, timestamp=3.25, records=(record,), keypose=sample_keypose())


def all_messages():
    entry = MapEntry(
        marker_id=9, frame=0, pose=sample_pose(7), cov=sample_cov(8), obs_count=3
    )
    return [
        Hello(),
        sample_obs(),
        PoseReport(frame=1, timestamp=2.0, mean=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0)),
        MapSnapshot(entries=(entry,), merges=((2, 0, sample_pose(13)), (1, 0, sample_pose(14)))),
    ]


MISSING = object()  # tampered's value that deletes the key instead


def tampered(kind, path, value):
    """The encoded sample message of ``kind`` with the field at ``path`` set to ``value``."""
    msg = next(m for m in all_messages() if type(m).__name__ == kind)
    doc = json.loads(encode(msg, sender=0, seq=1))
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(doc)


def value_paths(node, path=()):
    """The path of every value below ``node``, containers and leaves alike."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield [*path, key]
        yield from value_paths(value, (*path, key))


RECORD = ["records", 0]  # the sample line's one record
DETECTION = [*RECORD, "detection"]
OBSERVATION = ["keypose", "observations", 0]  # the sample keypose's one detection


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
    return {"t": [float(v) for v in p.t], "euler": [float(v) for v in p.to_vector()[3:]]}


def legacy_cov(cov):
    return upper(np.asarray(cov))


def legacy_entry(e):
    return {"marker_id": e.marker_id, "frame": e.frame, "pose": legacy_pose(e.pose),
            "cov": legacy_cov(e.cov), "obs_count": e.obs_count}


def legacy_detection(d):
    return {"marker_id": d.marker_id, "camera": d.camera,
            "rel_pose": legacy_pose(d.rel_pose)}


def legacy_keypose(kp):
    if kp is None:
        return None
    return {"pose": legacy_pose(kp.pose),
            "observations": [legacy_detection(d) for d in kp.observations]}


def legacy_payload(msg):
    if isinstance(msg, Hello):
        return {}
    if isinstance(msg, MarkerObs):
        records = [{"detection": legacy_detection(det), "ekf_pose": legacy_pose(pose),
                    "ekf_cov": legacy_cov(cov)} for det, pose, cov in msg.records]
        return {"frame": msg.frame, "timestamp": float(msg.timestamp), "records": records,
                "keypose": legacy_keypose(msg.keypose)}
    if isinstance(msg, PoseReport):
        return {"frame": msg.frame,
                "timestamp": float(msg.timestamp), "mean": [float(v) for v in msg.mean]}
    if isinstance(msg, MapSnapshot):
        merges = [{"from": r, "to": w, "rt": legacy_pose(rt)} for r, w, rt in msg.merges]
        return {"entries": [legacy_entry(e) for e in msg.entries], "merges": merges}
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
        MarkerObs(frame=-0, timestamp=-0.0, records=((sample_detection(), entry.pose, cov),),
                  keypose=None),
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
        msg = sample_obs()
        out = decode(encode(msg, sender=1, seq=0)).msg
        ((det, ekf_pose, ekf_cov),) = out.records
        ((sent_det, sent_pose, sent_cov),) = msg.records
        assert poses_close(ekf_pose, sent_pose)
        assert poses_close(det.rel_pose, sent_det.rel_pose)
        np.testing.assert_allclose(ekf_cov, sent_cov)
        assert det.marker_id == 42 and det.camera == "down"
        assert out.frame == 1 and out.timestamp == 3.25

    def test_snapshot_round_trip_preserves_the_frame_table(self):
        msg = next(m for m in all_messages() if isinstance(m, MapSnapshot))
        out = decode(encode(msg, sender=STATION_ID, seq=3)).msg
        assert [(r, w) for r, w, _ in out.merges] == [(2, 0), (1, 0)]
        assert all(poses_close(a[2], b[2]) for a, b in zip(out.merges, msg.merges, strict=True))

    def test_keypose_round_trip_preserves_observation(self):
        msg = sample_obs()
        kp = decode(encode(msg, sender=2, seq=5)).msg.keypose
        assert (kp.drone_id, kp.frame, kp.timestamp) == (2, 1, 3.25)
        assert poses_close(kp.pose, msg.keypose.pose)
        (ob,) = kp.observations
        ref = msg.keypose.observations[0]
        assert (ob.marker_id, ob.camera) == (7, "forward")
        assert poses_close(ob.rel_pose, ref.rel_pose)

    def test_keypose_drone_is_the_envelope_sender(self):
        msg = sample_obs()
        assert msg.keypose.drone_id == 2
        assert decode(encode(msg, sender=5, seq=1)).msg.keypose.drone_id == 5

    def test_detections_carry_no_range_and_keyposes_no_drone(self):
        # nor a frame or a time: a keypose's are its line's
        obs = json.loads(encode(sample_obs(), sender=1, seq=1))
        assert set(obs) == {"type", "sender", "seq", "frame", "timestamp", "records", "keypose"}
        assert set(obs["records"][0]) == {"detection", "ekf_pose", "ekf_cov"}
        assert set(obs["records"][0]["detection"]) == {"marker_id", "camera", "rel_pose"}
        assert set(obs["keypose"]) == {"pose", "observations"}
        assert set(obs["keypose"]["observations"][0]) == {"marker_id", "camera", "rel_pose"}

    def test_line_without_keypose_sends_null(self):
        line = encode(replace(sample_obs(), keypose=None), sender=1, seq=1)
        assert json.loads(line)["keypose"] is None
        assert decode(line).msg.keypose is None

    @pytest.mark.parametrize(
        "path, value, reason",
        [
            ([*RECORD, "ekf_pose", "t"], [0.0, 0.5], "t has 2 values, not 3"),
            ([*DETECTION, "rel_pose", "euler"], [0.0, 0.5], "euler has 2 values, not 3"),
            (["timestamp"], 10**400, "timestamp is an integer too large for a float"),
            ([*RECORD, "ekf_cov", 3], -(10**400), "ekf_cov is an integer too large for a float"),
        ],
        ids=["t-2-vector", "euler-2-vector", "huge-int-timestamp", "huge-int-ekf-cov"],
    )
    def test_refusal_names_its_field(self, path, value, reason):
        with pytest.raises(ProtocolError, match=re.escape(reason)):
            decode(tampered("MarkerObs", path, value))

    @pytest.mark.parametrize("msg", all_messages(), ids=lambda m: type(m).__name__)
    def test_non_finite_constant_anywhere_is_malformed(self, msg):
        # json.loads reads NaN and Infinity; a value check refuses each, wherever it stands
        kind = type(msg).__name__
        doc = json.loads(encode(msg, sender=0, seq=1))
        paths = list(value_paths(doc))
        assert len(paths) >= 3
        for path in paths:
            for constant in ("NaN", "Infinity", "-Infinity"):
                line = tampered(kind, path, float(constant))
                assert constant in line
                with pytest.raises(ProtocolError):
                    decode(line)

    def test_hello_envelope_keys(self):
        line = encode(Hello(), sender=4, seq=1)
        doc = json.loads(line)
        assert set(doc) == {"type", "sender", "seq"}
        assert doc["type"] == "Hello"

    def test_station_sender_allowed(self):
        line = encode(MapSnapshot(entries=(), merges=()), sender=STATION_ID, seq=0)
        assert decode(line).sender == STATION_ID

    # A detection has no "range" key and a keypose no "drone_id" or
    # "timestamp": every JSON object on a line has exactly its keys, so the
    # cases that set one of those keys are malformed for the key alone,
    # whatever its value. A keypose's frame and time are its line's, so the
    # keypose cases on those tamper with the line's.
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
            tampered("MarkerObs", [*DETECTION, "marker_id"], "42"),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], 9.0),
            tampered("MapSnapshot", ["entries", 0, "frame"], "0"),
            tampered("MapSnapshot", ["entries", 0, "obs_count"], 3.5),
            tampered("MarkerObs", ["keypose", "drone_id"], "2"),
            tampered("MarkerObs", ["frame"], True),
            tampered("MarkerObs", [*OBSERVATION, "marker_id"], 7.0),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], upper(-np.eye(6))),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], NEGATIVE_EIGENVALUE),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], upper(np.eye(6))[:20]),
            tampered("MarkerObs", [*RECORD, "ekf_cov"],
                     flat(np.eye(6) + np.triu(np.ones((6, 6)), 1))),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], upper(np.full((6, 6), np.nan))),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], [0.125] + upper(np.eye(6))[1:]).replace(
                "0.125", "1e400"
            ),
            tampered("MarkerObs", [*RECORD, "ekf_cov"], ["1.0"] + upper(np.eye(6))[1:]),
            tampered("MarkerObs", [*OBSERVATION, "range"], "0.5"),
            tampered("MarkerObs", [*OBSERVATION, "camera"], 5),
            tampered("MarkerObs", [*DETECTION, "range"], float("nan")),
            tampered("MarkerObs", ["timestamp"], float("inf")),
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
            tampered("MarkerObs", [*DETECTION, "range"], "nan"),
            tampered("MarkerObs", [*DETECTION, "range"], True),
            tampered("MarkerObs", [*DETECTION, "range"], 0.125).replace("0.125", "1e400"),
            tampered("MarkerObs", ["timestamp"], "inf"),
            tampered("MarkerObs", [*DETECTION, "camera"], 5),
            tampered("MarkerObs", [*DETECTION, "rel_pose", "t"], ["0.1", 0.0, 0.0]),
            tampered("MarkerObs", [*RECORD, "ekf_pose", "euler"], [0.0, False, 0.0]),
            tampered("MarkerObs", [*RECORD, "ekf_cov"],
                     [True if v else 0.0 for v in upper(np.eye(6))]),
            tampered("MapSnapshot", ["merges", 0, "rt", "t"], ["0.5", 0.0, 0.0]),
            tampered("PoseReport", ["timestamp"], "inf"),
            tampered("PoseReport", ["mean"], ["0.0", 1.0, 2.0, 3.0, 4.0, 5.0]),
            tampered("PoseReport", ["frame"], True),
            tampered("MapSnapshot", ["entries", 0, "cov"], [str(v) for v in upper(np.eye(6))]),
            tampered("MapSnapshot", ["entries", 0, "pose", "euler"], [0.0, 0.0, "0.5"]),
            tampered("MarkerObs", ["keypose", "timestamp"], 3.25),
            tampered("MarkerObs", [*OBSERVATION, "rel_pose", "t"],
                     [True, 0.0, 0.0]),
            tampered("MarkerObs", [*DETECTION, "range"], -1.0),
            tampered("MarkerObs", [*OBSERVATION, "range"], -2.0),
            tampered("MarkerObs", [*DETECTION, "range"], 0.0),
            tampered("MarkerObs", [*OBSERVATION, "range"], 0.0),
            '{"type": "FrameMerged", "sender": -1, "seq": 1, "loser": 1, "winner": 0, '
            '"rt": {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}}',
            tampered("MarkerObs", [*DETECTION, "camera"], "thermal"),
            tampered("MarkerObs", [*OBSERVATION, "camera"], "thermal"),
            tampered("MarkerObs", [*DETECTION, "camera"], ["down"]),
            tampered("MarkerObs", [*DETECTION, "marker_id"], -1),
            tampered("MarkerObs", [*DETECTION, "marker_id"], 1024),
            tampered("MarkerObs", [*OBSERVATION, "marker_id"], -1),
            tampered("MarkerObs", [*OBSERVATION, "marker_id"], 1024),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], 1024),
            tampered("MapSnapshot", ["entries", 0, "marker_id"], -7),
            tampered("Hello", ["drone_id"], 0),
            tampered("PoseReport", ["cov"], flat(np.eye(6))),
            tampered("MarkerObs", [*RECORD, "ekf_pose", "q"], [1.0, 0.0, 0.0, 0.0]),
            tampered("MapSnapshot", ["entries", 0, "seen"], 1),
            tampered("MapSnapshot", ["merges", 0, "time"], 1.0),
            tampered("MarkerObs", DETECTION, [42, "down"]),
            tampered("MarkerObs", [*RECORD, "frame"], 1),
            tampered("MarkerObs", RECORD, [42, "down"]),
            tampered("MarkerObs", ["records"], 5),
            tampered("MarkerObs", ["records"], MISSING),
            tampered("MarkerObs", ["keypose"], MISSING),
            tampered("MarkerObs", ["keypose", "pose"], MISSING),
            tampered("MarkerObs", ["keypose", "observations"], []),
            tampered("MarkerObs", ["keypose"], []),
            tampered("MarkerObs", ["frame"], "1"),
            tampered("MarkerObs", ["timestamp"], 10**400),
            tampered("MarkerObs", [*RECORD, "ekf_pose", "t"], [0.0, 0.5]),
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
            "obs-extra-record-key",
            "obs-list-record",
            "obs-int-records",
            "obs-no-records",
            "obs-no-keypose",
            "keypose-no-pose",
            "keypose-no-observations",
            "keypose-list",
            "obs-string-frame",
            "obs-huge-int-timestamp",
            "obs-2-value-ekf-pose-t",
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
        msg = replace(sample_obs(), timestamp=float("nan"), keypose=None)
        with pytest.raises(ProtocolError):
            encode(msg, sender=0, seq=1)


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
    "MarkerObs": (125, 292719),
    "PoseReport": (150, 30509),
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
