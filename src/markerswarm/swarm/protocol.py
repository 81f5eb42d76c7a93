"""Wire protocol between drone nodes and the ground station.

Messages are newline-delimited JSON, one message per line, UTF-8. The
envelope carries three fields on every line: "type" (the message name),
"sender" (drone id, or -1 for the station) and "seq" (unsigned 64-bit,
strictly increasing per sender). Payload fields sit flat beside the
envelope fields, named exactly like the dataclass attributes. A drone
sends ``Hello``, ``MarkerObs`` and ``PoseReport``; the station sends only
``MapSnapshot``. Any other "type" is a malformed line. This module owns
the wire form of every message and of every value in one (detection,
keypose, map entry, covariance): the classes it carries have none.

Each fact travels once. ``Hello`` has no payload: the station registers
the envelope's sender. A drone sends what it measured on one
``MarkerObs`` line a tick at most, with the tick's frame and time once:
in ``records`` each forwarded detection with the filter pose and
covariance it was taken at, in the filter's order, and in ``keypose``
the keypose the tick committed (its pose and the detections seen at its
instant) or null. A keypose's frame and time are the line's, its drone
the envelope's sender. A detection carries neither its range, which is
|``rel_pose.t``|, nor a drone id or a time. The station takes camera
poses from ``worldsim.CAMERAS`` and the noise from its own scenario.
``PoseReport`` carries the drone's EKF mean (exactly six floats), its
frame and the tick's time: not the drone id, which the envelope's sender
is, nor the covariance, which nothing reads.

Covariances: each record's ``ekf_cov`` and each snapshot entry's ``cov``
travel as their 21 upper-triangle values, row by row
(``upper_triangle``). Every covariance a run stores or sends is exactly
symmetric (``tests/test_symmetry.py``), so this loses nothing, and decode
builds the read-only 6x6 once, from those values, symmetric by
construction (``check_covariance``). ``MapEntry.to_dict``, the form of
``map.json`` and ``report.json``, keeps all 36 values.

Every wire value is checked where it is decoded, once; what fails makes a
malformed line, as does one ``json.loads`` cannot read (bad syntax, a
BOM, nesting or digits past the interpreter's limits); the checks below
refuse the ``NaN`` and ``Infinity`` it reads. Every JSON object on a
line, the line included, has exactly its keys. Every integer, in the
envelope and in the payload, must be a JSON integer (``check_int``): a
float, a string or a bool is a malformed line. Every float must be a
finite JSON number (``geom.check_float``), not a string or a bool. A
detection's camera must be a name in ``CAMERAS``, and the marker id of a
detection or a map entry lie in ``0..MARKER_ID_MAX``. A keypose needs at
least one detection. A map entry's ``obs_count`` must be at least 1: a
drone forwards every sighting of an entry below its fusion window. A
covariance must pass ``check_covariance``: exactly 21 values, each
passing ``check_float``, and a smallest eigenvalue of at least
``EIG_TOL``.

Frames are state, not events: a pose on the wire names the frame it was
taken in (``MarkerObs.frame``, for its records and its keypose alike, and
``PoseReport.frame``); every ``MapSnapshot`` carries the whole frame
table, ``merges``: (retired, winner, rt) per merge, oldest first. The
station carries each stamped pose, and a drone its own state, to the live
frame by one walk (``hops_to_live`` in ``framemerge``), so a drone that
missed a snapshot is live after the next, and a merge that a line's first
record triggers carries the rest of that line forward.

Map deltas: a snapshot's ``entries`` are those replaced since the previous
broadcast, in marker id order, merged into a drone's view after its walk.
A merge sends a snapshot with no entries at once; a flush sends one when an
entry changed. The map never removes an entry, and the station keeps the
entries it decodes from its own line (``GroundStation.flush``), so the view
holds the very objects of the station map as long as every snapshot
arrives, in order.

Mailboxes: every link is a plain list of lines with one writer, read on
the runner's thread only after the writer's part of the tick has
returned, so no lock is needed and every mailbox delivers in order, in
lockstep and threaded runs alike. Each drone writes its own outbox,
which the station reads in drone id order. Every station message is a
broadcast: the station's one ``Endpoint`` encodes it once and appends the
same line to every drone's inbox, and ``decode_broadcast`` decodes it once
per process for every reader. ``SequenceGuard`` drops (and the drone
logs) any line that arrives out of order all the same. Every decoded
message is immutable (frozen dataclasses, float tuples and read-only
arrays), so readers can share it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from markerswarm.bundle import Keypose
from markerswarm.geom import Pose6D, check_float, check_keys
from markerswarm.mapstore import MapEntry
from markerswarm.worldsim import CAMERAS, MARKER_ID_MAX, MarkerDetection

STATION_ID = -1
SEQ_MAX = 2**64 - 1
# the keys of each JSON object inside a payload
MERGE_KEYS = frozenset(("from", "to", "rt"))  # of one frame table row
ENTRY_KEYS = frozenset(("marker_id", "frame", "pose", "cov", "obs_count"))  # of one map entry
RECORD_KEYS = frozenset(("detection", "ekf_pose", "ekf_cov"))  # of one forwarded detection
KEYPOSE_KEYS = frozenset(("pose", "observations"))  # of a committed keypose
DETECTION_KEYS = frozenset(("marker_id", "camera", "rel_pose"))  # of one detection

# 6x6 covariances over (x, y, z, alpha, beta, gamma)
EIG_TOL = -1e-12
# on the wire a covariance is its upper triangle, row by row: 21 values
COV_WIRE_LEN = 21
_UPPER = np.flatnonzero(np.triu(np.ones((6, 6), dtype=bool)))  # their flat indices in a 6x6
# each entry of a 6x6, as an index into those 21 values: (i, j) and (j, i) read the same one
_FROM_UPPER = np.zeros((6, 6), dtype=np.intp)
_FROM_UPPER.flat[_UPPER] = range(COV_WIRE_LEN)
_FROM_UPPER = np.maximum(_FROM_UPPER, _FROM_UPPER.T)


class ProtocolError(Exception):
    """A line that cannot be decoded into a valid message."""


@dataclass(frozen=True)
class Hello:
    """A drone's first line; the station registers the envelope's sender."""


@dataclass(frozen=True)
class MarkerObs:
    """A drone-tick's uplink line: its forwarded detections and its keypose, if any."""

    frame: int  # the sender's frame this tick, which every pose below is in
    timestamp: float  # the tick's time
    # (detection, filter pose, filter 6x6) per forwarded detection, in the filter's order;
    # each 6x6 symmetric and read-only: the filter's own, or decode's
    records: tuple[tuple[MarkerDetection, Pose6D, np.ndarray], ...]
    # committed this tick, or None; the wire carries its frame and time as the line's
    keypose: Keypose | None


@dataclass(frozen=True)
class PoseReport:
    frame: int  # the frame the mean is in
    timestamp: float
    mean: tuple[float, ...]  # the EKF mean (x, y, z, alpha, beta, gamma)


@dataclass(frozen=True)
class MapSnapshot:
    entries: tuple[MapEntry, ...]  # replaced since the previous snapshot
    merges: tuple[tuple[int, int, Pose6D], ...]  # (retired, winner, rt) per merge, oldest first


@dataclass(frozen=True)
class Decoded:
    msg: object
    sender: int
    seq: int


def _payload(msg) -> dict:
    # most frequent first: every drone reports its pose once a tick
    if isinstance(msg, PoseReport):
        return {
            "frame": int(msg.frame),
            "timestamp": float(msg.timestamp),
            "mean": list(msg.mean),
        }
    if isinstance(msg, MarkerObs):
        records = [
            {"detection": _detection_payload(det), "ekf_pose": pose.to_dict(),
             "ekf_cov": upper_triangle(cov)}
            for det, pose, cov in msg.records
        ]
        kp = msg.keypose
        keypose = None if kp is None else {
            "pose": kp.pose.to_dict(),
            "observations": [_detection_payload(det) for det in kp.observations],
        }
        return {"frame": int(msg.frame), "timestamp": float(msg.timestamp),
                "records": records, "keypose": keypose}
    if isinstance(msg, MapSnapshot):
        merges = [{"from": r, "to": w, "rt": rt.to_dict()} for r, w, rt in msg.merges]
        return {"entries": [_entry_payload(e) for e in msg.entries], "merges": merges}
    if isinstance(msg, Hello):
        return {}
    raise ProtocolError(f"not a protocol message: {type(msg).__name__}")


def _detection_payload(det: MarkerDetection) -> dict:
    return {"marker_id": det.marker_id, "camera": det.camera, "rel_pose": det.rel_pose.to_dict()}


def _entry_payload(entry: MapEntry) -> dict:
    return {
        "marker_id": int(entry.marker_id),
        "frame": int(entry.frame),
        "pose": entry.pose.to_dict(),
        "cov": upper_triangle(entry.cov),
        "obs_count": int(entry.obs_count),
    }


def upper_triangle(cov: np.ndarray) -> list[float]:
    """The wire form of a symmetric 6x6: its 21 upper-triangle values, row-major."""
    return cov.take(_UPPER).tolist()


def check_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool raises TypeError."""
    # bool subclasses int, so isinstance would let true and false through
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def check_covariance(values, what: str = "covariance") -> np.ndarray:
    """The read-only 6x6 of 21 wire values (``upper_triangle``'s), checked.

    Each value must be a finite JSON number (``check_float``), and the
    smallest eigenvalue at least ``EIG_TOL``. The matrix is built from the
    upper triangle alone, so it is exactly symmetric.
    """
    if len(values) != COV_WIRE_LEN:
        raise ValueError(f"{what}: expected {COV_WIRE_LEN} values, got {len(values)}")
    cov = np.array([check_float(v, what) for v in values])[_FROM_UPPER]
    eig = np.linalg.eigvalsh(cov)[0]
    if eig < EIG_TOL:
        raise ValueError(f"{what}: negative eigenvalue {eig}")
    cov.setflags(write=False)
    return cov


def _parse_hello(_p: dict) -> Hello:
    return Hello()


def _parse_marker_obs(p: dict) -> MarkerObs:
    frame = check_int(p["frame"], "frame")
    timestamp = check_float(p["timestamp"], "timestamp")
    records, keypose = tuple(_parse_record(r) for r in p["records"]), p["keypose"]
    if keypose is not None:
        check_keys(keypose, KEYPOSE_KEYS, "keypose")
        detections = tuple(_parse_detection(d) for d in keypose["observations"])
        # decode checked the sender before any parser runs; Keypose refuses no detections
        keypose = Keypose(p["sender"], frame, Pose6D.from_dict(keypose["pose"]), timestamp,
                          detections)
    return MarkerObs(frame, timestamp, records, keypose)


def _parse_record(p: dict) -> tuple[MarkerDetection, Pose6D, np.ndarray]:
    check_keys(p, RECORD_KEYS, "record")
    return (
        _parse_detection(p["detection"]),
        Pose6D.from_dict(p["ekf_pose"]),
        check_covariance(p["ekf_cov"], "ekf_cov"),
    )


def _parse_detection(p: dict) -> MarkerDetection:
    check_keys(p, DETECTION_KEYS, "detection")
    marker_id = _parse_marker_id(p["marker_id"])
    camera = p["camera"]
    if camera not in CAMERAS:  # an unhashable one raises TypeError
        raise ValueError(f"camera {camera!r} is not one of {sorted(CAMERAS)}")
    return MarkerDetection(marker_id, camera, Pose6D.from_dict(p["rel_pose"]))


def _parse_marker_id(value) -> int:
    marker_id = check_int(value, "marker_id")
    if not (0 <= marker_id <= MARKER_ID_MAX):
        raise ValueError(f"marker id {marker_id} outside 0..{MARKER_ID_MAX}")
    return marker_id


def _parse_pose_report(p: dict) -> PoseReport:
    # a list, then tuple(): a tuple built from a generator is resized, and the
    # freed 6-tuples then pile up on the interpreter's free list (about 0.2 MB
    # of peak memory over a 75 s three-drone run)
    mean = [check_float(v, "mean") for v in p["mean"]]
    if len(mean) != 6:
        raise ValueError(f"mean has {len(mean)} entries, not 6")
    return PoseReport(
        check_int(p["frame"], "frame"),
        check_float(p["timestamp"], "timestamp"),
        tuple(mean),
    )


def _parse_map_snapshot(p: dict) -> MapSnapshot:
    rows = (check_keys(m, MERGE_KEYS, "merge") for m in p["merges"])
    merges = ((check_int(m["from"], "from"), check_int(m["to"], "to"), Pose6D.from_dict(m["rt"]))
              for m in rows)
    return MapSnapshot(tuple(_parse_map_entry(e) for e in p["entries"]), tuple(merges))


def _parse_map_entry(p: dict) -> MapEntry:
    check_keys(p, ENTRY_KEYS, "map entry")
    marker_id = _parse_marker_id(p["marker_id"])
    obs_count = check_int(p["obs_count"], "obs_count")
    # a drone forwards every sighting of an entry below its fusion window
    if obs_count < 1:
        raise ValueError(f"marker {marker_id} obs_count {obs_count} is below 1")
    return MapEntry(
        marker_id,
        check_int(p["frame"], "frame"),
        Pose6D.from_dict(p["pose"]),
        check_covariance(p["cov"], f"marker {marker_id} cov"),
        obs_count,
    )


# per message name: its parser and its line's keys, the envelope's and the payload's
_PARSERS = {
    cls.__name__: (parser, frozenset(("type", "sender", "seq", *(f.name for f in fields(cls)))))
    for cls, parser in (
        (Hello, _parse_hello),
        (MarkerObs, _parse_marker_obs),
        (PoseReport, _parse_pose_report),
        (MapSnapshot, _parse_map_snapshot),
    )
}


# built once: json.dumps with options builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def encode(msg, sender: int, seq: int) -> str:
    """One message as a single JSON line (no trailing newline)."""
    frame = {"type": type(msg).__name__, "sender": int(sender), "seq": int(seq)}
    frame.update(_payload(msg))
    try:
        return _ENCODER.encode(frame)
    except ValueError as err:
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {err}") from err


def decode(line: str) -> Decoded:
    # json.loads would read bytes too
    if not isinstance(line, str):
        raise ProtocolError(f"a line must be str, not {type(line).__name__}")
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
        raise ProtocolError(f"not JSON: {err}") from err
    if not isinstance(frame, dict):
        raise ProtocolError("message line must be a JSON object")
    try:
        kind = frame["type"]
        parser, keys = _PARSERS[kind]
        sender = check_int(frame["sender"], "sender")
        seq = check_int(frame["seq"], "seq")
    except (KeyError, TypeError) as err:
        raise ProtocolError(f"bad envelope: {err!r}") from err
    if not (0 <= seq <= SEQ_MAX):
        raise ProtocolError(f"sequence number {seq} outside unsigned 64-bit range")
    try:
        msg = parser(check_keys(frame, keys, kind))
    except ProtocolError:
        raise
    except Exception as err:
        raise ProtocolError(f"bad {kind} payload: {err!r}") from err
    return Decoded(msg, sender, seq)


def decode_broadcast(line: str) -> Decoded:
    """``decode`` of a station broadcast line, shared by every reader in the process.

    The station encodes a broadcast once and appends the same line to every
    drone's inbox, so without this each drone would parse and check it
    again. Sharing one ``Decoded`` is sound only because ``decode`` is a
    pure function of the line and every decoded message is immutable:
    frozen dataclasses, float tuples and read-only arrays.
    """
    # before the cache, which would raise TypeError on an unhashable line
    if not isinstance(line, str):
        raise ProtocolError(f"a line must be str, not {type(line).__name__}")
    return _decode_broadcast(line)


# Between two of its reads a drone gets at most one flush snapshot, plus one
# merge snapshot per merge, which a run does fewer times than it has drones:
# two slots hold both, and a miss only decodes again. Each slot
# keeps a line and its message alive, which is why there are only two.
# ``decode`` is looked up on the module at each call, so a wrapped
# ``decode`` sees every decode.
@lru_cache(maxsize=2)
def _decode_broadcast(line: str) -> Decoded:
    return decode(line)


class SequenceGuard:
    """Per-sender monotonicity check; replayed or stale lines are rejected."""

    def __init__(self) -> None:
        self._last: dict[int, int] = {}

    def accept(self, sender: int, seq: int) -> bool:
        last = self._last.get(sender)
        if last is not None and seq <= last:
            return False
        self._last[sender] = seq
        return True


class QueueTransport:
    """One-directional mailbox of encoded lines, in-process."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def send_line(self, line: str) -> None:
        self._lines.append(line)

    def drain(self) -> list[str]:
        lines, self._lines = self._lines, []
        return lines

    def recv_line(self) -> str | None:
        """The oldest line, or None when the mailbox is empty."""
        return self._lines.pop(0) if self._lines else None


class Endpoint:
    """Outbound side of a link: stamps sender id and sequence numbers.

    Each message is encoded once, and the same line goes to every transport.
    """

    def __init__(self, sender: int, *transports) -> None:
        self.sender = int(sender)
        self.transports = transports
        self._seq = 0

    def send(self, msg) -> str:
        """Encode ``msg``, append the line to every transport and return it."""
        self._seq += 1
        line = encode(msg, self.sender, self._seq)
        for transport in self.transports:
            transport.send_line(line)
        return line
