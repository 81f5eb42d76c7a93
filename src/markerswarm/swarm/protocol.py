"""Wire protocol between drone nodes and the ground station.

Messages are newline-delimited JSON, one message per line, UTF-8. The
envelope carries three fields on every line: "type" (the message name),
"sender" (drone id, or -1 for the station) and "seq" (unsigned 64-bit,
strictly increasing per sender). Payload fields sit flat beside the
envelope fields, named exactly like the dataclass attributes. A drone
sends ``Hello``, ``MarkerObs``, ``PoseReport`` and ``KeyposeCommit``; the
station sends only ``MapSnapshot``. Any other "type" is a malformed line.

Each fact travels once. ``Hello`` has no payload: the station registers
the envelope's sender. A drone sends what it measured. ``MarkerObs``
carries one detection and the time it was made; a keypose carries the
detections seen at its instant, its frame and time; its drone is the
envelope's sender. A ``MarkerDetection`` carries neither its range, which
is |``rel_pose.t``|, nor a drone id or a time. The station takes camera
poses from ``worldsim.CAMERAS`` and the noise from its own scenario.
``PoseReport`` carries the drone's EKF mean (exactly six floats), its
frame and the tick's time: not the drone id, which the envelope's sender
is, nor the covariance, which nothing reads.

Covariances: ``MarkerObs.ekf_cov`` and each snapshot entry's ``cov``
travel as their 21 upper-triangle values, row by row
(``geom.upper_triangle``). Every covariance a run stores or sends is
exactly symmetric (``tests/test_symmetry.py``), so this loses nothing, and
decode builds the read-only 6x6 once, from those values, symmetric by
construction. The protocol owns this form: ``MapEntry.to_dict``, the
form of ``map.json`` and ``report.json``, keeps all 36 values.

Every wire value is checked where it is decoded, once; what fails makes a
malformed line. Every JSON object on a line, the line included, has
exactly its keys. Every integer, in the envelope and in the payload, must
be a JSON integer: a float, a string or a bool is a malformed line. Every
float must be a finite JSON number (``check_float``), not a string or a
bool. A detection's camera must be a name in ``CAMERAS``, and the marker
id of a detection or a map entry lie in ``0..MARKER_ID_MAX``. A map
entry's ``obs_count`` must be at least 1: a drone forwards every sighting
of an entry below its fusion window. A covariance must pass
``check_covariance``: exactly 21 values, each passing ``check_float``,
and a smallest eigenvalue of at least ``EIG_TOL``.

Frames are state, not events: a pose on the wire names the frame it was
taken in (``MarkerObs.frame``, ``Keypose.frame``, ``PoseReport.frame``);
every ``MapSnapshot`` carries the whole frame table, ``merges``: (retired,
winner, rt) per merge, oldest first. The station carries a stamped pose,
and a drone its own state, to the live frame by one walk (``hops_to_live``
in ``framemerge``), so a drone that missed a snapshot is live after the next.

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
from markerswarm.geom import (
    Pose6D,
    check_covariance,
    check_float,
    check_int,
    check_keys,
    upper_triangle,
)
from markerswarm.mapstore import MapEntry
from markerswarm.worldsim import MARKER_ID_MAX, MarkerDetection

STATION_ID = -1
SEQ_MAX = 2**64 - 1
MERGE_KEYS = frozenset(("from", "to", "rt"))  # of one frame table row
ENTRY_KEYS = frozenset(("marker_id", "frame", "pose", "cov", "obs_count"))  # of one map entry


class ProtocolError(Exception):
    """A line that cannot be decoded into a valid message."""


@dataclass(frozen=True)
class Hello:
    """A drone's first line; the station registers the envelope's sender."""


@dataclass(frozen=True)
class MarkerObs:
    detection: MarkerDetection
    ekf_pose: Pose6D
    ekf_cov: np.ndarray  # 6x6, symmetric and read-only: the filter's own, or decode's
    frame: int  # the sender's frame when ekf_pose and ekf_cov were taken
    timestamp: float  # when the detection was made


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
class KeyposeCommit:
    keypose: Keypose


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
        return {
            "detection": msg.detection.to_dict(),
            "ekf_pose": msg.ekf_pose.to_dict(),
            "ekf_cov": upper_triangle(msg.ekf_cov),
            "frame": int(msg.frame),
            "timestamp": float(msg.timestamp),
        }
    if isinstance(msg, MapSnapshot):
        merges = [{"from": r, "to": w, "rt": rt.to_dict()} for r, w, rt in msg.merges]
        return {"entries": [_entry_payload(e) for e in msg.entries], "merges": merges}
    if isinstance(msg, KeyposeCommit):
        return {"keypose": msg.keypose.to_dict()}
    if isinstance(msg, Hello):
        return {}
    raise ProtocolError(f"not a protocol message: {type(msg).__name__}")


def _entry_payload(entry: MapEntry) -> dict:
    return {
        "marker_id": int(entry.marker_id),
        "frame": int(entry.frame),
        "pose": entry.pose.to_dict(),
        "cov": upper_triangle(entry.cov),
        "obs_count": int(entry.obs_count),
    }


def _parse_hello(_p: dict) -> Hello:
    return Hello()


def _parse_marker_obs(p: dict) -> MarkerObs:
    return MarkerObs(
        detection=MarkerDetection.from_dict(p["detection"]),
        ekf_pose=Pose6D.from_dict(p["ekf_pose"]),
        ekf_cov=check_covariance(p["ekf_cov"], "ekf_cov"),
        frame=check_int(p["frame"], "frame"),
        timestamp=check_float(p["timestamp"], "timestamp"),
    )


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
    marker_id = check_int(p["marker_id"], "marker_id")
    if not (0 <= marker_id <= MARKER_ID_MAX):
        raise ValueError(f"marker id {marker_id} outside 0..{MARKER_ID_MAX}")
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


def _parse_keypose_commit(p: dict) -> KeyposeCommit:
    # decode checked the sender before any parser runs
    return KeyposeCommit(Keypose.from_dict(p["keypose"], p["sender"]))


# per message name: its parser and its line's keys, the envelope's and the payload's
_PARSERS = {
    cls.__name__: (parser, frozenset(("type", "sender", "seq", *(f.name for f in fields(cls)))))
    for cls, parser in (
        (Hello, _parse_hello),
        (MarkerObs, _parse_marker_obs),
        (PoseReport, _parse_pose_report),
        (MapSnapshot, _parse_map_snapshot),
        (KeyposeCommit, _parse_keypose_commit),
    )
}


def _reject_constant(name: str):
    raise ProtocolError(f"non-finite number {name}")


# built once: json.dumps and json.loads with options build one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def encode(msg, sender: int, seq: int) -> str:
    """One message as a single JSON line (no trailing newline)."""
    if not (0 <= seq <= SEQ_MAX):
        raise ProtocolError(f"sequence number {seq} outside unsigned 64-bit range")
    frame = {"type": type(msg).__name__, "sender": int(sender), "seq": int(seq)}
    frame.update(_payload(msg))
    try:
        return _ENCODER.encode(frame)
    except ValueError as err:
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {err}") from err


def decode(line: str) -> Decoded:
    # JSONDecoder.decode leaves these two checks to json.loads
    if not isinstance(line, str):
        raise ProtocolError(f"a line must be str, not {type(line).__name__}")
    if line.startswith("\ufeff"):
        raise ProtocolError("not JSON: unexpected UTF-8 BOM")
    try:
        frame = _DECODER.decode(line)
    except json.JSONDecodeError as err:
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
