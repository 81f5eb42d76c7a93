"""The per-drone node and the ground station.

Each drone runs one NavptsNode: a sense-estimate-decide loop that owns the
drone's EKF and talks to the single GroundStation only through protocol
messages. The station owns the global map, executes merges and bundle
adjustment, and broadcasts map updates back. Neither side ever touches the
other's state directly, so the same objects run single-threaded in
lockstep or on separate threads.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from itertools import filterfalse

import numpy as np

from markerswarm.bundle import BaProblem, Keypose, optimize, select_keypose
from markerswarm.ekf import (
    EkfState,
    detection_noise,
    observation_from_marker,
    predict,
    remap_frame,
    update,
)
from markerswarm.framemerge import (
    estimate_transform,
    find_matches,
    hops_to_live,
    merge_frames,
    refine_transform,
)
from markerswarm.geom import Pose6D, transport_covariance
from markerswarm.mapstore import GlobalMap, MapContractError, MapEntry
from markerswarm.scenario import DroneSetup, PolicyConfig, Scenario
from markerswarm.swarm import protocol
from markerswarm.swarm.protocol import (
    Hello,
    MapSnapshot,
    MarkerObs,
    PoseReport,
    ProtocolError,
    SequenceGuard,
)
from markerswarm.worldsim import CAMERAS, MarkerDetection, OdometryReading, VelocityCommand

log = logging.getLogger(__name__)


PROGRESS_EPS = 0.02  # m of net approach that counts as progress
STALL_LIMIT = 15  # calls without progress before a target is abandoned


class SweepPolicy:
    """Grid sweep over the flight volume at a fixed altitude.

    The horizontal bounds are partitioned into square cells; the policy
    always flies toward the nearest unvisited cell center (ties broken by
    cell index), marks a cell visited on arrival within r_visit, and
    starts over when every cell has been seen. Commanded speed is bounded
    and tapers near the target so the drone settles instead of orbiting.

    The grid lives in the drone's own (believed) frame, which may be
    offset from the physical volume; a cell center can then sit beyond a
    wall. A target the drone stops closing in on for STALL_LIMIT
    consecutive calls is written off as visited, so the sweep always
    makes progress even against unreachable cells.
    """

    def __init__(self, bounds_min, bounds_max, config: PolicyConfig) -> None:
        lo = np.asarray(bounds_min, dtype=float)
        hi = np.asarray(bounds_max, dtype=float)
        self.config = config
        cell = config.cell_size
        xs = _cell_centers(lo[0], hi[0], cell)
        ys = _cell_centers(lo[1], hi[1], cell)
        altitude = float(np.clip(config.altitude, lo[2], hi[2]))
        self.cells = np.array([[x, y, altitude] for y in ys for x in xs])
        self.visited: set[int] = set()
        self._target: int | None = None
        self._best_distance = float("inf")
        self._no_progress = 0

    def choose_destination(self, pose: Pose6D) -> VelocityCommand:
        position = pose.t
        distances = _distances(self.cells, position)
        r_visit = self.config.r_visit
        self.visited.update(i for i, distance in enumerate(distances) if distance <= r_visit)

        while True:
            if len(self.visited) == len(self.cells):
                self.visited.clear()
            # the first nearest in index order: ties go to the lowest index
            best = min(
                filterfalse(self.visited.__contains__, range(len(self.cells))),
                key=distances.__getitem__,
            )
            if best != self._target:
                self._target = best
                self._best_distance = float("inf")
                self._no_progress = 0
            distance = distances[best]
            if distance < self._best_distance - PROGRESS_EPS:
                self._best_distance = distance
                self._no_progress = 0
                break
            self._no_progress += 1
            if self._no_progress < STALL_LIMIT:
                break
            self.visited.add(best)
            self._target = None

        if distance < 1e-9:
            return VelocityCommand((0.0, 0.0, 0.0))
        speed = min(self.config.speed, distance)
        v_world = [(c - p) / distance * speed for c, p in zip(self.cells[best].tolist(), position)]
        v_body = pose.rotation().T @ np.array(v_world)
        return VelocityCommand(tuple(v_body.tolist()))


def _distances(cells: np.ndarray, position) -> list[float]:
    """Euclidean distance from ``position`` to each row of ``cells``.

    One batched product of each row with itself, in one call: the same bits
    as the per-row ``math.sqrt(d.dot(d))``, which ``np.einsum`` and
    ``(d * d).sum(1)`` are not.
    """
    d = cells - position
    return np.sqrt((d[:, None, :] @ d[:, :, None]).ravel()).tolist()


def _cell_centers(lo: float, hi: float, cell: float) -> list[float]:
    span = hi - lo
    count = max(1, int(span // cell))
    # spread the cells evenly so the grid always covers the full span
    width = span / count
    return [lo + width * (i + 0.5) for i in range(count)]


class NavptsNode:
    """One drone's estimation and behavior loop, in two halves per tick.

    ``tick`` senses and estimates: it predicts, corrects the EKF against
    the map view and sends the forwarded detections and, when the scenario
    runs bundle adjustment, a committed keypose on one ``MarkerObs`` line,
    reading only the drone's own state. ``steer`` applies the station's
    snapshots (each walks the state, last keypose and trajectory rows to
    the live frame through the frame table, then merges its entries into
    the map view), records the trajectory row, reports the pose and
    returns the next velocity command.
    """

    def __init__(self, setup: DroneSetup, scenario: Scenario) -> None:
        self.drone_id = setup.drone_id
        self.ekf_config = scenario.ekf
        self.n_fuse = scenario.n_fuse
        self.ba = scenario.ba  # with BA off nothing reads a keypose
        # the believed start defines the frame: the state is exact at t = 0
        self.state = EkfState(setup.ekf_start_pose.to_vector(), np.zeros((6, 6)), setup.drone_id)
        self.map_view: dict[int, MapEntry] = {}
        self.policy = SweepPolicy(
            scenario.world.bounds_min, scenario.world.bounds_max, scenario.policy
        )
        self.inbox = protocol.QueueTransport()  # the station's broadcasts
        self.outbox = protocol.QueueTransport()  # read by the station
        self.link = protocol.Endpoint(self.drone_id, self.outbox)
        self.guard = SequenceGuard()
        self.last_keypose: Pose6D | None = None
        self.trajectory: list[dict] = []
        self.counters = {"updates": 0, "gated": 0, "forwarded": 0, "keyposes": 0}

    def hello(self) -> None:
        self.link.send(Hello())

    def tick(
        self, now: float, odometry: OdometryReading, detections: list[MarkerDetection]
    ) -> None:
        # SP: sensor readings arrive as arguments, already id-sorted per camera
        # VJ: predict, then correct against frame-local known markers
        self.state = predict(self.state, odometry, self.ekf_config)
        records = []  # (detection, filter pose, filter covariance) per forwarded detection
        for det in detections:
            entry = self.map_view.get(det.marker_id)
            if entry is not None and entry.frame == self.state.frame:
                obs = observation_from_marker(det, entry, CAMERAS[det.camera], self.ekf_config)
                self.state, accepted = update(self.state, obs, self.ekf_config)
                self.counters["updates" if accepted else "gated"] += 1
                if entry.obs_count >= self.n_fuse:
                    continue
            # below the fusion window, or unknown or cross-frame: the station decides
            records.append((det, self.state.pose, self.state.cov))
        self.counters["forwarded"] += len(records)

        keypose = None
        if self.ba.enabled and detections and select_keypose(
            self.state.pose, self.last_keypose, len(detections)
        ):
            keypose = Keypose(self.drone_id, self.state.frame, self.state.pose, now, detections)
            self.last_keypose = keypose.pose
            self.counters["keyposes"] += 1
        if records or keypose is not None:
            self.link.send(MarkerObs(self.state.frame, now, tuple(records), keypose))

    def steer(self, now: float) -> VelocityCommand:
        # WM: apply whatever the station broadcast since the last steer
        for line in self.inbox.drain():
            self._apply_line(line)

        state = self.state
        self.trajectory.append({"pose": state.pose, "frame": state.frame})
        self.link.send(PoseReport(state.frame, now, state.mean))

        # BG: next destination
        return self.policy.choose_destination(self.state.pose)

    def _apply_line(self, line: str) -> None:
        try:
            decoded = protocol.decode_broadcast(line)
        except ProtocolError as err:
            log.warning("drone %d dropped a bad line: %s", self.drone_id, err)
            return
        if not self.guard.accept(decoded.sender, decoded.seq):
            # a lost map delta loses its entries until they change again
            log.warning(
                "drone %d dropped stale line seq %d from %d",
                self.drone_id, decoded.seq, decoded.sender,
            )
            return
        msg = decoded.msg
        if isinstance(msg, MapSnapshot):
            for retired, winner, rt in hops_to_live(self.state.frame, msg.merges):
                self.state = remap_frame(self.state, rt, winner)
                if self.last_keypose is not None:
                    self.last_keypose = rt.compose(self.last_keypose)
                for row in self.trajectory:
                    if row["frame"] == retired:
                        row["pose"] = rt.compose(row["pose"])
                        row["frame"] = winner
            self.map_view.update((e.marker_id, e) for e in msg.entries)
        else:
            log.debug("drone %d ignoring %s", self.drone_id, type(msg).__name__)


class GroundStation:
    """Single owner of the global map, merges, keyposes and adjustment.

    Mutations happen only inside handle_line and flush, which the runner
    calls from its own thread once the drones' ticks are done, in both
    modes, so nothing else touches the station's state. A malformed or
    stale line is logged and dropped; the station never raises out of
    handle_line. Every broadcast is a ``MapSnapshot`` with the whole frame table.
    """

    def __init__(self, scenario: Scenario, link: protocol.Endpoint) -> None:
        self.gmap = GlobalMap(n_fuse=scenario.n_fuse)
        self.ekf_config = scenario.ekf
        self.ba = scenario.ba
        self.link = link  # over every drone's inbox
        self.guard = SequenceGuard()
        # per live frame, from the Hello that made it to the merge that retires it
        self.keyposes: dict[int, list[Keypose]] = {}
        self.keyposes_since_ba: dict[int, int] = {}
        self.merges: dict = {}  # retired frame -> the MergeRecord that retired it, oldest first
        self.merge_events: list[dict] = []
        self.ba_reports: list[dict] = []
        self.counters = {
            "handled": 0,
            "malformed": 0,
            "stale": 0,
            "errors": 0,
            "refines": 0,
        }
        self._sent: dict[int, MapEntry] = {}  # last entry object broadcast per marker id

    # -- inbound ------------------------------------------------------

    def handle_line(self, line: str) -> None:
        try:
            decoded = protocol.decode(line)
        except ProtocolError as err:
            self.counters["malformed"] += 1
            log.warning("station dropped a malformed line: %s", err)
            return
        if not self.guard.accept(decoded.sender, decoded.seq):
            self.counters["stale"] += 1
            return
        try:
            self._dispatch(decoded.msg, decoded.sender)
            self.counters["handled"] += 1
        except Exception:
            self.counters["errors"] += 1
            log.exception("station failed on %s", type(decoded.msg).__name__)

    def _dispatch(self, msg, sender: int) -> None:
        if isinstance(msg, Hello):
            # a second Hello would revive the sender's frame after it merged away
            if sender in self.gmap.membership:
                raise ProtocolError(f"drone {sender} is already registered")
            self.gmap.register_drone(sender, frame=sender)
            self.keyposes[sender] = []
            self.keyposes_since_ba[sender] = 0
        elif isinstance(msg, MarkerObs):
            # in order, each carried forward past any merge an earlier one triggered
            for det, ekf_pose, ekf_cov in msg.records:
                self._process_detection(msg.frame, msg.timestamp, det, ekf_pose, ekf_cov)
            if msg.keypose is not None:
                self._process_keypose(msg.keypose)
        else:
            log.debug("station ignoring %s", type(msg).__name__)

    # -- marker observations -------------------------------------------

    def _process_detection(
        self, frame: int, now: float, det: MarkerDetection, ekf_pose: Pose6D, ekf_cov: np.ndarray
    ) -> None:
        frame, ekf_pose, ekf_cov = self._carry_forward(frame, ekf_pose, ekf_cov)
        camera_pose = ekf_pose.compose(CAMERAS[det.camera].extrinsics)
        pose_in_frame = camera_pose.compose(det.rel_pose)
        # isotropic detection noise needs no rotation into the frame (see ekf)
        cov = detection_noise(det, self.ekf_config) + ekf_cov
        marker_id = det.marker_id
        entry = self.gmap.lookup(marker_id)
        if entry is None:
            self.gmap.insert_marker(frame, marker_id, pose_in_frame, cov)
        elif entry.frame == frame:
            self.gmap.fuse_observation(marker_id, pose_in_frame, cov)
            self._check_refine(marker_id, pose_in_frame, frame)
        else:
            self._merge_on_overlap(frame, entry, pose_in_frame, cov, now)

    def _merge_on_overlap(
        self,
        obs_frame: int,
        entry: MapEntry,
        pose_obs: Pose6D,
        cov_obs: np.ndarray,
        now: float,
    ) -> None:
        """A marker known in another frame was seen: fold the frames."""
        known_frame = entry.frame
        winner = min(obs_frame, known_frame)
        loser = max(obs_frame, known_frame)
        matches = find_matches(self.gmap, known_frame, obs_frame, {entry.marker_id: pose_obs})
        if entry.marker_id not in matches:
            raise MapContractError(f"marker {entry.marker_id} not in its own match set")
        if known_frame == winner:
            pose_w, pose_l = entry.pose, pose_obs
        else:
            pose_w, pose_l = pose_obs, entry.pose
        transform = estimate_transform([(pose_w, pose_l)], from_frame=loser, to_frame=winner)
        record, moved_drones = merge_frames(
            self.gmap, transform, pairs=[(entry.marker_id, pose_w, pose_l)]
        )
        self.merges[loser] = record
        self.merge_events.append(
            {
                "time": float(now),
                "winner": winner,
                "loser": loser,
                "moved_drones": moved_drones,
                "transform": transform.to_dict(),
            }
        )
        for kp in self.keyposes.pop(loser):
            self._store_keypose(kp)
        self.keyposes_since_ba.pop(loser)  # unread: the adjustment below resets the winner's
        self.link.send(MapSnapshot((), self.frame_table()))  # entries wait for the tick's flush
        # the triggering observation itself still counts as an observation
        _, pose_fused, cov_fused = self._carry_forward(obs_frame, pose_obs, cov_obs)
        self.gmap.fuse_observation(entry.marker_id, pose_fused, cov_fused)
        self._run_ba(winner, trigger="merge", now=now)

    def _check_refine(self, marker_id: int, pose_in_frame: Pose6D, frame: int) -> None:
        for record in self.merges.values():
            if (
                record.transform.to_frame == frame
                and marker_id in record.pre_merge_poses
                and marker_id not in record.paired_ids()
            ):
                refit = refine_transform(self.gmap, record, [(marker_id, pose_in_frame)])
                if refit is not None:
                    self.counters["refines"] += 1
                    log.info(
                        "refined merge %d->%d on marker %d (support %d)",
                        refit.from_frame, refit.to_frame, marker_id, refit.support,
                    )

    def _carry_forward(
        self, frame: int, pose: Pose6D, cov: np.ndarray | None = None
    ) -> tuple[int, Pose6D, np.ndarray | None]:
        """Re-express a pose stamped in ``frame`` in the live frame that absorbed it.

        A message can race any number of merge broadcasts. Each hop applies
        the transform of the merge that retired the frame, to ``cov`` too when
        given: the walk a drone takes through a snapshot's table.
        """
        for _, winner, rt in hops_to_live(frame, self.frame_table()):
            pose = rt.compose(pose)
            if cov is not None:
                cov = transport_covariance(cov, rt.rotation())
            frame = winner
        if frame not in self.gmap.frames:
            raise ProtocolError(f"frame {frame} was never registered")
        return frame, pose, cov

    def frame_table(self) -> tuple[tuple[int, int, Pose6D], ...]:
        """(retired, winner, rt) per merge, oldest first, each with its latest transform."""
        return tuple((r, m.transform.to_frame, m.transform.rt) for r, m in self.merges.items())

    # -- keyposes and adjustment ---------------------------------------

    def _process_keypose(self, kp: Keypose) -> None:
        frame = self._store_keypose(kp)
        self.keyposes_since_ba[frame] += 1
        if self.keyposes_since_ba[frame] >= self.ba.every_keyposes:
            self._run_ba(frame, trigger="keypose_interval", now=kp.timestamp)

    def _store_keypose(self, kp: Keypose) -> int:
        """File ``kp`` under the live frame that absorbed its own; return that frame."""
        frame, pose, _ = self._carry_forward(kp.frame, kp.pose)
        self.keyposes[frame].append(replace(kp, frame=frame, pose=pose))
        return frame

    def _run_ba(self, frame: int, trigger: str, now: float) -> None:
        if not self.ba.enabled:
            return
        self.keyposes_since_ba[frame] = 0
        markers = {e.marker_id: e.pose for e in self.gmap.entries_in_frame(frame)}
        try:
            problem = BaProblem(self.keyposes[frame], markers, CAMERAS, self.ekf_config)
        except ValueError as err:
            log.debug("skipping adjustment of frame %d: %s", frame, err)
            return
        result = optimize(problem)
        self.ba_reports.append(
            {**result.to_dict(), "frame": frame, "trigger": trigger, "time": float(now)}
        )
        if result.aborted:
            log.warning("adjustment of frame %d aborted: %s", frame, result.message)
            return
        # every id came from entries_in_frame(frame) above, and nothing has moved since
        for marker_id, pose in result.markers.items():
            self.gmap.replace_entry(replace(self.gmap.lookup(marker_id), pose=pose))
        self.keyposes[frame] = result.keyposes

    # -- outbound -------------------------------------------------------

    def flush(self) -> None:
        """Broadcast, in id order, the entries replaced since the last flush, and the frame table.

        Every map mutation stores a new entry object and none removes one.
        A pose travels as Euler angles, and that round trip can move the
        last bit. So the station decodes its own line, through the decode
        the drones share (``protocol.decode_broadcast``), and keeps the
        entries it gets: every drone's view then holds the very objects of
        the station map.
        """
        changed = [e for k, e in sorted(self.gmap.entries.items()) if self._sent.get(k) is not e]
        if changed:
            line = self.link.send(MapSnapshot(tuple(changed), self.frame_table()))
            for sent in protocol.decode_broadcast(line).msg.entries:
                self.gmap.replace_entry(sent)
                self._sent[sent.marker_id] = sent
