"""Scenario execution: the lockstep and threaded drivers.

Lockstep runs everything on one logical thread in a fixed order (step all
drones, then per drone: sense, tick, let the station handle the mail) and
is bit-for-bit deterministic per (scenario, seed). Threaded runs one
thread per drone plus one for the station plus one stepping the world;
all coordination goes through the protocol and a locked command board, so
scheduling shifts message order but never corrupts state.

Either way the result is a plain report dict: world truth, final map,
per-tick trajectories (truth and estimate), merge events, adjustment
reports, counters and metrics. The dict is JSON-ready; serializing it
with sorted keys is the canonical byte encoding.
"""

from __future__ import annotations

import logging
import queue
import threading

from markerswarm.metrics import compute_metrics
from markerswarm.scenario import Scenario
from markerswarm.swarm.nodes import GroundStation, NavptsNode
from markerswarm.swarm.protocol import (
    STATION_ID,
    Endpoint,
    QueueTransport,
    Shutdown,
)
from markerswarm.worldsim import (
    DroneTruth,
    VelocityCommand,
    drone_rng,
    sense_markers,
    sense_odometry,
    step_drone,
)

log = logging.getLogger(__name__)

MODES = ("lockstep", "threaded")


def run_scenario(scenario: Scenario, seed: int | None = None, mode: str = "lockstep") -> dict:
    """Execute one scenario and return the full report dict."""
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    seed = scenario.seed if seed is None else int(seed)
    station, nodes, truth_log = (_run_lockstep if mode == "lockstep" else _run_threaded)(
        scenario, seed
    )
    return _assemble_report(scenario, seed, mode, station, nodes, truth_log)


def _build_system(scenario: Scenario):
    station_inbox = QueueTransport()
    node_inboxes = {d.drone_id: QueueTransport() for d in scenario.drones}
    station_links = {
        d.drone_id: Endpoint(STATION_ID, node_inboxes[d.drone_id]) for d in scenario.drones
    }
    station = GroundStation(scenario, station_links)
    nodes = {
        d.drone_id: NavptsNode(
            d, scenario, Endpoint(d.drone_id, station_inbox), node_inboxes[d.drone_id]
        )
        for d in scenario.drones
    }
    return station, nodes, station_inbox


def _sense(scenario, setup, truth_prev, truth_now, rng, now, dt):
    """Odometry then detections, in a frozen draw order per drone."""
    odometry = sense_odometry(truth_prev, truth_now, dt, scenario.noise, rng, now)
    detections = []
    for cam in scenario.drone_cameras(setup):
        detections.extend(
            sense_markers(truth_now, scenario.world, cam, scenario.noise, rng, now)
        )
    return odometry, detections


def _run_lockstep(scenario: Scenario, seed: int):
    station, nodes, station_inbox = _build_system(scenario)
    world = scenario.world
    setups = {d.drone_id: d for d in scenario.drones}
    order = sorted(setups)
    rngs = {d: drone_rng(seed, d) for d in order}
    truths = {d: DroneTruth(d, setups[d].start_pose) for d in order}
    truth_log: dict[int, list] = {d: [] for d in order}
    commands = {d: VelocityCommand.hover() for d in order}
    dt = scenario.dt

    for drone_id in order:
        nodes[drone_id].hello()
    for line in station_inbox.drain():
        station.handle_line(line)

    for tick in range(1, scenario.n_ticks + 1):
        now = tick * dt
        previous = dict(truths)
        for drone_id in order:
            truths[drone_id] = step_drone(truths[drone_id], commands[drone_id], dt, world)
        for drone_id in order:
            odometry, detections = _sense(
                scenario, setups[drone_id], previous[drone_id], truths[drone_id],
                rngs[drone_id], now, dt,
            )
            commands[drone_id] = nodes[drone_id].tick(tick, now, odometry, detections)
            for line in station_inbox.drain():
                station.handle_line(line)
            truth_log[drone_id].append(
                {"tick": tick, "time": now, "pose": truths[drone_id].pose}
            )
        station.flush()

    for drone_id in order:
        nodes[drone_id].link.send(Shutdown())
    for line in station_inbox.drain():
        station.handle_line(line)
    station.flush()
    return station, nodes, truth_log


def _run_threaded(scenario: Scenario, seed: int):
    station, nodes, station_inbox = _build_system(scenario)
    world = scenario.world
    setups = {d.drone_id: d for d in scenario.drones}
    order = sorted(setups)
    dt = scenario.dt
    truth_log: dict[int, list] = {d: [] for d in order}

    board_lock = threading.Lock()
    commands = {d: VelocityCommand.hover() for d in order}
    sensor_queues: dict[int, queue.Queue] = {d: queue.Queue(maxsize=2) for d in order}

    for drone_id in order:
        nodes[drone_id].hello()

    def stepper() -> None:
        rngs = {d: drone_rng(seed, d) for d in order}
        truths = {d: DroneTruth(d, setups[d].start_pose) for d in order}
        for tick in range(1, scenario.n_ticks + 1):
            now = tick * dt
            with board_lock:
                current = dict(commands)
            previous = dict(truths)
            for drone_id in order:
                truths[drone_id] = step_drone(
                    truths[drone_id], current[drone_id], dt, world
                )
            for drone_id in order:
                odometry, detections = _sense(
                    scenario, setups[drone_id], previous[drone_id], truths[drone_id],
                    rngs[drone_id], now, dt,
                )
                sensor_queues[drone_id].put((tick, now, odometry, detections))
                truth_log[drone_id].append(
                    {"tick": tick, "time": now, "pose": truths[drone_id].pose}
                )
        for drone_id in order:
            sensor_queues[drone_id].put(None)

    def node_worker(drone_id: int) -> None:
        node = nodes[drone_id]
        while True:
            packet = sensor_queues[drone_id].get()
            if packet is None:
                node.link.send(Shutdown())
                return
            tick, now, odometry, detections = packet
            try:
                command = node.tick(tick, now, odometry, detections)
            except Exception:
                log.exception("drone %d tick %d failed; hovering", drone_id, tick)
                command = VelocityCommand.hover()
            with board_lock:
                commands[drone_id] = command

    def station_worker() -> None:
        # handle whatever has queued up, then broadcast what it changed
        while True:
            line = station_inbox.recv_line(timeout=0.02)
            if line is None:
                if station.done == set(order):
                    return
                continue
            station.handle_line(line)
            for line in station_inbox.drain():
                station.handle_line(line)
            station.flush()

    threads = [threading.Thread(target=stepper, name="stepper")]
    threads += [
        threading.Thread(target=node_worker, args=(d,), name=f"drone-{d}") for d in order
    ]
    station_thread = threading.Thread(target=station_worker, name="station")
    for thread in threads:
        thread.start()
    station_thread.start()
    for thread in threads:
        thread.join()
    station_thread.join()
    for line in station_inbox.drain():
        station.handle_line(line)
    station.flush()
    return station, nodes, truth_log


def _assemble_report(scenario, seed, mode, station, nodes, truth_log) -> dict:
    world = scenario.world
    trajectories = {}
    for drone_id in sorted(nodes):
        rows = []
        for truth_row, est_row in zip(truth_log[drone_id], nodes[drone_id].trajectory):
            rows.append(
                {
                    "tick": truth_row["tick"],
                    "time": truth_row["time"],
                    "truth": truth_row["pose"].to_dict(),
                    "estimate": est_row["pose"].to_dict(),
                    "frame": est_row["frame"],
                }
            )
        trajectories[str(drone_id)] = rows

    report = {
        "scenario": scenario.name,
        "digest": scenario.digest,
        "seed": int(seed),
        "mode": mode,
        "world": {
            "markers": {str(m): world.markers[m].to_dict() for m in sorted(world.markers)},
            "bounds": {
                "min": [float(v) for v in world.bounds_min],
                "max": [float(v) for v in world.bounds_max],
            },
        },
        "map": station.gmap.snapshot(),
        "frames": sorted(station.gmap.frames),
        "drone_frames": {
            str(d): station.gmap.membership[d] for d in sorted(station.gmap.membership)
        },
        "trajectories": trajectories,
        "merge_events": station.merge_events,
        "ba_reports": station.ba_reports,
        "counters": {
            "station": dict(station.counters),
            "drones": {str(d): dict(nodes[d].counters) for d in sorted(nodes)},
        },
    }
    report["metrics"] = compute_metrics(report)
    return report
