"""Scenario execution: one tick loop, run in lockstep or on threads.

Every tick the loop steps each drone's truth, senses it (one random
stream per drone) and runs every drone node's ``tick``, the estimation
half. Then, in drone id order, it calls each node's ``steer`` and lets
the station handle that drone's outbox; last it broadcasts the map entries
that changed. There is no shutdown round: nothing is sent after the last
tick. A ``tick`` touches only its own drone's state and outbox, so the
modes differ only in how the ticks run: in drone id order (lockstep) or
concurrently on a thread pool (threaded). For a given
numpy/OpenBLAS build, a report is bit-for-bit deterministic per
(scenario, seed) and the same in both modes, apart from ``mode``. The
lab report is also the same on one and two OpenBLAS threads; a frame of
40 markers is not, as bundle adjustment's LU solve of its reduced
system then follows the thread count.

Either way an exception in a node's tick or steer reaches the caller, and
the result is a plain report dict: world truth, final map, per-tick
trajectories (truth and estimate), merge events, adjustment reports,
counters and metrics. The dict is JSON-ready; serializing it with sorted
keys is the canonical byte encoding.
"""

from __future__ import annotations

from markerswarm.metrics import compute_metrics
from markerswarm.scenario import Scenario
from markerswarm.swarm.nodes import GroundStation, NavptsNode
from markerswarm.swarm.protocol import STATION_ID, Endpoint, QueueTransport
from markerswarm.worldsim import (
    DroneTruth,
    VelocityCommand,
    drone_rng,
    sense_markers,
    sense_odometry,
    step_drone,
)

MODES = ("lockstep", "threaded")


def run_scenario(scenario: Scenario, seed: int | None = None, mode: str = "lockstep") -> dict:
    """Execute one scenario and return the full report dict."""
    if mode not in MODES:
        raise ValueError(f"mode {mode!r} not in {MODES}")
    seed = scenario.seed if seed is None else int(seed)
    if mode == "threaded":
        # imported here so that a lockstep run never loads it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(len(scenario.drones), thread_name_prefix="drone") as pool:
            station, nodes, truth_log = _run_ticks(scenario, seed, pool.map)
    else:
        station, nodes, truth_log = _run_ticks(scenario, seed)
    return _assemble_report(scenario, seed, mode, station, nodes, truth_log)


def _build_system(scenario: Scenario):
    nodes = {setup.drone_id: NavptsNode(setup, scenario) for setup in scenario.drones}
    station_link = Endpoint(STATION_ID, *(node.inbox for node in nodes.values()))
    return GroundStation(scenario, station_link), nodes


def _sense(scenario, setup, truth_prev, truth_now, rng, dt):
    """Odometry then detections, in a frozen draw order per drone."""
    odometry = sense_odometry(truth_prev, truth_now, dt, scenario.noise, rng)
    detections = []
    for cam in scenario.drone_cameras(setup):
        detections.extend(sense_markers(truth_now, scenario.world, cam, scenario.noise, rng))
    return odometry, detections


def _handle_mail(station: GroundStation, outbox: QueueTransport) -> None:
    for line in outbox.drain():
        station.handle_line(line)


def _run_ticks(scenario: Scenario, seed: int, map_ticks=map):
    """The tick loop; ``map_ticks`` runs the node ticks (``map``, or a pool's)."""
    station, nodes = _build_system(scenario)
    world = scenario.world
    setups = {d.drone_id: d for d in scenario.drones}
    order = sorted(setups)
    rngs = {d: drone_rng(seed, d) for d in order}
    truths = {d: DroneTruth(setups[d].start_pose) for d in order}
    truth_log: dict[int, list] = {d: [] for d in order}
    commands = {d: VelocityCommand.hover() for d in order}
    dt = scenario.dt

    for drone_id in order:
        nodes[drone_id].hello()
        _handle_mail(station, nodes[drone_id].outbox)

    for tick in range(1, scenario.n_ticks + 1):
        now = tick * dt
        readings = {}
        for drone_id in order:
            previous = truths[drone_id]
            truths[drone_id] = step_drone(previous, commands[drone_id], dt, world)
            readings[drone_id] = _sense(
                scenario, setups[drone_id], previous, truths[drone_id], rngs[drone_id], dt
            )
            # in report form (Pose6D.to_dict's): this dict becomes the drone's report row
            truth = truths[drone_id]
            truth_log[drone_id].append(
                {
                    "tick": tick,
                    "time": now,
                    "truth": {"t": truth.pose.t.tolist(), "euler": list(truth.euler)},
                }
            )
        # list() waits for every tick and re-raises what one raised
        list(map_ticks(lambda d: nodes[d].tick(now, *readings[d]), order))
        for drone_id in order:
            commands[drone_id] = nodes[drone_id].steer(now)
            _handle_mail(station, nodes[drone_id].outbox)
        station.flush()

    # a no-op after the last tick's flush; perfbench/child.py times ticks + 1 flush returns
    station.flush()
    return station, nodes, truth_log


def _assemble_report(scenario, seed, mode, station, nodes, truth_log) -> dict:
    world = scenario.world
    trajectories = {}
    for drone_id in sorted(nodes):
        # the truth rows gain their estimates in place and become the report rows;
        # the node's estimate poses are released once they are copied
        rows = truth_log[drone_id]
        for row, est_row in zip(rows, nodes[drone_id].trajectory, strict=True):
            row["estimate"] = est_row["pose"].to_dict()
            row["frame"] = est_row["frame"]
        nodes[drone_id].trajectory.clear()
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
