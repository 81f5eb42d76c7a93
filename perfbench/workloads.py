"""The benchmark's workloads: scenario documents built from a workload seed.

Each workload turns ``--seed`` into one scenario document and a list of
program seeds; the same seed always gives the same document, byte for
byte, and so the same scenario digest. The program sees only the written
scenario file and a program seed, as ``markerswarm run`` would.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# Long enough that bundle adjustment is clearly the largest layer (about 39%
# of a traced run at 75 s, against 25% for sensing; at 60 s the two are
# level), short enough for three repetitions in one 58 s run.
LAB_LONG_DURATION = 75.0

DENSE_GRID = 16  # markers per side: 256 in all
DENSE_SIDE = 12.0  # m, side of the square floor the grid covers
DENSE_DURATION = 5.0
DENSE_START_RADIUS = 1.0  # m; starts lie within 2 m of each other


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # markerswarm run --mode
    why: str
    build: Callable[[int], dict]  # workload seed -> scenario document
    # workload seed -> program seeds; repetitions cycle through them
    seeds: Callable[[int], list[int]] = lambda seed: [program_seed(seed)]
    criterion8: bool = False  # one frame, every marker mapped, RMSE < 0.10 m
    parity: bool = False  # criterion 7: one frame, RMSE <= 2x lockstep RMSE


def program_seed(seed: int) -> int:
    """The seed handed to ``markerswarm run --seed`` (it must be non-negative)."""
    return seed % 2**32


def scenario_digest(raw: dict) -> str:
    """sha256 of the canonical JSON encoding, as markerswarm.scenario computes it."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def bundled(name: str) -> dict:
    with open(ROOT / "scenarios" / f"{name}.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def lab_long(seed: int) -> dict:
    raw = bundled("lab_three_drones")
    raw["duration"] = LAB_LONG_DURATION
    return raw


def lab_pinned_seed(seed: int) -> list[int]:
    """The bundled lab's own seed, the one acceptance criterion 8 pins."""
    return [bundled("lab_three_drones")["seed"]]


def lab_three_seeds(seed: int) -> list[int]:
    return [program_seed(3 * seed + k) for k in range(3)]


def demo_threaded(seed: int) -> dict:
    return bundled("two_drone_demo")


def _pose(t, yaw: float) -> dict:
    return {"t": [round(v, 6) for v in t], "euler": [0.0, 0.0, round(yaw, 6)]}


def marker_dense(seed: int) -> dict:
    """A 16 x 16 floor grid of markers with random yaws, three drones close together.

    The drones start within 2 m of each other but each believes it starts
    at the origin, so their frames merge on the first shared marker. Bundle
    adjustment is off, so sensing and the map-snapshot traffic do the work.
    """
    rng = random.Random(seed)
    spacing = DENSE_SIDE / DENSE_GRID
    half = DENSE_SIDE / 2
    markers = []
    for row in range(DENSE_GRID):
        for col in range(DENSE_GRID):
            xy = (-half + spacing * (col + 0.5), -half + spacing * (row + 0.5))
            markers.append(
                {"id": row * DENSE_GRID + col,
                 "pose": _pose((*xy, 0.0), rng.uniform(-math.pi, math.pi))}
            )
    centre = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    drones = []
    for drone_id in range(3):
        radius = DENSE_START_RADIUS * math.sqrt(rng.random())
        angle = rng.uniform(-math.pi, math.pi)
        start = (centre[0] + radius * math.cos(angle), centre[1] + radius * math.sin(angle), 0.0)
        drones.append(
            {
                "id": drone_id,
                "start_pose": _pose(start, rng.uniform(-math.pi, math.pi)),
                "ekf_start_pose": _pose((0.0, 0.0, 0.0), 0.0),
                "cameras": ["down"],
            }
        )
    lab = bundled("lab_three_drones")
    return {
        "name": "marker_dense",
        "seed": program_seed(seed),
        "duration": DENSE_DURATION,
        "tick_rate": 10.0,
        "bounds": {"min": [-half, -half, 0.0], "max": [half, half, 2.5]},
        "markers": markers,
        "drones": drones,
        "noise": lab["noise"],
        "policy": {"cell_size": 2.0, "altitude": 1.5, "speed": 0.8, "r_visit": 0.3},
        "fusion": {"n_fuse": 5},
        "ba": {"enabled": False},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lab_long", "lockstep",
            "bundled three-drone lab stretched to 75 s, on the seed criterion 8 pins, "
            "so bundle adjustment is the largest layer",
            # one fixed input: the noise draws change how much bundle adjustment
            # a run does (2.2x the observations on one seed as on another), and
            # criterion 8 fails on about a third of the other seeds (lab_seeds)
            lab_long, seeds=lab_pinned_seed, criterion8=True,
        ),
        Workload(
            "lab_seeds", "lockstep",
            "lab_long on three program seeds drawn from the workload seed: "
            "criterion 8 over many seeds",
            lab_long, seeds=lab_three_seeds, criterion8=True,
        ),
        Workload(
            "marker_dense", "lockstep",
            "256 markers, BA off: sensing and map-snapshot traffic dominate, BA is bypassed",
            marker_dense,
        ),
        Workload(
            "demo_threaded", "threaded",
            "bundled two-drone demo on threads: the same layers contend for the GIL",
            demo_threaded, parity=True,
        ),
    )
}
