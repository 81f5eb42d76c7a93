"""Scenario files: the single JSON input describing a run.

A scenario fixes the world (bounds, markers), the fleet (per-drone true
start pose, believed start pose, cameras), sensor noise, the exploration
policy, fusion and adjustment knobs, the tick rate and the duration.
Everything a run needs besides the seed lives here, so one file plus one
integer reproduces a run bit for bit in lockstep mode.

A drone names its cameras from one fixed table, ``worldsim.CAMERAS``
(``down`` and ``forward``), each at most once.
The filter takes its detection noise from the noise block; its other
settings are set in code (see ``markerswarm.ekf``).

The believed start pose (``ekf_start_pose``) is where the drone thinks it
wakes up; it defines the origin of that drone's coordinate frame, so the
filter starts there with zero covariance. Leaving it out means the drone
knows its true start. Giving every drone the identity belief reproduces
the setting where each drone builds its map relative to its own takeoff
point and the frames only meet through shared markers.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from markerswarm.ekf import EkfConfig
from markerswarm.geom import Pose6D
from markerswarm.mapstore import DEFAULT_N_FUSE
from markerswarm.worldsim import CAMERAS, MAX_STEP_DT, CameraParams, SensorNoise, World


class ScenarioError(Exception):
    """The scenario file is missing, malformed, or self-inconsistent."""


_VEC3 = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 3,
    "maxItems": 3,
}
_POSE = {
    "type": "object",
    "properties": {"t": _VEC3, "euler": _VEC3},
    "required": ["t", "euler"],
    "additionalProperties": False,
}
_NONNEG = {"type": "number", "minimum": 0}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "duration": _NONNEG,
        "tick_rate": {"type": "number", "exclusiveMinimum": 0},
        "bounds": {
            "type": "object",
            "properties": {"min": _VEC3, "max": _VEC3},
            "required": ["min", "max"],
            "additionalProperties": False,
        },
        "markers": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "integer", "minimum": 0, "maximum": 1023},
                    "pose": _POSE,
                },
                "required": ["id", "pose"],
                "additionalProperties": False,
            },
        },
        "drones": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "integer", "minimum": 0},
                    "start_pose": _POSE,
                    "ekf_start_pose": _POSE,
                    "cameras": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 1,
                    },
                },
                "required": ["id", "start_pose"],
                "additionalProperties": False,
            },
        },
        "noise": {
            "type": "object",
            "properties": {
                "pos_base": _NONNEG,
                "pos_per_m": _NONNEG,
                "ang_base": _NONNEG,
                "ang_per_m": _NONNEG,
                "odom_vel_sigma": _NONNEG,
                "odom_rate_sigma": _NONNEG,
                "dropout": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "policy": {
            "type": "object",
            "properties": {
                "cell_size": {"type": "number", "exclusiveMinimum": 0},
                "altitude": {"type": "number"},
                "speed": {"type": "number", "exclusiveMinimum": 0},
                "r_visit": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "fusion": {
            "type": "object",
            "properties": {"n_fuse": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "ba": {
            "type": "object",
            "properties": {
                "enabled": {"type": "boolean"},
                "every_keyposes": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
    },
    "required": ["name", "seed", "duration", "tick_rate", "bounds", "markers", "drones"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class DroneSetup:
    drone_id: int
    start_pose: Pose6D  # ground truth at t=0
    ekf_start_pose: Pose6D  # believed start; origin of this drone's frame
    cameras: tuple[CameraParams, ...]  # from CAMERAS, each named once


@dataclass(frozen=True)
class PolicyConfig:
    cell_size: float = 1.2
    altitude: float = 1.5
    speed: float = 0.8
    r_visit: float = 0.3


@dataclass(frozen=True)
class BaSettings:
    enabled: bool = True
    every_keyposes: int = 10


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration: float
    tick_rate: float
    world: World
    drones: tuple[DroneSetup, ...]
    noise: SensorNoise
    ekf: EkfConfig
    policy: PolicyConfig
    n_fuse: int
    ba: BaSettings
    digest: str

    @property
    def dt(self) -> float:
        return 1.0 / self.tick_rate

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration * self.tick_rate))


def scenario_digest(raw: dict) -> str:
    """sha256 over the canonical JSON encoding of the raw scenario."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _non_finite_path(value, path: tuple = ()) -> tuple | None:
    """Path to the first number in a JSON document that is no finite float, or None.

    Python's json module reads NaN, Infinity and -Infinity, and integers of
    any size; the schema takes them all for numbers.
    """
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, int) and not isinstance(value, bool):
        return None if abs(value) <= sys.float_info.max else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_path(item, path + (key,))
        if found is not None:
            return found
    return None


_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _is_type(value, name: str) -> bool:
    """draft-07's type test on a JSON value: a bool is no number, 3.0 is an integer."""
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        if isinstance(value, float):
            return value.is_integer()
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _PY_TYPES[name])


def schema_violation(value, schema: dict) -> tuple[tuple, str] | None:
    """First place where a JSON value breaks a schema, as (path, message), or None.

    Interprets the draft-07 keywords SCENARIO_SCHEMA uses and no others:
    ``type`` (one name), ``properties``, ``required``, ``additionalProperties``
    (false or a subschema), ``items`` (one subschema), ``minItems``/``maxItems``,
    ``minimum``/``maximum`` and ``exclusiveMinimum``/``exclusiveMaximum``;
    ``$schema`` only names the draft. Each keyword constrains only the
    values of its own type, as in the draft.
    """
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        return (), f"{value!r} is not of type {kind!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return (), f"{key!r} is a required property"
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = properties.get(key, extra)
            if sub is False:
                return (), f"Additional properties are not allowed ({key!r} was unexpected)"
            if sub is not True:
                found = schema_violation(item, sub)
                if found is not None:
                    return (key, *found[0]), found[1]
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return (), f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            return (), f"{value!r} is too long"
        items = schema.get("items")
        if items is not None:
            for index, item in enumerate(value):
                found = schema_violation(item, items)
                if found is not None:
                    return (index, *found[0]), found[1]
    elif _is_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            return (), f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return (), f"{value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return (), (f"{value!r} is less than or equal to the minimum of "
                        f"{schema['exclusiveMinimum']!r}")
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            return (), (f"{value!r} is greater than or equal to the maximum of "
                        f"{schema['exclusiveMaximum']!r}")
    return None


def parse_scenario(raw: dict) -> Scenario:
    """Validate a loaded scenario document and resolve all defaults."""
    bad = _non_finite_path(raw)
    if bad is not None:
        raise ScenarioError(f"non-finite number at {list(bad)}")
    violation = schema_violation(raw, SCENARIO_SCHEMA)
    if violation is not None:
        path, message = violation
        raise ScenarioError(f"schema violation at {list(path)}: {message}")

    dt = 1.0 / raw["tick_rate"]
    if dt > MAX_STEP_DT:
        raise ScenarioError(f"tick_rate {raw['tick_rate']} gives dt {dt:.3f} > {MAX_STEP_DT}")

    # draft-07 takes an integral float such as 3.0 for an integer; the run
    # gets an int, so ids and counts are cast here
    marker_ids = [int(m["id"]) for m in raw["markers"]]
    if len(set(marker_ids)) != len(marker_ids):
        raise ScenarioError("duplicate marker ids")
    try:
        world = World(
            markers={int(m["id"]): Pose6D.from_dict(m["pose"]) for m in raw["markers"]},
            bounds_min=np.asarray(raw["bounds"]["min"], dtype=float),
            bounds_max=np.asarray(raw["bounds"]["max"], dtype=float),
        )
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    drone_ids = [int(d["id"]) for d in raw["drones"]]
    if len(set(drone_ids)) != len(drone_ids):
        raise ScenarioError("duplicate drone ids")
    drones = []
    for entry in sorted(raw["drones"], key=lambda d: d["id"]):
        start = Pose6D.from_dict(entry["start_pose"])
        believed = Pose6D.from_dict(entry["ekf_start_pose"]) if "ekf_start_pose" in entry else start
        names = entry.get("cameras", ["down"])
        missing = [n for n in names if n not in CAMERAS]
        if missing:
            raise ScenarioError(f"drone {entry['id']} references unknown cameras {missing}")
        if len(set(names)) != len(names):  # it would sense every marker twice a tick
            raise ScenarioError(f"drone {entry['id']} names a camera twice: {names}")
        cameras = tuple(CAMERAS[n] for n in names)
        drones.append(DroneSetup(int(entry["id"]), start, believed, cameras))

    noise_block = raw.get("noise", {})
    noise = SensorNoise(**noise_block)

    ekf = EkfConfig(
        det_pos_base=noise.pos_base if noise.pos_base > 0 else EkfConfig.det_pos_base,
        det_pos_per_m=noise.pos_per_m,
        det_ang_base=noise.ang_base if noise.ang_base > 0 else EkfConfig.det_ang_base,
        det_ang_per_m=noise.ang_per_m,
    )

    policy = PolicyConfig(**raw.get("policy", {}))
    ba_block = dict(raw.get("ba", {}))
    if "every_keyposes" in ba_block:
        ba_block["every_keyposes"] = int(ba_block["every_keyposes"])
    ba = BaSettings(**ba_block)
    n_fuse = int(raw.get("fusion", {}).get("n_fuse", DEFAULT_N_FUSE))

    return Scenario(
        name=raw["name"],
        seed=int(raw["seed"]),
        duration=float(raw["duration"]),
        tick_rate=float(raw["tick_rate"]),
        world=world,
        drones=tuple(drones),
        noise=noise,
        ekf=ekf,
        policy=policy,
        n_fuse=n_fuse,
        ba=ba,
        digest=scenario_digest(raw),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario: {err}") from err
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return parse_scenario(raw)
