"""Scenario files: the single JSON input describing a run.

A scenario fixes the world (bounds, markers), the fleet (per-drone true
start pose, believed start pose, cameras), sensor noise, the exploration
policy, fusion and adjustment knobs, the tick rate and the duration.
Everything a run needs besides the seed lives here, so one file plus one
integer reproduces a run bit for bit in lockstep mode.

``parse_scenario`` checks a document in one pass with the wire's own
checks and names the path of the first fault in its ``ScenarioError``
(``at ['drones', 0, 'id']: ...``). An object has the required keys of
its table below and no other than the optional ones; a number passes
``geom.check_float`` and its setting's bound; a pose is read by
``Pose6D.from_dict``; an integer may be ``3.0`` but not ``1.5``, as in
draft-07. Ids are unique, a marker id is in ``0..MARKER_ID_MAX``, the
bounds are not degenerate, ``1 / tick_rate`` is at most ``MAX_STEP_DT``
and a drone names its cameras from ``worldsim.CAMERAS``, each once. The
filter takes its detection noise from the noise block and its other
settings from ``markerswarm.ekf``.

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
from dataclasses import dataclass

from markerswarm.ekf import EkfConfig
from markerswarm.geom import Pose6D, check_float
from markerswarm.mapstore import DEFAULT_N_FUSE
from markerswarm.worldsim import (CAMERAS, MARKER_ID_MAX, MAX_STEP_DT, CameraParams,
                                  SensorNoise, World)


class ScenarioError(Exception):
    """The scenario file is missing, malformed, or self-inconsistent."""


def _invalid(path: tuple, message) -> ScenarioError:
    return ScenarioError(f"at {list(path)}: {message}")


def _at(path: tuple, check, *args):
    """``check(*args)``, with the error it raises on a bad value named at ``path``."""
    try:
        return check(*args)
    except (TypeError, ValueError, OverflowError) as err:  # float() of a huge int overflows
        raise _invalid(path, err) from err


def _object(value, path: tuple, required: tuple, optional=()) -> dict:
    """``value`` if it is an object with each ``required`` key and no other but ``optional``."""
    if not isinstance(value, dict):
        raise _invalid(path, f"{value!r} is not an object")
    for key in required:
        if key not in value:
            raise _invalid(path, f"missing key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise _invalid(path, f"unknown key {key!r}")
    return value


def _array(value, path: tuple, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        raise _invalid(path, f"{value!r} is not {'a non-empty' if nonempty else 'an'} array")
    return value


def _bounded(text: str, test, integer: bool = False):
    """The check of a finite number that passes ``test``, described by ``text``.

    An integer check takes an integral float (``3.0``), as draft-07 does.
    """

    def _parse_number(value, path: tuple):
        number = _at(path, check_float, value, "value")
        if not test(number) or (integer and not number.is_integer()):
            raise _invalid(path, f"{value!r} is not {text}")
        return int(value) if integer else number

    return _parse_number


_NUMBER = _bounded("a number", lambda _: True)
_NONNEG = _bounded("at least 0", lambda v: v >= 0)
_POSITIVE = _bounded("above 0", lambda v: v > 0)
_FRACTION = _bounded("within 0..1", lambda v: 0 <= v <= 1)
_ID = _bounded("an integer of at least 0", lambda v: v >= 0, integer=True)
_MARKER_ID = _bounded(f"an integer in 0..{MARKER_ID_MAX}", lambda v: 0 <= v <= MARKER_ID_MAX,
                      integer=True)
_COUNT = _bounded("an integer of at least 1", lambda v: v >= 1, integer=True)


def _boolean(value, path: tuple) -> bool:
    if not isinstance(value, bool):
        raise _invalid(path, f"{value!r} is not a boolean")
    return value


def _pose(value, path: tuple) -> Pose6D:
    if not isinstance(value, dict):
        raise _invalid(path, f"{value!r} is not an object")
    return _at(path, Pose6D.from_dict, value)


def _cameras(names, path: tuple) -> tuple[CameraParams, ...]:
    for k, name in enumerate(_array(names, path, nonempty=True)):
        if not isinstance(name, str):
            raise _invalid(path + (k,), f"{name!r} is not a string")
        if name not in CAMERAS:
            raise _invalid(path + (k,), f"unknown camera {name!r}, not one of {sorted(CAMERAS)}")
        if name in names[:k]:  # it would sense every marker twice a tick
            raise _invalid(path + (k,), f"names camera {name!r} twice")
    return tuple(CAMERAS[name] for name in names)


# (required, optional) keys of each object; a pose has Pose6D.WIRE_KEYS
SCENARIO_KEYS = (("name", "seed", "duration", "tick_rate", "bounds", "markers", "drones"),
                 ("noise", "policy", "fusion", "ba"))
BOUNDS_KEYS = (("min", "max"), ())
MARKER_KEYS = (("id", "pose"), ())
DRONE_KEYS = (("id", "start_pose"), ("ekf_start_pose", "cameras"))
# the optional blocks: each setting's check; a setting left out keeps its default
SETTINGS = {
    "noise": {"pos_base": _NONNEG, "pos_per_m": _NONNEG, "ang_base": _NONNEG,
              "ang_per_m": _NONNEG, "odom_vel_sigma": _NONNEG, "odom_rate_sigma": _NONNEG,
              "dropout": _FRACTION},
    "policy": {"cell_size": _POSITIVE, "altitude": _NUMBER, "speed": _POSITIVE,
               "r_visit": _POSITIVE},
    "fusion": {"n_fuse": _COUNT},
    "ba": {"enabled": _boolean, "every_keyposes": _COUNT},
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


def parse_scenario(raw: dict) -> Scenario:
    """Check a loaded scenario document in one pass and resolve all defaults."""
    _object(raw, (), *SCENARIO_KEYS)
    if not isinstance(raw["name"], str):
        raise _invalid(("name",), f"{raw['name']!r} is not a string")
    seed = _ID(raw["seed"], ("seed",))
    duration = _NONNEG(raw["duration"], ("duration",))
    tick_rate = _POSITIVE(raw["tick_rate"], ("tick_rate",))
    if 1.0 / tick_rate > MAX_STEP_DT:
        raise _invalid(("tick_rate",), f"dt {1.0 / tick_rate:.3f} > {MAX_STEP_DT}")

    bounds = _object(raw["bounds"], ("bounds",), *BOUNDS_KEYS)
    corners = []
    for key in BOUNDS_KEYS[0]:
        corner = bounds[key]
        if not isinstance(corner, list) or len(corner) != 3:
            raise _invalid(("bounds", key), f"{corner!r} is not an array of 3 numbers")
        corners.append([_NUMBER(v, ("bounds", key, k)) for k, v in enumerate(corner)])

    markers = {}
    for k, entry in enumerate(_array(raw["markers"], ("markers",))):
        path = ("markers", k)
        _object(entry, path, *MARKER_KEYS)
        marker_id = _MARKER_ID(entry["id"], path + ("id",))
        if marker_id in markers:
            raise _invalid(path + ("id",), f"duplicate marker id {marker_id}")
        markers[marker_id] = _pose(entry["pose"], path + ("pose",))
    world = _at(("bounds",), World, markers, *corners)  # it refuses degenerate bounds

    drones = []
    for k, entry in enumerate(_array(raw["drones"], ("drones",), nonempty=True)):
        path = ("drones", k)
        _object(entry, path, *DRONE_KEYS)
        drone_id = _ID(entry["id"], path + ("id",))
        if any(d.drone_id == drone_id for d in drones):
            raise _invalid(path + ("id",), f"duplicate drone id {drone_id}")
        start = _pose(entry["start_pose"], path + ("start_pose",))
        believed = (_pose(entry["ekf_start_pose"], path + ("ekf_start_pose",))
                    if "ekf_start_pose" in entry else start)
        cameras = _cameras(entry.get("cameras", ["down"]), path + ("cameras",))
        drones.append(DroneSetup(drone_id, start, believed, cameras))

    blocks = {}
    for block, checks in SETTINGS.items():
        values = _object(raw.get(block, {}), (block,), (), checks)
        blocks[block] = {key: checks[key](value, (block, key)) for key, value in values.items()}
    noise = SensorNoise(**blocks["noise"])
    ekf = EkfConfig(
        det_pos_base=noise.pos_base if noise.pos_base > 0 else EkfConfig.det_pos_base,
        det_pos_per_m=noise.pos_per_m,
        det_ang_base=noise.ang_base if noise.ang_base > 0 else EkfConfig.det_ang_base,
        det_ang_per_m=noise.ang_per_m,
    )

    return Scenario(
        name=raw["name"],
        seed=seed,
        duration=duration,
        tick_rate=tick_rate,
        world=world,
        drones=tuple(sorted(drones, key=lambda d: d.drone_id)),
        noise=noise,
        ekf=ekf,
        policy=PolicyConfig(**blocks["policy"]),
        n_fuse=blocks["fusion"].get("n_fuse", DEFAULT_N_FUSE),
        ba=BaSettings(**blocks["ba"]),
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
