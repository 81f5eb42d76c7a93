"""parse_scenario judged by jsonschema, against the draft-07 scenario schema.

``SCENARIO_SCHEMA`` below is the scenario format written as a draft-07
document. It lives here as the test oracle's spec: ``parse_scenario``
checks a document in one pass with the wire's own checks and imports no
jsonschema. On seeded random mutations of the bundled scenarios and of a
256-marker grid document, every document the parser accepts must pass
jsonschema, and every refusal must be justified: a schema refusal names a
path at or above one jsonschema names, and a refusal under a rule the
schema cannot state (non-finite or too-large numbers, duplicate ids,
unknown or repeated cameras, dt, degenerate bounds) must break that rule at
its path, as this test checks on its own. A further check finds every
setting the parser's key tables offer in a bundled scenario or a benchmark
workload, so a setting nothing sets cannot stay.
"""

import ast
import importlib
import json
import math
import random
import re
import sys
from pathlib import Path

import jsonschema
import pytest

from markerswarm import scenario
from markerswarm.geom import Pose6D
from markerswarm.scenario import ScenarioError, parse_scenario
from markerswarm.worldsim import CAMERAS, MAX_STEP_DT

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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

ORACLE = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def schema_nodes(schema):
    """The schema and every subschema reachable from it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if isinstance(schema.get("items"), dict):
        yield from schema_nodes(schema["items"])


def schema_paths(schema, prefix=()):
    """Property path of every setting the schema offers; array items share their array's path."""
    for key, sub in schema.get("properties", {}).items():
        yield prefix + (key,)
        yield from schema_paths(sub, prefix + (key,))
    if isinstance(schema.get("items"), dict):
        yield from schema_paths(schema["items"], prefix)


def settable_paths():
    """Property path of every setting parse_scenario's key tables offer, in schema_paths' form."""
    pose = (tuple(sorted(Pose6D.WIRE_KEYS)), ())
    tables = {
        (): scenario.SCENARIO_KEYS,
        ("bounds",): scenario.BOUNDS_KEYS,
        ("markers",): scenario.MARKER_KEYS,
        ("markers", "pose"): pose,
        ("drones",): scenario.DRONE_KEYS,
        ("drones", "start_pose"): pose,
        ("drones", "ekf_start_pose"): pose,
    }
    tables.update({(block,): ((), tuple(checks)) for block, checks in scenario.SETTINGS.items()})
    for prefix, (required, optional) in tables.items():
        for key in required + optional:
            yield prefix + (key,)


def document_paths(node, prefix=()):
    """Property path of every value a document sets, in schema_paths' form."""
    if isinstance(node, dict):
        for key, item in node.items():
            yield prefix + (key,)
            yield from document_paths(item, prefix + (key,))
    elif isinstance(node, list):
        for item in node:
            yield from document_paths(item, prefix)


def unset_settings(monkeypatch) -> list[str]:
    """Each setting of the parser's tables that no bundled scenario or benchmark workload sets."""
    # the benchmark's own generator, imported as perfbench/run.py imports it
    monkeypatch.syspath_prepend(str(SCENARIOS.parent / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    docs = [bundled(path.stem) for path in sorted(SCENARIOS.glob("*.json"))]
    docs += [workloads[name].build(1) for name in ("lab_long", "marker_dense")]
    used = {path for doc in docs for path in document_paths(doc)}
    return [".".join(p) for p in settable_paths() if p not in used]


def test_every_setting_is_set_by_a_scenario_or_workload(monkeypatch):
    assert unset_settings(monkeypatch) == []


def test_a_setting_nothing_sets_is_reported(monkeypatch):
    policy = scenario.SETTINGS["policy"]
    monkeypatch.setitem(policy, "yaw_rate", policy["speed"])
    monkeypatch.setattr(scenario, "DRONE_KEYS", (("id", "start_pose"), ("cameras", "gimbal")))
    assert unset_settings(monkeypatch) == ["drones.gimbal", "policy.yaw_rate"]


def test_key_tables_match_the_schema():
    assert sorted(settable_paths()) == sorted(schema_paths(SCENARIO_SCHEMA))


def grid_document() -> dict:
    """A 16 x 16 marker grid that also fills every optional block of the schema."""
    pose = {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}
    markers = [
        {"id": 16 * row + col,
         "pose": {"t": [0.75 * col - 5.6, 0.75 * row - 5.6, 0.0], "euler": [0.0, 0.0, 0.1 * col]}}
        for row in range(16)
        for col in range(16)
    ]
    return {
        "name": "grid",
        "seed": 4,
        "duration": 5.0,
        "tick_rate": 10.0,
        "bounds": {"min": [-6.0, -6.0, 0.0], "max": [6.0, 6.0, 2.5]},
        "markers": markers,
        "drones": [
            {"id": k, "start_pose": {"t": [0.5 * k, 0.0, 0.0], "euler": [0.0, 0.0, 0.3]},
             "ekf_start_pose": pose, "cameras": ["down", "forward"]}
            for k in range(3)
        ],
        "noise": {"pos_base": 0.02, "pos_per_m": 0.01, "ang_base": 0.01, "ang_per_m": 0.005,
                  "odom_vel_sigma": 0.05, "odom_rate_sigma": 0.02, "dropout": 0.05},
        "policy": {"cell_size": 2.0, "altitude": 1.5, "speed": 0.8, "r_visit": 0.3},
        "fusion": {"n_fuse": 5},
        "ba": {"enabled": False, "every_keyposes": 10},
    }


def bundled(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


def property_names(schema) -> list[str]:
    return sorted({key for node in schema_nodes(schema) for key in node.get("properties", {})})


KEYS = property_names(SCENARIO_SCHEMA) + ["gravity", "", "$schema", "Id"]
POSE = {"t": [0.5, -0.5, 0.0], "euler": [0.0, 0.0, 1.0]}
CAMERA = {"extrinsics": POSE, "fov_half_angle": 0.7, "max_range": 2.0}
VALUES = [
    None, True, False, "", "down", "forward", "x",
    0, 1, 2, 3, 5, -1, 1023, 1024, 2**53, 10**400,
    0.0, -0.0, 0.5, 1.0, 1.5, 3.0, 0.999, -2.5, 1e-300, 1e308, math.inf, -math.inf, math.nan,
    [], [0.0, 0.0, 0.0], [1, 2, 3], [1, 2], [1, 2, 3, 4], [0.1] * 6, [0.1] * 5, ["down"],
    ["down", "forward"], [True, 0, 0], [None], ["1", 2, 3],
    {}, POSE, {"t": [0, 0, 0]}, CAMERA, {"min": [0, 0, 0], "max": [1, 1, 1]},
    {"id": 3, "pose": POSE}, {"id": 9, "start_pose": POSE}, {"n_fuse": 2}, {"enabled": True},
]


def node_paths(node, prefix=()):
    """Path to the node and to every value below it."""
    yield prefix
    if isinstance(node, dict):
        for key, item in node.items():
            yield from node_paths(item, prefix + (key,))
    elif isinstance(node, list):
        for index, item in enumerate(node):
            yield from node_paths(item, prefix + (index,))


def edited(node, path, edit):
    """A copy of node with the value at path replaced by edit(value).

    Only the containers along the path are copied; the rest is shared, and
    nothing is changed in place.
    """
    if not path:
        return edit(node)
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = edited(node[path[0]], path[1:], edit)
    return copy


def random_value(rng: random.Random, old):
    """Another value: from the pool, or a nearby or retyped number."""
    number = isinstance(old, (int, float)) and not isinstance(old, bool) and abs(old) < 1e300
    if number and rng.random() < 0.5:
        if isinstance(old, int) and rng.random() < 0.3:
            return float(old)
        return rng.choice([-1, 0, 0.5, 1, 2]) * old + rng.choice([-1, -0.5, 0, 0.5, 1])
    return rng.choice(VALUES)


def value_at(node, path):
    for key in path:
        node = node[key]
    return node


def removed(container, key):
    copy = dict(container) if isinstance(container, dict) else list(container)
    del copy[key]
    return copy


def mutate(rng: random.Random, doc: dict) -> dict:
    """One random edit: replace a value, delete a key or element, add a key or element."""
    paths = list(node_paths(doc))
    path = rng.choice(paths)
    kind = rng.random()
    if kind < 0.55 and path:
        return edited(doc, path, lambda old: random_value(rng, old))
    if kind < 0.75 and path:
        return edited(doc, path[:-1], lambda parent: removed(parent, path[-1]))
    target = rng.choice([p for p in paths if isinstance(value_at(doc, p), (dict, list))])

    def grow(node):
        if isinstance(node, dict):
            return {**node, rng.choice(KEYS): rng.choice(VALUES)}
        return node + [rng.choice(node + VALUES if node else VALUES)]

    return edited(doc, target, grow)


def numbers(node):
    """Every JSON number in a document, bools left out."""
    if isinstance(node, (dict, list)):
        for item in node.values() if isinstance(node, dict) else node:
            yield from numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def holds_no_float(doc, path) -> bool:
    """Whether the value at path is or holds a number that is no finite float."""
    return any(not math.isfinite(number) if isinstance(number, float)
               else abs(number) > sys.float_info.max for number in numbers(value_at(doc, path)))


def repeats(doc, path) -> bool:
    """Whether the value at path is one of its list's earlier values or ids."""
    *where, key = path
    if key == "id":  # an entry's id: ["markers", 3, "id"]
        *where, key = where
        return doc[where[0]][key]["id"] in [entry["id"] for entry in doc[where[0]][:key]]
    return value_at(doc, path) in value_at(doc, where)[:key]


# the refusals the schema cannot state: a message that starts with one of
# these must break the rule at its path, checked here on the document itself
EXTRA_RULES = [
    (r"(value|t|euler) \S+ is not finite$", holds_no_float),
    (r"int too large to convert to float$", holds_no_float),
    (r"dt ", lambda doc, path: 1.0 / value_at(doc, path) > MAX_STEP_DT),
    (r"degenerate bounds", lambda doc, path: not all(
        lo < hi for lo, hi in zip(doc["bounds"]["min"], doc["bounds"]["max"]))),
    (r"duplicate (marker|drone) id", repeats),
    (r"unknown camera", lambda doc, path: value_at(doc, path) not in CAMERAS),
    (r"names camera", repeats),
]


def parser_and_oracle_agree(doc) -> tuple[bool, str]:
    """(accepted, problem): the parser's verdict, and how it contradicts the oracle, if it does."""
    named = [list(error.absolute_path) for error in ORACLE.iter_errors(doc)]
    try:
        parse_scenario(doc)
    except ScenarioError as err:
        found = re.fullmatch(r"at (\[.*?\]): (.*)", str(err), re.S)
        where, message = found.groups()
        path = ast.literal_eval(where)
        for pattern, broken in EXTRA_RULES:
            if re.match(pattern, message):
                return False, "" if broken(doc, path) else f"{err}, yet that rule holds"
        if not any(found[:len(path)] == path for found in named):
            return False, f"{err}, yet jsonschema names {named}"
        return False, ""
    return True, f"accepted, yet jsonschema names {named}" if named else ""


# 10 000 mutated documents in all; the grid costs jsonschema about 30 ms a document
@pytest.mark.parametrize("name, count", [("two_drone_demo", 4800), ("lab_three_drones", 4800),
                                         ("grid_256", 400)])
def test_random_mutations_agree_with_jsonschema(name, count):
    rng = random.Random(f"schema-{name}")
    base = grid_document() if name == "grid_256" else bundled(name)
    accepted, problems = 0, []
    for _ in range(count):
        doc = base
        for _ in range(rng.choice((1, 1, 2, 3))):
            doc = mutate(rng, doc)
        ok, problem = parser_and_oracle_agree(doc)
        accepted += ok
        if problem:
            problems.append(problem)
    assert problems == []
    # both answers must be common, or the agreement shows little
    assert 0.1 * count < accepted < 0.9 * count


def test_grid_document_passes():
    assert parser_and_oracle_agree(grid_document()) == (True, "")


@pytest.mark.parametrize(
    "value, kind, accepted",
    [
        (True, "number", False), (True, "integer", False), (False, "boolean", True),
        (3.0, "integer", True), (1.5, "integer", False), (math.inf, "integer", False),
        (math.nan, "integer", False), (-0.0, "integer", True), (10**400, "integer", True),
        (3, "number", True), ("3", "number", False), (None, "object", False),
        ((1, 2, 3), "array", False), ([], "array", True), ({}, "object", True),
    ],
)
def test_type_rules_match_draft_07(value, kind, accepted):
    # each value at a grid setting of that type whose bounds it keeps
    path = {"number": ("policy", "altitude"), "integer": ("seed",), "boolean": ("ba", "enabled"),
            "object": ("noise",), "array": ("markers",)}[kind]
    doc = edited(grid_document(), path, lambda old: value)
    assert ORACLE.is_valid(doc) is accepted
    # draft-07 has integers of any size; a run's numbers must be floats
    fits = not isinstance(value, int) or abs(value) <= sys.float_info.max
    assert parser_and_oracle_agree(doc) == (accepted and fits, "")
