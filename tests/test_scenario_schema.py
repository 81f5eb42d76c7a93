"""The in-house scenario schema check, with jsonschema as its test oracle.

``scenario.schema_violation`` interprets ``SCENARIO_SCHEMA`` itself, so a
run does not import jsonschema. Seeded random mutations of the bundled
scenarios and of a 256-marker grid document must get the same
accept/reject from it as from jsonschema, and a rejection must name a place
jsonschema also names. A second check walks the schema for keywords the
interpreter does not implement, so a later schema edit cannot be ignored
silently. A third check finds every setting the schema offers in a bundled
scenario or a benchmark workload, so a setting nothing sets cannot stay.
"""

import importlib
import json
import math
import random
from pathlib import Path

import jsonschema
import pytest

from markerswarm.scenario import SCENARIO_SCHEMA, schema_violation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# what schema_violation interprets; "$schema" only names the draft
IMPLEMENTED = {
    "$schema", "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
}
TYPES = {"object", "array", "string", "number", "integer", "boolean"}
NUMERIC_BOUNDS = ("minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
                  "exclusiveMaximum")

ORACLE = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def schema_nodes(schema, where="SCENARIO_SCHEMA"):
    """(location, subschema) for the schema and every subschema reachable from it."""
    yield where, schema
    for key, sub in schema.get("properties", {}).items():
        yield from schema_nodes(sub, f"{where}.properties.{key}")
    for keyword in ("items", "additionalProperties"):
        if isinstance(schema.get(keyword), dict):
            yield from schema_nodes(schema[keyword], f"{where}.{keyword}")


def unsupported(schema) -> list[str]:
    """Every keyword, or keyword form, of a schema that schema_violation does not interpret."""
    found = []
    for where, node in schema_nodes(schema):
        found += [f"{where}: {key}" for key in node if key not in IMPLEMENTED]
        if "$schema" in node and (where != "SCENARIO_SCHEMA"
                                  or node["$schema"] != "http://json-schema.org/draft-07/schema#"):
            found.append(f"{where}: $schema {node['$schema']!r}")
        if "type" in node and not (isinstance(node["type"], str) and node["type"] in TYPES):
            found.append(f"{where}: type {node['type']!r}")
        if not isinstance(node.get("additionalProperties", True), (bool, dict)):
            found.append(f"{where}: additionalProperties {node['additionalProperties']!r}")
        if not isinstance(node.get("items", {}), dict):
            found.append(f"{where}: items {node['items']!r}")
        found += [f"{where}: {key} {node[key]!r}" for key in NUMERIC_BOUNDS
                  if key in node and not isinstance(node[key], (int, float))]
    return found


def test_schema_uses_only_implemented_keywords():
    assert unsupported(SCENARIO_SCHEMA) == []


def test_keyword_walk_flags_what_the_interpreter_lacks():
    schema = {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "type": "object",
        "properties": {
            "name": {"type": "string", "pattern": "^[a-z]+$"},
            "tags": {"type": "array", "items": [{"type": "string"}]},
            "either": {"anyOf": [{"type": "number"}, {"type": "null"}]},
            "sizes": {"type": ["number", "null"]},
        },
        "additionalProperties": {"type": "object", "properties": {"x": {"$schema": "draft-04"}}},
    }
    assert unsupported(schema) == [
        "SCENARIO_SCHEMA.properties.name: pattern",
        "SCENARIO_SCHEMA.properties.tags: items [{'type': 'string'}]",
        "SCENARIO_SCHEMA.properties.either: anyOf",
        "SCENARIO_SCHEMA.properties.sizes: type ['number', 'null']",
        "SCENARIO_SCHEMA.additionalProperties.properties.x: $schema 'draft-04'",
    ]


def schema_paths(schema, prefix=()):
    """Property path of every setting the schema offers; array items share their array's path."""
    for key, sub in schema.get("properties", {}).items():
        yield prefix + (key,)
        yield from schema_paths(sub, prefix + (key,))
    if isinstance(schema.get("items"), dict):
        yield from schema_paths(schema["items"], prefix)


def document_paths(node, prefix=()):
    """Property path of every value a document sets, in schema_paths' form."""
    if isinstance(node, dict):
        for key, item in node.items():
            yield prefix + (key,)
            yield from document_paths(item, prefix + (key,))
    elif isinstance(node, list):
        for item in node:
            yield from document_paths(item, prefix)


def test_every_setting_is_set_by_a_scenario_or_workload(monkeypatch):
    # the benchmark's own generator, imported as perfbench/run.py imports it
    monkeypatch.syspath_prepend(str(SCENARIOS.parent / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    docs = [bundled(path.stem) for path in sorted(SCENARIOS.glob("*.json"))]
    docs += [workloads[name].build(1) for name in ("lab_long", "marker_dense")]
    used = {path for doc in docs for path in document_paths(doc)}
    assert [".".join(p) for p in schema_paths(SCENARIO_SCHEMA) if p not in used] == []


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
    return sorted({key for _, node in schema_nodes(schema) for key in node.get("properties", {})})


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


def in_house_and_oracle_agree(doc) -> tuple[bool, str]:
    """(accepted, disagreement): accepted by both, or a description of how they differ."""
    violation = schema_violation(doc, SCENARIO_SCHEMA)
    errors = list(ORACLE.iter_errors(doc))
    if (violation is None) != (not errors):
        return violation is None, f"in-house {violation}, jsonschema {[e.message for e in errors]}"
    if violation is not None and list(violation[0]) not in [list(e.absolute_path) for e in errors]:
        return False, f"in-house path {violation}, jsonschema paths {[e.path for e in errors]}"
    return violation is None, ""


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
        ok, problem = in_house_and_oracle_agree(doc)
        accepted += ok
        if problem:
            problems.append(problem)
    assert problems == []
    # both answers must be common, or the agreement shows little
    assert 0.1 * count < accepted < 0.9 * count


def test_grid_document_passes():
    assert in_house_and_oracle_agree(grid_document()) == (True, "")


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
    schema = {"$schema": "http://json-schema.org/draft-07/schema#", "type": kind}
    assert (schema_violation(value, schema) is None) is accepted
    assert jsonschema.validators.validator_for(schema)(schema).is_valid(value) is accepted
