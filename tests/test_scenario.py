"""Scenario loading, validation, defaults and digest tests."""

import json
import math
import re

import numpy as np
import pytest

from markerswarm.scenario import (
    MAX_SWEEP_CELLS,
    SCENARIO_KEYS,
    ScenarioError,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from markerswarm.swarm.nodes import SweepPolicy
from markerswarm.worldsim import CAMERAS


def minimal_raw(**overrides):
    raw = {
        "name": "mini",
        "seed": 3,
        "duration": 2.0,
        "tick_rate": 10.0,
        "bounds": {"min": [-2.0, -2.0, 0.0], "max": [2.0, 2.0, 2.0]},
        "markers": [{"id": 5, "pose": {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}}],
        "drones": [{"id": 0, "start_pose": {"t": [0.0, 0.0, 0.0], "euler": [0.0, 0.0, 0.0]}}],
    }
    raw.update(overrides)
    return raw


# settings no bundled scenario or benchmark workload ever set; each is now a
# constant of the one module that uses it, so a document naming one is wrong
DELETED_SETTINGS = [
    (("cameras",), {}),
    (("ekf",), {}),
    (("ekf", "q_pos"), 0.01),
    (("ekf", "q_ang"), 0.005),
    (("ekf", "gate_enabled"), False),
    (("ekf", "gate_quantile"), 0.99),
    (("ekf", "init_sigma"), [0.0] * 6),
    (("policy", "yaw_rate"), 0.1),
    (("ba", "max_iterations"), 50),
    (("ba", "d_key"), 0.3),
    (("ba", "theta_key"), 0.2),
]


def with_value(raw, path, value):
    """raw with the value at path set, or deleted for DELETE; missing blocks are made."""
    target = raw
    for key in path[:-1]:
        target = target.setdefault(key, {}) if isinstance(target, dict) else target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return raw


DELETE = object()
START = ["drones", 0, "start_pose"]
# (edit, value, path named, the rest of the message)
REFUSALS = [
    pytest.param(("duration",), DELETE, [], "missing key 'duration'", id="missing-key"),
    pytest.param(("gravity",), 9.81, [], "unknown key 'gravity'", id="unknown-key"),
    pytest.param(("policy", "yaw_rate"), 0.1, ["policy"],
                 "unknown key 'yaw_rate'", id="unknown-key-in-block"),
    pytest.param(("tick_rate",), True, ["tick_rate"],
                 "value True is not a number", id="true-for-number"),
    pytest.param(("seed",), 1.5, ["seed"],
                 "1.5 is not an integer of at least 0", id="fractional-seed"),
    pytest.param(("seed",), "3", ["seed"], "value '3' is not a number", id="string-seed"),
    pytest.param(("markers", 0, "id"), 1024, ["markers", 0, "id"],
                 "1024 is not an integer in 0..1023", id="marker-id-1024"),
    pytest.param(("noise", "pos_base"), math.nan, ["noise", "pos_base"],
                 "value nan is not finite", id="nan-in-noise"),
    pytest.param(("policy", "speed"), math.inf, ["policy", "speed"],
                 "value inf is not finite", id="inf-in-policy"),
    pytest.param(("fusion", "n_fuse"), 0, ["fusion", "n_fuse"],
                 "0 is not an integer of at least 1", id="n-fuse-0"),
    pytest.param(("fusion", "n_fuse"), 10**400, ["fusion", "n_fuse"],
                 "value is an integer too large for a float", id="huge-int-in-fusion"),
    pytest.param(("wind", "gust"), math.nan, [], "unknown key 'wind'", id="nan-in-unknown-block"),
    pytest.param(("wind", "gust"), math.inf, [], "unknown key 'wind'", id="inf-in-unknown-block"),
    pytest.param(("wind", "gust"), 10**400, [],
                 "unknown key 'wind'", id="huge-int-in-unknown-block"),
    pytest.param(("bounds", "min"), [0.0, 0.0], ["bounds", "min"],
                 "[0.0, 0.0] is not an array of 3 numbers", id="bounds-2-vector"),
    pytest.param(("drones", 0, "start_pose", "t"), [0.0, 0.0], START,
                 "t has 2 values, not 3", id="pose-t-2-vector"),
    pytest.param(("drones", 0, "start_pose", "euler"), [0.0, 0.0], START,
                 "euler has 2 values, not 3", id="pose-euler-2-vector"),
    pytest.param(("tick_rate",), 0, ["tick_rate"], "0 is not above 0", id="tick-rate-0"),
    pytest.param(("tick_rate",), 1.0, ["tick_rate"], "dt 1.000 > 0.5", id="tick-rate-too-slow"),
    pytest.param(("noise", "dropout"), 1.5, ["noise", "dropout"],
                 "1.5 is not within 0..1", id="dropout-1.5"),
    pytest.param(("drones", 0, "cameras"), [], ["drones", 0, "cameras"],
                 "[] is not a non-empty array", id="no-cameras"),
    pytest.param(("ba", "enabled"), 1, ["ba", "enabled"],
                 "1 is not a boolean", id="int-for-boolean"),
    pytest.param(("bounds", "max", 0), -3.0, ["bounds"],
                 "degenerate bounds [-2. -2.  0.] .. [-3.  2.  2.]", id="degenerate-bounds"),
    pytest.param(("policy", "cell_size"), 1e-6, ["policy", "cell_size"],
                 "sweep grid of 1.6e+13 cells of 1e-06 m is above MAX_SWEEP_CELLS 10000",
                 id="sweep-grid-too-fine"),
    pytest.param(("bounds",), {"min": [-2.0, -1e308, 0.0], "max": [2.0, 1e308, 2.0]}, ["bounds"],
                 "sweep grid span inf is not finite", id="sweep-grid-span-overflows"),
]


class TestParsing:
    def test_minimal_scenario_resolves_defaults(self):
        sc = parse_scenario(minimal_raw())
        assert sc.n_ticks == 20
        assert math.isclose(sc.dt, 0.1)
        assert sc.drones[0].cameras == (CAMERAS["down"],)
        assert sc.drones[0].cameras[0] is CAMERAS["down"]
        assert sc.n_fuse == 5
        assert sc.ba.enabled and sc.ba.every_keyposes == 10
        assert sc.noise.pos_base == 0.02

    def test_believed_start_defaults_to_truth(self):
        sc = parse_scenario(minimal_raw())
        d = sc.drones[0]
        np.testing.assert_allclose(d.ekf_start_pose.t, d.start_pose.t)

    def test_explicit_believed_start(self):
        raw = minimal_raw()
        raw["drones"][0]["start_pose"] = {"t": [1.0, -1.0, 0.0], "euler": [0, 0, 0.7]}
        raw["drones"][0]["ekf_start_pose"] = {"t": [0.0, 0.0, 0.0], "euler": [0, 0, 0.0]}
        d = parse_scenario(raw).drones[0]
        assert np.linalg.norm(np.subtract(d.start_pose.t, d.ekf_start_pose.t)) > 1.0

    def test_drones_sorted_by_id(self):
        raw = minimal_raw()
        raw["drones"] = [
            {"id": 4, "start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]}},
            {"id": 1, "start_pose": {"t": [1, 0, 0], "euler": [0, 0, 0]}},
        ]
        sc = parse_scenario(raw)
        assert [d.drone_id for d in sc.drones] == [1, 4]

    def test_integral_floats_parse_as_int(self):
        # draft-07 takes 3.0 for an integer; the run must still get an int
        raw = minimal_raw(fusion={"n_fuse": 3.0}, ba={"every_keyposes": 4.0})
        raw["markers"][0]["id"] = 10.0
        raw["drones"][0]["id"] = 1.0
        sc = parse_scenario(raw)
        assert [type(m) for m in sc.world.markers] == [int]
        assert type(sc.drones[0].drone_id) is int
        for value in (sc.n_fuse, sc.ba.every_keyposes):
            assert type(value) is int
        assert (sc.n_fuse, sc.ba.every_keyposes) == (3, 4)

    def test_zero_sensor_noise_keeps_filter_floor_positive(self):
        raw = minimal_raw(
            noise={"pos_base": 0.0, "pos_per_m": 0.0, "ang_base": 0.0, "ang_per_m": 0.0}
        )
        sc = parse_scenario(raw)
        assert sc.ekf.det_pos_base > 0.0
        assert sc.ekf.det_ang_base > 0.0

    def test_matched_filter_noise_when_nonzero(self):
        raw = minimal_raw(noise={"pos_base": 0.04, "ang_base": 0.02})
        sc = parse_scenario(raw)
        assert sc.ekf.det_pos_base == 0.04
        assert sc.ekf.det_ang_base == 0.02


class TestValidation:
    @pytest.mark.parametrize("missing", ["name", "seed", "duration", "bounds", "drones"])
    def test_missing_required_key(self, missing):
        raw = minimal_raw()
        del raw[missing]
        with pytest.raises(ScenarioError):
            parse_scenario(raw)

    def test_marker_id_out_of_range(self):
        raw = minimal_raw()
        raw["markers"][0]["id"] = 1024
        with pytest.raises(ScenarioError):
            parse_scenario(raw)

    def test_marker_id_out_of_range_names_its_path(self):
        raw = minimal_raw()
        raw["markers"][0]["id"] = 1024
        with pytest.raises(ScenarioError, match=re.escape("at ['markers', 0, 'id']")):
            parse_scenario(raw)

    def test_boolean_is_no_number(self):
        with pytest.raises(ScenarioError, match=re.escape("at ['duration']")):
            parse_scenario(minimal_raw(duration=True))

    def test_fractional_seed_rejected(self):
        with pytest.raises(ScenarioError, match=re.escape("at ['seed']")):
            parse_scenario(minimal_raw(seed=1.5))

    def test_integral_float_seed_accepted(self):
        # draft-07 counts 3.0 as an integer
        assert parse_scenario(minimal_raw(seed=3.0)).seed == 3

    @pytest.mark.parametrize(
        "path, value", DELETED_SETTINGS, ids=[".".join(p) for p, _ in DELETED_SETTINGS]
    )
    def test_deleted_setting_is_refused(self, path, value):
        raw = with_value(minimal_raw(), path, value)
        # a deleted block is unknown at the top level, a deleted key in its block
        where = path[:-1] if path[0] in sum(SCENARIO_KEYS, ()) else ()
        message = f"at {list(where)}: unknown key {path[len(where)]!r}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(raw)

    def test_duplicate_marker_ids(self):
        raw = minimal_raw()
        raw["markers"].append(dict(raw["markers"][0]))
        with pytest.raises(ScenarioError, match="duplicate marker"):
            parse_scenario(raw)

    def test_duplicate_drone_ids(self):
        raw = minimal_raw()
        raw["drones"].append(dict(raw["drones"][0]))
        with pytest.raises(ScenarioError, match="duplicate drone"):
            parse_scenario(raw)

    def test_unknown_camera_reference(self):
        raw = minimal_raw()
        raw["drones"][0]["cameras"] = ["sideways"]
        message = "at ['drones', 0, 'cameras', 0]: unknown camera 'sideways'"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(raw)

    def test_cameras_come_from_the_table_in_the_order_named(self):
        raw = minimal_raw()
        raw["drones"][0]["cameras"] = ["forward", "down"]
        (drone,) = parse_scenario(raw).drones
        assert drone.cameras == (CAMERAS["forward"], CAMERAS["down"])

    @pytest.mark.parametrize("names", [["down", "down"], ["forward", "down", "forward"]])
    def test_camera_named_twice_is_refused(self, names):
        # it would sense every marker twice a tick, and the filter fuse both
        raw = minimal_raw()
        raw["drones"][0]["cameras"] = names
        with pytest.raises(ScenarioError, match=r"'cameras', \d\]: names camera '\w+' twice"):
            parse_scenario(raw)

    def test_tick_rate_too_slow_for_stepper(self):
        with pytest.raises(ScenarioError, match="dt"):
            parse_scenario(minimal_raw(tick_rate=1.0))

    def test_sweep_grid_cap_is_inclusive(self):
        wide = {"min": [-50.0, -50.0, 0.0], "max": [50.0, 50.0, 2.0]}
        assert MAX_SWEEP_CELLS == 100 * 100
        sc = parse_scenario(minimal_raw(bounds=wide, policy={"cell_size": 1.0}))
        # the count parse_scenario makes is the grid a drone builds
        assert len(SweepPolicy(sc.world.bounds_min, sc.world.bounds_max, sc.policy).cells) \
            == MAX_SWEEP_CELLS
        # one cell more per axis is refused, without building the grid
        with pytest.raises(ScenarioError, match=re.escape("sweep grid of 10201 cells")):
            parse_scenario(minimal_raw(bounds=wide, policy={"cell_size": 0.99}))

    def test_degenerate_bounds(self):
        raw = minimal_raw(bounds={"min": [1, 0, 0], "max": [-1, 2, 2]})
        with pytest.raises(ScenarioError):
            parse_scenario(raw)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match=re.escape("at []: unknown key 'gravity'")):
            parse_scenario(minimal_raw(gravity=9.81))

    def test_negative_seed(self):
        with pytest.raises(ScenarioError):
            parse_scenario(minimal_raw(seed=-1))

    @pytest.mark.parametrize(
        "path, value, named, reason",
        [
            # a pose is read whole, so its own path is named and its key is in the message
            (("drones", 0, "start_pose", "t", 0), math.nan, ["drones", 0, "start_pose"],
             "t nan is not finite"),
            (("drones", 0, "start_pose", "euler", 2), math.inf, ["drones", 0, "start_pose"],
             "euler inf is not finite"),
            (("duration",), math.inf, ["duration"], "value inf is not finite"),
            (("tick_rate",), math.inf, ["tick_rate"], "value inf is not finite"),
            # an unknown block, refused whole
            (("ekf", "q_pos"), math.nan, [], "unknown key 'ekf'"),
            (("noise", "dropout"), math.nan, ["noise", "dropout"], "value nan is not finite"),
            (("tick_rate",), 10**400, ["tick_rate"], "value is an integer too large for a float"),
            (("duration",), 10**400, ["duration"], "value is an integer too large for a float"),
            (("drones", 0, "start_pose", "t", 1), -(10**400), ["drones", 0, "start_pose"],
             "t is an integer too large for a float"),
        ],
        ids=["start-nan", "yaw-inf", "duration-inf", "tick-rate-inf", "q-pos-nan", "dropout-nan",
             "tick-rate-huge-int", "duration-huge-int", "start-huge-int"],
    )
    def test_non_finite_number_rejected(self, path, value, named, reason):
        message = f"at {named}: {reason}"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(with_value(minimal_raw(), path, value))

    @pytest.mark.parametrize("path, value, named, reason", REFUSALS)
    def test_refusal_names_its_path(self, path, value, named, reason):
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(with_value(minimal_raw(), path, value))
        assert str(caught.value) == f"at {named}: {reason}"


class TestFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_scenario(str(path))

    def test_bundled_scenarios_load(self):
        two = load_scenario("scenarios/two_drone_demo.json")
        lab = load_scenario("scenarios/lab_three_drones.json")
        assert len(two.drones) == 2 and len(two.world.markers) == 6
        assert len(lab.drones) == 3 and len(lab.world.markers) == 8
        # the lab analog: every drone believes it starts at its own origin
        for d in lab.drones:
            np.testing.assert_array_equal(d.ekf_start_pose.t, np.zeros(3))


class TestDigest:
    def test_digest_ignores_key_order(self):
        raw = minimal_raw()
        reordered = json.loads(json.dumps(raw, sort_keys=True))
        assert scenario_digest(raw) == scenario_digest(reordered)

    def test_digest_changes_with_content(self):
        assert scenario_digest(minimal_raw()) != scenario_digest(minimal_raw(seed=4))

    def test_digest_is_sha256_hex(self):
        digest = parse_scenario(minimal_raw()).digest
        assert len(digest) == 64
        int(digest, 16)
