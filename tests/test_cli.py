"""Command line and artifact tests, including SVG rendering checks."""

import csv
import json
import random
import re
import subprocess
import sys
import tracemalloc
from xml.sax import saxutils

import jsonschema
import pytest

from markerswarm import svgplot
from markerswarm.cli import _dump_json, main
from markerswarm.metrics import compute_metrics
from markerswarm.swarm.nodes import NavptsNode

POSE_SCHEMA = {
    "type": "object",
    "required": ["t", "euler"],
    "properties": {
        "t": {"type": "array", "minItems": 3, "maxItems": 3, "items": {"type": "number"}},
        "euler": {"type": "array", "minItems": 3, "maxItems": 3, "items": {"type": "number"}},
    },
}

MAP_FILE_SCHEMA = {
    "type": "object",
    "required": ["digest", "frames", "drone_frames", "entries"],
    "properties": {
        "digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "frames": {"type": "array", "items": {"type": "integer"}},
        "drone_frames": {"type": "object"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["marker_id", "frame", "pose", "cov", "obs_count"],
                "properties": {
                    "marker_id": {"type": "integer"},
                    "frame": {"type": "integer"},
                    "pose": POSE_SCHEMA,
                    "cov": {"type": "array", "minItems": 36, "maxItems": 36},
                    "obs_count": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}

METRICS_SCHEMA = {
    "type": "object",
    "required": [
        "frames",
        "frame_count",
        "mapped_markers",
        "true_markers",
        "merge_count",
        "ba_runs",
        "ba_iterations",
        "marker_position_rmse",
        "marker_orientation_rmse",
        "ate",
    ],
    "properties": {
        "frame_count": {"type": "integer", "minimum": 0},
        "mapped_markers": {"type": "integer", "minimum": 0},
        "marker_position_rmse": {"type": ["number", "null"]},
        "marker_orientation_rmse": {"type": ["number", "null"]},
        "ate": {"type": "object"},
    },
}

CSV_HEADER = ["tick", "sim_time", "drone_id", "source", "x", "y", "z", "alpha", "beta", "gamma"]


def write_scenario(tmp_path, **overrides):
    raw = {
        "name": "cli-test",
        "seed": 6,
        "duration": 3.0,
        "tick_rate": 10.0,
        "bounds": {"min": [-2.0, -2.0, 0.0], "max": [2.0, 2.0, 2.0]},
        "markers": [
            {"id": 1, "pose": {"t": [0.0, 0.0, 0.0], "euler": [0, 0, 0]}},
            {"id": 2, "pose": {"t": [0.8, 0.5, 0.0], "euler": [0, 0, 0.9]}},
        ],
        "drones": [{"id": 0, "start_pose": {"t": [0, 0, 0], "euler": [0, 0, 0]}}],
        "noise": {"pos_base": 0.01, "ang_base": 0.005},
        "policy": {"cell_size": 1.0, "altitude": 1.2, "speed": 0.7},
    }
    raw.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRunCommand:
    def test_writes_all_artifacts(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", scenario, "--out", out) == 0
        for name in ("map.json", "trajectories.csv", "report.json", "metrics.json"):
            assert (out / name).exists(), name

        map_doc = json.loads((out / "map.json").read_text())
        jsonschema.validate(map_doc, MAP_FILE_SCHEMA)
        assert len(map_doc["entries"]) >= 1

        metrics = json.loads((out / "metrics.json").read_text())
        jsonschema.validate(metrics, METRICS_SCHEMA)

        report = json.loads((out / "report.json").read_text())
        assert report["metrics"] == metrics
        assert compute_metrics(report) == metrics

    def test_csv_layout(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", scenario, "--out", out) == 0
        with (out / "trajectories.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_HEADER
        # one truth and one estimate row per tick
        assert len(rows) - 1 == 2 * 30
        assert {r[3] for r in rows[1:]} == {"truth", "estimate"}
        for r in rows[1:3]:
            [float(v) for v in r[4:]]  # numeric payload parses

    def test_seed_override_changes_output(self, tmp_path):
        scenario = write_scenario(tmp_path)
        assert run_cli("run", scenario, "--seed", 1, "--out", tmp_path / "a") == 0
        assert run_cli("run", scenario, "--seed", 2, "--out", tmp_path / "b") == 0
        csv_a = (tmp_path / "a" / "trajectories.csv").read_text()
        csv_b = (tmp_path / "b" / "trajectories.csv").read_text()
        assert csv_a != csv_b

    def test_same_seed_reproduces_artifacts(self, tmp_path):
        scenario = write_scenario(tmp_path)
        assert run_cli("run", scenario, "--seed", 5, "--out", tmp_path / "a") == 0
        assert run_cli("run", scenario, "--seed", 5, "--out", tmp_path / "b") == 0
        for name in ("map.json", "trajectories.csv", "report.json", "metrics.json"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_json_artifact_streams_to_disk(self, tmp_path):
        # 15 000 poses, 3.4 MB of JSON; encoding it into one string first
        # peaks at about 5.5x the file
        rng = random.Random(0)
        payload = {
            "poses": [
                {"t": [rng.uniform(-5, 5) for _ in range(3)],
                 "euler": [rng.uniform(-3, 3) for _ in range(3)]}
                for _ in range(15000)
            ]
        }
        target = tmp_path / "payload.json"
        tracemalloc.start()
        try:
            _dump_json(target, payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 3_000_000
        assert peak < size / 4, f"writing {size} bytes peaked at {peak} bytes"
        assert target.read_text(encoding="utf-8") == (
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )

    def test_threaded_mode_flag(self, tmp_path):
        scenario = write_scenario(tmp_path, duration=1.0)
        out = tmp_path / "out"
        assert run_cli("run", scenario, "--mode", "threaded", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "threaded"

    def test_node_tick_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def tick(self, *args):
            raise RuntimeError("node tick failed")

        monkeypatch.setattr(NavptsNode, "tick", tick)
        scenario = write_scenario(tmp_path, duration=1.0)
        assert run_cli("run", scenario, "--mode", "threaded", "--out", tmp_path / "out") == 3
        assert "run failed: node tick failed" in capsys.readouterr().err

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert run_cli("run", bad, "--out", tmp_path / "out") == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_start_pose_exits_2(self, tmp_path, capsys, text):
        scenario = write_scenario(tmp_path)
        doc = scenario.read_text().replace('"start_pose": {"t": [0, 0, 0]',
                                           f'"start_pose": {{"t": [{text}, 0, 0]', 1)
        scenario.write_text(doc)
        assert run_cli("run", scenario, "--out", tmp_path / "out") == 2
        message = f"at ['drones', 0, 'start_pose']: t {float(text)} is not finite"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, tick_rate=10**400)
        assert '"tick_rate": 1' + "0" * 400 + "," in scenario.read_text()
        assert run_cli("run", scenario, "--out", tmp_path / "out") == 2
        assert "at ['tick_rate']: int too large to convert to float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_seed_that_is_no_non_negative_integer_exits_2(self, tmp_path, capsys, seed):
        scenario = write_scenario(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", scenario, "--seed", seed, "--out", tmp_path / "out")
        assert exit_info.value.code == 2
        assert "is not a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_scenario_exits_2(self, tmp_path):
        assert run_cli("run", tmp_path / "absent.json", "--out", tmp_path / "out") == 2

    def test_bundled_demo_runs(self, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("run", "scenarios/two_drone_demo.json", "--out", out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["merge_count"] >= 1
        assert metrics["frame_count"] == 1


class TestPlotCommand:
    def make_report(self, tmp_path, **overrides):
        scenario = write_scenario(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run_cli("run", scenario, "--out", out) == 0
        return out / "report.json", json.loads((out / "report.json").read_text())

    def test_svg_structure(self, tmp_path):
        report_path, report = self.make_report(tmp_path)
        assert run_cli("plot", report_path, "--out", tmp_path / "plots") == 0
        svg = (tmp_path / "plots" / "plot.svg").read_text()
        assert svg.startswith("<svg") or svg.startswith("<?xml")
        # one truth and one estimate polyline for the single drone
        assert svg.count('data-source="truth"') == 1
        assert svg.count('data-source="estimate"') == 1
        # one circle per mapped marker
        assert svg.count("<circle") == len(report["map"])

    @pytest.mark.parametrize("text", ["", "plain", "&<>\"'", "a&amp;b", "<<&&>>", "&lt;'x'"])
    def test_escape_matches_saxutils(self, text):
        assert svgplot.escape(text) == saxutils.escape(text)

    def test_render_escapes_as_saxutils_does(self, tmp_path, monkeypatch):
        _, report = self.make_report(tmp_path, name="a&b <c> \"d\" 'e'")
        svg = svgplot.render_svg(report)
        assert "a&amp;b &lt;c&gt; \"d\" 'e'" in svg
        monkeypatch.setattr(svgplot, "escape", saxutils.escape)
        assert svgplot.render_svg(report) == svg

    def test_empty_report_renders_axes_only(self, tmp_path):
        report_path, _ = self.make_report(tmp_path, duration=0.0)
        assert run_cli("plot", report_path, "--out", tmp_path / "plots") == 0
        svg = (tmp_path / "plots" / "plot.svg").read_text()
        assert "<polyline" not in svg
        assert "<circle" not in svg
        assert "<rect" in svg

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "report.json"
        bad.write_text('{"world": {}}')
        assert run_cli("plot", bad, "--out", tmp_path / "plots") == 2
        assert "malformed report" in capsys.readouterr().err

    def test_unreadable_report_exits_2(self, tmp_path):
        assert run_cli("plot", tmp_path / "absent.json", "--out", tmp_path / "plots") == 2

    def test_plot_scales_within_viewport(self, tmp_path):
        report_path, _ = self.make_report(tmp_path)
        run_cli("plot", report_path, "--out", tmp_path / "plots")
        svg = (tmp_path / "plots" / "plot.svg").read_text()
        for cx, cy in re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', svg):
            assert 0 <= float(cx) <= 720
            assert 0 <= float(cy) <= 720


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        scenario = write_scenario(tmp_path, duration=0.5)
        proc = subprocess.run(
            [sys.executable, "-m", "markerswarm.cli", "run", str(scenario), "--out",
             str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "metrics.json").exists()
