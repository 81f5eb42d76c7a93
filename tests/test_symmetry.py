"""Every covariance a run stores or sends is exactly symmetric.

Two things rest on it. The wire carries a covariance as its 21
upper-triangle values (``protocol.upper_triangle``), and decode rebuilds the
lower triangle from them; and ``ekf.update`` forms ``S = P + R`` with no
symmetrizing step. Both give back the very matrix only if every (i, j)
entry holds the same bits as its (j, i) entry. ``np.array_equal`` alone
would let a signed zero through, so the bytes are compared.

Each path that builds a covariance is watched where it returns: the
filter's ``predict``, ``update`` and ``remap_frame``; the map's insert and
fuse; every entry a merge, a refinement, an adjustment or a flush writes
back; and every ``MarkerObs`` record and ``MapSnapshot`` entry at ``protocol.encode``.
The runs are lab seed 11, where bundle adjustment runs, and the
``marker_dense`` benchmark workload on workload seed 1, where a merge is
refined.
"""

import importlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from markerswarm.mapstore import GlobalMap
from markerswarm.scenario import load_scenario
from markerswarm.swarm import nodes, protocol, run_scenario
from markerswarm.swarm.protocol import MapSnapshot, MarkerObs

ROOT = Path(__file__).resolve().parent.parent


def exactly_symmetric(cov) -> bool:
    cov = np.asarray(cov)
    return cov.shape == (6, 6) and cov.tobytes() == np.ascontiguousarray(cov.T).tobytes()


class Watch:
    """Counts every covariance checked per path and keeps the asymmetric ones."""

    def __init__(self) -> None:
        self.seen = Counter()
        self.asymmetric: list[str] = []
        self.writer = "flush"  # who is writing map entries back through replace_entry

    def check(self, path: str, cov) -> None:
        self.seen[path] += 1
        if not exactly_symmetric(cov):
            self.asymmetric.append(path)


def watch_run(monkeypatch, scenario, seed: int) -> Watch:
    watch = Watch()

    def state_out(name):
        inner = getattr(nodes, name)

        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            watch.check(name, (result[0] if name == "update" else result).cov)
            return result

        monkeypatch.setattr(nodes, name, wrapped)

    for name in ("predict", "update", "remap_frame"):
        state_out(name)

    def entry_out(name, label):
        inner = getattr(GlobalMap, name)

        def wrapped(self, *args, **kwargs):
            entry = inner(self, *args, **kwargs)
            watch.check(label, entry.cov)
            return entry

        monkeypatch.setattr(GlobalMap, name, wrapped)

    entry_out("insert_marker", "insert")
    entry_out("fuse_observation", "fuse")

    replace_entry = GlobalMap.replace_entry

    def replaced(self, entry):
        watch.check(watch.writer, entry.cov)
        return replace_entry(self, entry)

    monkeypatch.setattr(GlobalMap, "replace_entry", replaced)

    def writer(owner, name, label):
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            watch.writer = label
            try:
                return inner(*args, **kwargs)
            finally:
                watch.writer = "flush"

        monkeypatch.setattr(owner, name, wrapped)

    writer(nodes, "merge_frames", "merge")
    writer(nodes, "refine_transform", "refine")
    writer(nodes.GroundStation, "_run_ba", "bundle adjustment")

    encode = protocol.encode

    def encoded(msg, sender, seq):
        if isinstance(msg, MarkerObs):
            for _, _, cov in msg.records:
                watch.check("MarkerObs", cov)
        elif isinstance(msg, MapSnapshot):
            for entry in msg.entries:
                watch.check("MapSnapshot", entry.cov)
        return encode(msg, sender, seq)

    monkeypatch.setattr(protocol, "encode", encoded)

    report = run_scenario(scenario, seed, "lockstep")
    assert report["counters"]["station"]["errors"] == 0
    return watch


def marker_dense(monkeypatch, tmp_path):
    """The ``marker_dense`` workload on workload seed 1, built as ``perfbench/run.py`` builds it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS["marker_dense"]
    path = tmp_path / "marker_dense.json"
    path.write_text(json.dumps(workload.build(1)), encoding="utf-8")
    return load_scenario(path), workload.seeds(1)[0]


# per run: the paths it must reach, so a path that stops running fails the test
RUNS = {
    "lab_seed_11": (
        "predict", "update", "remap_frame", "insert", "fuse", "merge", "bundle adjustment",
        "flush", "MarkerObs", "MapSnapshot",
    ),
    "marker_dense_seed_1": (
        "predict", "update", "remap_frame", "insert", "fuse", "merge", "refine", "flush",
        "MarkerObs", "MapSnapshot",
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_stored_or_sent_covariance_is_exactly_symmetric(run, monkeypatch, tmp_path):
    if run == "lab_seed_11":
        scenario, seed = load_scenario(ROOT / "scenarios" / "lab_three_drones.json"), 11
    else:
        scenario, seed = marker_dense(monkeypatch, tmp_path)
    watch = watch_run(monkeypatch, scenario, seed)
    assert watch.asymmetric == []
    assert [path for path in RUNS[run] if watch.seen[path] == 0] == []


def test_an_asymmetric_covariance_is_caught():
    cov = np.eye(6)
    assert exactly_symmetric(cov)
    cov[0, 1] = 1e-300
    assert not exactly_symmetric(cov)
    cov[0, 1], cov[1, 0] = 0.0, -0.0  # equal, but not the same bits on the wire
    assert not exactly_symmetric(cov)
