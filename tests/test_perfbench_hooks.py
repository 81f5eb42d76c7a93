"""The benchmark's tracer still finds every markerswarm name it wraps.

``perfbench/child.py`` patches functions and methods by name for
``--trace 1``. Deleting or renaming one of them breaks the benchmark, not
the program, so this program-side test instruments a run's worth of names
and restores them.
"""

import importlib
from pathlib import Path

from markerswarm.swarm import nodes, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_instrumentation_wraps_every_name_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    tracing = importlib.import_module("tracing")
    originals = (nodes.find_matches, protocol.decode, nodes.GroundStation.flush)
    tracer = tracing.Tracer()
    try:
        child.instrument(tracer, traced=True, sense_host=False)
        wrapped = (nodes.find_matches, protocol.decode, nodes.GroundStation.flush)
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.restore()
    assert (nodes.find_matches, protocol.decode, nodes.GroundStation.flush) == originals
