import threading
import types

import pytest

from tracing import Span, Tracer, covered_length, self_times, summarize


def span(name, parent, start, end, cpu=None, thread=1):
    """A finished span that used ``cpu`` seconds of its thread (all of it by default)."""
    s = Span(name, parent, thread, start, 0.0)
    s.end = end
    s.cpu_end = end - start if cpu is None else cpu
    return s


def test_covered_length_merges_overlaps_and_ignores_empty_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0
    assert covered_length([(1.0, 1.0), (2.0, 1.5)]) == 0.0


def test_self_time_subtracts_children_once():
    root = span("runner.run", None, 0.0, 10.0)
    a = span("ekf.predict", root, 1.0, 3.0)
    b = span("nodes.tick", root, 4.0, 8.0)
    c = span("protocol.encode", b, 5.0, 6.0)
    own = self_times([root, a, b, c])
    assert own[id(root)][0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[id(b)][0] == pytest.approx(3.0)
    assert own[id(c)][0] == pytest.approx(1.0)
    # self times of a single-threaded tree add up to the root's duration
    assert sum(wall for wall, _ in own.values()) == pytest.approx(10.0)


def test_self_time_of_a_root_with_overlapping_children_on_other_threads():
    root = span("runner.run", None, 0.0, 10.0, cpu=0.5, thread=1)
    a = span("worldsim.step", root, 1.0, 6.0, cpu=2.0, thread=2)
    b = span("nodes.tick", root, 4.0, 9.0, cpu=3.0, thread=3)
    own = self_times([root, a, b])
    assert own[id(root)][0] == pytest.approx(2.0)  # 10 minus the union 1..9
    assert own[id(root)][1] == pytest.approx(0.5)  # other threads' CPU is not its own
    totals = summarize([root, a, b])
    assert totals["worldsim.wait_s"] == pytest.approx(3.0)
    assert totals["nodes.wait_s"] == pytest.approx(2.0)
    assert totals["nodes.tick.calls"] == 1


def _toy_program():
    lib = types.SimpleNamespace()
    lib.leaf = lambda x: x + 1
    lib.middle = lambda x: lib.leaf(x) * 2
    lib.run = lambda x: lib.middle(x) + lib.leaf(x)
    return lib


def test_wrapped_calls_nest_under_the_span_open_on_their_thread():
    lib = _toy_program()
    tracer = Tracer(root="toy.run")
    tracer.wrap(lib, "run", "toy.run")
    tracer.wrap(lib, "middle", "toy.middle")
    tracer.wrap(lib, "leaf", "toy.leaf", hook=lambda t, a, k, r: t.counts.__setitem__(
        "toy.leaf_sum", t.counts["toy.leaf_sum"] + r))
    assert lib.run(1) == 6
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    run, = by_name["toy.run"]
    middle, = by_name["toy.middle"]
    assert run.parent is None and middle.parent is run
    assert sorted(s.parent.name for s in by_name["toy.leaf"]) == ["toy.middle", "toy.run"]
    assert tracer.counts["toy.leaf_sum"] == 4
    totals = summarize(tracer.spans)
    assert totals["toy.self_s"] == pytest.approx(run.end - run.start)
    tracer.restore()
    tracer.spans.clear()
    assert lib.run(1) == 6 and tracer.spans == []


def test_spans_on_a_thread_without_an_open_span_hang_off_the_root():
    lib = _toy_program()
    tracer = Tracer(root="toy.run")
    tracer.wrap(lib, "leaf", "toy.leaf")

    def run(x):
        worker = threading.Thread(target=lib.leaf, args=(x,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return x

    lib.run = run
    tracer.wrap(lib, "run", "toy.run")
    lib.run(1)
    leaf, = [s for s in tracer.spans if s.name == "toy.leaf"]
    assert leaf.parent is tracer.root and leaf.thread != tracer.root.thread
