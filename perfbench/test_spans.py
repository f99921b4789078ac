"""Self-time arithmetic of the span recorder on synthetic call trees.

Run with ``python3 -m pytest perfbench/test_spans.py -q``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, self_times  # noqa: E402


def test_nested_tree_self_times():
    # root [0, 100) with children a [10, 40) and b [50, 90);
    # a has child c [15, 25); b has children d [50, 60) and e [70, 90).
    starts = [0, 10, 15, 50, 50, 70]
    ends = [100, 40, 25, 90, 60, 90]
    parents = [-1, 0, 1, 0, 3, 3]
    assert self_times(starts, ends, parents) == [30, 20, 10, 10, 10, 20]


def test_overlapping_and_escaping_children_are_merged_and_clipped():
    # Children [10, 30) and [20, 50) overlap; [90, 120) leaves the parent.
    starts = [0, 10, 20, 90]
    ends = [100, 30, 50, 120]
    parents = [-1, 0, 0, 0]
    out = self_times(starts, ends, parents)
    assert out[0] == 100 - 40 - 10
    assert out[1:] == [20, 30, 30]


def test_open_spans_count_zero_and_cover_nothing():
    assert self_times([0, 10], [50, -1], [-1, 0]) == [50, 0]


class _Worker:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.001)


def test_wrappers_nest_restore_and_keep_results():
    recorder = SpanRecorder()
    recorder.wrap(_Worker, "outer", "outer")
    recorder.wrap(_Worker, "inner", "inner")
    recorder.set_trace(7)
    assert _Worker().outer() == "done"
    recorder.uninstall()
    assert _Worker.outer.__qualname__ == "_Worker.outer"

    spans = list(recorder.spans())
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert {s[4] for s in spans} == {7}
    summary = recorder.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert inner["self_ns"] == inner["busy_ns"]
    assert outer["self_ns"] == outer["busy_ns"] - inner["busy_ns"]


def test_counters_merge_across_threads():
    import threading

    recorder = SpanRecorder()
    threads = [
        threading.Thread(target=lambda: [recorder.count("n") for _ in range(100)])
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert recorder.counts() == {"n": 400}


class _Static:
    @staticmethod
    def twice(x):
        return 2 * x


def test_static_methods_stay_static():
    recorder = SpanRecorder()
    recorder.wrap(_Static, "twice", "twice")
    assert _Static().twice(4) == 8 and _Static.twice(5) == 10
    recorder.uninstall()
    assert isinstance(_Static.__dict__["twice"], staticmethod)
    assert recorder.summary()["twice"]["calls"] == 2
