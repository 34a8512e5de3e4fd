"""Span recording and the self-time reducer of traced runs."""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import spans  # noqa: E402


class FakeClock:
    """A ``time`` stand-in whose ``perf_counter`` moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_self_time_subtracts_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    recorder = spans.SpanRecorder()
    traced_inner = recorder.wrap("inner", lambda: clock.sleep(0.02))

    def outer():
        clock.sleep(0.01)
        traced_inner()
        traced_inner()

    recorder.set_request(7)
    recorder.wrap("outer", outer)()
    selfs = spans.self_times(recorder.spans)
    assert selfs["inner"][1] == 2 and selfs["outer"][1] == 1
    assert abs(selfs["inner"][0] - 0.04) < 1e-9
    assert abs(selfs["outer"][0] - 0.01) < 1e-9
    outer_span = [s for s in recorder.spans if s[1] == "outer"][0]
    assert all(s[4] == outer_span[0] and s[5] == 7 for s in recorder.spans if s[1] == "inner")


def test_hooks_count_results_and_generators_are_timed_inside(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    recorder = spans.SpanRecorder()
    recorder.wrap("f", lambda n: list(range(n)), hook=lambda r: {"items": len(r)})(5)

    def gen():
        for i in range(3):
            clock.sleep(0.01)
            yield i

    items = []
    for item in recorder.wrap("g", gen)():
        items.append(item)
        clock.sleep(0.02)  # consumer time is not the generator's
    assert items == [0, 1, 2]
    assert spans.counters(recorder.spans) == {"items": 5}
    total, count = spans.self_times(recorder.spans)["g"]
    assert count == 1 and abs(total - 0.03) < 1e-9


def test_window_keeps_spans_inside_it_with_their_counts():
    recorder = spans.SpanRecorder()
    counted = recorder.wrap("f", lambda: 1, hook=lambda r: {"calls": r})
    counted()
    begin = spans.time.perf_counter()
    counted()
    counted()
    end = spans.time.perf_counter()
    counted()
    inside = spans.within(recorder.spans, begin, end)
    assert len(inside) == 2
    assert spans.counters(inside) == {"calls": 2}
    assert spans.counters(recorder.spans) == {"calls": 4}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "dense-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_request_spans_open_a_new_request_id():
    recorder = spans.SpanRecorder()
    work = recorder.wrap("engine.run", lambda: None)

    def handle():
        work()

    traced_handle = recorder.wrap("service.handle", handle)
    traced_handle()
    traced_handle()
    rids = [(s[1], s[5]) for s in recorder.spans]
    assert rids == [("engine.run", 1), ("service.handle", 1),
                    ("engine.run", 2), ("service.handle", 2)]
