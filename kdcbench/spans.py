"""Traced runs: runtime wrappers around the program's public functions.

``install`` replaces each function or method named in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent span, request id,
thread, counts taken from the result) in a :class:`SpanRecorder`.  Spans
are kept in memory and written out once, when the traced process ends.
``self_times`` turns them into per-layer self time: a span's duration minus
what its child spans cover; ``counters`` sums their counts.  Start and end
are ``time.perf_counter`` readings, which on Linux share one clock across
processes, so a span list can be cut to a window timed by another process.

The program's processes load this module only in traced runs; end-to-end
metrics always come from untraced processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _prepared_counts(result) -> Dict[str, float]:
    return {
        "prepare.heuristic_size": len(result.heuristic),
        "prepare.removed_vertices": result.preprocess_removed_vertices,
        "prepare.removed_edges": result.preprocess_removed_edges,
    }


def _delta_counts(report) -> Dict[str, float]:
    return {
        "dynamic.anchors_total": report.anchors_total,
        "dynamic.anchors_resolved": report.anchors_resolved,
        "dynamic.fallbacks": 0 if report.incremental else 1,
    }


#: (span name, defining module, attribute path, modules whose reference to
#: the attribute is replaced, result hook returning the span's counts)
TARGETS: List[Tuple[str, str, str, Tuple[str, ...], Optional[Callable]]] = [
    ("io.load", "repro.graphs.io", "load_graph", ("repro.graphs.io", "repro.graphs"),
     lambda g: {"io.edges": g.num_edges}),
    ("graph.digest", "repro.graphs.graph", "Graph.content_digest", (), None),
    ("prepare", "repro.core.prepared", "prepare_instance",
     ("repro.core.prepared", "repro.core.solver", "repro.service.store"), _prepared_counts),
    ("prepare.relabel", "repro.graphs.graph", "Graph.relabel", (), None),
    ("prepare.heuristic", "repro.core.heuristics", "initial_solution",
     ("repro.core.prepared",), None),
    ("prepare.preprocess", "repro.core.reductions", "preprocess_graph",
     ("repro.core.prepared",), None),
    ("prepare.degeneracy", "repro.graphs.degeneracy", "degeneracy_ordering",
     ("repro.core.prepared",), None),
    ("search", "repro.core.solver", "KDCSolver.solve_prepared", (), None),
    ("decompose.anchor", "repro.core.decompose", "solve_anchor",
     ("repro.core.decompose",), None),
    ("decompose.ego_build", "repro.core.decompose", "build_ego_subproblem",
     ("repro.core.decompose",), None),
    ("engine.run", "repro.core.fastpath", "BitsetEngine.run", (), None),
    ("service.handle", "repro.service.server", "handle_request",
     ("repro.service.server",), None),
    ("store.add", "repro.service.store", "GraphStore.add", (), None),
    ("store.prepared", "repro.service.store", "GraphStore.prepared", (), None),
    ("store.apply_delta", "repro.service.store", "GraphStore.apply_delta", (), None),
    ("persist.append_result", "repro.service.persistence",
     "ServicePersistence.append_result", (), None),
    ("persist.append_delta", "repro.service.persistence",
     "ServicePersistence.append_delta", (), None),
    ("persist.save_graph", "repro.service.persistence", "ServicePersistence.save_graph", (), None),
    ("persist.save_prepared", "repro.service.persistence",
     "ServicePersistence.save_prepared", (), None),
    ("persist.replay", "repro.service.persistence", "ServicePersistence.replay_results", (), None),
    ("persist.replay", "repro.service.persistence", "ServicePersistence.replay_deltas", (), None),
    ("persist.replay", "repro.service.persistence", "ServicePersistence.load_graphs", (), None),
    ("persist.replay", "repro.service.persistence", "ServicePersistence.load_prepared", (), None),
    ("dynamic.apply", "repro.dynamic.incremental", "IncrementalSolver.apply", (), _delta_counts),
]

#: spans that open a new request: the spans their thread records until the
#: next one share its request id (solves on the service's scheduler threads
#: run on other threads and record none)
REQUEST_SPANS = ("service.handle",)


#: (span id, name, start, end, parent span id, request id, thread id, counts)
Span = Tuple[int, str, float, float, Optional[int], Optional[int], int, Optional[Dict[str, float]]]


class SpanRecorder:
    """In-memory spans of one traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    # -- context ---------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Optional[int]) -> None:
        """Tag the spans this thread records from now on with ``rid``."""
        self._local.rid = rid

    # -- wrapping --------------------------------------------------------- #
    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        ids = self._ids
        opens_request = name in REQUEST_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_request:
                self.set_request(next(self._requests))
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if hook is not None:
                    counts = hook(result)
                return result
            except BaseException:
                end = time.perf_counter()
                raise
            finally:
                stack.pop()
                self.spans.append((span_id, name, start, end, parent,
                                   getattr(self._local, "rid", None), threading.get_ident(),
                                   counts))

        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Generators are timed only while they run, summed into one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            first = time.perf_counter()
            inside = 0.0
            iterator = fn(*args, **kwargs)
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        inside += time.perf_counter() - start
                        return
                    inside += time.perf_counter() - start
                    yield item
            finally:
                self.spans.append((next(self._ids), name, first, first + inside, parent,
                                   getattr(self._local, "rid", None), threading.get_ident(),
                                   None))

        return traced

    # -- output ----------------------------------------------------------- #
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(recorder: SpanRecorder) -> int:
    """Wrap every target in ``TARGETS``; return the number of patched references."""
    patched = 0
    for name, module_name, attr_path, consumers, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = inspect.getattr_static(owner, attr)
        wrapper = recorder.wrap(name, original, hook)
        if owner_name:
            setattr(owner, attr, wrapper)
            patched += 1
        for consumer_name in consumers:
            consumer = importlib.import_module(consumer_name)
            if getattr(consumer, attr, None) is original:
                setattr(consumer, attr, wrapper)
                patched += 1
    return patched


def load(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def within(spans: List[Span], begin: float, end: float) -> List[Span]:
    """The spans that start at or after ``begin`` and end by ``end``."""
    return [span for span in spans if span[2] >= begin and span[3] <= end]


def counters(spans: List[Span]) -> Dict[str, float]:
    """The counts of ``spans``, summed by name."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        for key, value in (span[7] or {}).items():
            out[key] += value
    return dict(out)


def self_times(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """``name -> (summed self seconds, span count)``.

    Parents and children are linked within one thread, where calls nest,
    so a span's self time is its duration minus its children's durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, *_rest in spans:
        if parent is not None:
            covered[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for sid, name, start, end, *_rest in spans:
        entry = out[name]
        entry[0] += (end - start) - covered.get(sid, 0.0)
        entry[1] += 1
    return {name: (total, count) for name, (total, count) in out.items()}
