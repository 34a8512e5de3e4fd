"""Per-layer metrics of a traced run.

Times are self times of the spans recorded by :mod:`spans` (a span's
duration minus its children's); counts come from the program's own
``SearchStats`` (in each solve reply), the results of traced calls and the
service ``stats`` op.  Every
time and count is given per *unit of work* — one round of cells for the
solve workloads, one loop op for ``service-mix`` — so runs of different
length compare; ``persist.replay_s`` is the whole replay of one restart.
Ratios are plain ratios.  A layer that does not run in a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import spans

#: (metric, span whose self time it is)
SPAN_TIMES: List[Tuple[str, str]] = [
    ("io.load_s", "io.load"),
    ("graph.digest_s", "graph.digest"),
    ("prepare.s", "prepare"),
    ("prepare.relabel_s", "prepare.relabel"),
    ("prepare.heuristic_s", "prepare.heuristic"),
    ("prepare.preprocess_s", "prepare.preprocess"),
    ("prepare.degeneracy_s", "prepare.degeneracy"),
    ("decompose.ego_build_s", "decompose.ego_build"),
    ("engine.run_s", "engine.run"),
    ("store.add_s", "store.add"),
    ("store.prepared_s", "store.prepared"),
    ("store.apply_delta_s", "store.apply_delta"),
    ("persist.append_result_s", "persist.append_result"),
    ("persist.append_delta_s", "persist.append_delta"),
    ("persist.save_graph_s", "persist.save_graph"),
    ("persist.save_prepared_s", "persist.save_prepared"),
    ("dynamic.apply_s", "dynamic.apply"),
]

#: (metric, SearchStats key) summed over the replies that ran a search
STAT_COUNTS: List[Tuple[str, str]] = [
    ("search.nodes", "nodes"),
    ("search.prunes_by_bound", "prunes_by_bound"),
    ("search.leaves", "leaves"),
    ("search.rr1", "removed_RR1"),
    ("search.rr2", "removed_RR2"),
    ("search.rr3", "removed_RR3"),
    ("search.rr4", "removed_RR4"),
    ("search.improvements", "improvements"),
    ("engine.trail_pushes", "trail_pushes"),
    ("engine.recolor_full", "recolor_full"),
    ("engine.recolor_repair", "recolor_repair"),
    ("decompose.subproblems", "subproblems"),
    ("decompose.subproblems_pruned", "subproblems_pruned"),
]

#: (metric, recorder counter filled by a span hook)
HOOK_COUNTS: List[Tuple[str, str]] = [
    ("io.edges", "io.edges"),
    ("prepare.heuristic_size", "prepare.heuristic_size"),
    ("prepare.removed_vertices", "prepare.removed_vertices"),
    ("prepare.removed_edges", "prepare.removed_edges"),
    ("dynamic.fallbacks", "dynamic.fallbacks"),
]

#: counts where more means better (more reduction, pruning or reuse)
_MORE_IS_BETTER = {
    "prepare.heuristic_size", "prepare.removed_vertices", "prepare.removed_edges",
    "decompose.subproblems_pruned", "engine.recolor_repair", "search.nodes_per_s",
    "decompose.pruned_ratio", "dynamic.incremental_ratio", "service.cache_hit_ratio",
    "service.coalesced", "store.prepared_hit_ratio",
}

#: every per-layer metric as (name, unit, better)
METRICS: List[Tuple[str, str, str]] = [
    (name, unit, "higher" if name in _MORE_IS_BETTER else "lower")
    for name, unit in (
        [(name, "s") for name, _span in SPAN_TIMES]
        + [(name, "count") for name, _key in STAT_COUNTS + HOOK_COUNTS]
        + [
            ("search.s", "s"),
            ("search.nodes_per_s", "1/s"),
            ("engine.calls", "count"),
            ("decompose.pruned_ratio", "ratio"),
            ("persist.replay_s", "s"),
            ("dynamic.resolved_frac", "ratio"),
            ("dynamic.incremental_ratio", "ratio"),
            ("service.rtt_ms", "ms"),
            ("service.rtt_solve_ms", "ms"),
            ("service.rtt_add_ms", "ms"),
            ("service.rtt_mutate_ms", "ms"),
            ("service.queue_ms", "ms"),
            ("service.prepare_ms", "ms"),
            ("service.solve_ms", "ms"),
            ("service.cache_hit_ratio", "ratio"),
            ("service.coalesced", "count"),
            ("service.shed", "count"),
            ("store.prepared_hit_ratio", "ratio"),
            ("trace.spans", "count"),
            ("trace.overhead_s", "s"),
            ("trace.overhead_frac", "ratio"),
        ]
    )
]

#: cumulative counters of the service ``stats`` reply that ``compute`` reads
SERVICE_COUNTERS = ("requests", "cache_hits", "coalesced", "shed", "prepares",
                    "prepared_hits", "mutations", "incremental_hits")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    span_list: List[spans.Span],
    search_stats: Iterable[Mapping[str, object]],
    units: int,
    untraced_total_s: float,
    traced_total_s: float,
    service: Optional[Mapping[str, object]] = None,
    rtt_ms: Optional[Mapping[str, List[float]]] = None,
    replay_s: float = 0.0,
) -> Dict[str, float]:
    """All per-layer metrics of one traced run (see the module docstring).

    ``span_list``, ``search_stats``, ``units`` and ``service`` cover the
    same work.  ``search_stats`` are the ``SearchStats`` dicts of the
    answers that ran a search (cache hits excluded); ``service`` holds the
    service counters named in ``SERVICE_COUNTERS`` and ``rtt_ms`` the client
    round trips per op, when the workload goes through the service.
    """
    units = max(1, units)
    selfs = spans.self_times(span_list)
    counters = spans.counters(span_list)
    out: Dict[str, float] = {}
    for name, span in SPAN_TIMES:
        out[name] = selfs.get(span, (0.0, 0))[0] / units

    totals: Dict[str, float] = {key: 0.0 for _m, key in STAT_COUNTS}
    solve_ms = queue_ms = prepare_ms = 0.0
    searched = 0
    for st in search_stats:
        searched += 1
        for _metric, key in STAT_COUNTS:
            totals[key] += float(st.get(key, 0) or 0)
        solve_ms += float(st.get("solve_ms", 0.0))
        queue_ms += float(st.get("queue_ms", 0.0))
        prepare_ms += float(st.get("prepare_ms", 0.0))
    for metric, key in STAT_COUNTS:
        out[metric] = totals[key] / units
    for metric, key in HOOK_COUNTS:
        out[metric] = counters.get(key, 0.0) / units

    anchors = totals["subproblems"] + totals["subproblems_pruned"]
    out["search.s"] = solve_ms / 1000.0 / units
    out["search.nodes_per_s"] = _ratio(totals["nodes"], solve_ms / 1000.0)
    out["engine.calls"] = selfs.get("engine.run", (0.0, 0))[1] / units
    out["decompose.pruned_ratio"] = _ratio(totals["subproblems_pruned"], anchors)
    out["persist.replay_s"] = replay_s
    out["dynamic.resolved_frac"] = _ratio(
        counters.get("dynamic.anchors_resolved", 0.0), counters.get("dynamic.anchors_total", 0.0)
    )
    service = service or {}
    rtt_ms = rtt_ms or {}
    out["dynamic.incremental_ratio"] = _ratio(
        float(service.get("incremental_hits", 0)), float(service.get("mutations", 0))
    )
    every_rtt = [v for values in rtt_ms.values() for v in values]
    out["service.rtt_ms"] = _ratio(sum(every_rtt), len(every_rtt))
    for op in ("solve", "add", "mutate"):
        values = rtt_ms.get(op, [])
        out[f"service.rtt_{op}_ms"] = _ratio(sum(values), len(values))
    in_service = bool(service)
    out["service.queue_ms"] = _ratio(queue_ms, searched) if in_service else 0.0
    out["service.prepare_ms"] = _ratio(prepare_ms, searched) if in_service else 0.0
    out["service.solve_ms"] = _ratio(solve_ms, searched) if in_service else 0.0
    out["service.cache_hit_ratio"] = _ratio(
        float(service.get("cache_hits", 0)), float(service.get("requests", 0))
    )
    out["service.coalesced"] = float(service.get("coalesced", 0)) / units
    out["service.shed"] = float(service.get("shed", 0)) / units
    out["store.prepared_hit_ratio"] = _ratio(
        float(service.get("prepared_hits", 0)),
        float(service.get("prepared_hits", 0)) + float(service.get("prepares", 0)),
    )
    out["trace.spans"] = len(span_list) / units
    out["trace.overhead_s"] = traced_total_s - untraced_total_s
    out["trace.overhead_frac"] = _ratio(traced_total_s, untraced_total_s) - 1.0
    return out
