"""``dense-search`` and ``sparse-scale``: cells solved from file in one child.

A run spawns the solve child five times and reports the median start-up
handshake as set-up.  It then solves rounds of every (graph, k) cell until
``--seconds`` have passed; round ``r`` relabels each fixed structure with
its own permutation drawn from ``(seed, r)``, so the per-cell median runs
over several labellings as well as several timings.  A traced run solves
every cell twice, in the untraced child and in a traced child.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import check
import gen
import layers
import procs
import spans
import stats

SETUP_SPAWNS = 5


class _Round:
    """The relabelled input files of one round."""

    def __init__(self, structures, seed: int, r: int, work: str, pinned: Optional[Dict]) -> None:
        self.paths: Dict[str, str] = {}
        self.inverse: Dict[str, Dict[int, int]] = {}
        for name, n, edges in structures:
            relabelled, _perm, self.inverse[name] = gen.relabelled(n, edges, seed, name, r)
            data = gen.edge_list_bytes(relabelled)
            if pinned is not None and gen.digest(data) != pinned[name]:
                raise RuntimeError(
                    f"input {name} of the default seed changed (digest {gen.digest(data)}); "
                    "the benchmark's generators no longer reproduce the pinned workload"
                )
            path = os.path.join(work, f"{name}-r{r}.txt")
            with open(path, "wb") as handle:
                handle.write(data)
            self.paths[name] = path

    def remove(self) -> None:
        for path in self.paths.values():
            os.remove(path)


def run(workload: str, seed: int, seconds: float, traced: bool, work: str, golden: Dict) -> Dict:
    if workload == "dense-search":
        structures, ks = gen.dense_structures(), gen.DENSE_KS
    else:
        structures, ks = gen.sparse_structures(), gen.SPARSE_KS
    table = golden["workloads"][workload]
    if gen.structure_digest(structures) != table["structure_digest"]:
        raise RuntimeError(f"the fixed structures of {workload} changed; see pin_golden.py")
    adjacency = {name: gen.adjacency(n, edges) for name, n, edges in structures}
    names = [name for name, _n, _e in structures]

    started: List[procs.SolveChild] = []
    try:
        setups = []
        for _ in range(SETUP_SPAWNS):
            child = procs.SolveChild()
            started.append(child)
            setups.append(child.setup_s)
        worker = started.pop()
        procs.stop_all(started)
        started = [worker]
        tracer = None
        trace_path = os.path.join(work, "spans-child.json")
        if traced:
            tracer = procs.SolveChild(trace_path)
            started.append(tracer)

        replies: List[Tuple[str, int, int, Dict]] = []   # (name, k, round, reply)
        traced_replies: List[Tuple[str, int, int, Dict]] = []
        # Each traced solve sits next to its untraced twin, in alternating
        # order, so drift in machine speed hits both alike.
        pairs = [(worker, replies)]
        if tracer is not None:
            pairs.append((tracer, traced_replies))
        rounds = 0
        begin = time.perf_counter()
        last = 0.0
        # Whole rounds only: another round starts if it should end in time.
        while rounds == 0 or time.perf_counter() - begin + last <= seconds:
            round_start = time.perf_counter()
            pinned = table["digests"] if seed == gen.DEFAULT_SEED and rounds == 0 else None
            files = _Round(structures, seed, rounds, work, pinned)
            cells = gen.cells(names, ks, seed, rounds)
            for i, (name, k) in enumerate(cells):
                for child, out in (pairs if i % 2 == 0 else pairs[::-1]):
                    out.append((name, k, rounds, _translated(child.solve(files.paths[name], k),
                                                             files.inverse[name])))
            files.remove()
            rounds += 1
            last = time.perf_counter() - round_start
        window = time.perf_counter() - begin
        peak_rss = worker.finish()
        if tracer is not None:
            tracer.finish()
    finally:
        procs.stop_all(started)

    tally, per_cell = _verify(replies, adjacency, table["sizes"])
    result = {
        "tally": tally,
        "rounds": rounds,
        "window_s": window,
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss,
    }
    result.update(_end_to_end(per_cell, tally))
    if traced:
        ttally, tcells = _verify(traced_replies, adjacency, table["sizes"])
        tally.samples.update({f"traced:{c}": v for c, v in ttally.samples.items()})
        tally.failures.extend(ttally.failures)
        traced_e2e = _end_to_end(tcells, ttally)
        result["layers"] = layers.compute(
            spans.load(trace_path),
            [r["stats"] for *_x, r in traced_replies if r.get("ok")],
            rounds, result["tto_total_s"], traced_e2e["tto_total_s"],
        )
    return result


def _translated(reply: Dict, inverse: Dict[int, int]) -> Dict:
    """Map the answer's labels back to structure ids (unknown labels stay unknown)."""
    if reply.get("ok"):
        reply["clique"] = [inverse.get(v, ("unknown", v)) for v in reply["clique"]]
    return reply


def _verify(replies, adjacency, sizes) -> Tuple[stats.Tally, Dict[str, List[float]]]:
    tally = stats.Tally()
    per_cell: Dict[str, List[float]] = {}
    for name, k, _round, reply in replies:
        cell = f"{name}/k={k}"
        if not reply.get("ok"):
            tally.fail(cell, reply.get("error", "error reply"))
            continue
        reason = check.check_answer(adjacency[name], k, reply, sizes[f"{name}/{k}"])
        if reason is not None:
            tally.fail(cell, reason)
            continue
        tally.ok(cell, reply["tto_cpu_s"])
        per_cell.setdefault(cell, []).append(reply["tto_cpu_s"])
    return tally, per_cell


def _end_to_end(per_cell: Dict[str, List[float]], tally: stats.Tally) -> Dict[str, float]:
    cells = tally.samples
    medians = [stats.median(values) for values in cells.values()]
    answered = sum(len(v) for v in per_cell.values())
    busy = sum(sum(v) for v in per_cell.values())
    return {
        "tto_total_s": sum(medians),
        "tto_geomean_ms": stats.geomean(medians) * 1000.0,
        "req_per_s": answered / busy if busy else 0.0,
    }
