"""Pin ``golden.json``: optimum sizes and input digests of every workload.

Run from the root of a checkout (takes several minutes)::

    PYTHONPATH=src python3 kdcbench/pin_golden.py

Every optimum is computed by two paths that share no search engine — the
default bitset solve and ``backend="set"`` — and the script stops if they
disagree.  Sizes do not depend on the seed (inputs of every seed are
relabellings of the same fixed structures); digests are those of the
default seed's first-round input files.
"""

from __future__ import annotations

import json
import os
import sys

import gen
import service_mix
from repro.core import KDCSolver, SolverConfig
from repro.graphs import Graph

BITSET = KDCSolver()
SET = KDCSolver(SolverConfig(backend="set"))
#: above this many vertices the set backend runs per ego network
SET_WHOLE_GRAPH_MAX = 5000


def _solved(solver: KDCSolver, graph: Graph, k: int) -> int:
    result = solver.solve(graph, k)
    if not result.optimal:
        sys.exit(f"no proven optimum for k={k}")
    return result.size


def set_optimum_by_ego(n: int, edges, k: int) -> int:
    """The set backend's optimum over 2-hop ego networks (large sparse graphs).

    Any k-defective clique S with |S| >= k + 2 has diameter <= 2, so with
    v the lowest vertex of S in a degree order, S lies in v plus its higher
    neighbours plus their higher neighbours.  Solving each such ego network
    finds every solution of size >= k + 2; when none exists the best ego
    answer (size <= k + 1) is a solution of the whole graph and optimal.
    """
    adj = gen.adjacency(n, edges)
    rank = {v: i for i, v in enumerate(sorted(adj, key=lambda v: (len(adj[v]), v)))}
    best = 0
    for v in sorted(adj, key=rank.get, reverse=True):
        higher = {u for u in adj[v] if rank[u] > rank[v]}
        if 1 + len(higher) + k <= best:
            continue  # at most k non-neighbours of v join a solution
        ego = {v} | higher
        for w in higher:
            ego.update(u for u in adj[w] if rank[u] > rank[v])
        sub = Graph(edges=[(a, b) for a in ego for b in adj[a] if b in ego and a < b],
                    vertices=ego)
        best = max(best, _solved(SET, sub, k))
    return best


def optimum(n: int, edges, k: int) -> int:
    """Optimum size by the bitset solve and by the set backend; they must agree."""
    graph = Graph(edges=edges, vertices=range(n))
    by_bitset = _solved(BITSET, graph, k)
    if n <= SET_WHOLE_GRAPH_MAX:
        by_set = _solved(SET, graph, k)
    else:
        by_set = set_optimum_by_ego(n, edges, k)
    if by_bitset != by_set:
        sys.exit(f"bitset ({by_bitset}) and set ({by_set}) backends disagree")
    return by_bitset


def solve_table(structures, ks):
    digests = {}
    for name, n, edges in structures:
        relabelled, _perm, _inverse = gen.relabelled(n, edges, gen.DEFAULT_SEED, name, 0)
        digests[name] = gen.digest(gen.edge_list_bytes(relabelled))
    sizes = {}
    for name, n, edges in structures:
        for k in ks:
            sizes[f"{name}/{k}"] = optimum(n, edges, k)
            print(name, k, sizes[f"{name}/{k}"], flush=True)
    return {"structure_digest": gen.structure_digest(structures), "digests": digests,
            "sizes": sizes}


def service_table():
    pool = gen.service_pool()
    n, base, deltas = gen.chain_structure()
    structures = pool + [("chain", n, base)] + [
        (f"delta{i}", len(a), a + r) for i, (a, r) in enumerate(deltas)]
    sizes = {f"{name}/{k}": optimum(size, edges, k)
             for name, size, edges in pool for k in service_mix.HOT_KS}
    chain_sizes = {}
    for k in service_mix.CHAIN_KS:
        edges = set(base)
        chain_sizes[str(k)] = [optimum(n, sorted(edges), k)]
        for adds, removes in deltas:
            edges.difference_update(removes)
            edges.update(adds)
            chain_sizes[str(k)].append(optimum(n, sorted(edges), k))
    return {"structure_digest": gen.structure_digest(structures), "sizes": sizes,
            "chain_sizes": chain_sizes}


def main() -> None:
    only = sys.argv[1:]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    tables = {
        "dense-search": lambda: solve_table(gen.dense_structures(), gen.DENSE_KS),
        "sparse-scale": lambda: solve_table(gen.sparse_structures(), gen.SPARSE_KS),
        "service-mix": service_table,
    }
    for workload, build in tables.items():
        if only and workload not in only:
            continue
        table = build()
        golden = {"default_seed": gen.DEFAULT_SEED, "structure_seed": gen.STRUCTURE_SEED,
                  "workloads": {}}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                golden = json.load(handle)
        golden["workloads"][workload] = table
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
