"""Engine-free oracle for the ego-subproblem builder.

For seeded random graphs small enough to enumerate every vertex subset, a
brute force that shares no code with :mod:`repro.core.decompose` lists all
k-defective cliques.  For every anchor ``v`` and lower bound ``lb`` the
builder must then

* return ``None`` only when no k-defective clique of size ``>= lb + 1`` has
  ``v`` as its lowest-ranked vertex, and
* otherwise return a local vertex set holding every such clique, with
  packed rows equal to the induced adjacency.

Both a degeneracy order and a random total order are checked: the filters
must hold for any total order.
"""

from __future__ import annotations

import random

import pytest

from repro.core import EgoView, SearchStats, build_ego_subproblem
from repro.graphs import gnp_random_graph
from repro.graphs.degeneracy import degeneracy_ordering

MAX_K = 4


def _cliques_by_anchor(ordering, graph):
    """``[(size, missing, mask)]`` per anchor rank, over rank-space masks.

    Bit ``i`` of a mask is vertex ``ordering[i]``, so a subset's lowest set
    bit is its lowest-ranked vertex.  Only subsets of size >= 2 missing at
    most ``MAX_K`` edges are kept.
    """
    n = len(ordering)
    rank = {v: i for i, v in enumerate(ordering)}
    adj = [sum(1 << rank[u] for u in graph.neighbors(v)) for v in ordering]
    missing = [0] * (1 << n)
    size = [0] * (1 << n)
    by_anchor = [[] for _ in range(n)]
    for s in range(1, 1 << n):
        rest = s & (s - 1)
        low = (s ^ rest).bit_length() - 1
        size[s] = size[rest] + 1
        missing[s] = missing[rest] + size[rest] - bin(adj[low] & rest).count("1")
        if size[s] >= 2 and missing[s] <= MAX_K:
            by_anchor[low].append((size[s], missing[s], s))
    return by_anchor


def _orders(graph, seed):
    order = list(graph.vertices())
    random.Random(seed).shuffle(order)
    return {"degeneracy": list(degeneracy_ordering(graph).ordering), "random": order}


@pytest.mark.parametrize("n,p,seed", [
    (9, 0.5, 0), (10, 0.35, 1), (11, 0.6, 2), (12, 0.45, 3),
    (13, 0.3, 4), (13, 0.7, 5), (14, 0.4, 6), (14, 0.55, 7),
])
def test_builder_matches_brute_force(n, p, seed):
    graph = gnp_random_graph(n, p, seed=seed)
    stats = SearchStats()
    built = rejected = 0
    for name, ordering in _orders(graph, seed).items():
        view = EgoView.of(graph.neighbors, ordering)
        by_anchor = _cliques_by_anchor(ordering, graph)
        for k in range(MAX_K + 1):
            for lb in range(k + 1, k + 5):
                for i, v in enumerate(ordering):
                    witnesses = 0
                    for size, missing, mask in by_anchor[i]:
                        if size > lb and missing <= k:
                            witnesses |= mask
                    sub = build_ego_subproblem(view, v, lb, k, stats)
                    where = f"{name} order, k={k}, lb={lb}, v={v}"
                    if sub is None:
                        rejected += 1
                        assert witnesses == 0, f"rejected a winning anchor: {where}"
                        continue
                    built += 1
                    local, rows = sub
                    assert local[0] == v and len(set(local)) == len(local), where
                    local_mask = sum(1 << ordering.index(u) for u in local)
                    assert witnesses & ~local_mask == 0, f"clique outside the ego net: {where}"
                    assert all(ordering.index(u) >= i for u in local), where
                    for a, u in enumerate(local):
                        expected = sum(
                            1 << b for b, w in enumerate(local) if graph.has_edge(u, w)
                        )
                        assert rows[a] == expected, f"row {a} differs: {where}"
    assert built and rejected


def test_every_filter_fires_across_the_oracle_graphs():
    # The oracle above is only as strong as the anchors it makes the
    # filters judge: make sure each filter rejects some of them.
    stats = SearchStats()
    for seed, (n, p) in enumerate([(12, 0.45), (13, 0.3), (14, 0.4), (14, 0.55)]):
        graph = gnp_random_graph(n, p, seed=seed)
        for ordering in _orders(graph, seed).values():
            view = EgoView.of(graph.neighbors, ordering)
            for k in range(MAX_K + 1):
                for lb in range(k + 1, k + 5):
                    for v in ordering:
                        build_ego_subproblem(view, v, lb, k, stats)
    assert stats.subproblems_pruned_cycle_rank > 0
    assert stats.subproblems_pruned_deficit > 0


def test_view_is_rank_space_adjacency():
    graph = gnp_random_graph(60, 0.1, seed=3)
    for u in range(1, 50):  # a hub, whose row also gets a frozenset
        if not graph.has_edge(0, u):
            graph.add_edge(0, u)
    ordering = list(degeneracy_ordering(graph).ordering)
    view = EgoView.of(graph.neighbors, ordering)
    assert view.ordering == tuple(ordering)
    for r, v in enumerate(ordering):
        assert view.position[v] == r
        assert list(view.rows[r]) == sorted(ordering.index(u) for u in graph.neighbors(v))
        assert frozenset(view.sets[r]) == frozenset(view.rows[r])
        assert sorted(view.neighbors(v)) == sorted(graph.neighbors(v))
    assert {type(s) for s in view.sets} == {frozenset, tuple}
