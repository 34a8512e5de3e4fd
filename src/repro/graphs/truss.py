"""k-truss extraction (Definition 2.5 of the paper).

The k-truss of a graph is the maximal subgraph in which every edge
participates in at least ``k - 2`` triangles.  It is an *edge-induced*
subgraph and is contained in the (k-1)-core.  The standard peeling algorithm
removes edges of insufficient *support* (number of triangles through the
edge) until a fixed point, in O(δ(G) · m) time.

The k-truss underlies reduction rule **RR6** of the paper: with a current best
solution of size ``lb``, every edge of a k-defective clique larger than ``lb``
must have at least ``lb - k - 1`` common neighbours inside it, so reducing the
input graph to its ``(lb - k + 1)``-truss is safe.

There is one peel, :func:`truss_reduce_in_place`.  It works on the graph's
own neighbour sets: each edge's support is computed once as
``len(N(u) & N(v))`` and kept in per-vertex dicts, an edge is queued once,
when its support first drops below ``k - 2``, and it is removed from the
graph as soon as it is popped.  No edge keys are built, so vertex labels
only need to be hashable.  :func:`k_truss_edges` peels a copy;
:func:`edge_support` keeps its frozenset-keyed result for callers that
want every support at once.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .graph import Graph, Vertex

__all__ = ["edge_support", "k_truss", "k_truss_edges", "truss_reduce_in_place"]

#: Support-computation / peeling steps between budget polls.
_BUDGET_STRIDE = 4096

_EdgeKey = FrozenSet[Vertex]


def _key(u: Vertex, v: Vertex) -> _EdgeKey:
    return frozenset((u, v))


def edge_support(graph: Graph) -> Dict[_EdgeKey, int]:
    """Return the support (triangle count) of every edge.

    The support of edge ``(u, v)`` is ``|N(u) ∩ N(v)|``.
    """
    support: Dict[_EdgeKey, int] = {}
    for u, v in graph.iter_edges():
        support[_key(u, v)] = len(graph.common_neighbors(u, v))
    return support


def k_truss_edges(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> Set[Tuple[Vertex, Vertex]]:
    """Return the edges of the k-truss of ``graph``.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    k:
        Truss parameter; every surviving edge lies in at least ``k - 2``
        triangles of the surviving subgraph.  ``k <= 2`` keeps all edges.
    budget_check:
        Optional callable polled every few thousand steps of the support
        computation and the peeling loop — the two O(δ(G) · m) phases that
        dominate on large graphs; any exception it raises propagates.

    Returns
    -------
    set of (u, v) tuples
        The surviving edges, in the orientation reported by
        :meth:`Graph.iter_edges` on the input graph.
    """
    if k <= 2:
        return set(graph.iter_edges())
    truss = graph.copy()
    truss_reduce_in_place(truss, k, budget_check=budget_check)
    return {(u, v) for u, v in graph.iter_edges() if truss.has_edge(u, v)}


def k_truss(graph: Graph, k: int) -> Graph:
    """Return the k-truss of ``graph`` as a new graph.

    Vertices left isolated by the edge removals are dropped, matching the
    convention that the k-truss is an edge-induced subgraph.
    """
    edges = k_truss_edges(graph, k)
    g = Graph(edges=edges)
    return g


def truss_reduce_in_place(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> int:
    """Reduce ``graph`` to its k-truss in place; return the number of removed edges.

    The peel is the one described in the module docstring.  Removing
    ``(u, v)`` costs one triangle to ``(u, w)`` and ``(v, w)`` for every
    live common neighbour ``w``.

    Vertices that lose all incident edges are removed as well (they cannot be
    part of any solution larger than the current lower bound when RR6
    applies, because RR5 is always applied alongside).  ``budget_check`` is
    polled every few thousand support computations and peel steps; any
    exception it raises propagates.  Every edge removed by then lies outside
    the k-truss, so an interrupted graph is still a valid graph that contains
    the k-truss (possibly with edges and isolated vertices left to remove).
    """
    adj = {v: graph.neighbors(v) for v in graph}
    removed = 0
    if k > 2:
        threshold = k - 2
        support: Dict[Vertex, Dict[Vertex, int]] = {v: {} for v in adj}
        queue: List[Tuple[Vertex, Vertex]] = []
        steps = 0
        for u, nu in adj.items():
            su = support[u]
            for v in nu:
                if v in su:
                    continue  # counted from v's side
                if budget_check is not None:
                    steps += 1
                    if steps % _BUDGET_STRIDE == 0:
                        budget_check()
                s = len(nu & adj[v])
                su[v] = s
                support[v][u] = s
                if s < threshold:
                    queue.append((u, v))

        steps = 0
        drop = threshold - 1
        while queue:
            if budget_check is not None:
                steps += 1
                if steps % _BUDGET_STRIDE == 0:
                    budget_check()
            u, v = queue.pop()
            graph.remove_edge(u, v)
            removed += 1
            su, sv = support[u], support[v]
            for w in adj[u] & adj[v]:
                sw = support[w]
                s = su[w] - 1
                su[w] = sw[u] = s
                if s == drop:
                    queue.append((u, w))
                s = sv[w] - 1
                sv[w] = sw[v] = s
                if s == drop:
                    queue.append((v, w))

    graph.remove_vertices([v for v, nbrs in adj.items() if not nbrs])
    return removed
