"""Degeneracy ordering and core numbers (Definition 2.3 of the paper).

The peeling algorithm repeatedly removes a vertex of minimum degree from the
remaining graph and appends it to the ordering.  Using bucket queues this runs
in O(n + m) time.  The largest minimum degree seen at removal time is the
degeneracy :math:`\\delta(G)`, and the per-vertex value is its *core number*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Tuple

from .graph import Graph, Vertex

__all__ = [
    "DegeneracyResult",
    "bucket_peel",
    "degeneracy_ordering",
    "core_numbers",
    "degeneracy",
]


@dataclass(frozen=True)
class DegeneracyResult:
    """Output of the peeling algorithm.

    Attributes
    ----------
    ordering:
        The degeneracy ordering ``(v_1, ..., v_n)``: each ``v_i`` has minimum
        degree in the subgraph induced by ``{v_i, ..., v_n}``.
    core_number:
        Mapping from vertex to its core number (the largest ``k`` such that
        the vertex belongs to the k-core).
    degeneracy:
        The degeneracy :math:`\\delta(G)`, i.e. the maximum core number
        (0 for an empty or edgeless graph).
    position:
        Mapping from vertex to its index in ``ordering``.
    """

    ordering: List[Vertex]
    core_number: Dict[Vertex, int]
    degeneracy: int
    position: Dict[Vertex, int] = field(default_factory=dict)

    def rank(self, vertex: Vertex) -> int:
        """Return the position of ``vertex`` in the degeneracy ordering."""
        return self.position[vertex]

    def higher_ranked_neighbors(self, graph: Graph, vertex: Vertex) -> List[Vertex]:
        """Return the neighbours of ``vertex`` that appear later in the ordering.

        This is the set :math:`N^+(u)` used by ``Degen-opt`` (Algorithm 4).
        """
        pos = self.position[vertex]
        return [u for u in graph.neighbors(vertex) if self.position[u] > pos]


def bucket_peel(
    adjacency: Mapping[Vertex, Collection[Vertex]],
) -> Tuple[List[Vertex], List[int]]:
    """Peel minimum-degree vertices off ``adjacency`` with a bucket queue.

    ``adjacency`` maps every vertex to its neighbours, all of which must be
    keys themselves (a symmetric adjacency); it is not modified.  Returns
    the peeling order and, position by position, each vertex's degree at
    the moment it was peeled.  Runs in O(n + m) time.

    Ties are broken deterministically: the buckets are filled in mapping
    iteration order and popped last-in first-out, and a vertex whose degree
    drops is pushed again in neighbour iteration order.  Bucket entries go
    stale when a degree drops and are skipped when popped; a peeled vertex's
    degree is set to ``-1`` so none of its entries matches again.
    """
    degree: Dict[Vertex, int] = {v: len(nbrs) for v, nbrs in adjacency.items()}
    if not degree:
        return [], []
    buckets: List[List[Vertex]] = [[] for _ in range(max(degree.values()) + 1)]
    for v, dv in degree.items():
        buckets[dv].append(v)

    ordering: List[Vertex] = []
    levels: List[int] = []
    n = len(degree)
    d = 0
    while len(ordering) < n:
        while not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if degree[v] != d:
            continue  # stale bucket entry
        degree[v] = -1
        ordering.append(v)
        levels.append(d)
        for u in adjacency[v]:
            du = degree[u]
            if du > 0:  # a live neighbour still counts its edge to v
                du -= 1
                degree[u] = du
                buckets[du].append(u)
                if du < d:
                    d = du
    return ordering, levels


def degeneracy_ordering(graph: Graph) -> DegeneracyResult:
    """Compute a degeneracy ordering with the bucket-based peeling algorithm.

    Runs :func:`bucket_peel` on the graph's neighbour sets in O(n + m) time.
    Ties are broken by bucket insertion order, which makes the result
    deterministic for a fixed graph construction order.

    Parameters
    ----------
    graph:
        The input graph; it is not modified.

    Returns
    -------
    DegeneracyResult
        The ordering, per-vertex core numbers, and the degeneracy.
    """
    ordering, levels = bucket_peel({v: graph.neighbors(v) for v in graph})
    core_number: Dict[Vertex, int] = {}
    degeneracy_value = 0
    for v, d in zip(ordering, levels):
        if d > degeneracy_value:
            degeneracy_value = d
        core_number[v] = degeneracy_value
    return DegeneracyResult(
        ordering=ordering,
        core_number=core_number,
        degeneracy=degeneracy_value,
        position={v: i for i, v in enumerate(ordering)},
    )


def core_numbers(graph: Graph) -> Dict[Vertex, int]:
    """Return the core number of every vertex."""
    return degeneracy_ordering(graph).core_number


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy :math:`\\delta(G)` of the graph."""
    return degeneracy_ordering(graph).degeneracy
