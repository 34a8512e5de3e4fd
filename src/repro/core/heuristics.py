"""Initial-solution heuristics ``Degen`` and ``Degen-opt`` (Section 3.3, Algorithms 3 and 4).

Both heuristics build a large k-defective clique quickly so the exact search
can start with a strong lower bound, which powers the RR3–RR6 reductions and
the preprocessing of the input graph.

* ``Degen`` (Algorithm 3) computes a degeneracy ordering and returns its
  longest suffix that forms a k-defective clique; O(n + m) time.
* ``Degen-opt`` (Algorithm 4) additionally runs ``Degen`` inside the subgraph
  induced by every vertex's higher-ranked neighbours and keeps the best of
  the ``n + 1`` solutions; O(δ(G) · m) time.

Both work on plain ``{vertex: neighbour set}`` mappings: the graph's own
sets for the whole graph, ``{v: N(v) ∩ N⁺(u)}`` for the subgraph of anchor
``u``.  One bucket peel (:func:`~repro.graphs.degeneracy.bucket_peel`, the
same one :func:`~repro.graphs.degeneracy.degeneracy_ordering` runs) orders
each mapping, and one suffix scan counts a vertex's adjacency to the suffix
as ``len(N(v) & chosen)``.  ``Degen-opt`` peels the whole graph once and
builds no :class:`~repro.graphs.graph.Graph` per anchor.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, List, Mapping, Optional, Set

from ..exceptions import BudgetExceededError
from ..graphs.degeneracy import bucket_peel
from ..graphs.graph import Graph, Vertex
from .defective import validate_k

__all__ = ["degen", "degen_opt", "initial_solution"]


#: How many suffix-scan iterations :func:`degen` runs between budget polls.
_DEGEN_BUDGET_STRIDE = 2048


def _longest_suffix(
    adj: Mapping[Vertex, AbstractSet[Vertex]],
    ordering: List[Vertex],
    k: int,
    budget_check: Optional[Callable[[], None]],
) -> List[Vertex]:
    """The longest suffix of ``ordering`` that is a k-defective clique of ``adj``.

    Scanned from the end, one vertex at a time; see :func:`degen`.
    """
    chosen: List[Vertex] = []
    chosen_set: Set[Vertex] = set()
    missing = 0
    for i, v in enumerate(reversed(ordering)):
        if budget_check is not None and i % _DEGEN_BUDGET_STRIDE == 0 and i:
            try:
                budget_check()
            except BudgetExceededError:
                break
        missing += len(chosen) - len(adj[v] & chosen_set)
        if missing > k:
            break
        chosen.append(v)
        chosen_set.add(v)
    return chosen


def degen(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Algorithm 3: the longest k-defective-clique suffix of a degeneracy ordering.

    Because missing edges only accumulate as the suffix grows, the longest
    valid suffix is found by scanning the ordering from the end and stopping
    at the first vertex whose inclusion would exceed ``k`` missing edges.

    Returns the vertices of the heuristic solution (possibly empty for an
    empty graph).  ``budget_check`` is polled every
    :data:`_DEGEN_BUDGET_STRIDE` scan steps; when it raises
    :class:`~repro.exceptions.BudgetExceededError` the suffix built so far is
    returned (callers re-check the budget themselves afterwards).
    """
    validate_k(k)
    adj = {v: graph.neighbors(v) for v in graph}
    return _longest_suffix(adj, bucket_peel(adj)[0], k, budget_check)


def degen_opt(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Algorithm 4: ``Degen`` on the whole graph plus on every higher-neighbourhood subgraph.

    For each vertex ``u``, ``Degen`` runs inside the subgraph induced by its
    higher-ranked neighbours ``N⁺(u)`` (w.r.t. the degeneracy ordering);
    since every vertex of ``N⁺(u)`` is adjacent to ``u``, appending ``u`` to
    the sub-solution keeps it a k-defective clique.  The largest of the
    ``n + 1`` solutions is returned.

    The whole graph is peeled once, and its order serves both the
    whole-graph ``Degen`` and the ``N⁺(u)`` sets.  Each subgraph is the plain
    mapping ``{v: N(v) ∩ N⁺(u)}``, peeled and scanned by the same helpers
    as :func:`degen`; no :class:`Graph` is built per anchor.

    ``budget_check`` (typically the solve run's budget check) is polled once
    per vertex; when it raises
    :class:`~repro.exceptions.BudgetExceededError` the best solution found
    *so far* is returned — callers that need to know the budget fired should
    re-check it themselves afterwards.
    """
    validate_k(k)
    adj = {v: graph.neighbors(v) for v in graph}
    ordering = bucket_peel(adj)[0]
    best = _longest_suffix(adj, ordering, k, budget_check)
    position = {v: i for i, v in enumerate(ordering)}
    for pos_u, u in enumerate(ordering):
        if budget_check is not None:
            try:
                budget_check()
            except BudgetExceededError:
                return best
        nbrs = adj[u]
        if len(nbrs) < len(best):
            continue  # N⁺(u) ⊆ N(u) is too small already
        higher = [v for v in nbrs if position[v] > pos_u]
        if len(higher) + 1 <= len(best):
            continue  # even a perfect sub-solution cannot beat the incumbent
        keep = set(higher)
        sub = {v: adj[v] & keep for v in keep}
        # Forward the budget poll: a hub's ego subgraph can hold millions of
        # edges, and the scan's partial-return semantics make interruption safe.
        candidate = _longest_suffix(sub, bucket_peel(sub)[0], k, budget_check)
        if len(candidate) + 1 > len(best):
            best = candidate + [u]
    return best


def initial_solution(
    graph: Graph,
    k: int,
    method: str = "degen-opt",
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Dispatch helper used by the solver's Line 1 of Algorithm 2.

    Parameters
    ----------
    method:
        ``"degen-opt"`` (default), ``"degen"``, or ``"none"`` (returns an
        empty solution, used by the kDC-t theoretical variant).
    budget_check:
        Optional budget poll forwarded to :func:`degen_opt` (see there for
        the partial-result semantics on interruption).
    """
    if method == "none":
        return []
    if method == "degen":
        return degen(graph, k, budget_check=budget_check)
    if method == "degen-opt":
        return degen_opt(graph, k, budget_check=budget_check)
    raise ValueError(f"unknown initial-solution method {method!r}")
