"""Degeneracy decomposition driver for the bitset backend.

Instead of branching on the whole (reduced) input graph, large sparse graphs
are split into one small *ego subproblem* per vertex, following the way the
paper's implementation scales to million-edge SNAP/DIMACS10 inputs:

1. fix a total order ``v_1, ..., v_n`` of the vertices.  The solver uses a
   degeneracy ordering (:func:`repro.graphs.degeneracy.degeneracy_ordering`),
   which bounds ``|N⁺(v)|`` by the degeneracy, but every argument below holds
   for *any* total order — the incremental solver keeps its parent epoch's
   order across edge deltas;
2. for each vertex ``v``, solve for the best solution that contains ``v`` as
   its *lowest-ranked* vertex.  Such a solution lives inside ``{v} ∪ N⁺(v) ∪
   N(N⁺(v))`` restricted to higher-ranked vertices;
3. thread one shared incumbent through every subproblem: an anchor only has
   to look for a solution of size ``t = lb + 1`` that beats the current
   global lower bound ``lb``, so the filters below reject most anchors before
   any bitset row is packed, and the engine starts the rest from ``lb``.

Let ``S`` be a k-defective clique of size ``t >= k + 2`` whose lowest-ranked
vertex is ``v`` (any larger solution anchored at ``v`` contains one, since
dropping vertices keeps a k-defective clique), and ``L`` the local graph the
builder keeps.  Each filter is a necessary condition for such an ``S``, so
none of them changes an answer:

* **Size cap.**  Each non-neighbour of ``v`` in ``S`` costs a missing edge,
  so ``t <= 1 + |N⁺(v)| + k``.
* **Two-hop threshold.**  A non-neighbour ``u ∈ S`` of ``v`` has at least
  ``t - 1 - k`` common neighbours with ``v`` in ``S``, all of them in
  ``N⁺(v)``: the pair ``uv`` is one missing edge and every other vertex of
  ``S`` not adjacent to both costs another, so at most ``k - 1`` of the
  ``t - 2`` others are not common neighbours.  As ``t - 1 - k >= 1`` this
  contains the diameter-2 property of k-defective cliques [Chen et al. 2021].
* **Cycle rank.**  ``L`` is connected (every local vertex reaches ``v`` in
  two hops) and so is ``G[S]`` (diameter 2), which has at least
  ``C(t, 2) - k`` edges.  The cycle rank ``|E| - |V| + 1`` of a connected
  subgraph never exceeds that of the connected graph around it, so
  ``|E_L| - |V_L| >= C(t, 2) - k - t``.
* **Degree deficit.**  A vertex ``u ∈ S`` misses at least
  ``max(0, t - 1 - deg_L(u))`` edges inside ``S``, and the missing edges of
  ``S`` counted at both ends sum to at most ``2k``.  So the deficit of ``v``
  plus the ``t - 1`` smallest deficits of the other local vertices is at
  most ``2k``.

The driver therefore only searches for solutions of size ``>= lb + 1`` where
``lb >= k + 1`` (so ``lb + 1 >= k + 2``).  Callers must fall back to the
whole-graph solve when the incumbent is smaller than ``k + 1`` —
``repro.core.solver`` does exactly that.

The filters and the build work in rank space (:class:`EgoView`): vertex ids
are positions in the order, so ``N⁺(v)`` and each two-hop list are slices of
sorted neighbour tuples and local degrees come from set intersections that
walk only the smaller side for hubs: the per-anchor work runs in C set and
slice operations, not in Python loops over the neighbour lists of hubs.

The subproblems are independent once the incumbent bound is shared, which is
what makes them embarrassingly parallel: :mod:`repro.core.parallel` reuses
:func:`solve_anchor` to run the same decomposition across a
``multiprocessing`` worker pool.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from itertools import chain
from typing import (
    TYPE_CHECKING, Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .checkpoint import SolveCheckpoint

from .config import SolverConfig
from .fastpath import BitsetEngine
from .result import SearchStats

__all__ = ["EgoView", "build_ego_subproblem", "solve_anchor", "solve_decomposed"]


#: Rows longer than this also get a frozenset in :attr:`EgoView.sets`.
#: ``set.intersection`` walks a tuple argument whole but only the smaller of
#: two sets, so hubs need a set to cost O(local width) per ego net; short
#: rows skip it, as a small frozenset takes ~0.7 KB.
_SET_MIN_DEGREE = 32


class EgoView:
    """Rank-space adjacency of an instance graph under a total vertex order.

    Vertex ``ordering[r]`` has id ``r``; ``rows[r]`` is the sorted tuple of
    its neighbours' ids, and ``sets[r]`` the same ids as a frozenset for
    rows longer than ``_SET_MIN_DEGREE`` (the row itself otherwise), ready
    for ``set.intersection``.  Built once per solve (a
    :class:`~repro.core.prepared.PreparedInstance` caches it) and read-only
    afterwards.
    """

    __slots__ = ("ordering", "position", "rows", "sets")

    def __init__(
        self,
        ordering: Sequence[int],
        rows: Sequence[Tuple[int, ...]],
        position: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.ordering: Tuple[int, ...] = tuple(ordering)
        #: vertex -> rank; a caller that already holds it passes it in, so
        #: large views share it (and its int objects) instead of a copy
        self.position: Mapping[int, int] = (
            position if position is not None else _positions(self.ordering)
        )
        self.rows: Sequence[Tuple[int, ...]] = rows
        self.sets: Tuple[Collection[int], ...] = tuple(
            frozenset(row) if len(row) > _SET_MIN_DEGREE else row for row in rows
        )

    @classmethod
    def of(
        cls,
        neighbors: Callable[[int], Sequence[int]],
        ordering: Sequence[int],
        position: Optional[Mapping[int, int]] = None,
    ) -> "EgoView":
        """View of the graph behind ``neighbors`` under ``ordering``.

        ``position`` must be the inverse of ``ordering`` when given.
        """
        if position is None:
            position = _positions(ordering)
        rank = position.__getitem__
        rows = tuple(tuple(sorted(map(rank, neighbors(v)))) for v in ordering)
        return cls(ordering, rows, position)

    def neighbors(self, v: int) -> List[int]:
        """Neighbours of instance vertex ``v``, as instance vertex ids."""
        ordering = self.ordering
        return [ordering[u] for u in self.rows[self.position[v]]]


def _positions(ordering: Sequence[int]) -> Dict[int, int]:
    return {v: r for r, v in enumerate(ordering)}


def solve_anchor(
    view: EgoView,
    v: int,
    k: int,
    config: SolverConfig,
    stats: SearchStats,
    check_budget: Callable[[], None],
    incumbent: List[int],
) -> None:
    """Build and exactly solve the ego subproblem anchored at ``v``.

    The shared per-anchor body of the sequential driver and the parallel
    driver's workers and lost-worker recovery loop: an anchor rejected by
    :func:`build_ego_subproblem` counts in ``stats.subproblems_pruned``,
    any other runs one engine search (counted in ``stats.subproblems``),
    growing ``incumbent`` in place.
    """
    sub = build_ego_subproblem(view, v, len(incumbent), k, stats)
    if sub is None:
        stats.subproblems_pruned += 1
        return
    stats.subproblems += 1
    local_vertices, adj_bits = sub
    engine = BitsetEngine(config, stats, check_budget, incumbent, to_global=local_vertices)
    engine.run(adj_bits, (1 << len(local_vertices)) - 1, k, forced=0)


def build_ego_subproblem(
    view: EgoView,
    v: int,
    lower_bound: int,
    k: int,
    stats: Optional[SearchStats] = None,
) -> Optional[Tuple[List[int], List[int]]]:
    """Build the ego subproblem anchored at ``v``, or ``None`` if it cannot win.

    A pure function of the graph and order behind ``view``, ``v``,
    ``lower_bound`` and ``k``: nothing is carried from one anchor to the
    next, so anchors may be built in any order or skipped.

    Parameters
    ----------
    view:
        Rank-space view of the instance graph under any total order.
    v:
        Anchor (instance vertex id); the subproblem searches solutions
        containing ``v`` as their lowest-ranked vertex.
    lower_bound:
        Current incumbent size (``>= k + 1``, see module docstring); only
        solutions of size ``>= lower_bound + 1`` are searched for.
    k:
        Defectiveness parameter.
    stats:
        When given, a rejection by the cycle-rank or the degree-deficit
        filter is counted in ``subproblems_pruned_cycle_rank`` or
        ``subproblems_pruned_deficit``.

    Returns
    -------
    ``(local_vertices, adj_bits)`` where ``local_vertices[0] == v`` maps
    local ids back to instance ids and ``adj_bits`` is the packed local
    adjacency — or ``None`` when a filter of the module docstring proves no
    solution anchored at ``v`` can beat ``lower_bound``.
    """
    r = view.position[v]
    rows = view.rows
    row = rows[r]
    plus = row[bisect_right(row, r):]
    if 1 + len(plus) + k <= lower_bound:  # size cap
        return None

    target = lower_bound + 1
    # Two-hop threshold; counts[u] = |N(u) ∩ N⁺(v)| for higher-ranked u.
    counts = Counter(chain.from_iterable(
        [rows[w][bisect_right(rows[w], r):] for w in plus]
    ))
    threshold = target - 1 - k
    two_hop = [u for u in counts.keys() - set(plus) if counts[u] >= threshold]
    local = [r, *plus, *two_hop]
    width = len(local)
    if width < target:  # too few candidates left after the threshold
        return None

    local_set = set(local)
    sets = view.sets
    local_nbrs = [local_set.intersection(sets[u]) for u in local]
    degrees = list(map(len, local_nbrs))
    # Cycle rank, then degree deficit (module docstring).
    if sum(degrees) // 2 - width < target * (target - 1) // 2 - k - target:
        if stats is not None:
            stats.subproblems_pruned_cycle_rank += 1
        return None
    need = target - 1
    deficits = [need - d if d < need else 0 for d in degrees]
    if deficits[0] + sum(sorted(deficits[1:])[:need]) > 2 * k:
        if stats is not None:
            stats.subproblems_pruned_deficit += 1
        return None

    index = {u: i for i, u in enumerate(local)}
    adj_bits = []
    for nbrs in local_nbrs:
        bits = 0
        for w in nbrs:
            bits |= 1 << index[w]
        adj_bits.append(bits)
    ordering = view.ordering
    return [ordering[u] for u in local], adj_bits


def solve_decomposed(
    view: EgoView,
    k: int,
    config: SolverConfig,
    stats: SearchStats,
    check_budget: Callable[[], None],
    incumbent: List[int],
    checkpoint: Optional["SolveCheckpoint"] = None,
) -> None:
    """Solve an instance by per-vertex ego subproblems, improving ``incumbent`` in place.

    Parameters
    ----------
    view:
        :class:`EgoView` of the (preprocessed) instance graph under any
        total order (a :class:`~repro.core.prepared.PreparedInstance`
        caches one under its degeneracy order).  Anchors run in reverse
        order.
    k:
        Defectiveness parameter.
    config:
        Feature flags forwarded to the bitset engine.
    stats:
        Counters updated in place.
    check_budget:
        Raises :class:`~repro.exceptions.BudgetExceededError` to interrupt;
        called at least once per subproblem (and once per search node by the
        engine).
    incumbent:
        Best solution known so far, as a list of instance vertex ids with
        ``len(incumbent) >= k + 1`` (see module docstring).  Grown in place.
    checkpoint:
        Optional :class:`~repro.core.checkpoint.SolveCheckpoint`.  Anchors
        it journaled as completed by an earlier interrupted run of this
        same solve are skipped (counted in ``stats.subproblems_restored``)
        after restoring its re-verified incumbent, and every anchor
        completed here is journaled in turn.  Because each anchor is
        recorded only after its search returns and the loop is
        deterministic from a given incumbent, an interrupted-then-resumed
        sequential solve ends bit-identical to an uninterrupted one.
    """
    if len(incumbent) < k + 1:
        raise ValueError(
            "solve_decomposed requires an incumbent of size >= k + 1; "
            "fall back to the whole-graph bitset solve instead"
        )
    stats.workers = 1
    completed: Sequence[int] = ()
    if checkpoint is not None:
        restored = checkpoint.verified_incumbent(view.neighbors, k)
        if len(restored) > len(incumbent):
            incumbent[:] = restored
        completed = frozenset(checkpoint.completed)

    # Process anchors in reverse peeling order: the densest part of the graph
    # (where the maximum solution almost always lives) is searched first, so
    # the incumbent tightens early and the filters in build_ego_subproblem
    # reject most of the remaining, sparser ego nets without packing them.
    for v in reversed(view.ordering):
        if v in completed:
            stats.subproblems_restored += 1
            continue
        check_budget()
        solve_anchor(view, v, k, config, stats, check_budget, incumbent)
        if checkpoint is not None:
            checkpoint.record(v, incumbent)
