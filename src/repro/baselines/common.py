"""Shared branch-and-bound scaffolding for the baseline solvers.

The baselines (MADEC+-style and KDBB-style) are *separate algorithms* from
kDC — different bounds, different branching, no RR2/BR — but they share the
mechanics of a maximisation branch-and-bound over :class:`SearchState`
instances: the search itself is :func:`repro.core.branching.branch_and_bound`,
the driver kDC's ``set`` reference runs on.  This module provides the solve
scaffolding around it; each baseline subclass plugs in its own reduction,
bounding and branching policies.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import List, Optional

from ..core.branching import branch_and_bound
from ..core.defective import validate_k
from ..core.instance import SearchState
from ..core.result import SearchStats, SolveResult
from ..exceptions import BudgetExceededError
from ..graphs.graph import Graph

__all__ = ["BaselineBranchAndBound"]


class BaselineBranchAndBound(ABC):
    """Template for an exact maximum k-defective clique branch-and-bound solver.

    Subclasses implement the policy hooks:

    * :meth:`_initial_solution` — heuristic lower bound (may return ``[]``);
    * :meth:`_preprocess` — shrink the working graph given the lower bound;
    * :meth:`_reduce` — per-node reductions (must at least enforce validity
      of additions, i.e. RR1); returns ``True`` to discard the node;
    * :meth:`_upper_bound` — per-node upper bound;
    * :meth:`_select_branching_vertex` — choose the next branching vertex.
    """

    #: human-readable algorithm name recorded in results
    name: str = "baseline"

    def __init__(
        self,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        self.time_limit = time_limit
        self.node_limit = node_limit
        self._stats = SearchStats()
        self._best: List[int] = []
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _initial_solution(self, graph: Graph, k: int) -> List[int]:
        """Return a heuristic k-defective clique of ``graph`` (integer labels)."""

    def _preprocess(self, graph: Graph, k: int, lower_bound: int) -> None:
        """Shrink ``graph`` in place using the initial lower bound (default: no-op)."""

    @abstractmethod
    def _reduce(self, state: SearchState, lower_bound: int) -> bool:
        """Apply per-node reductions; return ``True`` to prune the node."""

    @abstractmethod
    def _upper_bound(self, state: SearchState) -> int:
        """Return an upper bound on the largest solution inside ``state``."""

    @abstractmethod
    def _select_branching_vertex(self, state: SearchState) -> Optional[int]:
        """Return the branching vertex (``None`` if no candidate remains)."""

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def solve(self, graph: Graph, k: int) -> SolveResult:
        """Compute a maximum k-defective clique of ``graph`` with this baseline."""
        validate_k(k)
        stats = SearchStats()
        self._stats = stats
        start = time.perf_counter()
        self._deadline = start + self.time_limit if self.time_limit is not None else None

        if graph.num_vertices == 0:
            stats.elapsed_seconds = time.perf_counter() - start
            return SolveResult(clique=[], size=0, k=k, optimal=True, algorithm=self.name, stats=stats)

        relabeled, _, to_label = graph.relabel()
        self._best = list(self._initial_solution(relabeled, k))
        stats.initial_solution_size = len(self._best)

        working = relabeled.copy()
        before_v, before_e = working.num_vertices, working.num_edges
        self._preprocess(working, k, len(self._best))
        stats.preprocess_removed_vertices = before_v - working.num_vertices
        stats.preprocess_removed_edges = before_e - working.num_edges

        optimal = True
        if working.num_vertices > 0:
            adj: List[set] = [set() for _ in range(relabeled.num_vertices)]
            for v in working:
                adj[v] = set(working.neighbors(v))
            state = SearchState.initial(adj, k, vertices=working.vertex_set())
            try:
                branch_and_bound(
                    state, self._best, stats, self._check_budget, self._reduce,
                    lambda state, lb: self._upper_bound(state) <= lb,
                    self._select_branching_vertex,
                )
            except BudgetExceededError:
                optimal = False

        stats.elapsed_seconds = time.perf_counter() - start
        labels = [to_label[v] for v in self._best]
        try:
            clique = sorted(labels)
        except TypeError:
            clique = labels
        return SolveResult(
            clique=clique,
            size=len(clique),
            k=k,
            optimal=optimal,
            algorithm=self.name,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _check_budget(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise BudgetExceededError("time limit exceeded")
        if self.node_limit is not None and self._stats.nodes >= self.node_limit:
            raise BudgetExceededError("node limit exceeded")
