"""Branching rule BR: non-fully-adjacent-first branching (Section 3.1.1).

Given an instance ``(g, S)``, the branching vertex is a candidate that has at
least one non-neighbour inside ``S``; only when every candidate is fully
adjacent to ``S`` may an arbitrary candidate be chosen.  Together with
reduction rules RR1 and RR2 this rule is what bounds the length of
left-branch chains by ``k + 2`` in the complexity proof (Fact 3 of
Lemma 3.4).

Within the freedom the rule leaves, this implementation prefers the candidate
with the **most** non-neighbours in ``S`` (ties broken towards smaller degree
in ``g``): removing or committing such a vertex tends to change the instance
the most, which is a common branch-and-bound heuristic and does not affect
the worst-case analysis.

:func:`branch_and_bound` is the one driver every set-state search runs on:
the kDC reference (``backend="set"``) plugs in RR1–RR6, UB1–UB3 and BR, the
KDBB / MADEC baselines their own reductions, bound and branching vertex.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, List, Optional

from .instance import SearchState
from .result import SearchStats

__all__ = ["select_branching_vertex", "branch_and_bound", "ensure_recursion_limit"]

#: Recursion depth head-room added on top of the deepest search path.
_RECURSION_MARGIN = 256

#: Serialises recursion-limit raises so concurrent solves never observe a
#: limit below what they asked for.
_RECURSION_LIMIT_LOCK = threading.Lock()


def select_branching_vertex(state: SearchState) -> Optional[int]:
    """Return the branching vertex for ``state`` according to rule BR.

    Returns ``None`` when the candidate set is empty (the caller should have
    recognised the instance as a leaf before branching).
    """
    if not state.candidates:
        return None

    non_nbrs = state.non_nbrs_in_solution
    degree = state.degree_in_graph

    best_vertex: Optional[int] = None
    best_key = None
    for v in state.candidates:
        count = non_nbrs[v]
        if count == 0:
            continue
        # Among the vertices the rule allows, prefer the one with the fewest
        # non-neighbours in S and, among those, the highest degree: its
        # inclusion branch is the most promising, which raises the incumbent
        # early and feeds the lb-driven reductions.
        key = (-count, degree[v])
        if best_key is None or key > best_key:
            best_key = key
            best_vertex = v
    if best_vertex is not None:
        return best_vertex

    # Every candidate is fully adjacent to S: the rule allows an arbitrary
    # choice.  Pick a maximum-degree candidate so the inclusion branch keeps
    # growing through the densest part of the instance.
    return max(state.candidates, key=lambda v: (degree[v], -v))


def ensure_recursion_limit(depth: int) -> None:
    """Raise the interpreter recursion limit so ``depth`` nested calls fit.

    Raise-only, never restored: a save/restore races with a concurrent
    solve that raised the limit and is still deep in recursion.
    """
    needed = depth + _RECURSION_MARGIN
    with _RECURSION_LIMIT_LOCK:
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)


def _record(best: List[int], vertices: List[int], stats: SearchStats) -> None:
    if len(vertices) > len(best):
        best[:] = vertices
        stats.improvements += 1


def branch_and_bound(
    state: SearchState,
    best: List[int],
    stats: SearchStats,
    check_budget: Callable[[], None],
    reduce: Callable[[SearchState, int], bool],
    bound_prunes: Callable[[SearchState, int], bool],
    select: Callable[[SearchState], Optional[int]],
) -> None:
    """Procedure Branch&Bound of Algorithms 1/2 over ``state``.

    ``best`` is the incumbent, grown in place.  ``check_budget()`` runs at
    every node and may raise :class:`~repro.exceptions.BudgetExceededError`;
    ``reduce(state, lb)`` and ``bound_prunes(state, lb)`` return ``True`` to
    discard a node; ``select(state)`` returns the branching vertex or
    ``None``.  An explicit stack, left child on top, visits nodes in the
    recursive order while the interpreter stack stays flat.
    """
    stack = [(state, 1)]
    while stack:
        state, depth = stack.pop()
        check_budget()
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

        # Line 4: reduction rules.
        if reduce(state, len(best)):
            continue

        # Line 5: if the whole instance graph is a k-defective clique, record it.
        if state.is_defective_clique():
            stats.leaves += 1
            _record(best, state.graph_vertices(), stats)
            continue

        # Upper-bound pruning (Algorithm 2 only; never prunes for kDC-t).
        if bound_prunes(state, len(best)):
            stats.prunes_by_bound += 1
            continue

        # Even when not a leaf, the partial solution S itself is a valid
        # k-defective clique and may beat the incumbent.
        _record(best, state.solution, stats)

        # Line 6: branching vertex.
        vertex = select(state)
        if vertex is None:
            continue

        # Line 7: left branch includes the branching vertex; line 8: right
        # branch excludes it.  The current state is not needed afterwards,
        # so the right child is the current state mutated in place.
        left = state.copy()
        left.add_to_solution(vertex)
        state.remove_candidate(vertex)
        stack.append((state, depth + 1))
        stack.append((left, depth + 1))
