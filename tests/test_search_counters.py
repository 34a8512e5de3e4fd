"""Pinned search counters of the set-state branch-and-bound solvers.

The kDC reference (``backend="set"``), its theoretical variant kDC-t and the
KDBB / MADEC baselines all search :class:`~repro.core.instance.SearchState`
trees.  Their node, leaf, prune, improvement and depth counters on a few
seeded random graphs are fixed here, so any change to how those trees are
driven that moves a single search decision shows up as a counter diff
rather than only as a (usually unchanged) optimum size.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import KDBBSolver, MADECSolver
from repro.core import KDCSolver, SolverConfig, variant_config
from repro.graphs import gnp_random_graph

_FIELDS = ("nodes", "leaves", "prunes_by_bound", "improvements", "max_depth")

_SOLVERS = {
    "set": lambda: KDCSolver(SolverConfig(backend="set")),
    "kDC-t-set": lambda: KDCSolver(replace(variant_config("kDC-t"), backend="set")),
    "KDBB": KDBBSolver,
    "MADEC": MADECSolver,
}

#: (solver, graph seed, k) -> (optimum size, counters in _FIELDS order) on
#: G(70, 0.3).  The kDC-t and MADEC cells at k=3 search 10^5 nodes each and
#: take several seconds, so they sit in the slow tier.
_PINNED = {
    ("set", 1, 1): (6, (0, 0, 0, 0, 0)),
    ("kDC-t-set", 1, 1): (6, (24489, 12245, 0, 6, 70)),
    ("KDBB", 1, 1): (6, (1233, 2, 193, 1, 31)),
    ("MADEC", 1, 1): (6, (2833, 3, 0, 1, 38)),
    ("set", 1, 3): (7, (1509, 37, 196, 0, 48)),
    ("kDC-t-set", 1, 3): (7, (445241, 222621, 0, 7, 70)),
    ("KDBB", 1, 3): (7, (2149, 1, 1042, 0, 35)),
    ("MADEC", 1, 3): (7, (92637, 450, 1199, 0, 47)),
    ("set", 2, 1): (6, (1, 1, 0, 0, 1)),
    ("kDC-t-set", 2, 1): (6, (24145, 12073, 0, 6, 70)),
    ("KDBB", 2, 1): (6, (1, 1, 0, 0, 1)),
    ("MADEC", 2, 1): (6, (2673, 2, 0, 0, 37)),
    ("set", 2, 3): (7, (1653, 37, 206, 0, 55)),
    ("kDC-t-set", 2, 3): (7, (443917, 221959, 0, 6, 70)),
    ("KDBB", 2, 3): (7, (2269, 3, 1100, 0, 35)),
    ("MADEC", 2, 3): (7, (88699, 520, 1138, 0, 45)),
}

_SLOW = {("kDC-t-set", 3), ("MADEC", 3)}


@pytest.mark.parametrize(
    "solver, seed, k",
    [
        pytest.param(
            solver, seed, k,
            id=f"{solver}-g{seed}-k{k}",
            marks=[pytest.mark.slow] if (solver, k) in _SLOW else [],
        )
        for solver, seed, k in _PINNED
    ],
)
def test_set_state_search_counters_are_pinned(solver, seed, k):
    graph = gnp_random_graph(70, 0.3, seed=seed)
    result = _SOLVERS[solver]().solve(graph, k)
    counters = tuple(getattr(result.stats, field) for field in _FIELDS)
    assert (result.size, counters) == _PINNED[(solver, seed, k)]
    assert result.optimal
