"""Independent answer checker.

It imports nothing from the program under test: it reads the answer as
plain data and checks it against the benchmark's own copy of the input.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Set


def check_answer(
    adj: Mapping[int, Set[int]],
    k: int,
    answer: Mapping[str, object],
    expected_size: Optional[int],
) -> Optional[str]:
    """Return ``None`` when ``answer`` is a proven maximum k-defective clique.

    ``answer`` holds ``clique`` (vertex list), ``size`` and ``optimal``.
    Checks, in order: the result claims optimality; the size matches the
    clique; every vertex exists in the input and appears once; at most
    ``k`` edges are missing among the vertices in the *input* graph; no
    further vertex could be added (an optimum is maximal); the size equals
    the golden optimum when one is known.  Otherwise the first failed check
    is returned as a one-line reason.
    """
    clique = list(answer.get("clique") or ())
    if answer.get("optimal") is not True:
        return "result not proven optimal"
    if answer.get("size") != len(clique):
        return f"size {answer.get('size')} != {len(clique)} returned vertices"
    members = set(clique)
    if len(members) != len(clique):
        return "duplicate vertices in the answer"
    unknown = [v for v in clique if v not in adj]
    if unknown:
        return f"vertex {unknown[0]!r} is not in the input graph"
    missing = _missing_edges(adj, clique)
    if missing > k:
        return f"{missing} edges missing among the answer, k={k}"
    for v in adj:
        if v not in members and missing + len(members - adj[v]) <= k:
            return f"answer is not maximal: vertex {v} can be added"
    if expected_size is not None and len(clique) != expected_size:
        return f"size {len(clique)} != golden optimum {expected_size}"
    return None


def _missing_edges(adj: Mapping[int, Set[int]], vertices: Iterable[int]) -> int:
    ordered = list(vertices)
    missing = 0
    for i, u in enumerate(ordered):
        nbrs = adj[u]
        for v in ordered[i + 1:]:
            if v not in nbrs:
                missing += 1
    return missing

