"""The independent checker and the failure accounting built on it."""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import check  # noqa: E402
import gen  # noqa: E402
import solve_workloads  # noqa: E402

# a 4-clique {0,1,2,3} plus vertex 4 adjacent to 0 and 1, and isolated 5
EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
ADJ = gen.adjacency(6, EDGES)


def answer(clique, optimal=True):
    return {"clique": list(clique), "size": len(clique), "optimal": optimal}


def test_accepts_a_proven_optimum():
    assert check.check_answer(ADJ, 0, answer([0, 1, 2, 3]), 4) is None
    assert check.check_answer(ADJ, 2, answer([0, 1, 2, 3, 4]), 5) is None


def test_rejects_each_kind_of_bad_answer():
    assert "optimal" in check.check_answer(ADJ, 0, answer([0, 1, 2, 3], optimal=False), 4)
    assert "missing" in check.check_answer(ADJ, 0, answer([0, 1, 2, 4]), None)
    assert "not in the input" in check.check_answer(ADJ, 0, answer([0, 1, 2, 9]), None)
    assert "duplicate" in check.check_answer(ADJ, 0, {"clique": [0, 0], "size": 2,
                                                      "optimal": True}, None)
    assert "maximal" in check.check_answer(ADJ, 0, answer([0, 1, 2]), None)
    assert "golden" in check.check_answer(ADJ, 0, answer([0, 1, 2, 3]), 5)
    assert "size" in check.check_answer(ADJ, 0, {"clique": [0, 1, 2, 3], "size": 5,
                                                 "optimal": True}, None)


def test_corrupted_answer_is_counted_as_failed():
    good = {"ok": True, "tto_cpu_s": 0.01, **answer([0, 1, 2, 3])}
    corrupted = {"ok": True, "tto_cpu_s": 0.01, **answer([0, 1, 2, 4])}
    error = {"ok": False, "error": "ValueError: boom"}
    replies = [("g", 0, 0, good), ("g", 0, 1, corrupted), ("g", 0, 2, error)]
    tally, per_cell = solve_workloads._verify(replies, {"g": ADJ}, {"g/0": 4})
    assert tally.attempted == 3
    assert tally.failed == 2
    assert [reason for _cell, reason in tally.failures][1] == "ValueError: boom"
    assert per_cell == {"g/k=0": [0.01]}
    assert sum(math.isinf(v) for v in tally.samples["g/k=0"]) == 2


def test_relabelled_inputs_keep_the_structure():
    rng_parts = (7, "x")
    perm = gen.permutation(6, gen.instance_rng(*rng_parts))
    relabelled = gen.relabel(EDGES, perm, gen.instance_rng(*rng_parts, "e"))
    inverse = {label: v for v, label in enumerate(perm)}
    back = sorted(tuple(sorted((inverse[u], inverse[v]))) for u, v in relabelled)
    assert back == sorted(EDGES)
    assert relabelled == gen.relabel(EDGES, perm, gen.instance_rng(*rng_parts, "e"))
