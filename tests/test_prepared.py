"""Tests for the compile/execute split: PreparedInstance + solve_prepared."""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import pickle

import pytest

from repro.core import (
    KDCSolver,
    PreparedInstance,
    SolverConfig,
    is_k_defective_clique,
    prepare_instance,
    variant_config,
)
from repro.exceptions import InvalidParameterError
from repro.graphs import (
    core_reduce_in_place,
    gnm_random_graph,
    gnp_random_graph,
    truss_reduce_in_place,
)
from repro.graphs.graph import Graph


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.3, seed=4)


class TestPrepareInstance:
    def test_fields(self, graph):
        prepared = prepare_instance(graph, 2)
        assert prepared.k == 2
        assert prepared.digest == graph.content_digest()
        assert prepared.n_original == graph.num_vertices
        assert 0 < prepared.working_n <= graph.num_vertices
        assert prepared.lower_bound == len(prepared.heuristic) > 0
        assert prepared.prepare_seconds > 0
        # the decomposition covers exactly the working vertices
        ordering, position = prepared.ordering, prepared.position
        assert sorted(ordering) == sorted(prepared.working_adj)
        assert all(position[v] == i for i, v in enumerate(ordering))
        # adjacency is symmetric and sorted
        for v, nbrs in prepared.working_adj.items():
            assert list(nbrs) == sorted(nbrs)
            for u in nbrs:
                assert v in prepared.working_adj[u]

    def test_digest_skippable(self, graph):
        prepared = prepare_instance(graph, 1, compute_digest=False)
        assert prepared.digest == ""

    def test_immutable(self, graph):
        prepared = prepare_instance(graph, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.k = 3

    def test_pickle_round_trip(self, graph):
        prepared = prepare_instance(graph, 2)
        prepared.packed_adjacency()  # populate the lazy cache before pickling
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.working_adj == prepared.working_adj
        assert clone.heuristic == prepared.heuristic
        assert clone.ordering == prepared.ordering
        assert clone.digest == prepared.digest
        result = KDCSolver().solve_prepared(clone)
        assert result.size == KDCSolver().solve(graph, 2).size

    def test_packed_adjacency_is_cached_and_consistent(self, graph):
        prepared = prepare_instance(graph, 1)
        first = prepared.packed_adjacency()
        assert prepared.packed_adjacency() is first
        to_global, rows = first
        index = {v: i for i, v in enumerate(to_global)}
        for v, nbrs in prepared.working_adj.items():
            expected = 0
            for u in nbrs:
                expected |= 1 << index[u]
            assert rows[index[v]] == expected

    def test_ego_view_is_cached_and_dropped_on_pickling(self, graph):
        prepared = prepare_instance(graph, 1)
        view = prepared.ego_view()
        assert prepared.ego_view() is view
        assert view.ordering == prepared.ordering
        for v, nbrs in prepared.working_adj.items():
            assert sorted(view.neighbors(v)) == sorted(nbrs)
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone._cache == {}
        assert clone.ego_view().rows == view.rows

    def test_input_graph_untouched(self):
        # RR5 and RR6 both remove edges here (RR5 the pendant edges), and
        # they reduce the relabeled graph in place rather than a working copy.
        graph = gnp_random_graph(300, 0.1, seed=0)
        for v in range(10):
            graph.add_edge(v, f"pendant-{v}")
        k = 4
        before = (graph.content_digest(), graph.num_edges, graph.copy())
        prepared = prepare_instance(graph, k)
        core = graph.copy()
        lb = prepared.lower_bound
        assert core_reduce_in_place(core, lb - k)
        assert core.num_edges < graph.num_edges
        assert truss_reduce_in_place(core, lb - k + 1) > 0
        graph.validate()
        assert (graph.content_digest(), graph.num_edges, graph) == before

    def test_working_graph_round_trip(self, graph):
        prepared = prepare_instance(graph, 1)
        rebuilt = prepared.working_graph()
        assert rebuilt.num_vertices == prepared.working_n
        assert rebuilt.num_edges == prepared.working_num_edges
        for v in rebuilt:
            assert tuple(sorted(rebuilt.neighbors(v))) == prepared.working_adj[v]


class TestSolvePrepared:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_fresh_solve(self, graph, k):
        solver = KDCSolver()
        fresh = solver.solve(graph, k)
        prepared = prepare_instance(graph, k, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.optimal and fresh.optimal
        assert result.size == fresh.size
        assert is_k_defective_clique(graph, result.clique, k)

    def test_artifact_is_reusable(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 2, solver.config)
        sizes = {solver.solve_prepared(prepared).size for _ in range(3)}
        assert len(sizes) == 1

    def test_string_labels(self):
        g = Graph()
        for u, v in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")]:
            g.add_edge(u, v)
        solver = KDCSolver()
        prepared = prepare_instance(g, 1, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.size == solver.solve(g, 1).size
        assert set(result.clique) <= g.vertex_set()

    def test_k_defaults_to_prepared_k_and_mismatch_raises(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 2, solver.config)
        assert solver.solve_prepared(prepared).k == 2
        with pytest.raises(InvalidParameterError):
            solver.solve_prepared(prepared, 3)

    def test_config_mismatch_raises(self, graph):
        prepared = prepare_instance(graph, 1)  # default kDC prepare config
        theoretical = KDCSolver(variant_config("kDC-t"))
        with pytest.raises(InvalidParameterError):
            theoretical.solve_prepared(prepared)

    def test_execute_side_knobs_share_one_artifact(self, graph):
        # backend/workers are execute-side: one artifact serves them all
        prepared = prepare_instance(graph, 2)
        expected = KDCSolver().solve(graph, 2).size
        for config in (
            SolverConfig(backend="set"),
            SolverConfig(backend="bitset", decompose_threshold=1),
            SolverConfig(backend="bitset", decompose_threshold=10**9),
            SolverConfig(backend="bitset", decompose_threshold=1, workers=2),
        ):
            result = KDCSolver(config).solve_prepared(prepared)
            assert result.optimal and result.size == expected, config

    def test_budget_override_interrupts_without_harming_artifact(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 3, solver.config)
        full = solver.solve_prepared(prepared)
        assert full.optimal and full.stats.nodes > 1
        limited = solver.solve_prepared(prepared, node_limit=1)
        assert not limited.optimal
        assert limited.size >= prepared.lower_bound  # partial incumbent kept
        again = solver.solve_prepared(prepared)
        assert again.optimal and again.size == full.size

    def test_seeded_stats_match_fresh(self, graph):
        solver = KDCSolver()
        fresh = solver.solve(graph, 2)
        prepared = prepare_instance(graph, 2, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.stats.initial_solution_size == fresh.stats.initial_solution_size
        assert (
            result.stats.preprocess_removed_vertices
            == fresh.stats.preprocess_removed_vertices
        )
        assert result.stats.backend == fresh.stats.backend

    def test_phase_timings(self, graph):
        solver = KDCSolver()
        fresh = solver.solve(graph, 2)
        assert fresh.stats.prepare_ms > 0
        assert fresh.stats.solve_ms >= 0
        assert fresh.stats.queue_ms == 0.0
        assert not fresh.stats.cache_hit
        prepared = prepare_instance(graph, 2, solver.config)
        result = solver.solve_prepared(prepared)
        # a bare solve_prepared paid no prepare cost of its own
        assert result.stats.prepare_ms == 0.0

    def test_empty_graph_artifact(self):
        prepared = prepare_instance(Graph(), 1)
        result = KDCSolver().solve_prepared(prepared)
        assert result.optimal and result.size == 0


def _artifact_digest(prepared: PreparedInstance) -> str:
    """sha256 over every field of the artifact the search consumes, bar ``ordering``."""
    payload = repr((
        prepared.heuristic,
        sorted(prepared.working_adj.items()),
        prepared.preprocess_removed_vertices,
        prepared.preprocess_removed_edges,
        sorted(prepared.preprocess_reductions.items()),
    ))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _assert_degeneracy_ordering(adj, ordering) -> None:
    """Each vertex has minimum degree among the vertices not yet peeled."""
    assert sorted(ordering) == sorted(adj)
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    peeled = set()
    for v in ordering:
        while heap[0][1] in peeled or heap[0][0] != degree[heap[0][1]]:
            heapq.heappop(heap)
        assert degree[v] == heap[0][0], v
        peeled.add(v)
        for u in adj[v]:
            if u not in peeled:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))


#: Artifact digests of the prepare phase, pinned before the set-native
#: rewrite of the truss peel, Degen-opt and the working graph.
_PINNED_GNP = {
    (0, 0): "e02ad07f0762ce9aa819a01e0894f6e2063f5632dbb197679c343a5c53f8fe6b",
    (0, 2): "a013b5d29e9bb3c53c8f886dfdcb0f6de4d2881fe98376f8a31314e76dd04432",
    (0, 4): "6533e6cb3b730afdbb7c55b9fc4031258ad3412b6cf8ac1b7a0ccc7eda10d551",
    (1, 0): "686ad31ae7d0a8244846e1855c2dea0c164ed29a780a8d238d50ad00cb555dc4",
    (1, 2): "7984623ce633b47a2f8cbe11d2d00d473222316f76f8934626b5a75f0be6c1ce",
    (1, 4): "7dc6db71dc9908a94a6e1c8510dfcc64e9fb89c4a83a8209edbeb81c5a5d0eb8",
    (2, 0): "102b1a34a4c6f8061f674044f5e5334fbdf8e5d38c8cf485fb3ad125bfdb109d",
    (2, 2): "cf55b5cbd7c00b60eeb18daa06de11abb450cb77007d19a689abd8b3be94abf5",
    (2, 4): "f91d4a2ff911af5a22285462869c9921b9fcee5125e79960a0498a07c21f988a",
    (3, 0): "350b948ff795a78aebbd21e24f1055e4ac847a2b15de072189eb9105352c23a6",
    (3, 2): "a09264b765c021c66e2c8941afdacc47de17baaac078bf1de675bbc962974627",
    (3, 4): "4f24b0f41215b6d7436ad40dd477ce6ab5faaf920058b585174a3e47a968b766",
    (4, 0): "5bb7ff3986e4da8e749dd4b206fcddf5243e9fab7596009d3cad5e1aaff558e8",
    (4, 2): "1a8fc416b2d502b8a62ca01801f064da3951a44061bd3bda70b6abd42ed90b6a",
    (4, 4): "0b7c8f176f7e751d89d31aec4fd12661b9596c261fe7b99ea638b862fd34c7a2",
    (5, 0): "d2b0ee64893d5f70ba5273bb36565d4f3ebdb137bd96c9800574fbc657dace29",
    (5, 2): "7d23edb3b198bc5baeb93104601b9c2fd1da1dea61209191c9111f4f6b7252e0",
    (5, 4): "d847752f6466eff12ab4decc6a61e086163de77640dece2e1f561f56a9ad0563",
}
_PINNED_GNM = "c31602a38de31fe41c0c579be3fdd70bb4e12ba25eb994703e24d4cdc94d41bd"


class TestPreparedArtifactPinned:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_gnp_artifacts(self, seed, k):
        prepared = prepare_instance(gnp_random_graph(300, 0.1, seed=seed), k)
        assert _artifact_digest(prepared) == _PINNED_GNP[seed, k]
        _assert_degeneracy_ordering(prepared.working_adj, prepared.ordering)

    def test_sparse_gnm_artifact(self):
        graph = gnm_random_graph(5000, 10000, seed=0)
        prepared = prepare_instance(graph, 1)
        assert prepared.preprocess_removed_edges > 0
        assert _artifact_digest(prepared) == _PINNED_GNM
        _assert_degeneracy_ordering(prepared.working_adj, prepared.ordering)
