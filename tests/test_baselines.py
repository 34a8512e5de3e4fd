"""Tests for the baseline solvers (KDBB-style, MADEC+-style, max clique, brute force)."""

from __future__ import annotations

import sys

import pytest

from repro.baselines import (
    KDBBSolver,
    MADECSolver,
    MaxCliqueSolver,
    brute_force_maximum_defective_clique,
    brute_force_maximum_size,
    enumerate_defective_cliques,
    maximum_clique,
    maximum_clique_size,
)
from repro.core import is_k_defective_clique
from repro.exceptions import InvalidParameterError
from repro.graphs import Graph, complete_graph, cycle_graph, gnp_random_graph, star_graph


class TestBruteForce:
    def test_empty_graph(self):
        assert brute_force_maximum_defective_clique(Graph(), 1) == []

    def test_complete_graph(self):
        assert brute_force_maximum_size(complete_graph(5), 0) == 5

    def test_cycle(self):
        assert brute_force_maximum_size(cycle_graph(5), 0) == 2
        assert brute_force_maximum_size(cycle_graph(5), 1) == 3

    def test_rejects_large_graphs(self):
        with pytest.raises(InvalidParameterError):
            brute_force_maximum_defective_clique(gnp_random_graph(40, 0.1, seed=1), 1)

    def test_result_is_valid(self):
        g = gnp_random_graph(10, 0.5, seed=2)
        for k in (0, 2):
            solution = brute_force_maximum_defective_clique(g, k)
            assert is_k_defective_clique(g, solution, k)

    def test_enumeration(self):
        g = complete_graph(3)
        cliques = list(enumerate_defective_cliques(g, 0, min_size=2))
        # 3 edges + 1 triangle
        assert len(cliques) == 4

    def test_enumeration_size_limit(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_defective_cliques(gnp_random_graph(30, 0.1, seed=1), 0))


class TestMaxClique:
    def test_known_graphs(self):
        assert maximum_clique_size(complete_graph(7)) == 7
        assert maximum_clique_size(cycle_graph(5)) == 2
        assert maximum_clique_size(cycle_graph(3)) == 3
        assert maximum_clique_size(star_graph(5)) == 2
        assert maximum_clique_size(Graph()) == 0

    def test_clique_is_actually_a_clique(self):
        g = gnp_random_graph(30, 0.4, seed=3)
        clique = maximum_clique(g)
        assert g.is_clique(clique)

    def test_against_networkx(self):
        networkx = pytest.importorskip("networkx")
        for seed in range(6):
            g = gnp_random_graph(25, 0.35, seed=seed)
            nx_graph = networkx.Graph(g.edges())
            nx_graph.add_nodes_from(g.vertices())
            expected = max(
                (len(c) for c in networkx.find_cliques(nx_graph)), default=0
            )
            assert maximum_clique_size(g) == expected

    def test_matches_brute_force_k0(self):
        for seed in range(6):
            g = gnp_random_graph(11, 0.5, seed=seed)
            assert maximum_clique_size(g) == brute_force_maximum_size(g, 0)

    def test_figure2(self, fig2):
        result = MaxCliqueSolver().solve(fig2)
        assert result.size == 5
        assert result.algorithm == "MaxClique"


class TestKDBBAndMADEC:
    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_matches_brute_force(self, solver_cls):
        for seed in range(10):
            g = gnp_random_graph(11, 0.45, seed=seed)
            k = seed % 4
            expected = brute_force_maximum_size(g, k)
            result = solver_cls().solve(g, k)
            assert result.optimal
            assert result.size == expected
            assert is_k_defective_clique(g, result.clique, k)

    @pytest.mark.parametrize("solver_cls,name", [(KDBBSolver, "KDBB"), (MADECSolver, "MADEC")])
    def test_algorithm_names(self, solver_cls, name):
        result = solver_cls().solve(complete_graph(4), 1)
        assert result.algorithm == name

    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_empty_graph(self, solver_cls):
        result = solver_cls().solve(Graph(), 1)
        assert result.size == 0 and result.optimal

    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_budget_interruption(self, solver_cls):
        g = gnp_random_graph(80, 0.35, seed=9)
        result = solver_cls(node_limit=2).solve(g, 3)
        assert is_k_defective_clique(g, result.clique, 3)

    def test_kdc_explores_no_more_nodes_than_madec(self):
        """The pruning machinery of kDC should not lose to MADEC's on community-like graphs."""
        from repro.core import find_maximum_defective_clique
        from repro.graphs import social_network_graph

        g = social_network_graph(60, num_communities=4, intra_p=0.5, seed=2)
        k = 3
        kdc_nodes = find_maximum_defective_clique(g, k).stats.nodes
        madec_nodes = MADECSolver().solve(g, k).stats.nodes
        assert kdc_nodes <= madec_nodes


class TestRecursionLimit:
    """A solve never lowers the interpreter recursion limit on its way out.

    Another solve may raise the limit while this one runs because it is
    itself deep in recursion; restoring the value saved at the start would
    pull the limit out from under it.
    """

    @pytest.fixture
    def limit_1000(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    def test_kdbb_keeps_a_limit_raised_during_the_solve(self, limit_1000):
        class RaisingKDBB(KDBBSolver):
            def _reduce(self, state, lower_bound):
                sys.setrecursionlimit(6000)
                return super()._reduce(state, lower_bound)

        result = RaisingKDBB().solve(gnp_random_graph(30, 0.3, seed=1), 2)
        assert result.optimal
        assert sys.getrecursionlimit() == 6000

    def test_max_clique_keeps_a_limit_raised_during_the_solve(self, limit_1000):
        class RaisingMaxClique(MaxCliqueSolver):
            def _check_budget(self):
                sys.setrecursionlimit(6000)
                super()._check_budget()

        result = RaisingMaxClique().solve(gnp_random_graph(30, 0.3, seed=1))
        assert result.optimal
        assert sys.getrecursionlimit() == 6000
