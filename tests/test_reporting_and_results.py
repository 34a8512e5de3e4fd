"""Tests for text-table rendering, SolveResult/SearchStats helpers and the config module."""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_float, format_solved_table, format_table
from repro.core import SearchStats, SolveResult, SolverConfig, variant_config
from repro.exceptions import InvalidParameterError


class TestFormatting:
    def test_format_float(self):
        assert format_float(1.5) == "1.5"
        assert format_float(2.0) == "2"
        assert format_float(0.1234, digits=2) == "0.12"
        assert format_float(0.0) == "0"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]], title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        assert "longer" in lines[-1]
        # all rows have the same rendered width
        assert len(set(len(line) for line in lines[2:4])) >= 1

    def test_format_solved_table(self):
        solved = {"kDC": {1: 10, 3: 8}, "KDBB": {1: 9, 3: 5}}
        text = format_solved_table(solved, [1, 3], total_instances=12, title="Solved")
        assert "kDC" in text and "KDBB" in text
        assert "k=1" in text and "k=3" in text
        assert "12" in text


class TestSearchStats:
    def test_count_reduction(self):
        stats = SearchStats()
        stats.count_reduction("RR1", 3)
        stats.count_reduction("RR1")
        stats.count_reduction("RR5", 0)
        assert stats.reductions == {"RR1": 4}

    def test_as_dict_includes_reductions(self):
        stats = SearchStats()
        stats.count_reduction("RR3", 2)
        data = stats.as_dict()
        assert data["removed_RR3"] == 2
        assert "nodes" in data

    def test_per_filter_prune_counters_merge_and_report(self):
        stats = SearchStats(subproblems_pruned=5, subproblems_pruned_cycle_rank=2,
                            subproblems_pruned_deficit=1)
        stats.merge_from(SearchStats(subproblems_pruned=4, subproblems_pruned_cycle_rank=3,
                                     subproblems_pruned_deficit=1))
        data = stats.as_dict()
        assert data["subproblems_pruned"] == 9
        assert data["subproblems_pruned_cycle_rank"] == 5
        assert data["subproblems_pruned_deficit"] == 2


class TestSolveResult:
    def test_size_synced_with_clique(self):
        result = SolveResult(clique=[1, 2, 3], size=99, k=1, optimal=True, algorithm="kDC")
        assert result.size == 3
        assert result.vertices == [1, 2, 3]

    def test_summary_mentions_budget_state(self):
        result = SolveResult(clique=[1], size=1, k=0, optimal=False, algorithm="kDC")
        assert "budget-limited" in result.summary()


class TestSolverConfig:
    def test_defaults_are_full_kdc(self):
        config = SolverConfig()
        assert config.use_ub1 and config.use_rr3 and config.use_rr6
        assert config.initial_heuristic == "degen-opt"
        assert config.uses_practical_techniques

    def test_variant_overrides(self):
        assert variant_config("kDC/UB1").use_ub1 is False
        assert variant_config("kDC/RR3&4").use_rr3 is False
        assert variant_config("kDC/RR3&4").use_rr4 is False
        degen_variant = variant_config("kDC-Degen")
        assert degen_variant.initial_heuristic == "degen"
        assert degen_variant.use_rr6 is False

    def test_budgets_passed_through(self):
        config = variant_config("kDC", time_limit=7.0, node_limit=11)
        assert config.time_limit == 7.0
        assert config.node_limit == 11

    def test_invalid_variant(self):
        with pytest.raises(InvalidParameterError):
            variant_config("unknown")
