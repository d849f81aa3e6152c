"""Tests for multi-start Explainable-DSE (paper §C exploration variant)."""

import pytest

from repro.core.dse.constraints import Constraint
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper


@pytest.fixture
def dse(edge_space, tiny_workload):
    evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=50))
    return ExplainableDSE(
        edge_space,
        evaluator,
        [Constraint("area", "area_mm2", 75.0)],
        max_evaluations=30,
    )


class TestMultiStart:
    def test_budget_split_across_starts(self, dse):
        result = dse.run_multi_start(starts=3, seed=1)
        assert result.evaluations <= 30
        assert result.technique == "explainable-multistart"

    def test_budget_restored_after_run(self, dse):
        dse.run_multi_start(starts=3, seed=1)
        assert dse.max_evaluations == 30

    def test_best_at_least_single_start(self, dse, edge_space):
        multi = dse.run_multi_start(starts=3, seed=1)
        dse.max_evaluations = 10
        single = dse.run(edge_space.minimum_point())
        # The first start IS the single run (shared cache, same point),
        # so the merged best can only be equal or better.
        assert multi.best_objective <= single.best_objective

    def test_explicit_initial_points(self, dse, edge_space, mid_point):
        result = dse.run_multi_start(
            initial_points=[edge_space.minimum_point(), mid_point]
        )
        notes = {t.note.split(":")[0] for t in result.trials}
        assert notes == {"start0", "start1"}

    def test_trial_indices_contiguous(self, dse):
        result = dse.run_multi_start(starts=2, seed=0)
        assert [t.index for t in result.trials] == list(
            range(len(result.trials))
        )

    def test_explanations_mark_starts(self, dse):
        result = dse.run_multi_start(starts=2, seed=0)
        assert any("=== start 0" in line for line in result.explanations)
        assert any("=== start 1" in line for line in result.explanations)


class TestMultiStartValidation:
    @pytest.mark.parametrize("starts", [0, -2])
    def test_rejects_nonpositive_starts(self, dse, starts):
        with pytest.raises(ValueError, match="starts"):
            dse.run_multi_start(starts=starts)

    def test_rejects_empty_initial_points(self, dse):
        with pytest.raises(ValueError, match="initial_points"):
            dse.run_multi_start(initial_points=[])
