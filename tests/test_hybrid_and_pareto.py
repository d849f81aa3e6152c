"""Tests for the hybrid DSE pipeline and Pareto-front extraction."""

import math

import pytest

from repro.core.dse.constraints import Constraint
from repro.core.dse.result import DSEResult, TrialRecord
from repro.cost.evaluator import CostEvaluator
from repro.experiments.pareto import ParetoFront, dominates, pareto_front
from repro.mapping.mapper import TopNMapper
from repro.optim.hybrid import HybridDSE
from repro.optim.random_search import RandomSearch


def _trial(index, latency, energy, feasible=True):
    return TrialRecord(
        index=index,
        point={"pes": 64},
        costs={"latency_ms": latency, "energy_mj": energy},
        feasible=feasible,
        mappable=True,
    )


def _result(trials):
    return DSEResult(
        technique="t",
        model="m",
        trials=trials,
        best=None,
        evaluations=len(trials),
        wall_seconds=0.0,
    )


class TestDominance:
    KEYS = ("latency_ms", "energy_mj")

    def test_strict_dominance(self):
        assert dominates(_trial(0, 1, 1), _trial(1, 2, 2), self.KEYS)

    def test_partial_tradeoff_not_dominated(self):
        assert not dominates(_trial(0, 1, 3), _trial(1, 2, 2), self.KEYS)
        assert not dominates(_trial(1, 2, 2), _trial(0, 1, 3), self.KEYS)

    def test_equal_not_dominating(self):
        assert not dominates(_trial(0, 1, 1), _trial(1, 1, 1), self.KEYS)


class TestParetoFront:
    def test_extracts_non_dominated(self):
        trials = [
            _trial(0, 1.0, 10.0),
            _trial(1, 2.0, 5.0),
            _trial(2, 3.0, 8.0),  # dominated by 1
            _trial(3, 0.5, 20.0),
        ]
        front = pareto_front([_result(trials)])
        assert {t.index for t in front.points} == {0, 1, 3}

    def test_sorted_by_first_cost(self):
        trials = [_trial(0, 3.0, 1.0), _trial(1, 1.0, 3.0)]
        front = pareto_front([_result(trials)])
        assert [t.index for t in front.points] == [1, 0]

    def test_feasibility_filter(self):
        trials = [_trial(0, 1.0, 1.0, feasible=False), _trial(1, 2.0, 2.0)]
        front = pareto_front([_result(trials)])
        assert [t.index for t in front.points] == [1]
        unfiltered = pareto_front([_result(trials)], feasible_only=False)
        assert [t.index for t in unfiltered.points] == [0]

    def test_infinite_costs_excluded(self):
        trials = [_trial(0, math.inf, 1.0), _trial(1, 2.0, 2.0)]
        front = pareto_front([_result(trials)])
        assert [t.index for t in front.points] == [1]

    def test_duplicates_collapsed(self):
        trials = [_trial(0, 1.0, 1.0), _trial(1, 1.0, 1.0)]
        front = pareto_front([_result(trials)])
        assert len(front) == 1

    def test_pools_multiple_results(self):
        a = _result([_trial(0, 1.0, 10.0)])
        b = _result([_trial(0, 10.0, 1.0)])
        front = pareto_front([a, b])
        assert len(front) == 2

    def test_format(self):
        front = pareto_front([_result([_trial(0, 1.0, 2.0)])])
        text = front.format()
        assert "Pareto front" in text
        assert "latency_ms" in text


class TestHybridDSE:
    @pytest.fixture
    def hybrid(self, edge_space, tiny_workload):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=50))
        return HybridDSE(
            edge_space,
            evaluator,
            [Constraint("area", "area_mm2", 75.0)],
            max_evaluations=30,
            warm_start_fraction=0.5,
            refiner=RandomSearch,
            seed=1,
        )

    def test_rejects_bad_fraction(self, edge_space, tiny_workload):
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=40))
        with pytest.raises(ValueError):
            HybridDSE(
                edge_space, evaluator, [], warm_start_fraction=1.5
            )

    def test_runs_both_phases(self, hybrid):
        result = hybrid.run()
        notes = {t.note.split(":")[0] for t in result.trials}
        assert notes == {"warm", "refine"}
        assert result.technique.startswith("hybrid-explainable+")

    def test_reports_consumed_evaluations(self):
        """Reported evaluations are evaluator-consumed, not trials: the
        refiner's re-evaluated handoff point is a cache hit."""
        from repro.experiments.setup import (
            build_edge_design_space,
            edge_constraints,
            make_evaluator,
        )
        from repro.optim.local_search import LocalSearch

        evaluator = make_evaluator("resnet18")
        hybrid = HybridDSE(
            build_edge_design_space(),
            evaluator,
            edge_constraints("resnet18"),
            max_evaluations=12,
            refiner=LocalSearch,
        )
        before = evaluator.evaluations
        result = hybrid.run()
        consumed = evaluator.evaluations - before
        assert result.evaluations == consumed <= 12
        assert len(result.trials) > consumed  # the handoff revisit

    def test_handoff_logged(self, hybrid):
        result = hybrid.run()
        assert any("handoff" in line for line in result.explanations)

    def test_best_at_least_warm_phase(self, hybrid, edge_space, tiny_workload):
        result = hybrid.run()
        warm_best = min(
            (
                t.objective
                for t in result.trials
                if t.note.startswith("warm") and t.feasible
            ),
            default=math.inf,
        )
        assert result.best_objective <= warm_best
