"""Hybrid DSE: bottleneck-guided warm start + black-box refinement.

§B of the paper: "when designers optimize designs offline with hybrid
optimization methodologies comprising multiple optimizations, quickly
found efficient solutions can serve as high-quality initial points".
This module implements that pipeline: Explainable-DSE spends a fraction of
the budget converging to a high-quality feasible region, then a black-box
refiner (default: the HyperMapper-style constrained BO) continues from the
incumbent — combining explainability's agility with black-box exploration
around the optimum.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Type

from repro.arch.design_space import DesignPoint, DesignSpace
from repro.core.dse.constraints import Constraint
from repro.core.dse.explainable import ExplainableDSE
from repro.core.dse.result import DSEResult, TrialRecord, select_best
from repro.cost.evaluator import CostEvaluator
from repro.optim.base import BaselineOptimizer
from repro.optim.hypermapper import HyperMapperDSE

__all__ = ["HybridDSE"]


class HybridDSE:
    """Two-phase exploration: explainable warm start, black-box refine.

    Args:
        design_space / evaluator / constraints / objective: As for
            :class:`ExplainableDSE`.  The evaluator is shared, so points
            the refiner revisits are served from cache.
        max_evaluations: Total budget across both phases.
        warm_start_fraction: Share of the budget given to the explainable
            phase (the remainder refines).
        refiner: Black-box optimizer class for phase two.
        seed: Seed for the refiner.
    """

    def __init__(
        self,
        design_space: DesignSpace,
        evaluator: CostEvaluator,
        constraints: Sequence[Constraint],
        objective: str = "latency_ms",
        max_evaluations: int = 100,
        warm_start_fraction: float = 0.5,
        refiner: Type[BaselineOptimizer] = HyperMapperDSE,
        seed: int = 0,
        **explainable_kwargs,
    ):
        if not 0.0 < warm_start_fraction < 1.0:
            raise ValueError("warm_start_fraction must be in (0, 1)")
        self.space = design_space
        self.evaluator = evaluator
        self.constraints = list(constraints)
        self.objective = objective
        self.max_evaluations = max_evaluations
        self.warm_start_fraction = warm_start_fraction
        self.refiner = refiner
        self.seed = seed
        self.explainable_kwargs = explainable_kwargs

    def run(self, initial_point: Optional[DesignPoint] = None) -> DSEResult:
        """Run both phases and merge the trial logs."""
        started = time.perf_counter()
        warm_budget = max(1, int(self.max_evaluations * self.warm_start_fraction))
        explainable = ExplainableDSE(
            self.space,
            self.evaluator,
            self.constraints,
            objective=self.objective,
            max_evaluations=warm_budget,
            **self.explainable_kwargs,
        )
        warm = explainable.run(initial_point)

        refine_budget = self.max_evaluations - warm.evaluations
        refine_trials: List[TrialRecord] = []
        evaluations = warm.evaluations
        explanations = list(warm.explanations)
        if refine_budget > 0:
            refiner = self.refiner(
                self.space,
                self.evaluator,
                self.constraints,
                objective=self.objective,
                max_evaluations=refine_budget,
                seed=self.seed,
            )
            start_point = warm.best.point if warm.best else None
            refined = refiner.run(initial_point=start_point)
            refine_trials = refined.trials
            evaluations += refined.evaluations
            explanations.append(
                f"=== handoff to {refiner.name} with "
                f"{refine_budget} evaluations from "
                f"{'the warm-start incumbent' if start_point else 'scratch'} ==="
            )

        merged: List[TrialRecord] = []
        for phase, trials in (("warm", warm.trials), ("refine", refine_trials)):
            for trial in trials:
                merged.append(
                    TrialRecord(
                        index=len(merged),
                        point=trial.point,
                        costs=trial.costs,
                        feasible=trial.feasible,
                        mappable=trial.mappable,
                        utilizations=trial.utilizations,
                        note=f"{phase}: {trial.note}",
                    )
                )
        best = select_best(merged, self.constraints, objective=self.objective)
        return DSEResult(
            technique=f"hybrid-explainable+{self.refiner.name}",
            model=self.evaluator.workload.name,
            trials=merged,
            best=best,
            # Evaluator-consumed, like every engine: a refiner revisit of
            # the handoff point is a cache hit, a trial but no evaluation.
            evaluations=evaluations,
            wall_seconds=time.perf_counter() - started,
            explanations=explanations,
        )
