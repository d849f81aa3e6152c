"""The ask/tell optimizer protocol: inverted-control search engines.

Every optimizer in the reproduction — the eight black-box baselines and
Explainable-DSE — is a :class:`SearchEngine`: the engine proposes, a
driver evaluates, the engine absorbs the results and proposes again.
That lets one harness multiplex engines (the campaign service
interleaves *attempts*; an external proposer brings its own evaluator)
and charges every engine against the same evaluation budget through the
same loop, the way Optuna-style multi-objective DSE frameworks and
LLM-DSE's external-agent loop do (see PAPERS.md):

* :class:`SearchEngine` — the protocol: ``start()``, ``ask(n)`` returning
  up to ``n`` design points, ``tell(results)`` returning their costs,
  ``finished``/``result()``.  The baselines implement it in
  :class:`repro.optim.base.BaselineOptimizer`, Explainable-DSE in
  :class:`repro.service.machine.CampaignStateMachine`.
* :class:`DriverLoop` — the one deterministic driver: asks, charges the
  engine's evaluator, tells, and journals :class:`~repro.telemetry
  .events.AskIssued` / :class:`~repro.telemetry.events.TellRecorded`
  protocol events.  Every baseline's ``run()`` is a ``DriverLoop`` run,
  and ``tests/goldens/engines.json`` pins each engine's outcome.

Determinism contract: ``ask`` serves candidates in the engine's canonical
acquisition order, capped at the remaining budget, and ``tell`` must
deliver results in ask order (FIFO).  ``ask(n <= 0)`` and a ``tell`` for
a point never asked (or out of order) raise :class:`ValueError` — stale
tells from a confused driver must never corrupt a journal.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.arch.design_space import DesignPoint
from repro.core.dse.result import DSEResult
from repro.telemetry.events import AskIssued, TellRecorded
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "Proposal",
    "EvalResult",
    "SearchEngine",
    "DriverLoop",
    "evaluate_point",
]


@dataclass(frozen=True)
class Proposal:
    """One candidate an engine proposes for evaluation."""

    point: Dict[str, Any]
    note: str = ""


@dataclass
class EvalResult:
    """One evaluation outcome a driver tells back to an engine.

    Exactly one of ``evaluation`` / ``error`` is set.  Engines that do
    not declare ``captures_failures`` never receive an ``error`` — the
    driver lets the failure propagate instead (only Explainable-DSE
    quarantines).
    """

    point: Dict[str, Any]
    evaluation: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class SearchEngine(abc.ABC):
    """The ask/tell protocol every optimizer implements.

    Lifecycle: ``start(initial_point)`` once, then repeat ``ask(n)`` /
    ``tell(results)`` until ``finished``; ``result()`` yields the
    :class:`~repro.core.dse.result.DSEResult`.  ``ask`` may return fewer
    than ``n`` points (budget cap) and returns ``[]`` only once the
    engine is finished.
    """

    #: Whether ``tell`` accepts :class:`EvalResult` with ``error`` set
    #: (quarantine semantics).  Engines without it are handed failures
    #: by re-raise.
    captures_failures = False

    #: Telemetry tracer protocol events are journaled through.
    tracer: Tracer = NULL_TRACER

    @abc.abstractmethod
    def start(self, initial_point: Optional[DesignPoint] = None) -> None:
        """Reset run state and begin a search."""

    @abc.abstractmethod
    def ask(self, n: int) -> List[DesignPoint]:
        """Up to ``n`` candidate points; raises ``ValueError`` on
        ``n <= 0``."""

    @abc.abstractmethod
    def tell(self, results: Sequence[EvalResult]) -> None:
        """Deliver evaluation results, in ask (FIFO) order; raises
        ``ValueError`` for results whose points were never asked."""

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """True once the search has terminated (budget or convergence)."""

    @abc.abstractmethod
    def result(self) -> DSEResult:
        """The search outcome; only valid once ``finished``."""

    @property
    def step_hint(self) -> int:
        """The engine's current step counter, for protocol telemetry."""
        return 0


def evaluate_point(
    evaluator, point: DesignPoint, *, capture: bool
) -> EvalResult:
    """Evaluate one asked point into an :class:`EvalResult`.

    With ``capture``, an evaluation exception becomes the result's
    ``error`` (for engines that quarantine); otherwise it propagates.
    Interrupts always propagate.
    """
    if not capture:
        return EvalResult(point=point, evaluation=evaluator.evaluate(point))
    try:
        evaluation = evaluator.evaluate(point)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        return EvalResult(point=point, error=exc)
    return EvalResult(point=point, evaluation=evaluation)


class DriverLoop:
    """The one deterministic driver for any :class:`SearchEngine`.

    Asks for up to ``batch_size`` points, evaluates each through
    ``evaluator`` (default: the engine's own, so budget charging is
    automatic), tells the results back in ask order, and journals one
    :class:`AskIssued` / :class:`TellRecorded` pair per round through the
    engine's tracer.  When the engine ``captures_failures``, evaluation
    exceptions are delivered as :class:`EvalResult` errors instead of
    propagating, and the engine quarantines them.

    ``archive``, when given, is fed every trial of the final result (an
    object with ``insert_trial``, e.g. :class:`repro.optim.archive
    .ParetoArchive`); archive inserts are idempotent, so feeding from
    the result covers engine-internal evaluations (initial points) too.
    """

    def __init__(
        self,
        engine: SearchEngine,
        evaluator=None,
        *,
        batch_size: int = 1,
        archive=None,
        tracer: Optional[Tracer] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.engine = engine
        self.evaluator = (
            evaluator if evaluator is not None else engine.evaluator
        )
        self.batch_size = batch_size
        self.archive = archive
        self.tracer = tracer if tracer is not None else engine.tracer

    def run(self, initial_point: Optional[DesignPoint] = None) -> DSEResult:
        """Drive the engine to completion; returns its result."""
        engine = self.engine
        engine.start(initial_point)
        while not engine.finished:
            step = engine.step_hint
            points = engine.ask(self.batch_size)
            self.tracer.emit(
                AskIssued(
                    step=step,
                    requested=self.batch_size,
                    returned=len(points),
                )
            )
            if not points:
                if engine.finished:
                    break
                raise RuntimeError(
                    "ask/tell protocol stall: ask() returned no points "
                    "but the engine is not finished"
                )
            results = [
                evaluate_point(
                    self.evaluator, point, capture=engine.captures_failures
                )
                for point in points
            ]
            failures = sum(not res.ok for res in results)
            self.tracer.emit(
                TellRecorded(
                    step=step, count=len(results), failures=failures
                )
            )
            engine.tell(results)
        result = engine.result()
        if self.archive is not None:
            for trial in result.trials:
                self.archive.insert_trial(trial)
        return result
