"""The campaign state machine: ``ExplainableDSE.run()`` as explicit steps.

:class:`CampaignStateMachine` is the step loop of
:meth:`repro.core.dse.explainable.ExplainableDSE.run` lifted into an
object whose lifecycle is externally drivable::

    PENDING --start()--> RUNNING --step()*--> FINISHED
                           |  ^                FAILED (breaker trip)
                  pause()  v  | resume()
                         CHECKPOINTED
                           |
                  cancel() v  (also from RUNNING / PENDING)
                         CANCELLED

Each :meth:`step` performs exactly one acquisition attempt — the unit at
which the campaign checkpoints, pauses, resumes, and cancels — and the
machine's persistent form *is* the existing
:class:`~repro.telemetry.checkpoint.CampaignCheckpoint` schema: pausing
writes one, resuming restores one, and a machine rebuilt from a
checkpoint continues bit-identically.  ``ExplainableDSE.run()`` is a
thin driver (``start(); while RUNNING: step(); result()``), so a
campaign driven step-by-step — interleaved with other campaigns by the
:mod:`repro.service` scheduler, killed and resumed across processes —
produces byte-identical journals and result fingerprints to a straight
``run()`` *by construction*: both execute this class.

The machine is also Explainable-DSE's
:class:`~repro.optim.protocol.SearchEngine`: ``ask`` opens an attempt
(analysis and acquisition) and serves its candidates, ``tell`` records
them (quarantining failures through the circuit breaker) and closes the
attempt once its candidates are spent.  :meth:`step` is one attempt of
that same ask/tell, evaluated in place without protocol events, so
``DriverLoop(machine)`` and ``step()`` share every per-candidate line.

Journal-identity invariant: the machine only flushes its tracer at
attempt boundaries (checkpoints, pause, cancel, termination).  Events
within one attempt share a ``step`` number and are emitted in canonical
order, so any partition of the event stream into attempt-aligned flush
batches serializes to the same bytes as a single end-of-run flush.
"""

from __future__ import annotations

import enum
import math
import time
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.dse.constraints import all_satisfied
from repro.core.dse.result import DSEResult, TrialRecord, select_best
from repro.optim.protocol import EvalResult, SearchEngine, evaluate_point
from repro.resilience.supervisor import FailureRateBreaker
from repro.telemetry.checkpoint import trials_from_dicts
from repro.telemetry.events import (
    BottleneckIdentified,
    BudgetExhausted,
    CandidateGenerated,
    IncumbentUpdated,
    MitigationPredicted,
    RunSummary,
    StepStarted,
)
from repro.telemetry.tracer import Tracer

__all__ = [
    "CampaignState",
    "CampaignStateError",
    "CampaignStateMachine",
    "result_fingerprint",
]


class CampaignState(enum.Enum):
    """Lifecycle states of one campaign."""

    PENDING = "pending"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (
            CampaignState.FINISHED,
            CampaignState.CANCELLED,
            CampaignState.FAILED,
        )


class CampaignStateError(RuntimeError):
    """An operation was applied to a campaign in the wrong state."""


def result_fingerprint(result: DSEResult) -> str:
    """Canonical, exact rendering of everything a campaign decides.

    The single definition shared by the differential matrix, the
    campaign service's ``result`` responses, and the service smoke test,
    so "identical fingerprints" always means the same comparison.
    ``repr`` keeps float bit-patterns exact (JSON would need tagged
    inf/nan for unmappable trials).
    """
    payload = {
        "points": [t.point for t in result.trials],
        "costs": [t.costs for t in result.trials],
        "explanations": list(result.explanations),
        "best_point": result.best.point if result.best else None,
        "best_costs": result.best.costs if result.best else None,
        "evaluations": result.evaluations,
    }
    return repr(payload)


def _jsonable(value: object) -> object:
    """Candidate values as JSON scalars (bundles stringify)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class CampaignStateMachine(SearchEngine):
    """One Explainable-DSE campaign, drivable one acquisition attempt at
    a time (:meth:`step`) or one candidate at a time (``ask``/``tell``).

    Args:
        dse: The configured :class:`~repro.core.dse.explainable
            .ExplainableDSE` (design space, evaluator, constraints,
            budgets); the machine calls its analysis/acquisition/update
            methods so the per-attempt decisions live in one place.
        initial_point: Starting design point (default: the space
            minimum, or the point given to :meth:`start`); ignored on
            resume.
        tracer: Telemetry tracer (default: the DSE's own).
        checkpoint_path: When set, a crash-safe snapshot is written every
            ``checkpoint_every`` completed attempts, on pause/cancel, and
            at termination.
        checkpoint_every: Attempt interval between periodic snapshots.
        resume_from: A :class:`~repro.telemetry.checkpoint
            .CampaignCheckpoint` or a path to one; :meth:`start` restores
            it instead of evaluating ``initial_point``.
    """

    captures_failures = True

    def __init__(
        self,
        dse,
        initial_point=None,
        *,
        tracer: Optional[Tracer] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[object] = None,
        archive=None,
    ):
        self.dse = dse
        self.initial_point = initial_point
        self.tracer = tracer if tracer is not None else dse.tracer
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        #: Optional :class:`repro.optim.archive.ParetoArchive` fed every
        #: feasible trial at attempt boundaries.  On resume the caller
        #: passes a *fresh* (truncated) archive and the machine re-feeds
        #: the restored trial ledger, which reconstructs the frontier —
        #: and its journal — deterministically.
        self.archive = archive
        self._archive_fed = 0

        self.state = CampaignState.PENDING
        self.error: Optional[BaseException] = None

        # Loop state (populated by start()).
        self.trials: List[TrialRecord] = []
        self.explanations: List[str] = []
        self.exhausted: Set[str] = set()
        self.attempt = 0
        self.attempts_without_improvement = 0
        self.breaker = FailureRateBreaker()
        #: Patience or mitigation ran out: the checkpoint's ``finished``
        #: flag (budget exhaustion leaves it False).
        self.converged = False
        self.current = None
        self.current_eval = None
        self.tried_points: Set[Tuple] = set()
        self.base_evaluations = 0
        self._started: Optional[float] = None
        self._result: Optional[DSEResult] = None
        self._last_checkpoint_attempt: Optional[int] = None
        # The open attempt: (candidate_index, candidate) pairs not yet
        # served, served but not yet told, and (candidate, evaluation)
        # pairs told successfully.
        self._open = False
        self._queue: List[tuple] = []
        self._outstanding: List[tuple] = []
        self._evaluated: List[tuple] = []

    # -- search-engine surface -----------------------------------------------

    @property
    def evaluator(self):
        return self.dse.evaluator

    @property
    def finished(self) -> bool:
        return self.state.terminal

    @property
    def step_hint(self) -> int:
        return self.attempt if self._open else self.attempt + 1

    # -- derived accounting --------------------------------------------------

    @property
    def consumed(self) -> int:
        """Evaluations this campaign has consumed so far."""
        if self.state is CampaignState.PENDING:
            return 0
        if self._result is not None:
            return self._result.evaluations
        return self.dse.evaluator.evaluations - self.base_evaluations

    def slo_snapshot(self) -> dict:
        """Per-campaign SLO state: the resilience layer's view of this
        campaign (circuit breaker, quarantined trials, retry posture,
        attempt progress)."""
        quarantined = sum(
            1 for t in self.trials if t.note.startswith("quarantined")
        )
        return {
            "breaker": self.breaker.as_dict(),
            "quarantined_trials": quarantined,
            "trials": len(self.trials),
            "attempt": self.attempt,
            "attempts_without_improvement": (
                self.attempts_without_improvement
            ),
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self, initial_point=None) -> CampaignState:
        """PENDING -> RUNNING: evaluate the initial point (``initial_point``
        overrides the constructor's), or restore the ``resume_from``
        checkpoint (a finished checkpoint goes straight to FINISHED with
        the stored outcome)."""
        if self.state is not CampaignState.PENDING:
            raise CampaignStateError(
                f"cannot start a {self.state.value} campaign"
            )
        if initial_point is not None:
            self.initial_point = initial_point
        dse = self.dse
        self._started = time.perf_counter()
        try:
            if self.resume_from is not None:
                checkpoint = dse._load_resume(self.resume_from)
                self.trials = trials_from_dicts(checkpoint.trials)
                self.explanations = list(checkpoint.explanations)
                if checkpoint.finished:
                    best = select_best(
                        self.trials, dse.constraints, objective=dse.objective
                    )
                    self._result = DSEResult(
                        technique="explainable",
                        model=dse.evaluator.workload.name,
                        trials=self.trials,
                        best=best,
                        evaluations=checkpoint.consumed,
                        wall_seconds=time.perf_counter() - self._started,
                        explanations=self.explanations,
                    )
                    self._feed_archive()
                    self.state = CampaignState.FINISHED
                    return self.state
                self.exhausted = set(checkpoint.exhausted)
                self.tried_points = {
                    tuple(key) for key in checkpoint.tried_keys
                }
                self.attempt = checkpoint.attempt
                self.attempts_without_improvement = (
                    checkpoint.attempts_without_improvement
                )
                self.current = dict(checkpoint.current_point)
                dse.space.validate(self.current)
                # Replay the incumbent through the cost model
                # (bit-identical, and usually a cache hit) without
                # recording a trial or consuming budget.
                self.current_eval = dse.evaluator.evaluate(self.current)
                self.base_evaluations = (
                    dse.evaluator.evaluations - checkpoint.consumed
                )
                self._last_checkpoint_attempt = self.attempt
            else:
                self.base_evaluations = dse.evaluator.evaluations
                self.current = dict(
                    self.initial_point or dse.space.minimum_point()
                )
                dse.space.validate(self.current)
                # The initial point is not quarantined: failures propagate.
                self.current_eval = dse._record_trial(
                    self.current,
                    dse.evaluator.evaluate(self.current),
                    self.trials,
                    note="initial point",
                    tracer=self.tracer,
                    step=0,
                    candidate_index=0,
                )
                self.tried_points = {dse.space.point_key(self.current)}
        except BaseException as exc:
            self.state = CampaignState.FAILED
            self.error = exc
            raise
        self._feed_archive()
        self.state = CampaignState.RUNNING
        return self.state

    def step(self) -> CampaignState:
        """Run exactly one acquisition attempt (paper steps 1-6).

        Returns the state after the attempt: still ``RUNNING``,
        ``FINISHED`` (budget/patience/mitigation exhaustion — the result
        is ready), or raises after transitioning to ``FAILED`` when the
        failure-rate circuit breaker trips (a resumable checkpoint is
        written first when configured).

        The attempt runs through the machine's own :meth:`ask` /
        :meth:`tell`, one candidate at a time on the DSE's evaluator,
        without protocol events — so the journal is the campaign's
        decisions only.
        """
        if self.state is not CampaignState.RUNNING:
            raise CampaignStateError(
                f"cannot step a {self.state.value} campaign"
            )
        while True:
            points = self.ask(1)
            if not points:
                return self.state
            result = evaluate_point(self.evaluator, points[0], capture=True)
            self.tell([result])
            if not self._open:
                return self.state

    def ask(self, n: int) -> List[dict]:
        """Up to ``n`` candidates of the open attempt (opening the next
        one when none is open); ``[]`` once the campaign has ended."""
        if n <= 0:
            raise ValueError(f"ask(n) requires n >= 1, got {n}")
        self._require_started("ask")
        while True:
            if self._outstanding:
                # Results pending: serve more of the queue only while
                # the budget allows.
                return self._serve(n)
            if self._open:
                if self._queue and self._budget_left() > 0:
                    return self._serve(n)
                # Queue drained, or budget spent mid-attempt: close it.
                self._finish_attempt()
            if self.state is not CampaignState.RUNNING:
                return []
            candidates = self._begin_attempt()
            if candidates is None:
                return []
            self._open = True
            self._queue = list(enumerate(candidates))

    def tell(self, results: Sequence[EvalResult]) -> None:
        """Record results for served candidates, in ask order; the
        attempt closes (update, patience, breaker) once nothing of it
        remains to serve.  A tripped breaker discards the rest of the
        attempt and raises its systemic fault."""
        self._require_started("tell")
        results = list(results)
        if not results:
            return
        if len(results) > len(self._outstanding):
            raise ValueError(
                f"tell() got {len(results)} results but only "
                f"{len(self._outstanding)} points are outstanding"
            )
        dse = self.dse
        for res in results:
            index, candidate = self._outstanding[0]
            if dse.space.point_key(res.point) != dse.space.point_key(
                candidate.point
            ):
                raise ValueError(
                    "stale tell: result for a point that was never asked "
                    "(or out of ask order)"
                )
            self._outstanding.pop(0)
            record = dict(
                note=candidate.reason,
                tracer=self.tracer,
                step=self.attempt,
                candidate_index=index,
            )
            if res.error is not None:
                dse._quarantine(
                    candidate.point, res.error, self.trials, **record
                )
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
                dse._record_trial(
                    candidate.point, res.evaluation, self.trials, **record
                )
                self._evaluated.append((candidate, res.evaluation))
            if self.breaker.tripped:
                break
        if self.breaker.tripped or not (
            self._outstanding or (self._queue and self._budget_left() > 0)
        ):
            # Close eagerly so ``finished`` is accurate after the tell.
            self._finish_attempt()

    def _require_started(self, operation: str) -> None:
        if self.state is CampaignState.PENDING:
            raise CampaignStateError(
                f"start() must be called before {operation}()"
            )

    def _budget_left(self) -> int:
        consumed = self.dse.evaluator.evaluations - self.base_evaluations
        return self.dse.max_evaluations - consumed

    def _serve(self, n: int) -> List[dict]:
        count = min(n, max(0, self._budget_left()), len(self._queue))
        served = self._queue[:count]
        del self._queue[:count]
        for _, candidate in served:
            self.tried_points.add(self.dse.space.point_key(candidate.point))
        self._outstanding.extend(served)
        return [dict(candidate.point) for _, candidate in served]

    def _begin_attempt(self):
        """Steps 1-5 of one attempt: budget gate, bottleneck analysis,
        and candidate acquisition.

        Returns the acquired candidate list, or ``None`` when the
        attempt terminated the campaign instead (budget exhausted, or no
        mitigating candidates remain) — the state is then FINISHED and
        the result is ready.
        """
        dse = self.dse
        tracer = self.tracer
        if self._budget_left() <= 0:
            tracer.emit(
                BudgetExhausted(
                    step=self.attempt,
                    consumed=dse.evaluator.evaluations
                    - self.base_evaluations,
                    budget=dse.max_evaluations,
                )
            )
            self._terminate()
            return None
        self.attempt += 1
        attempt = self.attempt
        current, current_eval = self.current, self.current_eval
        tracer.emit(
            StepStarted(
                step=attempt,
                incumbent=dict(current),
                objective=current_eval.costs.get(dse.objective, math.inf),
                feasible=all_satisfied(current_eval.costs, dse.constraints),
            )
        )
        predictions, why, analysis = dse._analyze(current, current_eval)
        tracer.emit(BottleneckIdentified(step=attempt, **analysis))
        for prediction in predictions:
            tracer.emit(
                MitigationPredicted(
                    step=attempt,
                    parameter=prediction.parameter,
                    value=float(prediction.value),
                    subfunctions=list(prediction.contributing_subfunctions),
                )
            )
        candidates = dse._acquire(
            current, predictions, self.exhausted, self.tried_points
        )
        if not current_eval.mappable:
            candidates = (
                dse._compatibility_bundle(current, self.tried_points)
                + candidates
            )[: dse.max_candidates]
        if not candidates:
            # §4.3: when bottleneck information is exhausted the DSE
            # resorts to its black-box counterpart — neighbour moves.
            candidates = dse._neighbor_fallback(current, self.tried_points)
            if candidates:
                why += "; mitigation exhausted, sampling neighbours"
        for index, candidate in enumerate(candidates):
            tracer.emit(
                CandidateGenerated(
                    step=attempt,
                    candidate_index=index,
                    parameter=candidate.parameter,
                    value=_jsonable(candidate.value),
                    reason=candidate.reason,
                )
            )
        self.explanations.append(
            f"[attempt {attempt}] {why}; acquiring "
            f"{[f'{c.parameter}={c.value}' for c in candidates]}"
        )
        if not candidates:
            self.explanations.append(
                f"[attempt {attempt}] no mitigating candidates remain; "
                "terminating"
            )
            self.converged = True
            self._terminate()
            return None
        return candidates

    def _finish_attempt(self) -> CampaignState:
        """Step 6 of the open attempt: incumbent update over its
        successfully evaluated candidates (quarantined ones are already
        in the trial ledger), patience, breaker, checkpoint."""
        evaluated = self._evaluated
        self._open = False
        self._queue, self._outstanding, self._evaluated = [], [], []
        dse = self.dse
        tracer = self.tracer
        attempt = self.attempt
        current, current_eval = self.current, self.current_eval
        new_point, new_eval, decision = dse._update(
            current, current_eval, evaluated, self.exhausted
        )
        improved = dse.space.point_key(new_point) != dse.space.point_key(
            current
        )
        tracer.emit(
            IncumbentUpdated(
                step=attempt,
                point=dict(new_point),
                objective=new_eval.costs.get(dse.objective, math.inf),
                decision=decision,
                improved=improved,
            )
        )
        self.explanations.append(f"[attempt {attempt}] {decision}")
        if not improved:
            self.attempts_without_improvement += 1
            if self.attempts_without_improvement >= dse.patience:
                self.explanations.append(
                    f"[attempt {attempt}] no improvement for "
                    f"{dse.patience} attempts; terminating"
                )
                self.converged = True
        else:
            self.attempts_without_improvement = 0
            self.exhausted.clear()
            self.current, self.current_eval = dict(new_point), new_eval
        self._feed_archive()
        if self.breaker.tripped and not self.converged:
            # Systemic fault (REPRO_MAX_FAILURE_RATE exceeded): persist a
            # resumable snapshot, then abort instead of grinding on.
            self.explanations.append(
                f"[attempt {attempt}] circuit breaker tripped: "
                f"{self.breaker.failures} of {self.breaker.total} candidate "
                f"evaluations failed; aborting after checkpoint"
            )
            if self.checkpoint_path:
                self._checkpoint(finished=False)
            tracer.flush()
            self.state = CampaignState.FAILED
            self.error = self.breaker.systemic_fault(
                attempt=attempt, checkpoint=self.checkpoint_path
            )
            raise self.error
        if self.converged:
            return self._terminate()
        if self.checkpoint_path and attempt % self.checkpoint_every == 0:
            self._checkpoint(finished=False)
        return self.state

    def pause(self) -> CampaignState:
        """RUNNING -> CHECKPOINTED at the current attempt boundary.

        Persists a resumable snapshot (when a checkpoint path is
        configured and the boundary is not already covered by the
        periodic snapshot) and flushes the journal, so a paused campaign
        survives a process kill exactly like a checkpointed one.
        """
        if self.state is not CampaignState.RUNNING:
            raise CampaignStateError(
                f"cannot pause a {self.state.value} campaign"
            )
        if (
            self.checkpoint_path
            and self._last_checkpoint_attempt != self.attempt
        ):
            self._checkpoint(finished=False)
        else:
            self.tracer.flush(checkpoint=True)
        self.state = CampaignState.CHECKPOINTED
        return self.state

    def resume(self) -> CampaignState:
        """CHECKPOINTED -> RUNNING (in-process; cross-process resume goes
        through ``resume_from`` on a fresh machine)."""
        if self.state is not CampaignState.CHECKPOINTED:
            raise CampaignStateError(
                f"cannot resume a {self.state.value} campaign"
            )
        self.state = CampaignState.RUNNING
        return self.state

    def cancel(self) -> CampaignState:
        """Cancel at the current attempt boundary.

        A cancelled campaign's journal is a strict prefix of the solo
        run's journal (no terminal events are fabricated) and its
        checkpoint remains resumable, so cancellation is reversible by
        resubmission.
        """
        if self.state.terminal:
            raise CampaignStateError(
                f"cannot cancel a {self.state.value} campaign"
            )
        if self.state in (CampaignState.RUNNING, CampaignState.CHECKPOINTED):
            if (
                self.checkpoint_path
                and self._last_checkpoint_attempt != self.attempt
            ):
                self._checkpoint(finished=False)
            else:
                self.tracer.flush(checkpoint=True)
        self.state = CampaignState.CANCELLED
        return self.state

    def result(self) -> DSEResult:
        """The campaign outcome; only a FINISHED campaign has one."""
        if self.state is not CampaignState.FINISHED or self._result is None:
            raise CampaignStateError(
                f"no result: campaign is {self.state.value}"
            )
        return self._result

    # -- internals -----------------------------------------------------------

    def _feed_archive(self) -> None:
        """Feed trials recorded since the last boundary to the Pareto
        archive (no-op without one).  Inserts are idempotent, so crash
        replay through this path is safe."""
        if self.archive is None:
            return
        for trial in self.trials[self._archive_fed:]:
            self.archive.insert_trial(trial)
        self._archive_fed = len(self.trials)
        self.archive.flush()

    def _terminate(self) -> CampaignState:
        """The post-loop epilogue of ``run()``: summary event, final
        checkpoint, flush, result construction."""
        self._feed_archive()
        dse = self.dse
        consumed = dse.evaluator.evaluations - self.base_evaluations
        best = select_best(
            self.trials, dse.constraints, objective=dse.objective
        )
        self.tracer.emit(
            RunSummary(
                step=self.attempt,
                technique="explainable",
                model=dse.evaluator.workload.name,
                evaluations=consumed,
                best_objective=best.objective if best else math.inf,
                found_feasible=best is not None,
                counters=dse._perf_counters(),
            )
        )
        if self.checkpoint_path:
            self._checkpoint(finished=self.converged)
        self.tracer.flush()
        self._result = DSEResult(
            technique="explainable",
            model=dse.evaluator.workload.name,
            trials=self.trials,
            best=best,
            evaluations=consumed,
            wall_seconds=time.perf_counter() - self._started,
            explanations=self.explanations,
        )
        self.state = CampaignState.FINISHED
        return self.state

    def _checkpoint(self, finished: bool) -> None:
        self.dse._write_checkpoint(
            self.checkpoint_path,
            self.tracer,
            trials=self.trials,
            explanations=self.explanations,
            current=self.current,
            exhausted=self.exhausted,
            tried_points=self.tried_points,
            attempt=self.attempt,
            attempts_without_improvement=self.attempts_without_improvement,
            consumed=self.dse.evaluator.evaluations - self.base_evaluations,
            finished=finished,
        )
        self._last_checkpoint_attempt = self.attempt
