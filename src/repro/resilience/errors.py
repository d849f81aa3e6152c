"""The fault taxonomy of the evaluation pipeline.

Every fault the pipeline can encounter is expressed as a
:class:`ReproError` subclass carrying structured context (design point,
layer, attempt count, ...) and a ``retryable`` flag, so callers
distinguish transient infrastructure faults (a crashed or hung worker —
retry) from deterministic failures (a mapper bug on one layer, a corrupt
cache-plane segment — quarantine and continue) without catching bare
``Exception``:

* :class:`EvaluationError` — a design-point evaluation failed.

  * :class:`WorkerCrashError` — a worker process/thread died mid-task
    (``BrokenProcessPool``, SIGKILL); retryable.
  * :class:`WorkerTimeoutError` — a task exceeded ``REPRO_TASK_TIMEOUT``;
    retryable until the retry budget runs out.
  * :class:`MapperFailureError` — the mapping search itself raised;
    deterministic, not retryable.
  * :class:`InfeasibleDesignError` — the design point cannot be
    instantiated/evaluated at all; deterministic, not retryable.

* :class:`CacheCorruptionError` — a cache-plane segment is undecodable.
* :class:`SystemicFaultError` — the campaign-level failure-rate circuit
  breaker tripped (``REPRO_MAX_FAILURE_RATE``); the campaign state was
  checkpointed before this was raised.

The exceptions are picklable (worker processes return them across the
pool boundary), and ``str()`` renders the context as a stable one-liner
for logs, warnings, and :class:`~repro.telemetry.events.CandidateFailed`
events.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "EvaluationError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "MapperFailureError",
    "InfeasibleDesignError",
    "CacheCorruptionError",
    "SystemicFaultError",
    "is_retryable",
    "as_repro_error",
]


class ReproError(Exception):
    """Base of the pipeline fault taxonomy.

    Args:
        message: Human-readable description of the fault.
        retryable: Whether retrying the same operation may succeed
            (transient infrastructure faults) or not (deterministic
            failures); subclasses set a default.
        context: Structured context (``point``, ``layer``, ``attempts``,
            ``path``, ...) for telemetry and quarantine records.
    """

    #: Subclass default for the ``retryable`` flag.
    default_retryable = False

    def __init__(
        self,
        message: str,
        *,
        retryable: Optional[bool] = None,
        **context: Any,
    ):
        super().__init__(message)
        self.message = message
        self.retryable = (
            self.default_retryable if retryable is None else retryable
        )
        self.context: Dict[str, Any] = {
            k: v for k, v in context.items() if v is not None
        }

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(
            f"{key}={self.context[key]!r}" for key in sorted(self.context)
        )
        return f"{self.message} [{detail}]"

    def __reduce__(self):  # keep context across pickling (process pools)
        return (_rebuild_error, (type(self), self.message, self.retryable,
                                 self.context))

    def with_context(self, **context: Any) -> "ReproError":
        """Attach additional context in place (returns self)."""
        for key, value in context.items():
            if value is not None:
                self.context.setdefault(key, value)
        return self


def _rebuild_error(cls, message, retryable, context):
    error = cls(message, retryable=retryable)
    error.context = dict(context)
    return error


class EvaluationError(ReproError):
    """A design-point evaluation failed (context: ``point``, ``attempts``)."""


class WorkerCrashError(EvaluationError):
    """A worker died mid-task (broken pool, SIGKILL, injected crash)."""

    default_retryable = True


class WorkerTimeoutError(EvaluationError):
    """A task exceeded its ``REPRO_TASK_TIMEOUT`` budget."""

    default_retryable = True


class MapperFailureError(EvaluationError):
    """The per-layer mapping search raised (context: ``layer``)."""


class InfeasibleDesignError(EvaluationError):
    """A design point cannot be instantiated or evaluated at all."""


class CacheCorruptionError(ReproError):
    """A cache-plane segment is undecodable (context: ``path``)."""


class SystemicFaultError(ReproError):
    """The failure-rate circuit breaker tripped: faults are systemic, not
    isolated, so the campaign aborted through the checkpoint path
    (context: ``failures``, ``evaluations``, ``rate``, ``checkpoint``)."""


def is_retryable(exc: BaseException) -> bool:
    """Whether retrying the operation that raised ``exc`` may succeed.

    True for retryable :class:`ReproError` instances and for the stdlib
    executor-infrastructure faults (``BrokenExecutor``, future
    ``TimeoutError``); False for everything else — deterministic
    failures must surface, not burn the retry budget.
    """
    if isinstance(exc, ReproError):
        return exc.retryable
    from concurrent.futures import BrokenExecutor, TimeoutError as FutTimeout

    return isinstance(exc, (BrokenExecutor, FutTimeout))


def as_repro_error(
    exc: BaseException, default_message: str = "evaluation failed", **context
) -> ReproError:
    """Coerce any exception into the taxonomy (idempotent).

    A :class:`ReproError` passes through with ``context`` merged; any
    other exception becomes a non-retryable :class:`EvaluationError`
    recording the original type.
    """
    if isinstance(exc, ReproError):
        return exc.with_context(**context)
    return EvaluationError(
        f"{default_message}: {type(exc).__name__}: {exc}",
        retryable=False,
        cause=type(exc).__name__,
        **context,
    )
