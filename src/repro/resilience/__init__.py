"""Resilience layer: fault taxonomy, worker supervision, fault injection.

Makes long DSE campaigns survive the faults that previously aborted
them (see ``docs/resilience.md``):

* :mod:`.errors` — the :class:`ReproError` taxonomy with structured
  context and a ``retryable`` flag, so callers distinguish transient
  worker faults from deterministic failures;
* :mod:`.supervisor` — :class:`RetryPolicy` (bounded retries,
  deterministic exponential backoff, ``REPRO_TASK_TIMEOUT``) and the
  campaign :class:`FailureRateBreaker` (``REPRO_MAX_FAILURE_RATE``);
* :mod:`.fault_injection` — the deterministic ``REPRO_FAULT_INJECT``
  chaos harness (crash/hang/kill at named sites) used by
  ``tests/test_resilience.py`` and ``benchmarks/chaos_smoke.py``.
"""

from repro.resilience.errors import (
    CacheCorruptionError,
    EvaluationError,
    InfeasibleDesignError,
    MapperFailureError,
    ReproError,
    SystemicFaultError,
    WorkerCrashError,
    WorkerTimeoutError,
    as_repro_error,
    is_retryable,
)
from repro.resilience.fault_injection import (
    FaultPlan,
    FaultSpec,
    FaultSpecError,
    InjectedCrash,
    attempt_scope,
    current_attempt,
    inject,
    parse_fault_plan,
)
from repro.resilience.supervisor import (
    FailureRateBreaker,
    RetryPolicy,
    resolve_task_timeout,
)

__all__ = [
    "CacheCorruptionError",
    "EvaluationError",
    "FailureRateBreaker",
    "FaultPlan",
    "FaultSpec",
    "FaultSpecError",
    "InfeasibleDesignError",
    "InjectedCrash",
    "MapperFailureError",
    "ReproError",
    "RetryPolicy",
    "SystemicFaultError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "as_repro_error",
    "attempt_scope",
    "current_attempt",
    "inject",
    "is_retryable",
    "parse_fault_plan",
    "resolve_task_timeout",
]
