"""In-memory spans around the public calls of each layer.

The spans are taken from outside the program: :class:`Instrumentation`
replaces a list of public functions and methods with wrappers that
open and close a span, and puts the originals back when it is removed.
Only the traced run installs it, so untraced runs time the unchanged
program.  Spans stay in memory and are written out once, at the end.

A span's layer is the part of its name before the first dot.  A
layer's self time is the time its spans cover minus the part covered
by their child spans, so the self times of all layers add up to the
root spans they sit under.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import sys
import threading
import time
from typing import Dict, List, Optional

#: (module, function, span name): module-level functions.  Every
#: ``repro`` module that imported the function by name is patched too.
FUNCTIONS = [
    ("repro.cost.fused", "search_layers_fused", "mapping.search_fused"),
    ("repro.core.bottleneck.analyzer", "analyze_tree", "bottleneck.analyze"),
    ("repro.telemetry.checkpoint", "save_checkpoint", "telemetry.checkpoint"),
]

#: (module, class, method, span name): methods and classmethods.
METHODS = [
    ("repro.mapping.mapper", "TopNMapper", "search_with_trace", "mapping.search"),
    (
        "repro.mapping.batch_candidates",
        "CandidateBatch",
        "from_specs",
        "mapping.materialize",
    ),
    (
        "repro.mapping.batch_candidates",
        "FusedCandidateBlock",
        "from_layer_batches",
        "mapping.materialize",
    ),
    ("repro.cost.evaluator", "CostEvaluator", "evaluate", "cost.evaluate"),
    ("repro.service.machine", "CampaignStateMachine", "step", "dse.step"),
    ("repro.telemetry.sinks", "JsonlSink", "flush", "telemetry.flush"),
    ("repro.service.client", "ServiceClient", "submit", "service.http.submit"),
    ("repro.service.client", "ServiceClient", "status", "service.http.status"),
    ("repro.service.client", "ServiceClient", "result", "service.http.result"),
    ("repro.service.client", "ServiceClient", "healthz", "service.http.healthz"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace", "tag")

    def __init__(self, span_id, name, start, parent, trace):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.tag = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace,
            "tag": self.tag,
        }


class SpanRecorder:
    """Spans of every thread, with a per-thread stack of open spans.

    A thread with no open span opens a root span in the trace given to
    :meth:`set_trace`; a thread that was given none takes its parent
    from :attr:`ambient` (the service runs one slice at a time, so the
    slice span is the parent of the work its worker thread does).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ambient: Optional[Span] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace: Optional[str]) -> None:
        """Trace id for the root spans this thread opens from now on."""
        self._local.trace = trace

    def open(
        self, name: str, trace: Optional[str] = None, push: bool = True
    ) -> Span:
        stack = self._stack()
        own_trace = getattr(self._local, "trace", None)
        if stack:
            parent, trace = stack[-1].id, trace or stack[-1].trace
        elif own_trace is None and self.ambient is not None:
            parent, trace = self.ambient.id, trace or self.ambient.trace
        else:
            parent, trace = None, trace or own_trace
        with self._lock:
            span = Span(next(self._ids), name, 0.0, parent, trace)
            self.spans.append(span)
        if push:
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def _wrap(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def _wrap_fused_search(recorder: SpanRecorder, name: str, func):
    """``search_layers_fused``: tag the span with the number of layer
    searches the fused block resolved (the rest go on to the per-layer
    search, which has spans of its own)."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            fused, remaining = func(*args, **kwargs)
        finally:
            recorder.close(span)
        span.tag = len(fused)
        return fused, remaining

    return wrapper


def _wrap_evaluate(recorder: SpanRecorder, func):
    """``CostEvaluator.evaluate``: tag the span ``new`` when the call
    ran the cost model (the evaluator's unique-evaluation count rose)
    and ``hit`` when the design-point cache answered it."""

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        before = self.evaluations
        span = recorder.open("cost.evaluate")
        try:
            return func(self, *args, **kwargs)
        finally:
            recorder.close(span)
            span.tag = "new" if self.evaluations > before else "hit"

    return wrapper


class ServiceProbe:
    """Scheduler and retry events of the traced service run.

    Wraps ``CampaignScheduler.submit`` / ``next_slice`` / ``report``: a
    slice span runs from ``next_slice`` handing out a campaign to
    ``report`` for it, and is the ambient parent of the work done in
    between.  Also counts ``RetryPolicy.backoff_seconds`` calls, one
    per retry of an evaluation or a client request.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.submitted: Dict[str, float] = {}
        self.first_slice: Dict[str, float] = {}
        self.settled: Dict[str, float] = {}
        self.retries = 0
        self._lock = threading.Lock()

    def wrap_submit(self, func):
        @functools.wraps(func)
        def wrapper(scheduler, campaign_id, *args, **kwargs):
            self.submitted.setdefault(campaign_id, time.perf_counter())
            return func(scheduler, campaign_id, *args, **kwargs)

        return wrapper

    def wrap_next_slice(self, func):
        @functools.wraps(func)
        def wrapper(scheduler, *args, **kwargs):
            decision = func(scheduler, *args, **kwargs)
            if decision is not None:
                cid = decision.campaign_id
                self.first_slice.setdefault(cid, time.perf_counter())
                self.recorder.ambient = self.recorder.open(
                    "service.slice", trace=cid, push=False
                )
            return decision

        return wrapper

    def wrap_report(self, func):
        @functools.wraps(func)
        def wrapper(scheduler, campaign_id, steps, *args, **kwargs):
            span = self.recorder.ambient
            if span is not None and span.trace == campaign_id:
                self.recorder.close(span)
                self.recorder.ambient = None
            if kwargs.get("done", args[0] if args else False):
                self.settled[campaign_id] = time.perf_counter()
            return func(scheduler, campaign_id, steps, *args, **kwargs)

        return wrapper

    def wrap_backoff(self, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.retries += 1
            return func(*args, **kwargs)

        return wrapper


class CollectorTimer:
    """Time the garbage collector spends, from ``gc.callbacks``.

    Collections stop every thread and fall inside whatever span is
    open, so their time is reported on its own as well."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.full_seconds = 0.0
        self.full_collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        self.seconds += elapsed
        if info["generation"] == 2:
            self.full_seconds += elapsed
            self.full_collections += 1


class Instrumentation:
    """Install span wrappers on every layer's public calls; remove them
    with :meth:`uninstall`."""

    def __init__(self, recorder: SpanRecorder):
        import importlib

        self.recorder = recorder
        self.probe = ServiceProbe(recorder)
        self.collector = CollectorTimer()
        gc.callbacks.append(self.collector)
        self._undo: list = []
        for module_name, func_name, span_name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, func_name)
            wrap = _wrap_fused_search if span_name == "mapping.search_fused" else _wrap
            wrapped = wrap(recorder, span_name, original)
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        for module_name, cls_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(recorder, span_name, raw.__func__))
            elif span_name == "cost.evaluate":
                replacement = _wrap_evaluate(recorder, raw)
            else:
                replacement = _wrap(recorder, span_name, raw)
            self._set(cls, method, replacement)
        from repro.resilience.supervisor import RetryPolicy
        from repro.service.scheduler import CampaignScheduler

        for cls, method, wrap in (
            (CampaignScheduler, "submit", self.probe.wrap_submit),
            (CampaignScheduler, "next_slice", self.probe.wrap_next_slice),
            (CampaignScheduler, "report", self.probe.wrap_report),
            (RetryPolicy, "backoff_seconds", self.probe.wrap_backoff),
        ):
            self._set(cls, method, wrap(cls.__dict__[method]))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        if self.collector in gc.callbacks:
            gc.callbacks.remove(self.collector)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - child_time.get(span.id, 0.0)
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def outermost_time(spans: List[Span], names) -> float:
    """Total duration of the spans named ``names`` that are not nested in
    another span of the same names (nested calls are counted once)."""
    names = set(names)
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.duration
    return total
