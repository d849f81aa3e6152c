"""Shared layer-level mapping cache with an exact and a re-score tier.

The hot path of every figure and table is the per-layer mapping search:
each design-point evaluation runs one search per unique layer, and
neighbouring candidates in a DSE walk share most of their
mapping-relevant configuration.  This module memoizes those searches at
layer granularity, below the :class:`repro.cost.evaluator.CostEvaluator`
design-point cache:

* **Exact tier** — keyed by ``(mapper signature, layer signature, full
  config signature)``; a hit returns the stored
  :class:`~repro.mapping.mapper.MappingResult` unchanged.
* **Re-score tier** — keyed with the bandwidth/clock fields removed
  (:func:`repro.perf.signature.search_invariant_signature`); a hit
  re-scores the recorded :class:`~repro.mapping.mapper.SearchTrace` via
  :func:`repro.mapping.mapper.rescore_trace`, which is bit-identical to
  a cold search.  Sweeps over off-chip bandwidth therefore never repeat
  the candidate enumeration or the per-candidate latency model.

Both tiers are LRU-bounded and thread-safe.  Persistence — across
processes and across runs — is the cross-process
:class:`~repro.perf.cache_plane.CachePlane` below them
(``REPRO_CACHE_PLANE``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

from repro.arch.accelerator import AcceleratorConfig
from repro.perf.cache_plane import KIND_RESULT, KIND_TRACE, CachePlane
from repro.perf.knobs import cache_plane_dir
from repro.perf.signature import (
    config_signature,
    layer_signature,
    mapper_signature,
    search_invariant_signature,
    supports_tracing,
)
from repro.workloads.layers import LayerShape

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle:
    # repro.mapping.mapper -> repro.cost -> repro.perf -> this module)
    from repro.mapping.mapper import MappingResult, SearchTrace

__all__ = ["MappingCache", "CachingMapper", "shared_cache"]


class MappingCache:
    """LRU-bounded two-tier store of mapping-search outcomes.

    Args:
        max_results: Exact-tier capacity (one ``MappingResult`` each).
        max_traces: Re-score-tier capacity; traces hold up to ``top_n``
            ``(mapping, execution)`` pairs, so this tier is kept small.
        plane: Optional cross-process :class:`CachePlane`; both tiers
            write through to it and consult it on local misses, so
            concurrently running processes share search outcomes.
    """

    def __init__(
        self,
        max_results: int = 32768,
        max_traces: int = 1024,
        plane: Optional[CachePlane] = None,
    ):
        self.max_results = max_results
        self.max_traces = max_traces
        self.plane = plane
        self._results: "OrderedDict[Tuple, MappingResult]" = OrderedDict()
        self._traces: "OrderedDict[Tuple, SearchTrace]" = OrderedDict()
        self._lock = threading.Lock()

    # -- tier access ----------------------------------------------------------

    def get_result(self, key: Tuple) -> Optional[MappingResult]:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
                return result
        if self.plane is not None:
            result = self.plane.get(KIND_RESULT, key)
            if result is not None:
                self._put_result_local(key, result)
                return result
        return None

    def put_result(self, key: Tuple, result: MappingResult) -> None:
        self._put_result_local(key, result)
        if self.plane is not None:
            self.plane.put(KIND_RESULT, key, result)

    def _put_result_local(self, key: Tuple, result: MappingResult) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            while len(self._results) > self.max_results:
                self._results.popitem(last=False)

    def get_trace(self, key: Tuple) -> Optional[SearchTrace]:
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
                return trace
        if self.plane is not None:
            trace = self.plane.get(KIND_TRACE, key)
            if trace is not None:
                self._put_trace_local(key, trace)
                return trace
        return None

    def put_trace(self, key: Tuple, trace: SearchTrace) -> None:
        self._put_trace_local(key, trace)
        if self.plane is not None:
            self.plane.put(KIND_TRACE, key, trace)

    def _put_trace_local(self, key: Tuple, trace: SearchTrace) -> None:
        with self._lock:
            self._traces[key] = trace
            self._traces.move_to_end(key)
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)

    # -- introspection --------------------------------------------------------

    def size(self) -> int:
        """Exact-tier entry count."""
        return len(self._results)

    def trace_count(self) -> int:
        """Re-score-tier entry count."""
        return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._results.clear()
            self._traces.clear()


class CachingMapper:
    """Drop-in mapper wrapper backed by a :class:`MappingCache`.

    Satisfies the ``Mapper`` protocol of ``CostEvaluator`` while serving
    repeated (layer, config) searches from the cache.  Its counters are
    per wrapper (the cache itself may be shared), so each evaluator
    reports its own hit-rate.
    """

    def __init__(self, mapper, cache: Optional[MappingCache] = None):
        if not supports_tracing(mapper):
            raise TypeError(
                f"{mapper!r} does not implement the traced-search protocol "
                "(signature() + search_with_trace())"
            )
        self.mapper = mapper
        self.cache = cache if cache is not None else shared_cache()
        self._mapper_sig = mapper_signature(mapper)
        self._include_name = bool(
            getattr(mapper, "cache_layer_name_relevant", True)
        )
        self.objective = getattr(mapper, "objective", "latency")
        self.exact_hits = 0
        self.rescore_hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        return getattr(self.mapper, "name", type(self.mapper).__name__)

    def reset_counters(self) -> None:
        self.exact_hits = self.rescore_hits = self.misses = 0

    def _keys(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Tuple[Tuple, Tuple]:
        lsig = layer_signature(layer, include_name=self._include_name)
        return (
            (self._mapper_sig, lsig, config_signature(config)),
            (self._mapper_sig, lsig, search_invariant_signature(config)),
        )

    def lookup(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> Optional[MappingResult]:
        """Serve from the cache, or return None (counting nothing)."""
        exact_key, trace_key = self._keys(layer, config)
        result = self.cache.get_result(exact_key)
        if result is not None:
            self.exact_hits += 1
            return result
        trace = self.cache.get_trace(trace_key)
        if trace is not None:
            from repro.mapping.mapper import rescore_trace

            result = rescore_trace(layer, config, trace, self.objective)
            self.cache.put_result(exact_key, result)
            self.rescore_hits += 1
            return result
        return None

    def store(
        self,
        layer: LayerShape,
        config: AcceleratorConfig,
        result: MappingResult,
        trace: Optional[SearchTrace] = None,
    ) -> None:
        """Record a missed search's outcome (e.g. one a worker process
        or the fused path returned); counts the miss."""
        self.misses += 1
        exact_key, trace_key = self._keys(layer, config)
        self.cache.put_result(exact_key, result)
        if trace is not None:
            self.cache.put_trace(trace_key, trace)

    def __call__(
        self, layer: LayerShape, config: AcceleratorConfig
    ) -> MappingResult:
        result = self.lookup(layer, config)
        if result is not None:
            return result
        result, trace = self.mapper.search_with_trace(layer, config)
        self.store(layer, config, result, trace)
        return result


_SHARED: Optional[MappingCache] = None
_SHARED_LOCK = threading.Lock()


def shared_cache() -> MappingCache:
    """The process-wide mapping cache shared by all evaluators.

    Created lazily.  When ``REPRO_CACHE_PLANE`` names a directory, a
    cross-process :class:`CachePlane` is attached below both tiers, so
    concurrently running processes share search outcomes live and a
    later run pointed at the same directory starts warm.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            plane_dir = cache_plane_dir()
            plane = CachePlane(plane_dir) if plane_dir else None
            _SHARED = MappingCache(plane=plane)
        return _SHARED
