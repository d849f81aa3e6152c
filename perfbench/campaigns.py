"""The benchmark's workloads: their inputs, and the campaigns they run.

Every input is made from the ``--seed`` argument; the program sees only
the generated campaigns.  A library workload runs a fixed catalog of
campaigns in the order the seed draws; ``expected.json`` holds the
expected result fingerprint of every catalog entry (see
``make_expected.py``), so every campaign of every seed is checked
against a result the seed commit produced.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.accelerator import build_edge_design_space
from repro.experiments.setup import (
    make_evaluator,
    run_baseline,
    run_explainable_dse,
)
from repro.perf.mapping_cache import MappingCache
from repro.service.machine import result_fingerprint

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: A service campaign not settled after this long counts as failed
#: (the run must end well inside its time limit).
WAIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class LibraryWorkload:
    """Back-to-back campaigns through ``run_explainable_dse`` (kind
    ``explore``) or ``run_baseline`` (kind ``baseline``), one client.

    Catalog entry ``i`` is one campaign: for ``explore`` the start
    point ``space.random_point(Random("<name>:<i>"))``; for ``baseline``
    the technique ``techniques[i % len(techniques)]`` with optimizer
    seed ``i``.  A run takes the entries in the seed's order, each once.
    Every seed runs the same campaigns, so run-to-run spread measures
    the code rather than the draw; the order changes which memos a
    campaign finds warm and where the garbage collector's full passes
    fall.
    """

    name: str
    kind: str
    model: str
    iterations: int
    catalog: int
    objective: str = "latency"
    techniques: Tuple[str, ...] = ()

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model,
            "iterations": self.iterations,
            "catalog": self.catalog,
            "objective": self.objective,
            "techniques": list(self.techniques),
        }

    def evaluator(self):
        """A fresh evaluator with an empty mapping cache of its own, as
        in a ``repro explore`` process: the process-wide memos stay warm
        across campaigns, a campaign's layer searches do not.  The
        mapper keeps its user default (top-N 150)."""
        return make_evaluator(
            self.model,
            objective=self.objective,
            mapping_cache=MappingCache(),
        )

    def order(self, seed: int) -> List[int]:
        """The seed's campaign order over the catalog."""
        order = list(range(self.catalog))
        random.Random(f"order:{self.name}:{seed}").shuffle(order)
        return order

    def run(self, index: int, evaluator, warmup: bool = False):
        """One campaign, as ``repro explore`` / ``repro compare`` run it.
        ``warmup`` runs the untimed set-up campaign instead: from the
        paper's minimum point, or a baseline with a seed outside the
        catalog."""
        if self.kind == "explore":
            space = build_edge_design_space()
            if warmup:
                point = space.minimum_point()
            else:
                point = space.random_point(random.Random(f"{self.name}:{index}"))
            return run_explainable_dse(
                self.model,
                iterations=self.iterations,
                evaluator=evaluator,
                initial_point=point,
            )
        return run_baseline(
            self.techniques[index % len(self.techniques)],
            self.model,
            iterations=self.iterations,
            mapping_mode="codesign",
            seed=self.catalog + index if warmup else index,
            evaluator=evaluator,
        )

    def warmup(self) -> None:
        evaluator = self.evaluator()
        self.run(0, evaluator, warmup=True)
        evaluator.close()


@dataclass(frozen=True)
class ServiceWorkload:
    """Closed loop against an in-process campaign service over HTTP.

    One client thread per tenant (``alice``, ``bob``) submits a
    campaign and waits for it, as ``repro submit --wait`` does, then
    submits the next.  The pool holds one spec per model and iteration
    count; the seed draws the order in which the clients take them.

    Iteration counts are sized per model so every campaign costs about
    the same: the client polls at 0.2, 0.6, 1.4, 3.0 s after submitting,
    so result latency moves in steps, and campaigns of mixed sizes would
    straddle a step and make the latency percentiles jump between them.
    """

    name: str
    iterations: Tuple[Tuple[str, Tuple[int, ...]], ...]
    tenants: Tuple[str, ...] = ("alice", "bob")

    def pool(self, seed: int) -> List[dict]:
        pool = [
            {"model": model, "iterations": count}
            for model, counts in self.iterations
            for count in counts
        ]
        random.Random(f"pool:{self.name}:{seed}").shuffle(pool)
        return pool


WORKLOADS = {
    w.name: w
    for w in (
        LibraryWorkload(
            "explore-effnet",
            "explore",
            "efficientnetb0",
            iterations=4,
            catalog=13,
        ),
        LibraryWorkload(
            "explore-transformer",
            "explore",
            "transformer",
            iterations=20,
            catalog=30,
        ),
        LibraryWorkload(
            "baselines-edp",
            "baseline",
            "resnet18",
            iterations=16,
            catalog=15,
            objective="edp",
            techniques=("random", "genetic", "bayesian"),
        ),
        ServiceWorkload(
            "service-tenants",
            iterations=(
                ("resnet18", (2, 3)),
                ("transformer", (1, 2)),
                ("mobilenetv2", (1,)),
            ),
        ),
    )
}


def fingerprint_hash(result) -> str:
    return hashlib.sha256(result_fingerprint(result).encode()).hexdigest()


def load_expected(name: str, workload: LibraryWorkload) -> dict:
    """The workload's catalog record; refuses a stale one."""
    try:
        record = json.loads(EXPECTED_PATH.read_text())[name]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"perfbench: no expected fingerprints for {name}: {exc}")
    if record["config"] != workload.config():
        raise SystemExit(
            f"perfbench: {EXPECTED_PATH.name} was made for another {name} "
            f"configuration; rerun make_expected.py"
        )
    return record


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class CampaignRecord:
    """What the benchmark keeps of one settled campaign."""

    label: str
    seconds: float
    evaluations: int = 0
    ok: bool = True
    error: str = ""
    best_latency_ms: Optional[float] = None
    feasible: int = 0
    trials: int = 0
    quarantined: int = 0
    perf: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _result_fields(record: CampaignRecord, result) -> None:
    record.evaluations = result.evaluations
    record.trials = len(result.trials)
    record.feasible = sum(1 for t in result.trials if t.feasible)
    record.quarantined = sum(
        1 for t in result.trials if t.note.startswith("quarantined")
    )
    if result.best is not None and math.isfinite(result.best.costs["latency_ms"]):
        record.best_latency_ms = result.best.costs["latency_ms"]


def _collect_unobserved() -> None:
    """A full collection that ``gc.callbacks`` (the traced run's
    collector timer) do not see."""
    callbacks = list(gc.callbacks)
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks.extend(callbacks)


def run_library(
    workload: LibraryWorkload,
    seed: int,
    seconds: float,
    campaigns: Optional[int] = None,
    recorder=None,
) -> Tuple[List[CampaignRecord], float]:
    """The catalog in the seed's order until ``seconds`` have passed
    (at least one campaign), or exactly its first ``campaigns``
    entries.  Returns the campaigns and the loop's wall time.

    Before each campaign, untimed, the garbage collector runs, so every
    campaign starts from an empty young heap as in a fresh ``repro
    explore`` process: where its collections fall then depends on the
    campaign, not on the ones that ran before it."""
    expected = load_expected(workload.name, workload)
    order = workload.order(seed)
    if campaigns is not None:
        order = order[:campaigns]
    records: List[CampaignRecord] = []
    started = time.perf_counter()
    collecting = 0.0
    for index in order:
        if (
            campaigns is None
            and records
            and time.perf_counter() - started >= seconds
        ):
            break
        begin = time.perf_counter()
        _collect_unobserved()
        collecting += time.perf_counter() - begin
        records.append(_library_campaign(workload, index, expected, recorder))
    return records, time.perf_counter() - started - collecting


def _library_campaign(workload, index, expected, recorder) -> CampaignRecord:
    label = f"{workload.name}:{index}"
    evaluator = workload.evaluator()
    span = None
    if recorder is not None:
        recorder.set_trace(label)
        root = "dse.campaign" if workload.kind == "explore" else "optim.campaign"
        span = recorder.open(root)
    begin = time.perf_counter()
    try:
        result = workload.run(index, evaluator)
    except Exception as exc:  # noqa: BLE001 - a failed campaign is counted
        record = CampaignRecord(label, time.perf_counter() - begin)
        record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
        return record
    finally:
        if span is not None:
            recorder.close(span)
        evaluator.close()
    record = CampaignRecord(label, time.perf_counter() - begin)
    _result_fields(record, result)
    if fingerprint_hash(result) != expected["sha256"][str(index)]:
        record.ok, record.error = False, "fingerprint mismatch"
    record.perf = evaluator.perf_summary()
    return record


# -- the service workload ----------------------------------------------------


class HostedService:
    """A :class:`CampaignService` and its HTTP endpoint on loopback,
    run on an event loop in a background thread of this process."""

    def __init__(self, spool: Path, campaign_factory=None):
        from repro.service import CampaignService
        from repro.service.http import ServiceEndpoint

        self._loop = asyncio.new_event_loop()
        self.service = CampaignService(spool, campaign_factory=campaign_factory)
        self.endpoint = ServiceEndpoint(self.service)
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="perfbench-service"
        )
        self._thread.start()
        self._call(self.service.start())
        self._call(self.endpoint.start())
        self.url = f"http://127.0.0.1:{self.endpoint.port}"

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def close(self) -> None:
        try:
            self._call(self.endpoint.stop())
            self._call(self.service.stop())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()


class EvaluatorLog:
    """Campaign factory for the hosted service: the service's default
    factory, keeping each campaign's evaluator for its counters."""

    def __init__(self):
        from repro.service.service import default_campaign_factory

        self._default = default_campaign_factory
        self.evaluators = []
        self._lock = threading.Lock()

    def __call__(self, spec):
        dse = self._default(spec)
        with self._lock:
            self.evaluators.append(dse.evaluator)
        return dse


def service_references(pool: List[dict]) -> Dict[str, tuple]:
    """Solo library runs of every spec in the pool: spec key ->
    (fingerprint, the solo run's :class:`CampaignRecord`).  A service
    campaign whose fingerprint matches shares the solo run's trials."""
    from repro.service.service import CampaignSpec, default_campaign_factory

    references = {}
    for spec in pool:
        key = json.dumps(spec, sort_keys=True)
        if key not in references:
            dse = default_campaign_factory(CampaignSpec.from_dict(spec))
            result = dse.run()
            dse.evaluator.close()
            solo = CampaignRecord(key, 0.0)
            _result_fields(solo, result)
            references[key] = (result_fingerprint(result), solo)
    return references


def service_warmup(url: str) -> None:
    """One untimed campaign from the paper's minimum point (service
    campaigns start there), polled tightly so set-up time is not
    rounded up to the client's poll back-off."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url)
    cid = client.submit({"model": "resnet18", "iterations": 4})
    status = client.wait(cid, poll=0.01, poll_max=0.01)
    if status["status"] != "finished":
        raise RuntimeError(f"warm-up campaign ended {status['status']}")


def run_service(
    workload: ServiceWorkload,
    seed: int,
    seconds: float,
    url: str,
    references: Dict[str, tuple],
    fixed_per_client: Optional[int] = None,
    recorder=None,
) -> Tuple[List[CampaignRecord], float]:
    """Closed loop of one thread per tenant.  Returns the settled
    campaigns and the loop's wall time."""
    from repro.service.client import ServiceClient

    pool = workload.pool(seed)
    records: List[CampaignRecord] = []
    lock = threading.Lock()
    started = time.perf_counter()

    def client_loop(slot: int, tenant: str) -> None:
        client = ServiceClient(url)
        number = 0
        while True:
            if fixed_per_client is not None:
                if number >= fixed_per_client:
                    return
            elif number and time.perf_counter() - started >= seconds:
                return
            spec = pool[(len(workload.tenants) * number + slot) % len(pool)]
            number += 1
            try:
                record = _service_campaign(
                    client, tenant, spec, references, recorder
                )
            except Exception as exc:  # noqa: BLE001 - the loop must go on
                record = CampaignRecord(f"{tenant}:{spec['model']}", 0.0)
                record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
            with lock:
                records.append(record)

    threads = [
        threading.Thread(target=client_loop, args=(slot, tenant))
        for slot, tenant in enumerate(workload.tenants)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def _service_campaign(client, tenant, spec, references, recorder):
    from repro.service.client import ServiceClientError

    label = f"{tenant}:{spec['model']}:{spec['iterations']}"
    if recorder is not None:
        recorder.set_trace(f"{tenant}:submit")
    begin = time.perf_counter()
    try:
        cid = client.submit(dict(spec, tenant=tenant))
        if recorder is not None:
            recorder.set_trace(cid)
        status = client.wait(cid, timeout=WAIT_TIMEOUT_S)
        observed = time.perf_counter()
        record = CampaignRecord(label, observed - begin)
        record.extra = {
            "campaign_id": cid,
            "observed": observed,
            "elapsed_s": status["elapsed_s"],
        }
        if status["status"] != "finished":
            record.ok, record.error = False, f"campaign {status['status']}"
            return record
        outcome = client.result(cid)
    except (ServiceClientError, TimeoutError, OSError) as exc:
        record = CampaignRecord(label, time.perf_counter() - begin)
        record.ok, record.error = False, f"{type(exc).__name__}: {exc}"
        return record
    fingerprint, solo = references[json.dumps(spec, sort_keys=True)]
    if outcome["fingerprint"] != fingerprint:
        record.ok, record.error = False, "fingerprint mismatch"
        return record
    for name in ("evaluations", "best_latency_ms", "feasible", "trials", "quarantined"):
        setattr(record, name, getattr(solo, name))
    return record
