"""Campaign benchmark: time-to-design end to end, layer by layer.

Runs one workload of DSE campaigns the way users run them and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload explore-effnet --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with nothing instrumented; ``--trace 1`` runs a fixed amount of work
with spans around every layer's public calls and reports the per-layer
metrics (see ``README.md`` in this directory).  The line before the
result holds the details: sample counts, the evaluation path that ran,
provenance and every failure.  Run it from the repository root; it
reads the program from ``src/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up samples per untraced run: this process plus child processes.
SETUP_SAMPLES = 5
#: Fixed work of a traced run: library campaigns, service campaigns per client.
TRACED_CAMPAIGNS = 8
TRACED_PER_CLIENT = 4

# Environment guard: no REPRO_* knob may change what is measured.  The
# names cleared are recorded in every result.
CLEARED_KNOBS = sorted(k for k in os.environ if k.startswith("REPRO_"))
for _name in CLEARED_KNOBS:
    del os.environ[_name]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` (no git binary needed)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "platform": platform.platform(),
        "cleared_repro_knobs": CLEARED_KNOBS,
        "repro_knobs_in_effect": sorted(
            k for k in os.environ if k.startswith("REPRO_")
        ),
    }


def _eval_path(summary: dict) -> dict:
    """The evaluation path a campaign took, from ``perf_summary()``."""
    batch = summary.get("batch_eval", {})
    path = {
        "jobs": summary.get("jobs"),
        "executor": summary.get("executor"),
        "batch": {
            k: batch.get(k)
            for k in ("supported", "enabled", "fused_supported", "fused_enabled")
        },
        "fused_blocks": batch.get("fused_blocks", 0),
        "tree_compile": summary.get("tree_compile", {}).get("enabled"),
        "mapping_cache": summary.get("mapping_cache", {}).get("enabled"),
        "cache_plane": summary.get("mapping_cache", {})
        .get("plane", {})
        .get("enabled"),
    }
    if "shm_fleet" in summary:
        path["shm"] = summary["shm_fleet"]
    return path


def _child(args, *extra) -> dict:
    """Run this script in a child process; returns its last JSON line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        *extra,
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(extra)} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Setup:
    """Everything a workload builds before it is measured: the program's
    import, workload and evaluator (or server) construction, and one
    warm-up campaign that fills the process-global memos."""

    def __init__(self, workload, workdir: Path):
        from campaigns import (
            EvaluatorLog,
            HostedService,
            LibraryWorkload,
            service_warmup,
        )

        self.workload = workload
        self.hosted = None
        self.log = None
        if isinstance(workload, LibraryWorkload):
            workload.warmup()
        else:
            self.log = EvaluatorLog()
            self.hosted = HostedService(workdir / "spool", self.log)
            try:
                service_warmup(self.hosted.url)
            except BaseException:
                self.close()
                raise
        self.seconds = time.perf_counter() - _STARTED

    def close(self) -> None:
        if self.hosted is not None:
            self.hosted.close()
            self.hosted = None
        from repro.perf import shm_fleet

        fleet = getattr(shm_fleet, "_SHARED", None)
        if fleet is not None:
            fleet.shutdown()


def _summaries(setup: Setup, records) -> list:
    if setup.log is not None:
        return [e.perf_summary() for e in setup.log.evaluators]
    return [r.perf for r in records if r.perf]


class Tracing:
    """The traced run's recorder and instrumentation, started right
    before the measured loop (after the service references)."""

    def __init__(self):
        from tracing import SpanRecorder

        self.recorder = SpanRecorder()
        self.instrumentation = None
        self.compile_before = (0, 0)

    def start(self) -> None:
        from repro.core.bottleneck import compile as tree_compile
        from tracing import Instrumentation

        stats = tree_compile.stats()
        self.compile_before = (stats.hits, stats.misses)
        self.instrumentation = Instrumentation(self.recorder)

    def stop(self) -> None:
        if self.instrumentation is not None:
            self.instrumentation.uninstall()


def _measure(args, setup: Setup, tracing=None):
    """Run the workload; returns (records, wall seconds)."""
    from campaigns import (
        LibraryWorkload,
        run_library,
        run_service,
        service_references,
    )

    workload = setup.workload
    fixed = args.trace == 1 or args.fixed
    recorder = tracing.recorder if tracing is not None else None
    if isinstance(workload, LibraryWorkload):
        if tracing is not None:
            tracing.start()
        return run_library(
            workload,
            args.seed,
            args.seconds,
            campaigns=TRACED_CAMPAIGNS if fixed else None,
            recorder=recorder,
        )
    references = service_references(workload.pool(args.seed))
    setup.log.evaluators.clear()
    if tracing is not None:
        tracing.start()
    return run_service(
        workload,
        args.seed,
        args.seconds,
        setup.hosted.url,
        references,
        fixed_per_client=TRACED_PER_CLIENT if fixed else None,
        recorder=recorder,
    )


def _end_to_end(setup: Setup, records, wall: float, setup_samples) -> tuple:
    from campaigns import LibraryWorkload, percentile

    good = [r for r in records if r.ok] or records
    latencies = [r.seconds for r in good]
    if isinstance(setup.workload, LibraryWorkload):
        campaign = latencies
    else:
        campaign = [r.extra.get("elapsed_s", r.seconds) for r in good]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "campaign_s_p50": statistics.median(campaign),
        "evals_per_s": sum(r.evaluations for r in good) / sum(campaign),
        "result_latency_s_p50": statistics.median(latencies),
        "result_latency_s_p90": percentile(latencies, 90),
        "campaigns_per_min": 60.0 * len(records) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup_samples),
        "campaign_s_p50": len(campaign),
        "evals_per_s": len(campaign),
        "result_latency_s_p50": len(latencies),
        "result_latency_s_p90": len(latencies),
        "campaigns_per_min": len(records),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def _per_layer(setup, records, tracing: Tracing, untraced: dict) -> dict:
    """Per-layer metrics of a traced run (0 where a layer did no work)."""
    from campaigns import geomean, percentile
    from repro.core.bottleneck import compile as tree_compile
    from tracing import layer_self_times, outermost_time

    spans = tracing.recorder.spans
    probe = tracing.instrumentation.probe
    compile_before = tracing.compile_before
    summaries = _summaries(setup, records)

    def total(section, key):
        return sum(s.get(section, {}).get(key, 0) for s in summaries)

    def med(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def exactly(name):
        return [s for s in spans if s.name == name]

    new_evals = [s.duration for s in named("cost.evaluate") if s.tag == "new"]
    exact = total("mapping_cache", "exact_hits")
    rescore = total("mapping_cache", "rescore_hits")
    misses = total("mapping_cache", "misses")
    compile_after = tree_compile.stats()
    compile_hits = compile_after.hits - compile_before[0]
    compile_misses = compile_after.misses - compile_before[1]
    self_times = layer_self_times(spans)
    trials = sum(r.trials for r in records)
    bests = [r.best_latency_ms for r in records if r.best_latency_ms]
    failed = sum(1 for r in records if not r.ok)

    metrics = {
        # Every mapper search that ran: per-layer searches plus the
        # layers a fused block resolved, cache or no cache.
        "mapping.searches": len(exactly("mapping.search"))
        + sum(s.tag or 0 for s in exactly("mapping.search_fused")),
        "mapping.candidates": sum(
            total("batch_eval", k)
            for k in ("batch_candidates", "scalar_candidates", "fused_candidates")
        ),
        "mapping.materialize_s": outermost_time(spans, ["mapping.materialize"]),
        "mapping.search_s": outermost_time(
            spans, ["mapping.search", "mapping.search_fused"]
        ),
        "cost.evaluations": sum(s.get("evaluations", 0) for s in summaries),
        "cost.evaluate_s": sum(new_evals),
        "cost.eval_ms_p50": med(new_evals, 1000.0),
        "cost.eval_ms_p90": percentile(new_evals, 90) * 1000.0 if new_evals else 0.0,
        "cost.aggregate_s": sum(
            s.get("stages", {}).get("aggregate", {}).get("seconds", 0.0)
            for s in summaries
        ),
        "cost.area_power_s": sum(
            s.get("stages", {}).get("area_power", {}).get("seconds", 0.0)
            for s in summaries
        ),
        "perf.cache.exact_hits": exact,
        "perf.cache.rescore_hits": rescore,
        "perf.cache.misses": misses,
        "perf.cache.hit_ratio": (exact + rescore) / max(1, exact + rescore + misses),
        "perf.point_cache_hits": sum(
            s.get("calls", 0) - s.get("evaluations", 0) for s in summaries
        ),
        "perf.shm.shards": total("shm_fleet", "shards_dispatched"),
        "perf.shm.resubmits": total("shm_fleet", "shard_resubmissions"),
        "perf.shm.blocks_inline": total("shm_fleet", "blocks_inline"),
        "bottleneck.analyze_calls": len(named("bottleneck.analyze")),
        "bottleneck.analyze_s": outermost_time(spans, ["bottleneck.analyze"]),
        "bottleneck.compile_hit_ratio": compile_hits
        / max(1, compile_hits + compile_misses),
        "dse.feasible_ratio": sum(r.feasible for r in records) / max(1, trials),
        "dse.best_latency_ms": geomean(bests) if bests else 0.0,
        "telemetry.checkpoint_calls": len(named("telemetry.checkpoint")),
        "telemetry.checkpoint_s": outermost_time(spans, ["telemetry.checkpoint"]),
        "telemetry.flush_s": outermost_time(spans, ["telemetry.flush"]),
        "telemetry.journal_bytes": 0,
        "service.queue_wait_s_p50": 0.0,
        "service.slice_s_p50": med([s.duration for s in named("service.slice")]),
        "service.slices": len(named("service.slice")),
        "service.http_ms_p50": med([s.duration for s in named("service.http")], 1000.0),
        "service.status_polls": len(named("service.http.status"))
        / max(1, len(records)),
        "service.poll_slack_s_p50": 0.0,
        "service.shed": 0,
        "resilience.quarantined": sum(r.quarantined for r in records),
        "resilience.retries": probe.retries,
        "error_rate": failed / max(1, len(records)),
        "trace.spans": len(spans),
        "runtime.gc_s": tracing.instrumentation.collector.seconds,
        "runtime.gc_full_s": tracing.instrumentation.collector.full_seconds,
        "runtime.gc_full_collections": tracing.instrumentation.collector.full_collections,
    }
    for layer in ("mapping", "cost", "bottleneck", "dse", "optim", "telemetry", "service"):
        metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)

    if setup.hosted is not None:
        cids = [r.extra["campaign_id"] for r in records if "campaign_id" in r.extra]
        health = setup.hosted.service.healthz()
        metrics["service.shed"] = (
            health["counters"]["shed_429"] + health["counters"]["shed_503"]
        )
        metrics["telemetry.journal_bytes"] = sum(
            (setup.hosted.service.spool / cid / "journal.jsonl").stat().st_size
            for cid in cids
            if (setup.hosted.service.spool / cid / "journal.jsonl").exists()
        )
        metrics["service.queue_wait_s_p50"] = med(
            [
                probe.first_slice[cid] - probe.submitted[cid]
                for cid in cids
                if cid in probe.first_slice and cid in probe.submitted
            ]
        )
        metrics["service.poll_slack_s_p50"] = med(
            [
                r.extra["observed"] - probe.settled[r.extra["campaign_id"]]
                for r in records
                if r.extra.get("campaign_id") in probe.settled
            ]
        )
        untraced_p50 = untraced["result_latency_s_p50"]["value"]
        metrics["trace.unattributed_s"] = 0.0
    else:
        untraced_p50 = untraced["campaign_s_p50"]["value"]
        # Campaign wall time that no layer's self time accounts for.
        metrics["trace.unattributed_s"] = sum(r.seconds for r in records) - sum(
            self_times.values()
        )
    traced_p50 = statistics.median(r.seconds for r in records)
    metrics["trace.traced_p50_s"] = traced_p50
    metrics["trace.untraced_p50_s"] = untraced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    return metrics


def _run(args, workdir: Path) -> int:
    from campaigns import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = Setup(workload, workdir)
    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": setup.seconds}))
            return 0
        units = _metric_units()
        samples = [setup.seconds]
        untraced = None
        if args.trace == 1:
            # The same fixed work untraced, in a fresh process: the
            # tracing overhead is traced versus untraced p50.
            untraced = _child(args, "--trace", "0", "--fixed")["metrics"]
        elif not args.fixed:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(
                    _child(args, "--trace", "0", "--probe-setup")["setup_s"]
                )
        tracing = Tracing() if args.trace == 1 else None
        try:
            records, wall = _measure(args, setup, tracing)
        finally:
            if tracing is not None:
                tracing.stop()
        failed = sum(1 for r in records if not r.ok)
        if tracing is not None:
            values = _per_layer(setup, records, tracing, untraced)
            wanted, counts = units["per_layer"], {}
            tracing.recorder.write(
                HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
        else:
            values, counts = _end_to_end(setup, records, wall, samples)
            wanted = units["end_to_end"]
        summaries = _summaries(setup, records)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "campaigns": len(records),
            "wall_s": wall,
            "setup_samples_s": samples,
            "samples": counts,
            "eval_path": _eval_path(summaries[-1]) if summaries else None,
            "provenance": _provenance(),
            "errors": [f"{r.label}: {r.error}" for r in records if not r.ok],
            "per_campaign": [
                [r.label, round(r.seconds, 4), r.evaluations, r.extra.get("elapsed_s")]
                for r in records
            ],
        }
        print(json.dumps({"details": details}))
        result = {
            "correct": failed == 0 and bool(records),
            "attempted": len(records),
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in wanted.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        setup.close()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child processes a run starts.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fixed", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"the program is missing: no {SRC / 'repro'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no {ROOT / 'BENCHMARK.json'}")
    # Temporary files (the service spool, worker scratch) stay inside
    # the checkout and are removed at exit.
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    try:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        os.environ["PYTHONPATH"] = str(SRC)
        from campaigns import WORKLOADS

        if args.workload not in WORKLOADS:
            return _fail(
                f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
