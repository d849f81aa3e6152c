"""Run the benchmark's workloads and print every metric by name.

One command runs every workload untraced, then traced, and prints each
end-to-end metric with its unit and sample count, then each per-layer
metric::

    python3 perfbench/report.py

Other modes (combine with ``--workload NAME`` to pick workloads):

``--seeds 1,2,3,4,5``
    Untraced runs on each seed; prints each end-to-end metric's median
    and quartile spread (Q3 - Q1 over the median) against its bound.
``--repeat-check``
    Two traced runs of one seed; the count metrics must repeat exactly.
``--record trajectory.jsonl``
    Appends every result (metrics, details, provenance) to the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts a later change may cite; they must repeat exactly per seed.
EXACT_COUNTS = (
    "cost.evaluations",
    "mapping.searches",
    "mapping.candidates",
    "perf.cache.exact_hits",
    "perf.cache.rescore_hits",
    "perf.cache.misses",
    "perf.point_cache_hits",
    "bottleneck.analyze_calls",
    "service.slices",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result with the details merged in."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} failed "
            f"({proc.returncode}):\n{proc.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def print_result(result: dict) -> None:
    details = result["details"]
    samples = details["samples"]
    print(
        f"\n{details['workload']} seed {details['seed']} trace "
        f"{details['trace']}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"error_rate={result['failed'] / result['attempted']:.3f}"
    )
    for name, metric in result["metrics"].items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    for error in details["errors"]:
        print(f"  error: {error}")


def spread(results: list) -> bool:
    """Median and quartile spread of each end-to-end metric."""
    steady = True
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        ratio = (q3 - q1) / median
        ok = ratio < metric["bound"] / 3
        steady &= ok
        print(
            f"  {metric['name']:24s} median {median:10.5g} spread "
            f"{ratio:6.3f} bound {metric['bound']:.2f} "
            f"{'ok' if ok else 'WIDE'}"
        )
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--seeds", default=None, help="comma-separated seeds")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--record", default=None, help="JSON-lines file to append to")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    results, ok = [], True

    for workload in workloads:
        if args.seeds:
            seeds = [int(s) for s in args.seeds.split(",")]
            batch = [run(workload, s, args.seconds, 0) for s in seeds]
            results += batch
            print(f"\n{workload}: {len(seeds)} seeds")
            ok &= spread(batch) and all(r["correct"] for r in batch)
        elif args.repeat_check:
            first, second = (
                run(workload, args.seed, args.seconds, 1) for _ in range(2)
            )
            results += [first, second]
            for name in EXACT_COUNTS:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                same = a == b
                ok &= same
                print(f"{workload} {name:28s} {a:>10} {b:>10} {'same' if same else 'DIFFERS'}")
        else:
            for trace in (0, 1):
                result = run(workload, args.seed, args.seconds, trace)
                results.append(result)
                print_result(result)
                ok &= result["correct"]

    if args.record:
        with open(args.record, "a") as handle:
            for result in results:
                handle.write(json.dumps(result, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
