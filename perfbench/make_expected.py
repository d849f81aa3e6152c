"""Regenerate ``expected.json``: the catalog of every library workload.

For each catalog entry it stores the SHA-256 of the campaign's
``result_fingerprint``, the correctness gate of every run.  Run it from
the repository root on a commit whose results are trusted::

    python3 perfbench/make_expected.py [--workload NAME ...]

Entries of workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from campaigns import (  # noqa: E402
    EXPECTED_PATH,
    WORKLOADS,
    LibraryWorkload,
    fingerprint_hash,
)


def catalog(workload: LibraryWorkload) -> dict:
    sha = {}
    for index in range(workload.catalog):
        evaluator = workload.evaluator()
        sha[str(index)] = fingerprint_hash(workload.run(index, evaluator))
        evaluator.close()
        print(f"{workload.name} {index}: {sha[str(index)][:16]}", flush=True)
    return {"config": workload.config(), "sha256": sha}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    names = args.workload or [
        name for name, w in WORKLOADS.items() if isinstance(w, LibraryWorkload)
    ]
    expected = (
        json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    )
    for name in names:
        expected[name] = catalog(WORKLOADS[name])
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
