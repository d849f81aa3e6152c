"""Golden traces: the reference campaign pinned into the repository.

A deterministic serial campaign (same settings as the differential
baseline) is run and compared byte-for-byte against fixtures under
``tests/goldens/``:

* ``tiny_campaign.jsonl`` — the canonical journal (RunSummary perf
  counters stripped, the counter-free equivalence every fast path must
  reproduce);
* ``tiny_campaign.json`` — metadata plus the exact result fingerprint
  (trial points/costs/explanations/incumbent, rendered by ``repr`` so
  float bit-patterns are preserved);
* ``engines.json`` — one entry per search engine (the eight black-box
  baselines and Explainable-DSE): the SHA-256 of its result fingerprint
  and of its canonical journal on one small campaign.  Every engine must
  reproduce its entry in every evaluation-pipeline cell — cold vs warm
  mapping cache, serial vs two thread mapping workers.

Any intentional change to search order, cost arithmetic, explanation
text, or journal schema shows up as a golden diff; regenerate with
``python -m repro.experiments.cli verify --update-goldens`` and review
the diff like any other source change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.arch.accelerator import build_edge_design_space
from repro.core.dse.explainable import ExplainableDSE
from repro.optim import (
    BayesianOptimization,
    GeneticAlgorithm,
    GridSearch,
    HyperMapperDSE,
    LocalSearch,
    RandomSearch,
    ReinforcementLearningDSE,
    SimulatedAnnealing,
)
from repro.perf.mapping_cache import MappingCache
from repro.telemetry import JsonlSink, Tracer
from repro.verify.corpus import campaign_workload
from repro.verify.differential import (
    _BUDGET,
    _REFERENCE_ENV,
    _canonical_journal,
    _constraints,
    _evaluator,
    _fingerprint,
    _patched_env,
)

__all__ = [
    "ENGINE_CELLS",
    "ENGINES",
    "GoldenReport",
    "check_engine_goldens",
    "check_goldens",
    "default_golden_dir",
    "load_engine_goldens",
    "run_engine_campaign",
    "run_golden_campaign",
]

_JOURNAL_NAME = "tiny_campaign.jsonl"
_META_NAME = "tiny_campaign.json"
_ENGINES_NAME = "engines.json"

#: The engine campaign: small enough that 9 engines x 4 cells stay
#: cheap, long enough that every engine makes several decisions.
_ENGINE_BUDGET = 12
_ENGINE_SEED = 7

#: Every pinned engine, in run order: name -> class (every one but
#: Explainable-DSE takes the seed).
ENGINES = (
    ("grid", GridSearch),
    ("random", RandomSearch),
    ("annealing", SimulatedAnnealing),
    ("genetic", GeneticAlgorithm),
    ("bayesian", BayesianOptimization),
    ("hypermapper", HyperMapperDSE),
    ("reinforcement", ReinforcementLearningDSE),
    ("local-search", LocalSearch),
    ("explainable", ExplainableDSE),
)

#: (cell label, warm mapping cache?, mapping-search workers or None).
ENGINE_CELLS = (
    ("cold-serial", False, None),
    ("warm-serial", True, None),
    ("cold-jobs2", False, 2),
    ("warm-jobs2", True, 2),
)


def default_golden_dir() -> Path:
    """``tests/goldens/`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


@dataclass
class GoldenReport:
    """Outcome of a golden comparison (or regeneration)."""

    golden_dir: str = ""
    updated: bool = False
    mismatches: List[str] = field(default_factory=list)
    #: Engine goldens only: the engines and cells checked.
    engines: List[str] = field(default_factory=list)
    cells: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_golden_campaign(workdir: Path) -> Tuple[bytes, str]:
    """Run the reference campaign; returns (canonical journal bytes,
    result fingerprint)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal = workdir / "golden_run.jsonl"
    evaluator = _evaluator(campaign_workload(), batch_eval=False)
    tracer = Tracer(JsonlSink(journal))
    try:
        result = ExplainableDSE(
            build_edge_design_space(),
            evaluator,
            _constraints(),
            max_evaluations=_BUDGET,
        ).run(tracer=tracer)
    finally:
        tracer.close()
        evaluator.close()
    return _canonical_journal(journal), _fingerprint(result)


def check_goldens(
    workdir: Path,
    golden_dir: Optional[Path] = None,
    update: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> GoldenReport:
    """Compare a fresh reference campaign against the pinned goldens.

    With ``update=True`` the goldens are rewritten instead and the report
    comes back clean (review the resulting diff before committing).
    """
    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    say = log if log is not None else (lambda message: None)
    report = GoldenReport(golden_dir=str(golden_dir))
    journal_bytes, fingerprint = run_golden_campaign(Path(workdir))
    journal_path = golden_dir / _JOURNAL_NAME
    meta_path = golden_dir / _META_NAME

    if update:
        golden_dir.mkdir(parents=True, exist_ok=True)
        journal_path.write_bytes(journal_bytes)
        meta_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "campaign": {
                        "workload": campaign_workload().name,
                        "max_evaluations": _BUDGET,
                        "journal": _JOURNAL_NAME,
                    },
                    "fingerprint": fingerprint,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        report.updated = True
        say(f"goldens: regenerated under {golden_dir}")
        return report

    if not journal_path.exists() or not meta_path.exists():
        report.mismatches.append(
            f"goldens missing under {golden_dir} "
            "(generate with `verify --update-goldens`)"
        )
        return report
    golden_journal = journal_path.read_bytes()
    if journal_bytes != golden_journal:
        report.mismatches.append(
            f"canonical journal differs from golden {journal_path}"
        )
    golden_meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if fingerprint != golden_meta.get("fingerprint"):
        report.mismatches.append(
            f"campaign result fingerprint differs from golden {meta_path}"
        )
    if report.ok:
        say("goldens: reference campaign matches pinned traces")
    return report


def run_engine_campaign(
    name: str,
    cell: str,
    workdir: Path,
    drive: Optional[Callable[[object], object]] = None,
) -> dict:
    """Run engine ``name`` on the engine campaign in pipeline ``cell``.

    ``drive(engine)`` runs the built engine (a baseline optimizer or an
    :class:`ExplainableDSE`, its tracer already attached) and returns
    its result; the default is ``engine.run()``.  Warm cells first fill
    the mapping cache with one untraced run of the same campaign.
    Returns the golden entry: SHA-256 of the result fingerprint and of
    the canonical journal (RunSummary counters and driver events
    stripped).
    """
    cls = dict(ENGINES)[name]
    _, warm, jobs = next(c for c in ENGINE_CELLS if c[0] == cell)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = campaign_workload()
    space = build_edge_design_space()
    cache = MappingCache()

    def campaign(tracer, drive):
        kwargs = {} if jobs is None else {"jobs": jobs, "executor_mode": "thread"}
        evaluator = _evaluator(workload, batch_eval=False, cache=cache, **kwargs)
        common = dict(max_evaluations=_ENGINE_BUDGET, tracer=tracer)
        if cls is not ExplainableDSE:
            common["seed"] = _ENGINE_SEED
        engine = cls(space, evaluator, _constraints(), **common)
        try:
            with _patched_env(_REFERENCE_ENV):
                return drive(engine) if drive else engine.run()
        finally:
            evaluator.close()

    if warm:
        campaign(None, None)
    journal = workdir / f"{cell}-{name}.jsonl"
    tracer = Tracer(JsonlSink(journal))
    try:
        result = campaign(tracer, drive)
    finally:
        tracer.close()
    fingerprint = _fingerprint(result).encode("utf-8")
    return {
        "fingerprint_sha256": hashlib.sha256(fingerprint).hexdigest(),
        "journal_sha256": hashlib.sha256(_canonical_journal(journal)).hexdigest(),
    }


def load_engine_goldens(golden_dir: Optional[Path] = None) -> dict:
    """The pinned ``engines.json`` entries, keyed by engine name."""
    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    meta = json.loads((golden_dir / _ENGINES_NAME).read_text(encoding="utf-8"))
    return meta["engines"]


def check_engine_goldens(
    workdir: Path,
    golden_dir: Optional[Path] = None,
    update: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> GoldenReport:
    """Run every engine in every cell against ``engines.json``.

    With ``update=True`` the file is rewritten instead — but only when
    each engine agrees with itself across all cells; a cell-dependent
    engine is reported as a mismatch and nothing is written.
    """
    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    say = log if log is not None else (lambda message: None)
    path = golden_dir / _ENGINES_NAME
    report = GoldenReport(
        golden_dir=str(path),
        engines=[name for name, _ in ENGINES],
        cells=[cell for cell, _, _ in ENGINE_CELLS],
    )
    pinned = None
    if not update:
        if not path.exists():
            report.mismatches.append(
                f"engine goldens missing: {path} "
                "(generate with `verify --update-goldens`)"
            )
            return report
        pinned = load_engine_goldens(golden_dir)
    entries: dict = {}
    for cell in report.cells:
        say(f"goldens: engine cell {cell}")
        for name in report.engines:
            entry = run_engine_campaign(name, cell, Path(workdir) / cell)
            if pinned is None:
                expected = entries.setdefault(name, entry)
            else:
                expected = pinned.get(name, {})
            for key, value in entry.items():
                if expected.get(key) != value:
                    report.mismatches.append(
                        f"{cell}/{name}: {key} differs from {path}"
                    )
    if update and report.ok:
        golden_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "campaign": {
                        "workload": campaign_workload().name,
                        "max_evaluations": _ENGINE_BUDGET,
                        "seed": _ENGINE_SEED,
                        "cells": report.cells,
                    },
                    "engines": entries,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        report.updated = True
        say(f"goldens: engine goldens regenerated at {path}")
    return report
