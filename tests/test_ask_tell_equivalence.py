"""Ask/tell protocol: every engine against its pinned golden.

Every engine (the eight black-box baselines and Explainable-DSE) is
driven through :class:`repro.optim.DriverLoop` and must reproduce its
entry in ``tests/goldens/engines.json`` — the SHA-256 of its result
fingerprint and canonical journal, pinned from the legacy inline
``run()`` loops before they were deleted — in every cell: cold/warm
mapping cache x serial/two thread mapping workers.  Explainable-DSE is
checked through both of its drivers, ``ExplainableDSE.run()`` (the
state machine's ``step()``) and ``DriverLoop(CampaignStateMachine)``.
Plus the protocol's guard paths: ``ask(n <= 0)`` and stale tells raise
``ValueError``.
"""

import pytest

from repro.core.dse.constraints import Constraint
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.optim import DriverLoop, EvalResult, RandomSearch, SearchEngine
from repro.perf.mapping_cache import MappingCache
from repro.service.machine import (
    CampaignStateError,
    CampaignStateMachine,
    result_fingerprint,
)
from repro.verify.goldens import (
    ENGINE_CELLS,
    ENGINES,
    load_engine_goldens,
    run_engine_campaign,
)

BUDGET = 8
SEED = 3

BASELINES = [name for name, cls in ENGINES if cls is not ExplainableDSE]
CELLS = [cell for cell, _, _ in ENGINE_CELLS]


@pytest.fixture(scope="module")
def goldens():
    return load_engine_goldens()


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
    ]


def _evaluator(workload, cache, jobs):
    kwargs = {"mapping_cache": cache}
    if jobs is not None:
        kwargs.update(jobs=jobs, executor_mode="thread")
    return CostEvaluator(workload, TopNMapper(top_n=50), **kwargs)


def _drive_machine(dse, **kwargs):
    return DriverLoop(CampaignStateMachine(dse), **kwargs).run(None)


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("name", BASELINES)
def test_baseline_protocol_matches_legacy(tmp_path, goldens, name, cell):
    """``run()`` is the DriverLoop; it reproduces the pinned outcome."""
    assert run_engine_campaign(name, cell, tmp_path) == goldens[name]


@pytest.mark.parametrize("cell", CELLS)
def test_explainable_protocol_matches_legacy(tmp_path, goldens, cell):
    stepped = run_engine_campaign("explainable", cell, tmp_path / "step")
    driven = run_engine_campaign(
        "explainable", cell, tmp_path / "driver", drive=_drive_machine
    )
    assert stepped == goldens["explainable"], "step() diverged"
    assert driven == goldens["explainable"], "DriverLoop diverged"


def test_batched_driver_matches_legacy(tmp_path, goldens):
    """A batch_size > 1 driver serves the same FIFO stream, so the
    campaign is unchanged — for serial proposers, batch proposers (a GA
    generation), and Explainable-DSE's attempt queues alike."""

    def drive(engine):
        if isinstance(engine, ExplainableDSE):
            engine = CampaignStateMachine(engine)
        return DriverLoop(engine, batch_size=3).run(None)

    for name in ("random", "genetic", "explainable"):
        entry = run_engine_campaign(
            name, "cold-serial", tmp_path / name, drive=drive
        )
        assert entry == goldens[name], name


class TestProtocolGuards:
    def _engine(self, edge_space, tiny_workload, cls=RandomSearch):
        engine = cls(
            edge_space,
            _evaluator(tiny_workload, MappingCache(), None),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
        )
        engine.start(None)
        return engine

    @pytest.mark.parametrize("n", [0, -1])
    def test_baseline_ask_nonpositive_raises(
        self, edge_space, tiny_workload, n
    ):
        engine = self._engine(edge_space, tiny_workload)
        with pytest.raises(ValueError):
            engine.ask(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_explainable_ask_nonpositive_raises(
        self, edge_space, tiny_workload, n
    ):
        dse = ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache(), None),
            _constraints(),
            max_evaluations=BUDGET,
        )
        engine = CampaignStateMachine(dse)
        engine.start(None)
        with pytest.raises(ValueError):
            engine.ask(n)

    def test_stale_tell_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        points = engine.ask(1)
        assert points
        stale = dict(points[0])
        name = edge_space.parameters[0].name
        options = list(edge_space.parameters[0].values)
        stale[name] = next(o for o in options if o != stale[name])
        evaluation = engine.evaluator.evaluate(points[0])
        with pytest.raises(ValueError, match="stale tell"):
            engine.tell([EvalResult(point=stale, evaluation=evaluation)])

    def test_tell_never_asked_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        point = edge_space.minimum_point()
        evaluation = engine.evaluator.evaluate(point)
        with pytest.raises(ValueError):
            engine.tell([EvalResult(point=point, evaluation=evaluation)])

    def test_tell_excess_results_raises(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        points = engine.ask(1)
        evaluation = engine.evaluator.evaluate(points[0])
        results = [
            EvalResult(point=points[0], evaluation=evaluation),
            EvalResult(point=points[0], evaluation=evaluation),
        ]
        with pytest.raises(ValueError):
            engine.tell(results)

    def test_explainable_stale_tell_raises(self, edge_space, tiny_workload):
        dse = ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache(), None),
            _constraints(),
            max_evaluations=BUDGET,
        )
        engine = CampaignStateMachine(dse)
        engine.start(None)
        points = engine.ask(1)
        assert points
        stale = dict(points[0])
        name = edge_space.parameters[0].name
        options = list(edge_space.parameters[0].values)
        stale[name] = next(o for o in options if o != stale[name])
        evaluation = engine.evaluator.evaluate(points[0])
        with pytest.raises(ValueError, match="stale tell"):
            engine.tell([EvalResult(point=stale, evaluation=evaluation)])

    def test_driver_rejects_bad_batch_size(self, edge_space, tiny_workload):
        engine = self._engine(edge_space, tiny_workload)
        with pytest.raises(ValueError):
            DriverLoop(engine, batch_size=0)


class _FlakyEvaluator:
    """Delegates to a real evaluator, raising on chosen call indices."""

    def __init__(self, inner, fail_on):
        self.inner = inner
        self.fail_on = set(fail_on)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, point):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError(f"injected failure on call {self.calls}")
        return self.inner.evaluate(point)


class _StallingEngine(SearchEngine):
    """Violates the protocol: ask() returns [] while not finished."""

    evaluator = None

    def start(self, initial_point=None):
        pass

    def ask(self, n):
        return []

    def tell(self, results):
        pass

    @property
    def finished(self):
        return False

    def result(self):
        raise AssertionError("unreachable")


class TestDriverLoopPaths:
    def _dse(self, edge_space, tiny_workload):
        return ExplainableDSE(
            edge_space,
            _evaluator(tiny_workload, MappingCache(), None),
            _constraints(),
            max_evaluations=BUDGET,
        )

    def test_eval_result_ok(self):
        assert EvalResult(point={}).ok
        assert not EvalResult(point={}, error=RuntimeError("x")).ok

    def test_driver_quarantines_captured_failures(
        self, edge_space, tiny_workload
    ):
        """An evaluation exception under a captures_failures engine is
        delivered as an EvalResult error and quarantined, not raised."""
        dse = self._dse(edge_space, tiny_workload)
        flaky = _FlakyEvaluator(dse.evaluator, fail_on={2})
        result = _drive_machine(dse, evaluator=flaky)
        quarantined = [
            t for t in result.trials if t.note.startswith("quarantined")
        ]
        assert len(quarantined) == 1
        assert not quarantined[0].feasible
        assert flaky.calls >= 2

    def test_driver_propagates_uncaptured_failures(
        self, edge_space, tiny_workload
    ):
        engine = RandomSearch(
            edge_space,
            _evaluator(tiny_workload, MappingCache(), None),
            _constraints(),
            max_evaluations=BUDGET,
            seed=SEED,
        )
        flaky = _FlakyEvaluator(engine.evaluator, fail_on={1})
        with pytest.raises(RuntimeError, match="injected failure"):
            DriverLoop(engine, evaluator=flaky).run(None)

    def test_driver_feeds_archive(self, edge_space, tiny_workload):
        from repro.experiments.pareto import archive_from_results
        from repro.optim import ParetoArchive

        def build():
            return self._dse(edge_space, tiny_workload)

        reference = build().run()
        archive = ParetoArchive()
        driven = _drive_machine(build(), archive=archive)
        expected = archive_from_results([reference])
        assert archive.snapshot() == expected.snapshot()
        assert result_fingerprint(driven) == result_fingerprint(reference)

    def test_driver_detects_protocol_stall(self):
        with pytest.raises(RuntimeError, match="stall"):
            DriverLoop(_StallingEngine(), evaluator=object()).run(None)

    def test_explainable_guards_before_start(self, edge_space, tiny_workload):
        engine = CampaignStateMachine(self._dse(edge_space, tiny_workload))
        assert not engine.finished
        with pytest.raises(CampaignStateError, match="start"):
            engine.ask(1)
        with pytest.raises(CampaignStateError, match="start"):
            engine.tell([EvalResult(point={})])
        with pytest.raises(CampaignStateError, match="pending"):
            engine.result()

    def test_explainable_empty_tell_is_noop(self, edge_space, tiny_workload):
        engine = CampaignStateMachine(self._dse(edge_space, tiny_workload))
        engine.start(None)
        points = engine.ask(1)
        assert points
        engine.tell([])
        evaluation = engine.evaluator.evaluate(points[0])
        engine.tell([EvalResult(point=points[0], evaluation=evaluation)])
