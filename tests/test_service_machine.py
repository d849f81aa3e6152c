"""Tests for the campaign state machine (service execution layer).

The load-bearing property: a campaign driven step-by-step through
:class:`CampaignStateMachine` — paused, resumed, abandoned and rebuilt
from its checkpoint — is bit-identical to a straight
``ExplainableDSE.run()``, because ``run()`` itself drives the machine.
"""

import pytest

from repro.core.dse.constraints import Constraint, Sense
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import TopNMapper
from repro.perf.mapping_cache import MappingCache
from repro.service.machine import (
    CampaignState,
    CampaignStateError,
    CampaignStateMachine,
    result_fingerprint,
)
from repro.telemetry import JsonlSink, Tracer, load_checkpoint


def _constraints():
    return [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]


def _make_evaluator(workload):
    return CostEvaluator(
        workload, TopNMapper(top_n=60), mapping_cache=MappingCache()
    )


def _make_dse(edge_space, workload, budget=16):
    return ExplainableDSE(
        edge_space,
        _make_evaluator(workload),
        _constraints(),
        max_evaluations=budget,
    )


@pytest.fixture(scope="module")
def solo(edge_space, tiny_workload, tmp_path_factory):
    """Reference run() outcome: fingerprint + raw journal bytes."""
    journal = tmp_path_factory.mktemp("solo") / "solo.jsonl"
    tracer = Tracer(JsonlSink(journal))
    result = _make_dse(edge_space, tiny_workload).run(tracer=tracer)
    tracer.close()
    return result_fingerprint(result), journal.read_bytes()


class TestStepDriven:
    def test_stepping_matches_run_exactly(
        self, edge_space, tiny_workload, tmp_path, solo
    ):
        solo_fp, solo_journal = solo
        journal = tmp_path / "stepped.jsonl"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload), tracer=tracer
        )
        assert machine.state is CampaignState.PENDING
        machine.start()
        while machine.state is CampaignState.RUNNING:
            machine.step()
        tracer.close()
        assert machine.state is CampaignState.FINISHED
        assert machine.attempt > 1  # the loop actually iterated
        assert result_fingerprint(machine.result()) == solo_fp
        assert journal.read_bytes() == solo_journal

    def test_pause_resume_in_process_is_invisible(
        self, edge_space, tiny_workload, tmp_path, solo
    ):
        solo_fp, solo_journal = solo
        journal = tmp_path / "paused.jsonl"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=tracer,
            checkpoint_path=str(journal) + ".ckpt",
        )
        machine.start()
        while machine.state is CampaignState.RUNNING:
            machine.step()
            if machine.state is CampaignState.RUNNING:
                machine.pause()
                assert machine.state is CampaignState.CHECKPOINTED
                machine.resume()
        tracer.close()
        assert result_fingerprint(machine.result()) == solo_fp
        assert journal.read_bytes() == solo_journal

    def test_consumed_tracks_budget(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload, budget=8)
        )
        assert machine.consumed == 0
        machine.start()
        assert machine.consumed == 1  # initial point
        while machine.state is CampaignState.RUNNING:
            machine.step()
        assert machine.consumed == machine.result().evaluations <= 8

    def test_slo_snapshot_shape(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload, budget=6)
        )
        machine.start()
        snapshot = machine.slo_snapshot()
        assert set(snapshot) == {
            "breaker",
            "quarantined_trials",
            "trials",
            "attempt",
            "attempts_without_improvement",
        }
        assert snapshot["quarantined_trials"] == 0
        assert snapshot["breaker"]["tripped"] is False


class TestCheckpointHandoff:
    def test_abandon_and_rebuild_matches_uninterrupted(
        self, edge_space, tiny_workload, tmp_path, solo
    ):
        """Machine killed after 2 attempts; a fresh machine restored from
        the checkpoint finishes with the solo fingerprint."""
        solo_fp, _ = solo
        journal = tmp_path / "abandoned.jsonl"
        ckpt = str(journal) + ".ckpt"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=tracer,
            checkpoint_path=ckpt,
        )
        machine.start()
        machine.step()
        machine.step()
        assert machine.state is CampaignState.RUNNING
        del machine  # the process "dies"; no pause, no flush beyond ckpt

        checkpoint = load_checkpoint(ckpt)
        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        resumed_tracer = Tracer(sink, seq_start=checkpoint.journal_events)
        resumed = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=resumed_tracer,
            checkpoint_path=ckpt,
            resume_from=checkpoint,
        )
        resumed.start()
        while resumed.state is CampaignState.RUNNING:
            resumed.step()
        resumed_tracer.close()
        assert result_fingerprint(resumed.result()) == solo_fp

    def test_resuming_finished_checkpoint_yields_result(
        self, edge_space, tiny_workload, tmp_path
    ):
        journal = tmp_path / "done.jsonl"
        ckpt = str(journal) + ".ckpt"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload, budget=8),
            tracer=tracer,
            checkpoint_path=ckpt,
        )
        machine.start()
        while machine.state is CampaignState.RUNNING:
            machine.step()
        tracer.close()
        finished_early = machine.converged  # patience/mitigation exhaustion

        resumed = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload, budget=8),
            resume_from=ckpt,
        )
        resumed.start()
        if finished_early:
            assert resumed.state is CampaignState.FINISHED
            assert (
                resumed.result().best.point == machine.result().best.point
            )
        else:
            # Budget exhaustion is not a finished checkpoint: the resumed
            # campaign re-checks its budget and terminates again.
            while resumed.state is CampaignState.RUNNING:
                resumed.step()
            assert resumed.state is CampaignState.FINISHED


class TestCancel:
    def test_cancel_leaves_prefix_journal(
        self, edge_space, tiny_workload, tmp_path, solo
    ):
        _, solo_journal = solo
        journal = tmp_path / "cancelled.jsonl"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=tracer,
            checkpoint_path=str(journal) + ".ckpt",
        )
        machine.start()
        machine.step()
        machine.cancel()
        tracer.close()
        assert machine.state is CampaignState.CANCELLED
        cancelled = journal.read_bytes()
        assert cancelled  # events up to the boundary were flushed
        assert solo_journal.startswith(cancelled)
        with pytest.raises(CampaignStateError):
            machine.result()

    def test_cancelled_checkpoint_is_resumable(
        self, edge_space, tiny_workload, tmp_path, solo
    ):
        solo_fp, _ = solo
        journal = tmp_path / "c.jsonl"
        ckpt = str(journal) + ".ckpt"
        tracer = Tracer(JsonlSink(journal))
        machine = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=tracer,
            checkpoint_path=ckpt,
        )
        machine.start()
        machine.step()
        machine.cancel()
        tracer.close()

        checkpoint = load_checkpoint(ckpt)
        sink = JsonlSink(journal, resume_events=checkpoint.journal_events)
        resumed_tracer = Tracer(sink, seq_start=checkpoint.journal_events)
        resumed = CampaignStateMachine(
            _make_dse(edge_space, tiny_workload),
            tracer=resumed_tracer,
            checkpoint_path=ckpt,
            resume_from=checkpoint,
        )
        resumed.start()
        while resumed.state is CampaignState.RUNNING:
            resumed.step()
        resumed_tracer.close()
        assert result_fingerprint(resumed.result()) == solo_fp


class TestTransitionGuards:
    def test_step_requires_running(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(_make_dse(edge_space, tiny_workload))
        with pytest.raises(CampaignStateError):
            machine.step()

    def test_double_start_rejected(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(_make_dse(edge_space, tiny_workload))
        machine.start()
        with pytest.raises(CampaignStateError):
            machine.start()

    def test_pause_requires_running(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(_make_dse(edge_space, tiny_workload))
        with pytest.raises(CampaignStateError):
            machine.pause()

    def test_resume_requires_checkpointed(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(_make_dse(edge_space, tiny_workload))
        machine.start()
        with pytest.raises(CampaignStateError):
            machine.resume()

    def test_cancel_terminal_rejected(self, edge_space, tiny_workload):
        machine = CampaignStateMachine(_make_dse(edge_space, tiny_workload))
        machine.start()
        machine.cancel()
        with pytest.raises(CampaignStateError):
            machine.cancel()

    def test_terminal_property(self):
        assert CampaignState.FINISHED.terminal
        assert CampaignState.CANCELLED.terminal
        assert CampaignState.FAILED.terminal
        assert not CampaignState.RUNNING.terminal
        assert not CampaignState.CHECKPOINTED.terminal
        assert not CampaignState.PENDING.terminal
