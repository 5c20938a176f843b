"""Tests for the supervised checker runtime (repro.resilience.supervisor).

The two acceptance criteria of the resilience work live here:

* a node-budget-constrained run that would die with ``SlotsExhausted``
  unsupervised instead *completes*, flagged as degraded when the
  window reset was needed;
* killing a supervised run at an arbitrary event and resuming from its
  checkpoint file yields verdicts byte-identical to a run that was
  never interrupted.
"""

import pytest

from repro.core.basic import VelodromeBasic
from repro.core.compact import VelodromeCompact
from repro.core.optimized import VelodromeOptimized
from repro.events.trace import Trace
from repro.fuzz import trace_for_seed
from repro.graph.stepcode import SlotsExhausted
from repro.pipeline.source import PackedTraceSource, TraceSource
from repro.resilience import Budgets, SupervisedChecker
from repro.resilience.snapshot import (
    SnapshotError,
    previous_snapshot_path,
    read_snapshot,
    write_snapshot,
)
from repro.store import save_packed

from tests.conftest import state_digest

NON_SERIALIZABLE = "1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"


def tiny_compact():
    """A compact backend guaranteed to exhaust on a random trace."""
    return VelodromeCompact(
        max_slots=4, timestamp_capacity=32, collect_garbage=False
    )


def fingerprint(backend):
    return (
        backend.error_detected,
        [
            (w.kind.value, w.label, w.tid, w.position, w.message, w.blamed)
            for w in backend.warnings
        ],
    )


class TestConstruction:
    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            SupervisedChecker([VelodromeBasic()], checkpoint_every=10)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            SupervisedChecker(
                [VelodromeBasic()], checkpoint_every=0,
                checkpoint_path="x.json",
            )
        with pytest.raises(ValueError):
            SupervisedChecker([VelodromeBasic()], recovery_window=0)


class TestExhaustionRecovery:
    def test_unsupervised_run_crashes(self):
        backend = tiny_compact()
        with pytest.raises(SlotsExhausted):
            for op in trace_for_seed(5):
                backend.process(op)

    def test_supervised_run_completes_instead(self):
        """THE acceptance criterion: the wall recovers, run completes."""
        checker = SupervisedChecker([tiny_compact()], recovery_window=16)
        checker.run(TraceSource(trace_for_seed(5)))
        report = checker.report()
        assert report.events == len(trace_for_seed(5))
        assert report.recoveries > 0

    def test_budget_pressure_completes_with_degraded_flag(self):
        # A node budget below the concurrent-transaction floor forces
        # the ladder all the way to the window reset: the run still
        # completes, flagged instead of crashed.
        checker = SupervisedChecker(
            [VelodromeCompact(collect_garbage=False)],
            budgets=Budgets(max_live_nodes=2, check_interval=1),
        )
        checker.run(TraceSource(trace_for_seed(5)))
        report = checker.report()
        assert report.events == len(trace_for_seed(5))
        assert report.degraded
        assert "[DEGRADED COMPLETENESS]" in report.summary()
        assert any(e.rung == "degrade" for e in report.degradations)

    def test_warnings_before_the_wall_survive_recovery(self):
        # The non-serializable core completes *before* pool pressure
        # (induced by trailing churn) hits; its warning must survive.
        churn = " ".join(
            f"{tid}:begin {tid}:wr(y{i}) {tid}:end"
            for i, tid in enumerate([1, 2, 3, 1, 2, 3, 1, 2])
        )
        ops = list(Trace.parse(NON_SERIALIZABLE + " " + churn))
        reference = VelodromeCompact()
        reference.process_trace(Trace(ops))
        reference.finish()
        assert reference.error_detected
        expected_labels = {w.label for w in reference.warnings}

        checker = SupervisedChecker([tiny_compact()], recovery_window=4)
        checker.run(TraceSource(Trace(ops)))
        [backend] = checker.backends
        assert backend.error_detected
        assert {w.label for w in backend.warnings} >= expected_labels

    def test_fail_mode_reraises_exhaustion(self):
        checker = SupervisedChecker([tiny_compact()], on_pressure="fail")
        with pytest.raises(SlotsExhausted):
            checker.run(TraceSource(trace_for_seed(5)))

    def test_failure_contained_per_backend(self):
        # The compact backend hits its wall; the object backend must
        # sail through and keep the reference verdict.
        ops = list(trace_for_seed(5))
        reference = VelodromeOptimized()
        for op in ops:
            reference.process(op)
        reference.finish()
        checker = SupervisedChecker(
            [VelodromeOptimized(), tiny_compact()], recovery_window=16
        )
        checker.run(TraceSource(Trace(ops)))
        assert fingerprint(checker.backends[0]) == fingerprint(reference)
        assert checker.report().recoveries > 0


class TestCheckpointResume:
    def run_reference(self, ops):
        backend = VelodromeCompact()
        for op in ops:
            backend.process(op)
        backend.finish()
        return backend

    def test_periodic_checkpoints_written(self, tmp_path):
        path = tmp_path / "snap.json"
        checker = SupervisedChecker(
            [VelodromeCompact()], checkpoint_every=25, checkpoint_path=path
        )
        ops = list(trace_for_seed(7))
        checker.run(TraceSource(Trace(ops)))
        assert checker.checkpoints_written == len(ops) // 25
        assert path.exists()

    @pytest.mark.parametrize("kill_at", [0, 1, 37, 61, 105])
    def test_kill_and_resume_is_byte_identical(self, tmp_path, kill_at):
        ops = list(trace_for_seed(7))
        kill_at = min(kill_at, len(ops))
        reference = self.run_reference(ops)

        path = tmp_path / "snap.json"
        first = SupervisedChecker(
            [VelodromeCompact()], checkpoint_every=25, checkpoint_path=path
        )
        for op in ops[:kill_at]:
            first.process(op)
        first.checkpoint()  # the boundary the "kill" falls back to
        del first

        resumed = SupervisedChecker.resume(path)
        assert resumed.position == kill_at
        for op in ops[resumed.position:]:
            resumed.process(op)
        resumed.finish()
        [backend] = resumed.backends
        assert fingerprint(backend) == fingerprint(reference)

    def test_resume_mid_stream_from_periodic_checkpoint(self, tmp_path):
        # Kill *between* checkpoints: resume replays from the last
        # checkpoint position, not the kill position.
        ops = list(trace_for_seed(7))
        path = tmp_path / "snap.json"
        first = SupervisedChecker(
            [VelodromeCompact()], checkpoint_every=25, checkpoint_path=path
        )
        for op in ops[:61]:
            first.process(op)
        del first  # killed; only the checkpoint at event 50 survives

        resumed = SupervisedChecker.resume(path)
        assert resumed.position == 50
        for op in ops[resumed.position:]:
            resumed.process(op)
        resumed.finish()
        [backend] = resumed.backends
        assert fingerprint(backend) == fingerprint(self.run_reference(ops))

    def test_checkpoint_without_path_rejected(self):
        checker = SupervisedChecker([VelodromeBasic()])
        with pytest.raises(ValueError, match="no checkpoint path"):
            checker.checkpoint()


class TestSupervisedBlockPath:
    """Packed input reaches the supervisor one decoded block at a time
    (:meth:`SupervisedChecker.process_block`); every result must match
    the op-wise path."""

    def packed(self, tmp_path, seed=7):
        ops = list(trace_for_seed(seed))
        path = tmp_path / "t.vtrc"
        save_packed(ops, path, block_ops=16)
        return ops, path

    def test_block_path_state_identity(self, tmp_path):
        ops, path = self.packed(tmp_path)
        op_checker = SupervisedChecker([VelodromeOptimized()])
        op_checker.run(TraceSource(ops))
        block_checker = SupervisedChecker([VelodromeOptimized()])
        block_checker.run(PackedTraceSource(path))
        assert op_checker.position == block_checker.position == len(ops)
        assert (
            state_digest(op_checker.backends[0])
            == state_digest(block_checker.backends[0])
        )

    def test_memoized_block_path_matches_op_path(self, tmp_path):
        from repro.core.memo import RegionMemo

        region = ("1:begin(m) 1:rd(x) 1:wr(x) 1:rd(y) 1:wr(y) 1:rd(z) "
                  "1:wr(z) 1:end")
        ops = list(Trace.parse(" ".join([region, "2:rd(x)"] * 30)))
        path = tmp_path / "loop.vtrc"
        save_packed(ops, path, block_ops=16)
        runs = []
        for source in (TraceSource(ops), PackedTraceSource(path)):
            memo = RegionMemo()
            checker = SupervisedChecker([VelodromeOptimized()], memo=memo)
            checker.run(source)
            runs.append((state_digest(checker.backends[0]), memo.hits,
                         checker.position))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0 and runs[0][2] == len(ops)

    def test_block_path_recovers_from_exhaustion(self, tmp_path):
        # Recovery replays whole buffered blocks from the boundary.
        ops, path = self.packed(tmp_path, seed=5)
        op_checker = SupervisedChecker([tiny_compact()], recovery_window=16)
        op_checker.run(TraceSource(ops))
        block_checker = SupervisedChecker(
            [tiny_compact()], recovery_window=16
        )
        block_checker.run(PackedTraceSource(path))
        assert block_checker.position == len(ops)
        assert block_checker.report().recoveries > 0
        assert (
            fingerprint(block_checker.backends[0])
            == fingerprint(op_checker.backends[0])
        )

    def test_resume_mid_trace(self, tmp_path):
        ops, path = self.packed(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        uninterrupted = SupervisedChecker([VelodromeOptimized()])
        uninterrupted.run(PackedTraceSource(path))

        first = SupervisedChecker(
            [VelodromeOptimized()], checkpoint_every=40,
            checkpoint_path=ckpt,
        )
        first.run(PackedTraceSource(path))
        # Rewind to the last periodic checkpoint and continue there.
        resumed = SupervisedChecker.resume(ckpt)
        assert 0 < resumed.position < len(ops)
        resumed.run(PackedTraceSource(path, start_seq=resumed.position))
        assert (
            state_digest(uninterrupted.backends[0])
            == state_digest(resumed.backends[0])
        )

    def test_checkpoint_with_legacy_fast_forward_meta_resumes(
        self, tmp_path, capsys
    ):
        # Checkpoints written while packed blocks could still be
        # skipped from their summaries carry the skipped spans in
        # ``fast_forwarded_blocks``; they must still resume.
        from repro.cli import main
        from repro.serve.stream import packed_checkpoint_meta

        ops, path = self.packed(tmp_path)
        ckpt = tmp_path / "ckpt.json"
        backend = VelodromeOptimized()
        for op in ops[:48]:
            backend.process(op)
        meta = packed_checkpoint_meta(path)(48)
        meta["fast_forwarded_blocks"] = [[0, 15], [32, 47]]
        write_snapshot(ckpt, [backend], 48, meta=meta)
        assert read_snapshot(ckpt).meta["fast_forwarded_blocks"]

        uninterrupted = SupervisedChecker([VelodromeOptimized()])
        uninterrupted.run(PackedTraceSource(path))
        resumed = SupervisedChecker.resume(ckpt)
        resumed.run(PackedTraceSource(path, start_seq=resumed.position))
        assert (
            state_digest(uninterrupted.backends[0])
            == state_digest(resumed.backends[0])
        )

        code_plain = main(["check", str(path)])
        plain = capsys.readouterr().out
        code_resumed = main(["check", str(path), "--resume", str(ckpt)])
        resumed_out = capsys.readouterr().out
        assert code_resumed == code_plain
        assert "resumed 1 backend(s) at event 48" in resumed_out
        assert code_plain == 1
        for line in plain.splitlines():
            assert line in resumed_out


class TestReport:
    def test_clean_run_summary(self):
        checker = SupervisedChecker([VelodromeBasic()])
        checker.run(TraceSource(Trace.parse("1:begin 1:rd(x) 1:end")))
        report = checker.report()
        assert report.events == 3
        assert not report.degraded
        assert "DEGRADED" not in report.summary()

    def test_warnings_aggregated_across_backends(self):
        checker = SupervisedChecker([VelodromeBasic(), VelodromeOptimized()])
        checker.run(TraceSource(Trace.parse(NON_SERIALIZABLE)))
        assert len(checker.warnings()) >= 2


class TestCheckpointGenerations:
    """Satellite: a torn *primary* checkpoint must not strand a stream
    — resume falls back to the rotated ``.prev`` generation, loses at
    most one checkpoint interval, and still converges to the
    uninterrupted verdicts."""

    def run_reference(self, ops):
        backend = VelodromeCompact()
        for op in ops:
            backend.process(op)
        backend.finish()
        return backend

    def two_generations(self, tmp_path):
        """Run far enough that the checkpoint file has rotated."""
        ops = list(trace_for_seed(7))
        path = tmp_path / "snap.json"
        checker = SupervisedChecker(
            [VelodromeCompact()], checkpoint_every=25, checkpoint_path=path
        )
        for op in ops:
            checker.process(op)
        assert checker.checkpoints_written >= 2
        assert previous_snapshot_path(path).exists()
        return ops, path

    def test_fallback_to_previous_generation(self, tmp_path):
        ops, path = self.two_generations(tmp_path)
        reference = self.run_reference(ops)
        primary_position = read_snapshot(path).position
        # Tear the primary after its atomic write (disk corruption).
        path.write_bytes(path.read_bytes()[: 40])

        resumed = SupervisedChecker.resume_with_fallback(path)
        assert resumed.resumed_from == previous_snapshot_path(path)
        assert resumed.position == primary_position - 25
        for op in ops[resumed.position:]:
            resumed.process(op)
        resumed.finish()
        [backend] = resumed.backends
        assert fingerprint(backend) == fingerprint(reference)

    def test_primary_preferred_when_intact(self, tmp_path):
        ops, path = self.two_generations(tmp_path)
        resumed = SupervisedChecker.resume_with_fallback(path)
        assert resumed.resumed_from == path
        assert resumed.position == read_snapshot(path).position

    def test_both_generations_bad_fails_loudly(self, tmp_path):
        _, path = self.two_generations(tmp_path)
        path.write_text("{torn", encoding="utf-8")
        previous_snapshot_path(path).write_bytes(b"\xff\xfe")
        with pytest.raises(SnapshotError) as excinfo:
            SupervisedChecker.resume_with_fallback(path)
        # The error names every generation it tried.
        assert str(path) in str(excinfo.value)
        assert str(previous_snapshot_path(path)) in str(excinfo.value)

    def test_missing_primary_falls_back(self, tmp_path):
        ops, path = self.two_generations(tmp_path)
        position = read_snapshot(previous_snapshot_path(path)).position
        path.unlink()
        resumed = SupervisedChecker.resume_with_fallback(path)
        assert resumed.resumed_from == previous_snapshot_path(path)
        assert resumed.position == position


class TestCodecLessBackends:
    """Backends without a snapshot codec (the vector-clock
    ``aerodrome``) still run supervised — budgets and stop hooks apply
    — but have no recovery boundary: exhaustion surfaces instead of
    rolling back, and checkpointing them is refused up front."""

    def test_supervised_run_completes(self):
        from repro.core.aerodrome import AeroDrome

        ops = list(trace_for_seed(7))
        reference = AeroDrome()
        for op in ops:
            reference.process(op)
        reference.finish()

        checker = SupervisedChecker([AeroDrome()])
        checker.run(TraceSource(Trace(ops)))
        [backend] = checker.backends
        assert fingerprint(backend) == fingerprint(reference)

    def test_checkpointing_codec_less_backend_refused(self, tmp_path):
        from repro.core.aerodrome import AeroDrome
        from repro.resilience.snapshot import UnsupportedBackend

        checker = SupervisedChecker(
            [AeroDrome()],
            checkpoint_every=5,
            checkpoint_path=tmp_path / "snap.json",
        )
        with pytest.raises(UnsupportedBackend):
            for op in trace_for_seed(7):
                checker.process(op)
