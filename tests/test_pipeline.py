"""Tests for the composable event pipeline (repro.pipeline).

The load-bearing property is single-pass fidelity: feeding N backends
from ONE traversal of the event stream must produce, for every
backend, exactly the warnings it would produce running alone over the
same trace.  The harnesses (Table 1/2, injection) rely on this to
replace their per-backend replays with fan-out runs.
"""

import pytest
from hypothesis import HealthCheck, given, seed, settings

from repro.cli import BACKENDS as CLI_BACKENDS
from repro.core.basic import VelodromeBasic
from repro.core.optimized import VelodromeOptimized
from repro.baselines.empty import EmptyAnalysis
from repro.events.trace import Trace
from repro.fuzz import trace_for_seed
from repro.pipeline import (
    AtomicSpecFilter,
    BlockFilter,
    FanOut,
    LiveSource,
    Pipeline,
    PipelineMetrics,
    ReentrantLockFilter,
    Stage,
    ThreadLocalFilter,
    TraceSource,
    UninstrumentedLockFilter,
)
from repro.pipeline.source import PackedTraceSource
from repro.store import PackedTraceReader, save_packed

from tests.conftest import state_digest, traces

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------- property
@seed(20080601)  # PLDI 2008; fixed so CI failures reproduce locally
@given(traces())
@RELAXED
def test_fanout_single_pass_matches_independent_runs(trace):
    """One fan-out pass over a random trace produces, per backend,
    exactly the warnings of an independent ``process_trace`` run."""
    factories = [CLI_BACKENDS[name] for name in sorted(CLI_BACKENDS)]
    fanned = [factory() for factory in factories]
    pipeline = Pipeline(fanned)
    pipeline.run(TraceSource(trace))
    for factory, shared in zip(factories, fanned):
        solo = factory().process_trace(trace)
        assert solo.warnings == shared.warnings
        assert solo.events_processed == shared.events_processed


@seed(20080602)
@given(traces())
@RELAXED
def test_fanout_single_pass_matches_with_stages(trace):
    """Fidelity also holds downstream of a filter chain: the fan-out
    backends see the same filtered stream a solo pipeline produces."""
    stages = [ReentrantLockFilter(), BlockFilter({"m0"})]
    fanned = [VelodromeOptimized(), EmptyAnalysis()]
    pipeline = Pipeline(fanned, stages=stages)
    pipeline.run(TraceSource(trace))

    solo = VelodromeOptimized()
    solo_pipeline = Pipeline(
        [solo], stages=[ReentrantLockFilter(), BlockFilter({"m0"})]
    )
    solo_pipeline.run(TraceSource(trace))
    assert solo.warnings == fanned[0].warnings
    assert fanned[0].events_processed == fanned[1].events_processed


# ------------------------------------------------------------- stage drops
def drops_of(stage: Stage, text: str) -> tuple[list[str], int, int]:
    out = []
    for op in Trace.parse(text):
        result = stage.process(op)
        if result is not None:
            out.append(str(result))
    return out, stage.seen, stage.dropped


class TestStageDropSemantics:
    def test_reentrant_lock_filter_counts_redundant_pairs(self):
        out, seen, dropped = drops_of(
            ReentrantLockFilter(),
            "1:acq(m) 1:acq(m) 1:rel(m) 1:rel(m) 1:rd(x)",
        )
        assert out == ["1:acq(m)", "1:rel(m)", "1:rd(x)"]
        assert (seen, dropped) == (5, 2)

    def test_thread_local_filter_counts_prefix_accesses(self):
        out, seen, dropped = drops_of(
            ThreadLocalFilter(), "1:wr(x) 1:rd(x) 2:rd(x) 1:wr(x)"
        )
        assert out == ["2:rd(x)", "1:wr(x)"]
        assert (seen, dropped) == (4, 2)

    def test_block_filter_counts_stripped_markers(self):
        out, seen, dropped = drops_of(
            BlockFilter({"bad"}),
            "1:begin(bad) 1:rd(x) 1:end 1:begin(good) 1:end",
        )
        assert out == ["1:rd(x)", "1:begin(good)", "1:end"]
        assert (seen, dropped) == (5, 2)

    def test_atomic_spec_filter_counts_unspecified_markers(self):
        out, seen, dropped = drops_of(
            AtomicSpecFilter({"keep"}),
            "1:begin(keep) 1:end 1:begin(drop) 1:rd(x) 1:end",
        )
        assert out == ["1:begin(keep)", "1:end", "1:rd(x)"]
        assert (seen, dropped) == (5, 2)

    def test_uninstrumented_lock_filter_counts_hidden_locks(self):
        out, seen, dropped = drops_of(
            UninstrumentedLockFilter({"lib"}),
            "1:acq(lib) 1:rd(x) 1:rel(lib)",
        )
        assert out == ["1:rd(x)"]
        assert (seen, dropped) == (3, 2)

    def test_later_stage_sees_only_survivors(self):
        first = UninstrumentedLockFilter({"lib"})
        second = ThreadLocalFilter()
        pipeline = Pipeline([EmptyAnalysis()], stages=[first, second])
        for op in Trace.parse("1:acq(lib) 1:rel(lib) 1:rd(x) 2:rd(x)"):
            pipeline.process(op)
        assert first.seen == 4 and first.dropped == 2
        assert second.seen == 2  # only the two accesses reached it


# ----------------------------------------------------------------- sources
class TestSources:
    def test_trace_source_replays_in_order(self):
        trace = Trace.parse("1:rd(x) 2:wr(x) 1:wr(y)")
        received = []
        result = TraceSource(trace).run(received.append)
        assert [str(op) for op in received] == [str(op) for op in trace]
        assert result.events == 3
        assert result.trace is trace
        assert result.run is None

    def test_live_source_streams_interpreter_events(self):
        from repro.runtime.scheduler import RandomScheduler
        from repro.workloads import get

        program = get("sor").program(0.5)
        received = []
        source = LiveSource(
            program, scheduler=RandomScheduler(0), record_trace=True
        )
        result = source.run(received.append)
        assert result.events == len(received) > 0
        assert result.run is not None
        assert len(result.trace) == result.events

    def test_pipeline_run_finishes_backends(self):
        backend = VelodromeOptimized()
        pipeline = Pipeline([backend])
        text = "1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"
        pipeline.run(TraceSource(Trace.parse(text)))
        assert backend.warning_count == 1
        assert pipeline.elapsed > 0


# ----------------------------------------------------------- packed blocks
#: Operations per block in the packed fixtures: small, so the 106-op
#: seed-7 trace spans seven blocks.
BLOCK_OPS = 16


@pytest.fixture
def packed(tmp_path):
    """The seed-7 fuzz trace's operations and their packed recording."""
    ops = list(trace_for_seed(7))
    path = tmp_path / "t.vtrc"
    save_packed(ops, path, block_ops=BLOCK_OPS)
    return ops, path


class TestPipelineBlockPath:
    def test_block_vs_op_state_identity(self, packed):
        ops, path = packed
        op_backend = VelodromeOptimized()
        op_pipeline = Pipeline([op_backend], stats=True)
        op_pipeline.run(TraceSource(ops))

        block_backend = VelodromeOptimized()
        pipeline = Pipeline([block_backend], stats=True)
        pipeline.run(PackedTraceSource(path))

        assert state_digest(op_backend) == state_digest(block_backend)
        metrics = pipeline.metrics()
        assert metrics.blocks_in == -(-len(ops) // BLOCK_OPS)
        assert metrics.events_in == metrics.events_out == len(ops)
        assert metrics.by_kind == op_pipeline.metrics().by_kind

    def test_memoized_block_path_matches_op_path(self, tmp_path):
        # Regions span block boundaries, so the block path must hand
        # every operation to the region assembler in stream order.
        from repro.core.memo import RegionMemo

        region = ("1:begin(m) 1:rd(x) 1:wr(x) 1:rd(y) 1:wr(y) 1:rd(z) "
                  "1:wr(z) 1:end")
        ops = list(Trace.parse(" ".join([region, "2:rd(x)"] * 30)))
        path = tmp_path / "loop.vtrc"
        save_packed(ops, path, block_ops=BLOCK_OPS)
        runs = []
        for source in (TraceSource(ops), PackedTraceSource(path)):
            backend = VelodromeOptimized()
            pipeline = Pipeline([backend], memo=RegionMemo())
            pipeline.run(source)
            runs.append((state_digest(backend), pipeline.memo.hits,
                         pipeline.events_in))
        plain = VelodromeOptimized()
        Pipeline([plain]).run(TraceSource(ops))
        assert runs[0] == runs[1]
        assert runs[0][0] == state_digest(plain)
        assert runs[0][1] > 0

    def test_decode_runs_exactly_once_per_block(self, packed, monkeypatch):
        # Two backends share one decode, and the fan-out is called
        # once per block.
        _, path = packed
        decode_block = PackedTraceReader.decode_block
        fanout_block = FanOut.process_block
        calls = {"decode": 0, "fanout": 0}

        def counting_decode(reader, block):
            calls["decode"] += 1
            return decode_block(reader, block)

        def counting_fanout(fanout, ops):
            calls["fanout"] += 1
            return fanout_block(fanout, ops)

        monkeypatch.setattr(PackedTraceReader, "decode_block",
                            counting_decode)
        monkeypatch.setattr(FanOut, "process_block", counting_fanout)
        pipeline = Pipeline([VelodromeBasic(), VelodromeBasic()])
        pipeline.run(PackedTraceSource(path))
        with PackedTraceReader(path) as reader:
            n_blocks = len(reader.blocks)
        assert calls == {"decode": n_blocks, "fanout": n_blocks}

    def test_stats_render_has_blocks_line(self, packed):
        _, path = packed
        pipeline = Pipeline([VelodromeOptimized()], stats=True)
        pipeline.run(PackedTraceSource(path))
        rendered = pipeline.metrics().render()
        assert f"blocks: in={pipeline.blocks_in}\n" in rendered

    def test_stages_force_op_path(self, packed):
        class Passthrough(Stage):
            name = "passthrough"

        ops, path = packed
        pipeline = Pipeline([VelodromeOptimized()], stages=[Passthrough()])
        pipeline.run(PackedTraceSource(path))
        assert pipeline.blocks_in == 0
        assert pipeline.events_in == len(ops)


class TestPackedTraceSource:
    def test_run_vs_run_blocks_identity(self, packed):
        _, path = packed
        a = VelodromeOptimized()
        Pipeline([a]).run(PackedTraceSource(path))
        b = VelodromeOptimized()
        pipeline = Pipeline([b])
        PackedTraceSource(path).run(pipeline.process)
        pipeline.finish()
        assert state_digest(a) == state_digest(b)

    def test_start_seq_mid_block_drops_prefix(self, packed):
        ops, path = packed
        start = BLOCK_OPS + 5  # inside block 1
        blocks = []
        result = PackedTraceSource(path, start_seq=start).run_blocks(
            blocks.append
        )
        assert [op for block in blocks for op in block] == ops[start:]
        assert result.events == len(ops) - start
        assert len(blocks[0]) == BLOCK_OPS - 5
        assert all(len(block) == BLOCK_OPS for block in blocks[1:-1])

    def test_start_seq_past_end(self, packed):
        ops, path = packed
        result = PackedTraceSource(path, start_seq=len(ops)).run_blocks(
            lambda ops: pytest.fail("no blocks expected")
        )
        assert result.events == 0

    def test_prefetch_jobs_identity(self, packed):
        _, path = packed
        serial = VelodromeOptimized()
        Pipeline([serial]).run(PackedTraceSource(path, jobs=1))
        sharded = VelodromeOptimized()
        Pipeline([sharded]).run(PackedTraceSource(path, jobs=2))
        assert state_digest(serial) == state_digest(sharded)


# ------------------------------------------------------------------ fanout
class TestFanOut:
    def test_all_backends_fed(self):
        a, b = EmptyAnalysis(), EmptyAnalysis()
        fanout = FanOut([a, b])
        for op in Trace.parse("1:rd(x) 2:wr(x)"):
            fanout.process(op)
        fanout.finish()
        assert a.events_processed == b.events_processed == 2

    def test_timed_fanout_accumulates_per_backend(self):
        a, b = EmptyAnalysis(), EmptyAnalysis()
        fanout = FanOut([a, b], timed=True)
        for op in Trace.parse("1:rd(x) 2:wr(x) 1:wr(y)"):
            fanout.process(op)
        fanout.finish()
        assert all(elapsed > 0 for elapsed in fanout.times)
        metrics = fanout.backend_metrics()
        assert [m.events for m in metrics] == [3, 3]

    def test_untimed_fanout_reports_zero_time(self):
        fanout = FanOut([EmptyAnalysis()])
        fanout.process(Trace.parse("1:rd(x)")[0])
        assert fanout.backend_metrics()[0].time == 0.0


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def run_pipeline(self, stats=True):
        backend = VelodromeOptimized()
        pipeline = Pipeline(
            [backend], stages=[BlockFilter({"skip"})], stats=stats
        )
        text = ("1:begin(skip) 1:rd(x) 1:end "
                "1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end")
        pipeline.run(TraceSource(Trace.parse(text)))
        return pipeline

    def test_snapshot_counters(self):
        metrics = self.run_pipeline().metrics()
        assert metrics.events_in == 8
        assert metrics.events_out == 6  # skip's begin/end stripped
        assert metrics.events_dropped == 2
        assert metrics.by_kind == {"rd": 2, "wr": 2, "begin": 2, "end": 2}
        assert metrics.stages[0].name == "block-exclude"
        assert metrics.stages[0].dropped == 2
        assert metrics.backend("VELODROME").warning_count == 1
        assert metrics.events_per_second > 0

    def test_stats_off_skips_kind_and_time(self):
        metrics = self.run_pipeline(stats=False).metrics()
        assert metrics.by_kind == {}
        assert metrics.backend("VELODROME").time == 0.0
        # Structural counters stay on: they are single int increments.
        assert metrics.events_in == 8
        assert metrics.stages[0].dropped == 2

    def test_render_mentions_stages_and_backends(self):
        text = self.run_pipeline().metrics().render()
        assert "pipeline stats:" in text
        assert "stage block-exclude" in text
        assert "backend VELODROME" in text
        assert "events/s" in text

    def test_aggregate_sums_by_name(self):
        one = self.run_pipeline().metrics()
        two = self.run_pipeline().metrics()
        total = PipelineMetrics.aggregate([one, two])
        assert total.events_in == 16
        assert total.by_kind["rd"] == 4
        assert total.stages[0].dropped == 4
        assert total.backend("VELODROME").warning_count == 2


# ----------------------------------------------------- warning_count (sat.)
class TestWarningCount:
    def test_matches_warnings_length_without_copy(self):
        backend = VelodromeOptimized()
        text = "1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"
        backend.process_trace(Trace.parse(text))
        assert backend.warning_count == len(backend.warnings) == 1

    def test_tool_run_warning_count(self):
        from repro.runtime.tool import run_velodrome
        from repro.workloads import get

        run = run_velodrome(get("sor").program(0.5), seed=0)
        assert run.warning_count == len(run.warnings)


# ------------------------------------------------------------- CLI fan-out
class TestCliFanOut:
    def violation_file(self, tmp_path):
        from repro.events.serialize import save_trace

        path = tmp_path / "trace.jsonl"
        save_trace(
            Trace.parse("1:begin(inc) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"), path
        )
        return str(path)

    def test_multiple_backends_one_load(self, tmp_path, capsys):
        from repro.cli import main

        path = self.violation_file(tmp_path)
        code = main(["check", path, "--backend", "velodrome",
                     "--backend", "eraser", "--backend", "atomizer"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VELODROME:atomicity" in out
        assert "ERASER:race" in out
        assert "ATOMIZER: no warnings" in out

    def test_backend_all(self, tmp_path, capsys):
        from repro.cli import BACKENDS, main

        path = self.violation_file(tmp_path)
        main(["check", path, "--backend", "all"])
        out = capsys.readouterr().out
        # Every registered backend reported: a warning line carries the
        # backend's name, a clean one prints "NAME: no warnings".
        for factory in BACKENDS.values():
            assert factory().name in out
        assert "LOCK-ORDER: no warnings" in out

    def test_check_stats_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = self.violation_file(tmp_path)
        main(["check", path, "--stats"])
        out = capsys.readouterr().out
        assert "pipeline stats:" in out
        assert "backend VELODROME" in out

    def test_run_stats_flag(self, capsys):
        from repro.cli import main

        main(["run", "sor", "--scale", "0.5", "--stats"])
        out = capsys.readouterr().out
        assert "pipeline stats:" in out


# ------------------------------------------------------- harness invariants
class TestHarnessSinglePass:
    def test_table1_row_carries_aggregated_metrics(self):
        from repro.harness.table1 import measure_workload
        from repro.workloads import get

        row = measure_workload(get("sor"), scale=0.5, seed=0, repeats=2)
        assert row.metrics is not None
        # One instrumented pass per repeat, five backends riding it.
        assert len(row.metrics.backends) == 5
        assert row.metrics.backend("VELODROME-NOMERGE").events > 0

    def test_table1_verdicts_match_solo_runs(self):
        from repro.harness.table1 import measure_workload
        from repro.pipeline import BlockFilter
        from repro.runtime.scheduler import RandomScheduler
        from repro.runtime.tool import run_with_backends
        from repro.workloads import get

        row = measure_workload(get("philo"), scale=0.5, seed=0)
        for merge, alloc in (
            (True, row.nodes_allocated_with_merge),
            (False, row.nodes_allocated_without_merge),
        ):
            program = get("philo").program(0.5)
            solo = run_with_backends(
                program,
                [VelodromeOptimized(
                    merge_unary=merge, first_warning_per_label=True
                )],
                scheduler=RandomScheduler(0),
                filters=[BlockFilter(program.non_atomic_methods)],
            )
            assert solo.graph_stats().allocated == alloc

    def test_table2_stats_plumbing(self):
        from repro.harness.table2 import score_workload
        from repro.workloads import get

        row = score_workload(get("sor"), seeds=range(2), scale=0.5,
                             stats=True)
        assert row.metrics is not None
        assert row.metrics.backend("VELODROME").events > 0
        assert row.metrics.backend("ATOMIZER").events > 0
