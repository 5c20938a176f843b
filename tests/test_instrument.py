"""Unit tests for the instrumentation pipeline and its filters."""

from repro.baselines.empty import EmptyAnalysis
from repro.core.optimized import VelodromeOptimized
from repro.events.trace import Trace
from repro.pipeline import (
    AtomicSpecFilter,
    BlockFilter,
    Pipeline,
    ReentrantLockFilter,
    ThreadLocalFilter,
    UninstrumentedLockFilter,
)


def filtered(event_filter, text):
    out = []
    for op in Trace.parse(text):
        result = event_filter.process(op)
        if result is not None:
            out.append(str(result))
    return out


class TestReentrantLockFilter:
    def test_reentrant_pairs_dropped(self):
        out = filtered(
            ReentrantLockFilter(),
            "1:acq(m) 1:acq(m) 1:rel(m) 1:rel(m)",
        )
        assert out == ["1:acq(m)", "1:rel(m)"]

    def test_independent_threads_kept(self):
        out = filtered(
            ReentrantLockFilter(),
            "1:acq(m) 1:rel(m) 2:acq(m) 2:rel(m)",
        )
        assert len(out) == 4

    def test_other_events_pass_through(self):
        out = filtered(ReentrantLockFilter(), "1:rd(x) 1:begin 1:end")
        assert len(out) == 3


class TestThreadLocalFilter:
    def test_single_thread_accesses_dropped(self):
        out = filtered(ThreadLocalFilter(), "1:rd(x) 1:wr(x) 1:rd(x)")
        assert out == []

    def test_shared_var_kept_from_second_thread_on(self):
        out = filtered(
            ThreadLocalFilter(), "1:wr(x) 2:rd(x) 1:wr(x) 2:wr(x)"
        )
        assert out == ["2:rd(x)", "1:wr(x)", "2:wr(x)"]

    def test_non_access_events_kept(self):
        out = filtered(ThreadLocalFilter(), "1:acq(m) 1:begin 1:end")
        assert len(out) == 3

    def test_unsoundness_is_bounded_to_prefix(self):
        # The dropped accesses are exactly those before sharing starts.
        filt = ThreadLocalFilter()
        dropped = [op for op in Trace.parse("1:wr(x) 1:wr(x)")
                   if filt.process(op) is None]
        assert len(dropped) == 2


class TestBlockFilter:
    def test_excluded_block_markers_stripped(self):
        out = filtered(
            BlockFilter({"bad"}),
            "1:begin(bad) 1:rd(x) 1:end 1:begin(good) 1:rd(x) 1:end",
        )
        assert out == ["1:rd(x)", "1:begin(good)", "1:rd(x)", "1:end"]

    def test_nested_exclusion_matches_ends(self):
        out = filtered(
            BlockFilter({"bad"}),
            "1:begin(good) 1:begin(bad) 1:rd(x) 1:end 1:end",
        )
        assert out == ["1:begin(good)", "1:rd(x)", "1:end"]

    def test_per_thread_stacks(self):
        out = filtered(
            BlockFilter({"bad"}),
            "1:begin(bad) 2:begin(good) 1:end 2:end",
        )
        assert out == ["2:begin(good)", "2:end"]

    def test_unmatched_end_passes(self):
        out = filtered(BlockFilter({"bad"}), "1:end")
        assert out == ["1:end"]


class TestUninstrumentedLockFilter:
    def test_hidden_lock_events_dropped(self):
        out = filtered(
            UninstrumentedLockFilter({"lib"}),
            "1:acq(lib) 1:rd(x) 1:rel(lib) 1:acq(app) 1:rel(app)",
        )
        assert out == ["1:rd(x)", "1:acq(app)", "1:rel(app)"]


class TestPipeline:
    def test_fanout_to_all_backends(self):
        a, b = EmptyAnalysis(), EmptyAnalysis()
        pipeline = Pipeline([a, b])
        for op in Trace.parse("1:rd(x) 2:wr(x)"):
            pipeline.process(op)
        assert a.events_processed == 2
        assert b.events_processed == 2
        assert pipeline.events_in == 2
        assert pipeline.events_out == 2

    def test_filters_applied_in_order(self):
        backend = EmptyAnalysis()
        pipeline = Pipeline(
            [backend],
            stages=[ReentrantLockFilter(), UninstrumentedLockFilter({"m"})],
        )
        for op in Trace.parse("1:acq(m) 1:acq(m) 1:rel(m) 1:rel(m) 1:rd(x)"):
            pipeline.process(op)
        assert backend.events_processed == 1
        assert pipeline.events_out == 1

    def test_pipeline_is_callable(self):
        backend = EmptyAnalysis()
        pipeline = Pipeline([backend])
        pipeline(Trace.parse("1:rd(x)")[0])
        assert backend.events_processed == 1

    def test_warnings_aggregated(self):
        velodrome = VelodromeOptimized()
        pipeline = Pipeline([velodrome])
        for op in Trace.parse("1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"):
            pipeline.process(op)
        pipeline.finish()
        assert len(pipeline.warnings()) == 1

    def test_filtered_blocks_change_verdict(self):
        """Stripping an atomic block's boundaries makes its operations
        non-transactional — the Table 1 exclusion methodology."""
        text = "1:begin(m) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"
        plain = VelodromeOptimized()
        plain.process_trace(Trace.parse(text))
        assert plain.error_detected

        excluded = VelodromeOptimized()
        pipeline = Pipeline([excluded], stages=[BlockFilter({"m"})])
        for op in Trace.parse(text):
            pipeline.process(op)
        assert not excluded.error_detected


class TestAtomicSpecFilter:
    def test_only_specified_blocks_kept(self):
        out = filtered(
            AtomicSpecFilter({"keep"}),
            "1:begin(keep) 1:rd(x) 1:end 1:begin(drop) 1:rd(x) 1:end",
        )
        assert out == ["1:begin(keep)", "1:rd(x)", "1:end", "1:rd(x)"]

    def test_spec_restricts_checking(self):
        """With 'bad' outside the spec, its violation is no longer an
        atomic-block violation (its ops become unary transactions)."""
        text = "1:begin(bad) 1:rd(x) 2:wr(x) 1:wr(x) 1:end"
        specced = VelodromeOptimized()
        pipeline = Pipeline([specced], stages=[AtomicSpecFilter({"other"})])
        for op in Trace.parse(text):
            pipeline.process(op)
        assert not specced.error_detected

    def test_nested_specified_block_survives(self):
        out = filtered(
            AtomicSpecFilter({"inner"}),
            "1:begin(outer) 1:begin(inner) 1:rd(x) 1:end 1:end",
        )
        assert out == ["1:begin(inner)", "1:rd(x)", "1:end"]
