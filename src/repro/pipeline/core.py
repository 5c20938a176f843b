"""The pipeline: source → filter stages → backend fan-out, with metrics.

One :class:`Pipeline` wires a chain of :class:`~repro.pipeline.stages.
Stage` filters into a :class:`~repro.pipeline.fanout.FanOut` over N
analysis back-ends.  It is itself an event sink (callable), so it can
be handed to the interpreter directly, and it can pull from any
:class:`~repro.pipeline.source.EventSource` via :meth:`Pipeline.run` —
which is the single-pass path every entry point uses: each workload or
trace is traversed once, no matter how many analyses are attached.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.backend import AnalysisBackend
from repro.core.memo import RegionAssembler, RegionMemo
from repro.events.operations import Operation, OpKind
from repro.pipeline.fanout import FanOut
from repro.pipeline.metrics import (
    PipelineMetrics,
    StageMetrics,
    snapshot_kind_counts,
)
from repro.pipeline.source import EventSource, SourceResult
from repro.pipeline.stages import Stage

class Pipeline:
    """Filter stages plus backend fan-out; callable as an event sink.

    Args:
        backends: the analyses to feed (in order).
        stages: filter chain applied before fan-out, in order.
        stats: collect per-kind counters and per-backend wall time.
            Off by default: the stat hooks cost two clock reads per
            backend per event, which is measurable on hot paths.
        memo: a :class:`~repro.core.memo.RegionMemo` enabling region
            memoization (``--memoize``): a
            :class:`~repro.core.memo.RegionAssembler` buffers each
            transaction-bounded region behind the stage chain and
            offers repeated shapes to the backends as summaries.
            ``None`` (the default) keeps the plain per-event sink.
    """

    def __init__(
        self,
        backends: Sequence[AnalysisBackend],
        stages: Sequence[Stage] = (),
        stats: bool = False,
        memo: Optional[RegionMemo] = None,
    ):
        self.stages = list(stages)
        self.fanout = FanOut(backends, timed=stats)
        # The fan-out's process hook is fixed at its construction, so
        # it can be bound once here instead of resolved per event.
        self._sink = self.fanout.process
        self.memo = memo
        self._assembler: Optional[RegionAssembler] = None
        if memo is not None:
            self._assembler = RegionAssembler(
                self.fanout.process, self.fanout.process_region, memo
            )
            self._sink = self._assembler.process
        self.stats = stats
        self.events_in = 0
        self.events_out = 0
        self.blocks_in = 0
        self.elapsed = 0.0
        self._kind_counts: dict[OpKind, int] = {}

    @property
    def backends(self) -> list[AnalysisBackend]:
        return self.fanout.backends

    def process(self, op: Operation) -> None:
        """Run one event through the stages, then every backend."""
        self.events_in += 1
        if self.stats:
            self._kind_counts[op.kind] = self._kind_counts.get(op.kind, 0) + 1
        if self.stages:
            current: Optional[Operation] = op
            for stage in self.stages:
                current = stage.process(current)
                if current is None:
                    return
            op = current
        self.events_out += 1
        self._sink(op)

    __call__ = process

    def process_block(self, ops) -> None:
        """Run one decoded packed block through the fan-out.

        ``ops`` is the block's operation list.  Blocks bypass the
        stage chain, so :meth:`run` only routes to this method when no
        stages are attached.  With memoization on, the operations go
        through the region assembler, whose regions may span blocks.
        """
        self.blocks_in += 1
        count = len(ops)
        self.events_in += count
        self.events_out += count
        if self.stats:
            counts = self._kind_counts
            for op in ops:
                counts[op.kind] = counts.get(op.kind, 0) + 1
        if self._assembler is not None:
            self._assembler.process_many(ops)
        else:
            self.fanout.process_block(ops)

    def finish(self) -> None:
        """Signal end of stream to every backend.

        With memoization on, the assembler's buffer (a region still
        open at end of stream) is drained first so no operation is
        lost.
        """
        if self._assembler is not None:
            self._assembler.flush()
        self.fanout.finish()

    def run(self, source: EventSource) -> SourceResult:
        """Drain ``source`` through this pipeline, then finish.

        Sources that serve decoded packed blocks (``run_blocks``, e.g.
        :class:`~repro.pipeline.source.PackedTraceSource`) are drained
        block-wise, one dispatch per block; a stage chain forces the
        op-wise path (stages see individual operations).

        Records total wall time in :attr:`elapsed` (and therefore in
        the metrics snapshot), regardless of the ``stats`` setting.
        """
        started = time.perf_counter()
        run_blocks = getattr(source, "run_blocks", None)
        if run_blocks is not None and not self.stages:
            result = run_blocks(self.process_block)
        elif not self.stages and not self.stats:
            # Nothing filters and nothing needs per-kind counts, so the
            # per-event :meth:`process` wrapper would only relay to the
            # sink; drive the sink directly and settle the event
            # counters in bulk from the source's own tally.  The
            # assembler is handed over as an object (not a bound
            # method) so sources that hold a full operation list can
            # find its batched ``process_many`` entry point.
            assembler = self._assembler
            result = source.run(
                self._sink if assembler is None else assembler
            )
            self.events_in += result.events
            self.events_out += result.events
        else:
            result = source.run(self.process)
        self.finish()
        self.elapsed += time.perf_counter() - started
        return result

    def warnings(self) -> list:
        """All warnings from all backends, in backend order."""
        collected = []
        for backend in self.backends:
            collected.extend(backend.warnings)
        return collected

    @property
    def warning_count(self) -> int:
        """Total warnings across backends, without copying any lists."""
        return sum(backend.warning_count for backend in self.backends)

    def metrics(self, elapsed: Optional[float] = None) -> PipelineMetrics:
        """Snapshot the pipeline's counters.

        Args:
            elapsed: wall time to report; defaults to the time
                accumulated by :meth:`run`.
        """
        return PipelineMetrics(
            events_in=self.events_in,
            events_out=self.events_out,
            by_kind=snapshot_kind_counts(self._kind_counts),
            stages=tuple(
                StageMetrics(stage.name, stage.seen, stage.dropped)
                for stage in self.stages
            ),
            backends=self.fanout.backend_metrics(),
            elapsed=self.elapsed if elapsed is None else elapsed,
            blocks_in=self.blocks_in,
            memo_hits=self.memo.hits if self.memo is not None else 0,
            memo_misses=self.memo.misses if self.memo is not None else 0,
            memo_evictions=(
                self.memo.evictions if self.memo is not None else 0
            ),
        )
