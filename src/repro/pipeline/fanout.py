"""Backend fan-out: one event stream feeding N analyses.

The dispatcher at the end of the pipeline.  Each surviving event is
handed to every attached :class:`~repro.core.backend.AnalysisBackend`
in order, so a single pass over the trace (live run or recording)
drives all analyses at once — the paper Section 5 architecture, where
e.g. Velodrome and the Atomizer observe the same instrumented run.

With ``timed=True`` the dispatcher accumulates per-backend wall time
(its ``process`` and ``finish`` calls), which the harnesses use to
attribute the cost of a shared run to individual analyses.

Hot-path notes: the timed/untimed decision is made ONCE, at
construction — ``process`` and ``finish`` are bound to the matching
implementation, so the per-event path never re-tests ``self.timed``
and never re-binds ``time.perf_counter``.  The untimed path pre-binds
the backends' ``process`` methods (a single-backend fan-out forwards
straight to it), skipping both the timing branch and the enumerate
loop entirely.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.backend import AnalysisBackend
from repro.events.operations import Operation
from repro.pipeline.metrics import BackendMetrics


class FanOut:
    """Dispatch each event to every backend, optionally timing each.

    ``process`` and ``finish`` are chosen at construction: timed mode
    accumulates per-backend wall clock into :attr:`times`; untimed mode
    dispatches over a pre-bound list of backend methods with no timing
    overhead at all.
    """

    def __init__(
        self, backends: Sequence[AnalysisBackend], timed: bool = False
    ):
        self.backends = list(backends)
        self.timed = timed
        self.times = [0.0] * len(self.backends)
        #: Per-backend events absorbed via memoized region summaries.
        self.memo_events = [0] * len(self.backends)
        self._clock = time.perf_counter  # hoisted out of the event loop
        if timed:
            self.process = self._process_timed
            self.finish = self._finish_timed
        elif len(self.backends) == 1:
            # The common `repro check` shape: forward straight to the
            # single backend, no loop, no wrapper frame.
            self.process = self.backends[0].process
            self.finish = self.backends[0].finish
        else:
            self._processors = [backend.process for backend in self.backends]
            self.process = self._process_untimed
            self.finish = self._finish_untimed

    # The class-level definitions keep the protocol documented (and the
    # instance attributes above shadow them with the bound choice).

    def process(self, op: Operation) -> None:  # pragma: no cover - shadowed
        """Feed one operation to every backend."""
        raise AssertionError("process is bound in __init__")

    def finish(self) -> None:  # pragma: no cover - shadowed
        """Signal end of stream to every backend."""
        raise AssertionError("finish is bound in __init__")

    # ------------------------------------------------------------ untimed
    def _process_untimed(self, op: Operation) -> None:
        for process in self._processors:
            process(op)

    def _finish_untimed(self) -> None:
        for backend in self.backends:
            backend.finish()

    # -------------------------------------------------------------- timed
    def _process_timed(self, op: Operation) -> None:
        clock = self._clock
        times = self.times
        for index, backend in enumerate(self.backends):
            started = clock()
            backend.process(op)
            times[index] += clock() - started

    def _finish_timed(self) -> None:
        clock = self._clock
        times = self.times
        for index, backend in enumerate(self.backends):
            started = clock()
            backend.finish()
            times[index] += clock() - started

    # -------------------------------------------------------------- blocks
    def process_block(self, ops: Sequence[Operation]) -> None:
        """Feed one decoded packed block to every backend.

        Backends see the block in backend order, not interleaved: each
        runs through the whole block before the next starts.  Backends
        are independent (that is the point of the fan-out), so the
        reordering is unobservable.  In timed mode each backend's pass
        is attributed to it.
        """
        clock = self._clock if self.timed else None
        for index, backend in enumerate(self.backends):
            process = backend.process
            if clock is not None:
                started = clock()
                for op in ops:
                    process(op)
                self.times[index] += clock() - started
            else:
                for op in ops:
                    process(op)

    # ------------------------------------------------------------- regions
    def process_region(self, ops, summary) -> None:
        """Offer one memoized region to every backend.

        ``ops`` is the region's buffered operation list (already
        decoded — the assembler held it while waiting for the region
        to close) and ``summary`` its cached
        :class:`~repro.core.memo.RegionSummary`.  Each backend is
        offered the summary via
        :meth:`~repro.core.backend.AnalysisBackend.apply_region_summary`;
        decliners replay the buffered operations through their
        ordinary ``process``.  In timed mode both the offer and any
        replay are attributed to the backend.
        """
        tid = ops[0].tid
        clock = self._clock if self.timed else None
        for index, backend in enumerate(self.backends):
            started = clock() if clock is not None else 0.0
            if backend.apply_region_summary(summary, tid):
                self.memo_events[index] += summary.op_count
            else:
                process = backend.process
                for op in ops:
                    process(op)
            if clock is not None:
                self.times[index] += clock() - started

    # ------------------------------------------------------------- metrics
    def backend_metrics(self) -> tuple[BackendMetrics, ...]:
        """Per-backend snapshot (events, accumulated time, warnings)."""
        return tuple(
            BackendMetrics(
                name=backend.name,
                events=backend.events_processed,
                time=elapsed,
                warning_count=backend.warning_count,
                events_memoized=memoized,
            )
            for backend, elapsed, memoized in zip(
                self.backends, self.times, self.memo_events
            )
        )
