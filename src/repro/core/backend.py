"""The analysis-backend protocol shared by Velodrome and all baselines.

A backend is an online analysis: the instrumentation layer feeds it one
operation at a time, and it accumulates warnings.  This mirrors the
RoadRunner architecture of paper Section 5, where instrumented code
generates an event stream that is passed to an analysis back-end.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Optional

from repro.events.operations import Operation

if TYPE_CHECKING:
    from repro.core.reports import Warning as AnalysisWarning
    from repro.store.summary import BlockSummary


class AnalysisBackend(abc.ABC):
    """Base class for online trace analyses."""

    #: Short name used in tables and reports (e.g. "VELODROME").
    name: str = "backend"

    def __init__(self) -> None:
        self._warnings: list["AnalysisWarning"] = []
        self.events_processed = 0

    @abc.abstractmethod
    def _process(self, op: Operation, position: int) -> None:
        """Handle one operation; override in subclasses."""

    def process(self, op: Operation) -> None:
        """Feed one operation to the analysis."""
        self._process(op, self.events_processed)
        self.events_processed += 1

    def process_trace(self, ops: Iterable[Operation]) -> "AnalysisBackend":
        """Feed a whole trace, then finish.  Returns self for chaining."""
        process = self.process  # bound once, outside the event loop
        for op in ops:
            process(op)
        self.finish()
        return self

    def finish(self) -> None:
        """Signal end of trace.  Subclasses may flush state."""

    def apply_block_summary(self, summary: "BlockSummary") -> bool:
        """Decline a packed block's summary; nothing in the package calls this.

        Packed blocks used to be offered here before decode, so a
        backend could skip them from their stored
        :class:`~repro.store.summary.BlockSummary`.  On realistic
        traces almost no block qualified, so every block is now
        decoded and fed through :meth:`process`.  The method stays
        only so that tools which look it up by name on a backend
        class (the repository benchmark's tracer) still find it.
        """
        return False

    def apply_region_summary(self, summary, tid: int) -> bool:
        """Apply one memoized transaction-bounded region, if possible.

        ``summary`` is a :class:`~repro.core.memo.RegionSummary` — the
        static access footprint of one thread's contiguous outermost
        ``begin``..``end`` region — and ``tid`` the thread performing
        this occurrence.  A backend that can prove, from the summary
        plus its *current* state, that replaying the region operation
        by operation would raise no warning and land in a state it can
        write directly may do so and return True, advancing
        ``events_processed`` by ``summary.op_count``.  The resulting
        state must be exactly what the replay would have produced
        (``repro.fuzz.memogate`` checks this with state snapshots
        across the ablation grid).

        Returning False declines: the caller replays the region's
        buffered operations through :meth:`process`, so memoization can
        never weaken soundness or completeness.  The default declines
        everything.
        """
        return False

    def report(self, warning: "AnalysisWarning") -> None:
        """Record one warning."""
        self._warnings.append(warning)

    @property
    def warnings(self) -> list["AnalysisWarning"]:
        """All warnings reported so far, in detection order.

        Returns a fresh copy each access; in hot loops that only need
        the count, use :attr:`warning_count` instead.
        """
        return list(self._warnings)

    @property
    def warning_count(self) -> int:
        """Number of warnings reported so far, without copying the list."""
        return len(self._warnings)

    @property
    def error_detected(self) -> bool:
        """True iff at least one warning has been reported."""
        return bool(self._warnings)

    def warned_labels(self) -> set[str]:
        """Distinct atomic-block / method labels named by warnings."""
        return {w.label for w in self._warnings if w.label is not None}

    # ------------------------------------------------------- resource hygiene
    # Hooks the supervised runtime (repro.resilience) uses to keep a
    # long-running analysis inside its budgets.  The defaults make every
    # backend safely supervisable; the Velodrome variants override them.

    def state_entry_count(self) -> Optional[int]:
        """Number of retained state entries, or ``None`` if untracked.

        Used by the resource governor as a memory proxy; ``None`` opts
        the backend out of state-budget enforcement.
        """
        return None

    def compact_state(self) -> dict[str, int]:
        """Drop reclaimable internal state; returns per-component counts.

        Must never change verdicts: only state that already reads as
        absent (weak references to collected transactions, dead packed
        codes) may be dropped.  The default backend retains nothing
        reclaimable.
        """
        return {}
