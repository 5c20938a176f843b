"""The Empty analysis backend.

Does no work: it only counts events.  Running a benchmark through the
instrumentation pipeline with this backend measures pure
instrumentation overhead, exactly like the "Empty" column of the
paper's Table 1.
"""

from __future__ import annotations

from repro.core.backend import AnalysisBackend
from repro.events.operations import Operation


class EmptyAnalysis(AnalysisBackend):
    """Backend that observes events and does nothing else."""

    name = "EMPTY"

    def process(self, op: Operation) -> None:
        # Overrides the base class so the do-nothing backend costs one
        # frame per event, not two — it exists to measure everything
        # *around* the analysis, so its own overhead should be minimal.
        self.events_processed += 1

    def _process(self, op: Operation, position: int) -> None:
        pass

