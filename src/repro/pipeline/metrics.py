"""Observability for the event pipeline.

:class:`PipelineMetrics` is an immutable snapshot of one pipeline run:
how many events entered, what kinds they were, where the filter stages
dropped them, and how much wall time each analysis back-end consumed.
Every entry point (``repro check``, ``repro run``, the table1/table2/
injection harnesses) exposes these numbers behind a ``--stats`` flag.

Snapshots from many runs (e.g. the five seeded schedules of a Table 2
row) can be combined with :meth:`PipelineMetrics.aggregate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.events.operations import OpKind


@dataclass(frozen=True)
class StageMetrics:
    """Per-stage throughput: events seen and events dropped."""

    name: str
    seen: int
    dropped: int

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.seen if self.seen else 0.0


@dataclass(frozen=True)
class BackendMetrics:
    """Per-backend cost: events processed, time spent, warnings raised.

    ``time`` covers this backend's ``process``/``finish`` calls only
    (measured by the fan-out dispatcher); it is 0.0 when the pipeline
    ran without timing enabled.  ``events_memoized`` counts the events
    this backend absorbed via memoized region summaries
    (:meth:`~repro.core.backend.AnalysisBackend.apply_region_summary`)
    instead of op-by-op replay; they are included in ``events``.
    """

    name: str
    events: int
    time: float
    warning_count: int
    events_memoized: int = 0


@dataclass(frozen=True)
class PipelineMetrics:
    """Snapshot of one (or several aggregated) pipeline runs."""

    events_in: int
    events_out: int
    by_kind: dict[str, int] = field(default_factory=dict)
    stages: tuple[StageMetrics, ...] = ()
    backends: tuple[BackendMetrics, ...] = ()
    elapsed: float = 0.0
    #: Packed blocks dispatched to the pipeline (0 for op-wise sources).
    blocks_in: int = 0
    #: Completed regions whose shape was found in the memo table.
    memo_hits: int = 0
    #: Completed regions summarized (and certified) for the first time.
    memo_misses: int = 0
    #: Memo entries dropped by the LRU bound.
    memo_evictions: int = 0

    @property
    def events_dropped(self) -> int:
        return self.events_in - self.events_out

    @property
    def events_per_second(self) -> float:
        """End-to-end throughput (input events over total wall time)."""
        return self.events_in / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def backend_time(self) -> float:
        """Total wall time spent inside analysis back-ends."""
        return sum(backend.time for backend in self.backends)

    def backend(self, name: str) -> BackendMetrics:
        """The metrics of one backend, looked up by its report name."""
        for backend in self.backends:
            if backend.name == name:
                return backend
        raise KeyError(name)

    @classmethod
    def aggregate(cls, snapshots: Iterable["PipelineMetrics"]) -> "PipelineMetrics":
        """Sum many snapshots (e.g. one per seed) into one.

        Stages and backends are matched positionally by name; snapshots
        with differing stage/backend line-ups simply union the names.
        """
        events_in = events_out = 0
        blocks_in = 0
        memo_hits = memo_misses = memo_evictions = 0
        elapsed = 0.0
        by_kind: dict[str, int] = {}
        stage_seen: dict[str, int] = {}
        stage_dropped: dict[str, int] = {}
        stage_order: list[str] = []
        backend_events: dict[str, int] = {}
        backend_time: dict[str, float] = {}
        backend_warnings: dict[str, int] = {}
        backend_memo: dict[str, int] = {}
        backend_order: list[str] = []
        for snap in snapshots:
            events_in += snap.events_in
            events_out += snap.events_out
            blocks_in += snap.blocks_in
            memo_hits += snap.memo_hits
            memo_misses += snap.memo_misses
            memo_evictions += snap.memo_evictions
            elapsed += snap.elapsed
            for kind, count in snap.by_kind.items():
                by_kind[kind] = by_kind.get(kind, 0) + count
            for stage in snap.stages:
                if stage.name not in stage_seen:
                    stage_order.append(stage.name)
                stage_seen[stage.name] = stage_seen.get(stage.name, 0) + stage.seen
                stage_dropped[stage.name] = (
                    stage_dropped.get(stage.name, 0) + stage.dropped
                )
            for backend in snap.backends:
                if backend.name not in backend_events:
                    backend_order.append(backend.name)
                backend_events[backend.name] = (
                    backend_events.get(backend.name, 0) + backend.events
                )
                backend_time[backend.name] = (
                    backend_time.get(backend.name, 0.0) + backend.time
                )
                backend_warnings[backend.name] = (
                    backend_warnings.get(backend.name, 0) + backend.warning_count
                )
                backend_memo[backend.name] = (
                    backend_memo.get(backend.name, 0)
                    + backend.events_memoized
                )
        return cls(
            events_in=events_in,
            events_out=events_out,
            by_kind=by_kind,
            stages=tuple(
                StageMetrics(name, stage_seen[name], stage_dropped[name])
                for name in stage_order
            ),
            backends=tuple(
                BackendMetrics(
                    name,
                    backend_events[name],
                    backend_time[name],
                    backend_warnings[name],
                    backend_memo[name],
                )
                for name in backend_order
            ),
            elapsed=elapsed,
            blocks_in=blocks_in,
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            memo_evictions=memo_evictions,
        )

    def render(self) -> str:
        """The ``--stats`` block: counters, drops, and backend costs."""
        lines = ["pipeline stats:"]
        kinds = " ".join(
            f"{kind}={self.by_kind[kind]}"
            for kind in (k.value for k in OpKind)
            if kind in self.by_kind
        )
        lines.append(
            f"  events: in={self.events_in} out={self.events_out} "
            f"dropped={self.events_dropped}"
            + (f" ({kinds})" if kinds else "")
        )
        if self.elapsed > 0:
            lines.append(
                f"  elapsed: {self.elapsed:.3f}s "
                f"({self.events_per_second:,.0f} events/s)"
            )
        if self.blocks_in:
            lines.append(f"  blocks: in={self.blocks_in}")
        if self.memo_hits or self.memo_misses or self.memo_evictions:
            lines.append(
                f"  memo: hits={self.memo_hits} "
                f"misses={self.memo_misses} "
                f"evictions={self.memo_evictions}"
            )
        for stage in self.stages:
            lines.append(
                f"  stage {stage.name}: seen={stage.seen} "
                f"dropped={stage.dropped} ({stage.drop_rate:.1%})"
            )
        for backend in self.backends:
            timing = f" time={backend.time:.3f}s" if backend.time else ""
            memoized = (
                f" memoized={backend.events_memoized}"
                if backend.events_memoized else ""
            )
            lines.append(
                f"  backend {backend.name}: events={backend.events}"
                f"{timing}{memoized} warnings={backend.warning_count}"
            )
        return "\n".join(lines)


def snapshot_kind_counts(counts: dict[OpKind, int]) -> dict[str, int]:
    """Convert an OpKind-keyed counter to the string keys metrics use."""
    return {kind.value: count for kind, count in counts.items() if count}
