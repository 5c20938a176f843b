"""Picklable task specs and module-level workers for every shard kind.

Each entry point that accepts ``--jobs`` has a task dataclass (what
crosses the process boundary going in) and a module-level worker
function (what the pool executes).  Grid selections cross the boundary
in the form :func:`~repro.fuzz.grid.ship_grid` chose: directly when
the configurations pickle, otherwise as ablation-grid *names* the
worker resolves with :func:`~repro.fuzz.grid.grid_by_names` (the
standard grid's factories are closures and cannot pickle).

Workers are side-effect free: they return picklable result objects
(:class:`~repro.fuzz.engine.IterationOutcome`,
:class:`~repro.harness.table1.Table1Row`, ...) and the parent process
performs all writes and console output while merging in submission
order.  That split is what makes ``--jobs N`` output byte-identical to
``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fuzz.grid import GridConfig
from repro.resilience.governor import Budgets
from repro.workloads.randomgen import GeneratorConfig


# ------------------------------------------------------------------ fuzz
@dataclass(frozen=True)
class FuzzIterationTask:
    """One fuzz iteration: generate, check, optionally shrink.

    ``seed`` is the already-derived iteration seed (see
    :func:`repro.fuzz.engine.iteration_seed`), so the worker needs no
    knowledge of the base seed or its shard's position in the budget.
    """

    index: int
    seed: int
    shrink: bool
    stats: bool
    crash: bool
    max_shrink_evaluations: int
    generator: Optional[GeneratorConfig]
    config_names: Optional[tuple[str, ...]]
    configs: Optional[tuple[GridConfig, ...]] = None


def run_fuzz_iteration(task: FuzzIterationTask):
    """Worker: one differential-fuzz iteration, no side effects."""
    from repro.fuzz.engine import FuzzConfig, FuzzEngine
    from repro.fuzz.grid import unship_grid

    engine = FuzzEngine(
        FuzzConfig(
            budget=1,
            seed=task.seed,
            shrink=task.shrink,
            stats=task.stats,
            crash=task.crash,
            generator=task.generator,
            configs=unship_grid(task.config_names, task.configs),
            max_shrink_evaluations=task.max_shrink_evaluations,
        )
    )
    return engine.check_iteration(task.index, task.seed)


# ------------------------------------------------------------ table 1 / 2
@dataclass(frozen=True)
class Table1Task:
    """One Table 1 benchmark measurement (E1 slowdowns + E2 nodes)."""

    workload: str
    scale: float
    seed: int
    repeats: int


def run_table1_workload(task: Table1Task):
    """Worker: measure one workload; returns its ``Table1Row``."""
    from repro.harness.table1 import measure_workload
    from repro.workloads.base import get

    return measure_workload(
        get(task.workload),
        scale=task.scale,
        seed=task.seed,
        repeats=task.repeats,
    )


@dataclass(frozen=True)
class Table2Task:
    """One Table 2 benchmark scoring (precision/recall over seeds)."""

    workload: str
    seeds: tuple[int, ...]
    scale: float
    stats: bool


def run_table2_workload(task: Table2Task):
    """Worker: score one workload; returns its ``Table2Row``."""
    from repro.harness.table2 import score_workload
    from repro.workloads.base import get

    return score_workload(
        get(task.workload),
        seeds=task.seeds,
        scale=task.scale,
        stats=task.stats,
    )


# ----------------------------------------------------------- packed decode
@dataclass(frozen=True)
class BlockRangeTask:
    """Decode blocks ``[first_block, end_block)`` of a packed trace.

    Block ranges are disjoint by construction
    (:func:`repro.store.parallel.block_ranges`), so workers touch
    non-overlapping byte ranges of the file and the parent's
    block-order concatenation reproduces a serial decode exactly.
    """

    path: str
    first_block: int
    end_block: int


def run_block_decode(task: BlockRangeTask):
    """Worker: decode one block range; returns its operation list."""
    from repro.store.reader import PackedTraceReader

    ops = []
    with PackedTraceReader(task.path) as reader:
        for number in range(task.first_block, task.end_block):
            ops.extend(reader.decode_block(number))
    return ops


@dataclass(frozen=True)
class BlockListTask:
    """Decode blocks ``[first_block, end_block)``, keeping boundaries.

    Like :class:`BlockRangeTask` but returning one operation list per
    block instead of a flat concatenation: the block-granular analysis
    plane (:class:`~repro.pipeline.source.PackedTraceSource`) dispatches
    one block at a time.
    """

    path: str
    first_block: int
    end_block: int


def run_block_lists(task: BlockListTask):
    """Worker: decode one block range; returns a list per block."""
    from repro.store.reader import PackedTraceReader

    with PackedTraceReader(task.path) as reader:
        return [
            reader.decode_block(number)
            for number in range(task.first_block, task.end_block)
        ]


# ------------------------------------------------------------------ serve
@dataclass(frozen=True)
class StreamTask:
    """One (re)attempt at checking one spooled stream under serve.

    ``checkpoint_path`` is ``None`` for replay-from-origin streams
    (backend selection with no snapshot codec); the worker then runs
    without periodic checkpoints and a daemon restart deterministically
    replays the stream from its first event.

    ``memoize`` turns on region memoization inside the stream's
    supervised checker (``repro serve --memoize``); ``memo_max`` bounds
    the per-stream memo table.  The table is transient worker state —
    it is not checkpointed, a resumed stream simply re-certifies.
    """

    stream_id: str
    path: str
    format: str
    backends: tuple[str, ...]
    checkpoint_path: Optional[str]
    checkpoint_every: int
    budgets: Budgets
    on_pressure: str
    max_retained: int
    memoize: bool = False
    memo_max: int = 1024


def run_stream_task(task: StreamTask):
    """Worker: one supervised pass over one stream."""
    from repro.serve.stream import process_stream

    return process_stream(task)


# ---------------------------------------------------------- corpus replay
@dataclass(frozen=True)
class CorpusReplayTask:
    """Re-check one corpus recording across the grid."""

    path: str
    config_names: Optional[tuple[str, ...]]
    crash: bool
    seed: int
    configs: Optional[tuple[GridConfig, ...]] = None


def run_corpus_replay(task: CorpusReplayTask):
    """Worker: replay one corpus trace; returns its ``TraceCheck``."""
    from dataclasses import replace

    from repro.events.serialize import load_trace
    from repro.fuzz.faults import (
        crash_recovery_divergences,
        fault_injection_divergences,
    )
    from repro.fuzz.grid import unship_grid
    from repro.fuzz.verdicts import check_trace

    configs = unship_grid(task.config_names, task.configs)
    trace = load_trace(task.path)
    check = check_trace(trace, configs=configs)
    if task.crash:
        extra = [
            *crash_recovery_divergences(
                trace, configs=configs, seed=task.seed
            ),
            *fault_injection_divergences(
                trace, configs=configs, seed=task.seed
            ),
        ]
        if extra:
            check = replace(
                check, divergences=(*check.divergences, *extra)
            )
    return check


# ------------------------------------------------------------------- lab
@dataclass(frozen=True)
class LabCellTask:
    """One ``repro lab`` matrix cell: a recorded trace × one backend."""

    workload: str
    point: str
    backend: str
    trace_path: str
    repeats: int
    memoize: bool


@dataclass(frozen=True)
class LabCellResult:
    """Measured numbers and observed verdict of one matrix cell.

    ``peak_nodes`` is the happens-before graph's high-water mark
    (``max_alive``) and is ``None`` for graph-free backends
    (AeroDrome).  ``labels`` is the sorted set of transaction labels
    the backend warned about; empty means a serializable verdict.
    """

    workload: str
    point: str
    backend: str
    events: int
    verdict: str
    labels: tuple[str, ...]
    best_seconds: float
    events_per_sec: float
    peak_nodes: Optional[int]
    memoized: int
    memo_hits: int
    memo_misses: int


def run_lab_cell(task: LabCellTask) -> LabCellResult:
    """Worker: replay one recorded trace through one fresh backend.

    Timing is :func:`~repro.bench.harness.best_of` over ``repeats``
    runs, each a fresh backend over the same packed source.  The
    verdict, labels, and counter fields come from the last run; the
    replay is deterministic, so every run yields the same ones.
    """
    from repro.bench.harness import best_of
    from repro.core.memo import RegionMemo
    from repro.experiments.runner import make_backend
    from repro.pipeline.core import Pipeline
    from repro.pipeline.source import PackedTraceSource

    last: list = []

    def replay() -> None:
        backend = make_backend(task.backend)
        pipeline = Pipeline(
            [backend], memo=RegionMemo() if task.memoize else None
        )
        pipeline.run(PackedTraceSource(task.trace_path))
        last[:] = [backend, pipeline]

    (timing,) = best_of(max(1, task.repeats), replay)
    backend, pipeline = last
    elapsed = timing.best
    metrics = pipeline.metrics(elapsed=elapsed)
    graph = getattr(backend, "graph", None)
    return LabCellResult(
        workload=task.workload,
        point=task.point,
        backend=task.backend,
        events=metrics.events_in,
        verdict="violating" if backend.warning_count else "serializable",
        labels=tuple(sorted(backend.warned_labels())),
        best_seconds=elapsed,
        events_per_sec=metrics.events_in / elapsed if elapsed > 0 else 0.0,
        peak_nodes=graph.stats.max_alive if graph is not None else None,
        memoized=metrics.backends[0].events_memoized,
        memo_hits=metrics.memo_hits,
        memo_misses=metrics.memo_misses,
    )
