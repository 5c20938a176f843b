"""``repro bench analyze``: block-summary fast-forward on versus off.

Checks the same packed recording with ``VelodromeOptimized``, once
folding summarized blocks and once by full decode plus op-by-op
replay, over two workload shapes:

* **sparse** — long thread-local stretches, where most blocks fold:
  the floor is a 2.0x end-to-end speedup, and at least one block must
  actually fold.
* **dense** — per-op thread interleave, where no block is foldable
  and the declined summary offers must cost under 5%.

Both modes pay the same reader-open cost (index and summary parse);
only the per-block treatment differs.  The events/sec figures are
drift-gated at 30% against the committed baseline.
"""

from __future__ import annotations

import io
import os

from repro.bench.harness import Lane, best_of

#: On the sparse (mostly-foldable) workload, checking with summaries
#: must be at least this much faster end-to-end than full decode +
#: op-by-op replay ...
SPARSE_SPEEDUP_FLOOR = 2.0
#: ... and on the dense (never-foldable) workload the declined
#: summary offers must not cost more than 5% throughput.
DENSE_RATIO_FLOOR = 0.95


def _ops_sparse(quick: bool) -> list:
    """Thread-local stretches aligned to whole blocks (512 ops).

    Each thread works its own variables and lock for exactly two
    blocks before yielding, so nearly every block is single-tid and
    lock-release-only — the foldable shape the summaries certify.
    """
    from repro.events.operations import Operation, OpKind

    turns = 8 if quick else 24
    ops = []
    for turn in range(turns):
        tid = turn % 4
        for i in range(1024):
            phase = i % 128
            if phase == 126:
                ops.append(Operation(OpKind.ACQUIRE, tid, f"m{tid}"))
            elif phase == 127:
                ops.append(Operation(OpKind.RELEASE, tid, f"m{tid}"))
            elif i % 4 == 3:
                ops.append(Operation(OpKind.WRITE, tid, f"x{tid}_{i % 8}"))
            else:
                ops.append(Operation(OpKind.READ, tid, f"x{tid}_{i % 8}"))
    return ops


def _ops_dense(quick: bool) -> list:
    """Per-op thread interleave: no block is ever single-tid."""
    from repro.events.operations import Operation, OpKind

    count = 8 * 1024 if quick else 24 * 1024
    ops = []
    for i in range(count):
        tid = i % 4
        var = f"s{i % 8}"
        if i % 4 == 3:
            ops.append(Operation(OpKind.WRITE, tid, var))
        else:
            ops.append(Operation(OpKind.READ, tid, var))
    return ops


def _checker(blob: bytes, fast_forward: bool):
    """A thunk checking ``blob``; returns the finished pipeline."""
    from repro.core.optimized import VelodromeOptimized
    from repro.pipeline.core import Pipeline
    from repro.pipeline.source import PackedTraceSource

    def check():
        pipeline = Pipeline([VelodromeOptimized()])
        source = PackedTraceSource(io.BytesIO(blob))
        if fast_forward:
            source.run_blocks(pipeline.process_block)
        else:
            source.run(pipeline.process)
        pipeline.finish()
        return pipeline

    return check


def measure_analyze(quick: bool = False) -> dict:
    """The fast-forward measurement; returns ``BENCH_analyze.json``."""
    from repro.store.writer import PackedTraceWriter

    repeats = 3 if quick else 5
    report: dict = {"schema": 1, "cpu_count": os.cpu_count(),
                    "quick": quick}
    for shape, make_ops in (("sparse", _ops_sparse), ("dense", _ops_dense)):
        ops = make_ops(quick)
        sink = io.BytesIO()
        with PackedTraceWriter(sink) as writer:
            writer.write_all(ops)
        blob = sink.getvalue()
        ff_on, ff_off = _checker(blob, True), _checker(blob, False)
        on, off = best_of(repeats, ff_on, ff_off)
        metrics = ff_on().metrics()
        report[shape] = {
            "events": len(ops),
            "blocks": metrics.blocks_in,
            "blocks_fast_forwarded": metrics.blocks_fast_forwarded,
            "ff_on": on.entry(len(ops)),
            "ff_off": off.entry(len(ops)),
            "speedup": round(off.best / on.best, 2) if on.best else 0.0,
            "floor": (
                SPARSE_SPEEDUP_FLOOR if shape == "sparse"
                else DENSE_RATIO_FLOOR
            ),
        }
    return report


def check_floors(report: dict) -> list[str]:
    """Fast-forward floor violations (empty = pass)."""
    problems = []
    sparse = report["sparse"]["speedup"]
    if sparse < SPARSE_SPEEDUP_FLOOR:
        problems.append(
            f"analyze.sparse: fast-forward is only {sparse:.2f}x faster "
            f"than full decode (floor {SPARSE_SPEEDUP_FLOOR:.1f}x)"
        )
    if report["sparse"]["blocks_fast_forwarded"] == 0:
        problems.append(
            "analyze.sparse: no block was fast-forwarded — the "
            "workload no longer exercises the fast path"
        )
    dense = report["dense"]["speedup"]
    if dense < DENSE_RATIO_FLOOR:
        problems.append(
            f"analyze.dense: declined summary offers cost "
            f"{1 - dense:.0%} throughput "
            f"(allowed {1 - DENSE_RATIO_FLOOR:.0%})"
        )
    return problems


def render(report: dict) -> str:
    lines = []
    for shape in ("sparse", "dense"):
        entry = report[shape]
        lines.append(
            f"{shape:6s} : ff-on "
            f"{entry['ff_on']['events_per_sec']:>12,.0f} ev/s | "
            f"ff-off {entry['ff_off']['events_per_sec']:>12,.0f} ev/s "
            f"({entry['speedup']}x, "
            f"{entry['blocks_fast_forwarded']}/{entry['blocks']} "
            f"blocks folded)"
        )
    return "\n".join(lines)


LANE = Lane(
    name="analyze",
    measure=measure_analyze,
    gated=tuple(
        f"{shape}.{mode}.events_per_sec"
        for shape in ("sparse", "dense") for mode in ("ff_on", "ff_off")
    ),
    threshold=0.30,
    render=render,
    checks=check_floors,
)
