"""``repro bench workloads``: the server-suite scaling sweep.

For every server family at the selected scale points, replay the
recorded trace through the graph (Velodrome) and vector-clock
(AeroDrome) backends and report events, wall time, events/sec, and
peak graph nodes — plus the whole-matrix wall time serial vs
``--jobs 2`` (the parallel-driver sanity number).  Every cell's
verdict is gated against the workload's declared ground truth before
a single number is reported, exactly like ``repro lab run``; a
mismatch exits 2.

The events/sec figures are drift-gated at a generous 60% against
``benchmarks/baseline/BENCH_workloads.json`` (the ``smoke`` traces
take milliseconds, so shared runners are noisy) so that
order-of-magnitude throughput regressions fail the build.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.bench.harness import Lane
from repro.experiments.runner import (
    GroundTruthMismatch,
    check_cell,
    record_trace,
)
from repro.parallel.executor import run_shards
from repro.parallel.tasks import LabCellTask, run_lab_cell
from repro.workloads.server import SERVER_FAMILIES

#: The two backend families the sweep compares head-to-head.
SWEEP_BACKENDS = ("velodrome", "aerodrome")

#: Fixed recording seed, so every run sees the baseline's traces.
_RECORD_SEED = 0


def measure_workloads(points: Sequence[str], repeats: int) -> dict:
    """The sweep report; raises on any ground-truth mismatch."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-workloads-"))
    try:
        recorded = [
            (family, point,
             record_trace(family, point, _RECORD_SEED, scratch))
            for family in SERVER_FAMILIES.values()
            for point in points
        ]
        tasks = [
            LabCellTask(
                workload=family.name,
                point=point,
                backend=backend,
                trace_path=entry["trace"],
                repeats=repeats,
                memoize=False,
            )
            for family, point, entry in recorded
            for backend in SWEEP_BACKENDS
        ]

        started = time.perf_counter()
        serial = run_shards(run_lab_cell, tasks, jobs=1)
        serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        run_shards(run_lab_cell, tasks, jobs=2)
        jobs2_seconds = time.perf_counter() - started

        failures: list[str] = []
        workloads: dict[str, dict] = {}
        for (family, point, entry), shard in zip(recorded_cells(recorded),
                                                 serial):
            if not shard.ok:
                failures.append(
                    f"{family.name}@{point}: cell failed: {shard.error}"
                )
                continue
            result = shard.value
            problem = check_cell(family, point, result.backend, result)
            if problem is not None:
                failures.append(problem)
                continue
            row = workloads.setdefault(
                f"{family.name}@{point}",
                {"events": entry["events"], "verdict": result.verdict},
            )
            row[result.backend] = {
                "seconds": result.best_seconds,
                "events_per_sec": result.events_per_sec,
                "peak_nodes": result.peak_nodes,
            }
        if failures:
            raise GroundTruthMismatch(failures)
        return {
            "config": {
                "points": list(points),
                "repeats": repeats,
                "seed": _RECORD_SEED,
            },
            "workloads": workloads,
            "matrix": {
                "cells": len(tasks),
                "serial_seconds": serial_seconds,
                "jobs2_seconds": jobs2_seconds,
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def recorded_cells(recorded):
    """Each recorded (family, point, entry), once per sweep backend."""
    for family, point, entry in recorded:
        for _ in SWEEP_BACKENDS:
            yield family, point, entry


def run_bench(quick: bool = False) -> dict:
    """The sweep at ``smoke`` (quick) or ``smoke`` and ``small``."""
    points = ("smoke",) if quick else ("smoke", "small")
    try:
        return measure_workloads(points, repeats=2 if quick else 3)
    except GroundTruthMismatch as exc:
        print(f"bench workloads: {exc}", file=sys.stderr)
        raise SystemExit(2)


def render(report: dict) -> str:
    lines = [
        "repro bench workloads — server-suite scaling sweep",
        f"  points: {', '.join(report['config']['points'])}; "
        f"best of {report['config']['repeats']}",
    ]
    for key, row in report["workloads"].items():
        lines.append(f"  {key}: {row['events']:,} events ({row['verdict']})")
        for backend in SWEEP_BACKENDS:
            cell = row.get(backend)
            if cell is None:
                continue
            peak = (f", peak {cell['peak_nodes']:,} nodes"
                    if cell.get("peak_nodes") is not None else "")
            lines.append(
                f"    {backend:<10} {cell['events_per_sec']:>12,.0f} ev/s "
                f"({cell['seconds']:.3f}s{peak})"
            )
    matrix = report["matrix"]
    lines.append(
        f"  matrix: {matrix['cells']} cells, "
        f"serial {matrix['serial_seconds']:.2f}s, "
        f"--jobs 2 {matrix['jobs2_seconds']:.2f}s"
    )
    return "\n".join(lines)


LANE = Lane(
    name="workloads",
    measure=run_bench,
    gated=tuple(
        f"workloads.*.{backend}.events_per_sec" for backend in SWEEP_BACKENDS
    ),
    threshold=0.60,
    render=render,
)
