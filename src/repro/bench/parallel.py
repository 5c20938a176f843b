"""``repro bench parallel``: serial and ``--jobs 2`` throughput.

Produces ``BENCH_parallel.json`` with two sections:

* **stages** — single-process events/sec for each pipeline stage in
  isolation: ``generate`` (random program -> recorded trace),
  ``encode`` / ``decode`` (JSONL round trip), and ``analyze`` (the
  Table 1 fan-out lineup over a recorded trace).  These numbers track
  the hot-path event loop: dispatch tables, fan-out binding, batched
  decode.
* **fuzz** — end-to-end differential-fuzz throughput, serial versus
  :data:`JOBS` workers, with the observed speedup.  On a single-core
  container the speedup cannot exceed ~1.0x; ``cpu_count`` is
  recorded alongside so the number can be read in context.

Every stage's events/sec and the serial fuzz rate are drift-gated at
30% against the committed baseline.
"""

from __future__ import annotations

import io
import os

from repro.bench.harness import Lane, best_of

#: Trace used by every stage measurement: one seed, repeated to a few
#: thousand events so per-call overhead dominates over warm-up noise.
_STAGE_SEED = 7
_STAGE_COPIES = 40
_STAGE_COPIES_QUICK = 10

#: Worker count for the parallel fuzz comparison.
JOBS = 2


def measure_stages(quick: bool = False) -> dict:
    """Single-process events/sec per pipeline stage."""
    from repro.baselines.atomizer import Atomizer
    from repro.baselines.empty import EmptyAnalysis
    from repro.baselines.eraser import EraserLockSet
    from repro.core.optimized import VelodromeOptimized
    from repro.events.serialize import dump_jsonl, load_jsonl
    from repro.events.trace import Trace
    from repro.fuzz.engine import trace_for_seed
    from repro.pipeline import Pipeline, TraceSource

    repeats = 3 if quick else 7
    copies = _STAGE_COPIES_QUICK if quick else _STAGE_COPIES
    base = trace_for_seed(_STAGE_SEED)
    ops = list(base) * copies
    trace = Trace(ops)
    buffer = io.StringIO()
    dump_jsonl(ops, buffer)
    text = buffer.getvalue()
    events = len(ops)

    def analyze():
        Pipeline(
            [
                EmptyAnalysis(),
                EraserLockSet(),
                Atomizer(),
                VelodromeOptimized(first_warning_per_label=True),
            ]
        ).run(TraceSource(trace))

    stages = {
        "generate": lambda: trace_for_seed(_STAGE_SEED),
        "encode": lambda: dump_jsonl(ops, io.StringIO()),
        "decode": lambda: load_jsonl(io.StringIO(text)),
        "analyze": analyze,
    }
    report = {}
    for name, timing in zip(stages, best_of(repeats, *stages.values())):
        stage_events = len(base) if name == "generate" else events
        report[name] = {"events": stage_events,
                        **timing.entry(stage_events)}
    return report


def measure_fuzz(budget: int, jobs: int, quick: bool = False) -> dict:
    """End-to-end fuzz throughput, serial versus ``jobs`` workers."""
    from repro.fuzz.engine import FuzzConfig, FuzzEngine
    from repro.fuzz.grid import default_grid

    configs = default_grid() if quick else None

    def run(n_jobs: int):
        report = FuzzEngine(
            FuzzConfig(budget=budget, seed=0, configs=configs, jobs=n_jobs)
        ).run()
        if not report.clean:
            raise RuntimeError(
                f"bench fuzz run not clean: {report.summary()}"
            )
        return report

    serial = run(1)
    parallel = run(jobs)
    serial_rate = serial.events / serial.elapsed if serial.elapsed else 0.0
    parallel_rate = (
        parallel.events / parallel.elapsed if parallel.elapsed else 0.0
    )
    return {
        "budget": budget,
        "grid": "quick" if quick else "full",
        "events": serial.events,
        "serial": {
            "elapsed_seconds": round(serial.elapsed, 3),
            "events_per_sec": round(serial_rate, 1),
        },
        "parallel": {
            "jobs": jobs,
            "elapsed_seconds": round(parallel.elapsed, 3),
            "events_per_sec": round(parallel_rate, 1),
        },
        "speedup": round(
            serial.elapsed / parallel.elapsed, 3
        ) if parallel.elapsed else 0.0,
    }


def run_bench(quick: bool = False) -> dict:
    """The full measurement; returns the ``BENCH_parallel.json`` dict."""
    return {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "stages": measure_stages(quick=quick),
        "fuzz": measure_fuzz(
            budget=8 if quick else 40, jobs=JOBS, quick=quick
        ),
    }


def render(report: dict) -> str:
    lines = [
        f"{name:>9}: {entry['events_per_sec']:>12,.0f} ev/s"
        for name, entry in report["stages"].items()
    ]
    fuzz = report["fuzz"]
    lines += [
        f"fuzz serial : {fuzz['serial']['events_per_sec']:>10,.0f} ev/s "
        f"({fuzz['serial']['elapsed_seconds']}s, "
        f"budget {fuzz['budget']}, {fuzz['grid']} grid)",
        f"fuzz --jobs {fuzz['parallel']['jobs']}: "
        f"{fuzz['parallel']['events_per_sec']:>10,.0f} ev/s "
        f"({fuzz['parallel']['elapsed_seconds']}s)",
        f"speedup: {fuzz['speedup']}x on {report['cpu_count']} cpu(s)",
    ]
    return "\n".join(lines)


LANE = Lane(
    name="parallel",
    measure=run_bench,
    gated=("stages.*.events_per_sec", "fuzz.serial.events_per_sec"),
    threshold=0.30,
    render=render,
)
