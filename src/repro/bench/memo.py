"""``repro bench memo``: region memoization on/off head-to-head.

Times :class:`repro.core.optimized.VelodromeOptimized` through the
pipeline with and without a :class:`repro.core.memo.RegionMemo`
attached, on the two trace profiles that bound the feature:

* **high_repetition** — the ``request_loop`` workload (a dispatcher /
  worker request loop whose handler transaction repeats a handful of
  region shapes endlessly): the profile memoization is built for, where
  nearly every region is applied from cache.
* **low_repetition** — many concatenated differential-fuzz traces
  (distinct seeds, so region shapes almost never repeat): the
  worst-case profile, where the memo can only cost.

Both configurations run best-of-N on a fresh backend over the
identical operation list, and both lanes **gate**: the memoized
high-repetition run must reach :data:`MIN_SPEEDUP` and the memoized
low-repetition run must stay within :data:`MAX_OVERHEAD` of the plain
run.  The two configurations must also agree on the verdict, the
first-warning position, and the processed event count — a
disagreement aborts the bench (the full equivalence gate is
``python -m repro.fuzz.memogate``).
"""

from __future__ import annotations

from repro.bench.harness import Lane, best_of
from repro.fuzz.verdicts import first_warning_position

#: Fixed recording seed: the bench measures analysis throughput, so
#: every run (and the committed baseline) must see identical traces.
_RECORD_SEED = 0

#: Fuzz seeds concatenated into the low-repetition lane.
_LOW_REP_SEEDS = 100
_LOW_REP_SEEDS_QUICK = 30

#: Required memoized speedup on the high-repetition lane.
MIN_SPEEDUP = 2.0
#: Allowed memoized overhead on the low-repetition lane.
MAX_OVERHEAD = 0.10


def _high_repetition_trace(scale: float) -> list:
    from repro.runtime.tool import run_velodrome
    from repro.workloads import get

    program = get("request_loop").program(scale)
    return list(
        run_velodrome(program, seed=_RECORD_SEED, record_trace=True).trace
    )


def _low_repetition_trace(seeds: int) -> list:
    from repro.fuzz.engine import iteration_seeds, trace_for_seed

    ops: list = []
    for seed in iteration_seeds(_RECORD_SEED, seeds):
        ops.extend(trace_for_seed(seed))
    return ops


def _measure_lane(ops: list, repeats: int) -> dict:
    """Memo-off vs memo-on over ``ops``, with an agreement check."""
    from repro.core.memo import RegionMemo
    from repro.core.optimized import VelodromeOptimized
    from repro.pipeline import Pipeline, TraceSource

    events = len(ops)

    def run(memoize: bool):
        backend = VelodromeOptimized(first_warning_per_label=True)
        memo = RegionMemo() if memoize else None
        Pipeline([backend], memo=memo).run(TraceSource(ops))
        return backend, memo

    off_timing, on_timing = best_of(
        repeats, lambda: run(False), lambda: run(True)
    )
    off_backend, _ = run(False)
    on_backend, memo = run(True)

    off_outcome = (
        off_backend.error_detected,
        first_warning_position(off_backend),
        off_backend.events_processed,
    )
    on_outcome = (
        on_backend.error_detected,
        first_warning_position(on_backend),
        on_backend.events_processed,
    )
    if off_outcome != on_outcome:
        raise RuntimeError(
            f"memo disagreement: plain {off_outcome} vs "
            f"memoized {on_outcome} — run repro.fuzz.memogate"
        )

    return {
        "events": events,
        "error_detected": off_backend.error_detected,
        "off": off_timing.entry(events),
        "on": on_timing.entry(events),
        "speedup": round(off_timing.best / on_timing.best, 3),
        "overhead": round(on_timing.best / off_timing.best - 1.0, 4),
        "memo": memo.stats(),
    }


def run_bench(quick: bool = False) -> dict:
    """The full measurement; returns the ``BENCH_memo.json`` dict."""
    # Same trace size in both modes: a smaller high-repetition trace
    # under-amortizes the fixed (non-region) work and reads as a lower
    # speedup; quick mode saves on repeats and on the low-repetition
    # seed count instead.
    scale = 20.0
    # Even quick mode needs a few warm repetitions: the first memoized
    # pass over a fresh heap routinely times 20% slow.
    repeats = 5 if quick else 7
    seeds = _LOW_REP_SEEDS_QUICK if quick else _LOW_REP_SEEDS
    return {
        "schema": 1,
        "quick": quick,
        "seed": _RECORD_SEED,
        "scale": scale,
        "repeats": repeats,
        "low_rep_seeds": seeds,
        "lanes": {
            "high_repetition": _measure_lane(
                _high_repetition_trace(scale), repeats
            ),
            "low_repetition": _measure_lane(
                _low_repetition_trace(seeds), repeats
            ),
        },
    }


def check_gates(report: dict) -> list[str]:
    """Speedup and overhead gate violations (empty = pass)."""
    failures = []
    lanes = report.get("lanes", {})
    speedup = lanes.get("high_repetition", {}).get("speedup", 0.0)
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"high_repetition: {speedup}x speedup is below "
            f"the {MIN_SPEEDUP}x gate"
        )
    overhead = lanes.get("low_repetition", {}).get("overhead", 1.0)
    if overhead > MAX_OVERHEAD:
        failures.append(
            f"low_repetition: {overhead:.1%} overhead exceeds "
            f"the {MAX_OVERHEAD:.0%} gate"
        )
    return failures


def render(report: dict) -> str:
    lines = []
    for lane, entry in report["lanes"].items():
        memo = entry["memo"]
        lines.append(
            f"{lane:>16}: {entry['events']:>7,} events  "
            f"off {entry['off']['events_per_sec']:>10,.0f} ev/s  "
            f"on {entry['on']['events_per_sec']:>10,.0f} ev/s  "
            f"({entry['speedup']:.2f}x, overhead {entry['overhead']:.1%}, "
            f"{memo['hits']} hits / {memo['misses']} misses)"
        )
    return "\n".join(lines)


LANE = Lane(
    name="memo",
    measure=run_bench,
    gated=("lanes.*.off.events_per_sec", "lanes.*.on.events_per_sec"),
    threshold=0.30,
    render=render,
    checks=check_gates,
)
