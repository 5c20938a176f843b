"""``repro bench backends``: graph vs vector-clock head-to-head.

Times the two sound-and-complete single-pass checkers over recorded
traces of every paper workload (the Table 1/2 lineup):

* **velodrome** — :class:`repro.core.optimized.VelodromeOptimized`,
  the transactional happens-before *graph* with node merging, GC, and
  incremental cycle detection.
* **aerodrome** — :class:`repro.core.aerodrome.AeroDrome`, the
  linear-time *vector-clock* analysis (per-thread / per-lock /
  per-variable clocks, violation exactly when a clock ordering
  witnesses a serialization cycle).

Each workload is recorded once (fixed seed and scale), then each
backend analyses the identical trace best-of-N on a fresh instance.
The two must agree on the verdict and on the first-warning position —
a disagreement aborts the bench, it does not get averaged away.
Each backend's events/sec per workload is drift-gated at 50%: the
quick shape runs at half scale against the full-scale baseline.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import Lane, best_of
from repro.fuzz.verdicts import first_warning_position

#: Fixed recording seed: the bench measures analysis throughput, so
#: every run (and the committed baseline) must see identical traces.
_RECORD_SEED = 0

BACKENDS = ("velodrome", "aerodrome")


def measure_backends(scale: float, repeats: int) -> dict:
    """Per-workload events/sec for each backend, plus the speedup.

    Records each workload's trace once, then times a fresh backend
    instance per repetition over the identical operation list.  Raises
    ``RuntimeError`` if the backends ever disagree on the verdict or
    the first-warning position — the bench doubles as an agreement
    check on real (non-fuzz) traces.
    """
    from repro.core.aerodrome import AeroDrome
    from repro.core.optimized import VelodromeOptimized
    from repro.runtime.tool import run_velodrome
    from repro.workloads import paper_workloads

    factories: dict[str, Callable[[], object]] = {
        "velodrome": lambda: VelodromeOptimized(
            first_warning_per_label=True
        ),
        "aerodrome": AeroDrome,
    }

    def analyzer(factory, trace):
        def analyze():
            backend = factory()
            backend.process_trace(trace)
            return backend
        return analyze

    workloads = {}
    for workload in paper_workloads():
        trace = run_velodrome(
            workload.program(scale), seed=_RECORD_SEED, record_trace=True
        ).trace
        events = len(trace)
        entry: dict = {"events": events}
        outcomes = {}
        analyzers = {
            name: analyzer(factory, trace)
            for name, factory in factories.items()
        }
        timings = best_of(repeats, *analyzers.values())
        for (name, analyze), timing in zip(analyzers.items(), timings):
            final = analyze()
            outcomes[name] = (
                final.error_detected, first_warning_position(final)
            )
            entry[name] = timing.entry(events)
        if outcomes["velodrome"] != outcomes["aerodrome"]:
            raise RuntimeError(
                f"backend disagreement on {workload.name!r}: "
                f"velodrome {outcomes['velodrome']} vs "
                f"aerodrome {outcomes['aerodrome']}"
            )
        entry["error_detected"] = outcomes["velodrome"][0]
        entry["speedup"] = round(
            entry["aerodrome"]["events_per_sec"]
            / entry["velodrome"]["events_per_sec"],
            3,
        )
        workloads[workload.name] = entry
    return workloads


def _totals(workloads: dict) -> dict:
    events = sum(entry["events"] for entry in workloads.values())
    totals = {"events": events}
    for name in BACKENDS:
        seconds = sum(
            entry[name]["best_seconds"] for entry in workloads.values()
        )
        totals[name] = {
            "best_seconds": round(seconds, 6),
            "events_per_sec": round(events / seconds, 1),
        }
    totals["speedup"] = round(
        totals["aerodrome"]["events_per_sec"]
        / totals["velodrome"]["events_per_sec"],
        3,
    )
    return totals


def run_bench(quick: bool = False) -> dict:
    """The full measurement; returns the ``BENCH_backends.json`` dict."""
    scale = 0.5 if quick else 1.0
    repeats = 2 if quick else 5
    workloads = measure_backends(scale=scale, repeats=repeats)
    return {
        "schema": 1,
        "quick": quick,
        "seed": _RECORD_SEED,
        "scale": scale,
        "repeats": repeats,
        "workloads": workloads,
        "total": _totals(workloads),
    }


def render(report: dict) -> str:
    lines = [f"{'workload':>10} {'events':>8} {'velodrome':>12} "
             f"{'aerodrome':>12} {'speedup':>8}"]
    rows = list(report["workloads"].items())
    rows.append(("TOTAL", report["total"]))
    for name, entry in rows:
        lines.append(
            f"{name:>10} {entry['events']:>8,} "
            f"{entry['velodrome']['events_per_sec']:>12,.0f} "
            f"{entry['aerodrome']['events_per_sec']:>12,.0f} "
            f"{entry['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


LANE = Lane(
    name="backends",
    measure=run_bench,
    gated=tuple(f"workloads.*.{name}.events_per_sec" for name in BACKENDS),
    threshold=0.50,
    render=render,
)
