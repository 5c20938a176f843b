"""The parts every ``repro bench`` lane shares.

* :func:`best_of` — the one timing primitive: interleaved best-of-N
  with the garbage collector parked, reporting each thunk's best time
  and the spread of its repeats.
* :func:`check_drift` — the one drift gate: a figure fails when it
  falls more than the lane's threshold below the committed baseline.
* :class:`Lane` — the declaration a lane module exports: how to
  measure, which figures to gate and how far, which absolute checks
  (floors, ceilings) must hold, and how to print the report.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class Timing:
    """One thunk's best wall time and the noise around it."""

    best: float
    #: ``max / min - 1`` over the repeats.
    spread: float

    def entry(self, events: int) -> dict:
        """The report entry for ``events`` processed per call."""
        return {
            "best_seconds": round(self.best, 6),
            "events_per_sec": round(events / self.best, 1)
            if self.best else 0.0,
            "spread": round(self.spread, 4),
        }


def best_of(repeats: int, *thunks: Callable[[], object]) -> list[Timing]:
    """Time each thunk ``repeats`` times; one :class:`Timing` per thunk.

    The configurations a lane compares often differ by less than the
    cost of one badly-timed generational collection, so each call
    starts from a collected heap and runs with the collector disabled.
    The thunks alternate within each repetition so slow machine drift
    (thermal, frequency scaling, a noisy neighbour) lands on every
    configuration instead of biasing whichever was timed last.
    """
    samples: list[list[float]] = [[] for _ in thunks]
    for _ in range(repeats):
        for thunk, seen in zip(thunks, samples):
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                thunk()
                seen.append(time.perf_counter() - started)
            finally:
                gc.enable()
    return [
        Timing(min(seen), max(seen) / min(seen) - 1.0 if min(seen) else 0.0)
        for seen in samples
    ]


def figures(report: dict, path: str) -> Iterator[tuple[str, float]]:
    """Every numeric figure in ``report`` matching the dotted ``path``.

    A ``*`` component matches each key at its level; branches that
    are missing or not numbers are skipped.  Yields ``(label, value)``
    with the concrete dotted label.
    """
    head, _, rest = path.partition(".")
    if not isinstance(report, dict):
        return
    keys = sorted(report) if head == "*" else [head]
    for key in keys:
        if key not in report:
            continue
        value = report[key]
        if rest:
            for label, figure in figures(value, rest):
                yield f"{key}.{label}", figure
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield key, value


def check_drift(
    current: dict, baseline: dict, paths: Sequence[str], threshold: float
) -> list[str]:
    """Gated figures more than ``threshold`` below the baseline.

    Only figures both reports have are compared, so a lane may gain
    or lose rows; faster than the baseline is never a failure.
    """
    failures = []
    for path in paths:
        for label, new in figures(current, path):
            old = next(figures(baseline, label), (None, None))[1]
            if old is not None and new < old * (1.0 - threshold):
                failures.append(
                    f"{label}: {new:,.0f} is {1 - new / old:.0%} below "
                    f"baseline {old:,.0f} (allowed: {threshold:.0%})"
                )
    return failures


def _no_checks(_report: dict) -> list[str]:
    return []


@dataclass(frozen=True)
class Lane:
    """One ``repro bench`` lane, written to ``BENCH_<name>.json``."""

    name: str
    #: ``measure(quick)`` runs the lane and returns its report.
    measure: Callable[[bool], dict]
    #: Dotted figure paths the drift gate compares (``*`` = any key).
    gated: tuple[str, ...]
    #: Allowed drop of a gated figure below the baseline.
    threshold: float
    #: ``render(report)`` is the lane's printout.
    render: Callable[[dict], str]
    #: ``checks(report)`` lists absolute-check failures (floors,
    #: ceilings) that hold with or without a baseline.
    checks: Callable[[dict], list[str]] = _no_checks
