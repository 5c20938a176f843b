"""Set-up: record the server families and pack them to VTRC.

Inputs come only from the workload seed, through the public
``repro.experiments.runner.record_trace`` path (interpreter run,
``save_packed``, content digest).  The ``check-*`` workloads use the
five families at ``medium``; ``serve-spool`` uses many short streams
whose recording seeds are drawn from the workload seed.

The package is imported here, at module level, so that importing
this module -- before any set-up is timed -- pays the import cost.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

from repro.experiments import runner
from repro.workloads.server import SERVER_FAMILIES

#: Scale of the ``check-*`` inputs (about 840k events over five files).
CHECK_POINT = "medium"


def record_check_inputs(seed: int, trace_dir: Path) -> list[dict]:
    """One ``medium`` trace per family, all recorded at ``seed``."""
    return [
        runner.record_trace(family, CHECK_POINT, seed, trace_dir)
        for family in SERVER_FAMILIES.values()
    ]


def stream_plan(count: int, small_every: int) -> list[tuple[str, str]]:
    """(family, point) per stream: every ``small_every``-th stream is
    ``small``, the rest ``smoke``, and families take turns in both."""
    names = list(SERVER_FAMILIES)
    plan = []
    for index in range(count):
        small = index % small_every == small_every - 1
        family = names[(index + index // len(names)) % len(names)]
        plan.append((family, "small" if small else "smoke"))
    return plan


def record_stream_inputs(
    seed: int, plan: list[tuple[str, str]], trace_dir: Path
) -> list[dict]:
    """One trace per planned stream, each at its own recording seed.

    Seeds are drawn from ``seed``; a seed whose trace repeats an
    earlier stream's content digest is replaced by the next draw, so
    the daemon deduplicates no stream.
    """
    rng = random.Random(f"serve-spool/{seed}")
    seen: set[str] = set()
    entries = []
    scratch = trace_dir / "recording"
    for index, (name, point) in enumerate(plan):
        while True:
            stream_seed = rng.randrange(1, 2**31)
            entry = runner.record_trace(
                SERVER_FAMILIES[name], point, stream_seed, scratch
            )
            if entry["digest"] not in seen:
                break
        seen.add(entry["digest"])
        target = trace_dir / f"stream-{index:04d}.vtrc"
        os.replace(entry["trace"], target)
        entry.update(trace=str(target), seed=stream_seed)
        entries.append(entry)
    return entries
