"""``repro bench``: the measurement lanes and their gates.

Usage::

    repro bench [LANE ...] [--quick] [--out DIR] [--check-against DIR]

With no lane named, every lane runs.  Each lane writes
``BENCH_<lane>.json`` into ``--out`` (default: the current
directory), prints its summary, and fails (exit 1) when one of its
absolute checks (floors, ceilings) is missed or — with
``--check-against`` — when a gated figure fell more than the lane's
threshold below the committed ``BENCH_<lane>.json`` in that
directory.  ``--quick`` is the CI shape: smaller inputs, fewer
repeats.

Lanes (one module each, declaring a :class:`~repro.bench.harness.Lane`):

* ``backends`` — graph vs vector-clock checker on the paper lineup;
* ``memo`` — region memoization on vs off;
* ``store`` — packed VTRC vs JSONL size, encode, decode, seek;
* ``parallel`` — per-stage throughput and serial vs ``--jobs 2`` fuzz;
* ``workloads`` — the server-suite scaling sweep, ground-truth gated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bench import backends, memo, parallel, store, workloads
from repro.bench.harness import Lane, check_drift

LANES: dict[str, Lane] = {
    module.LANE.name: module.LANE
    for module in (backends, memo, store, parallel, workloads)
}


def run_lane(lane: Lane, quick: bool, out: Path,
             baselines: Optional[Path]) -> list[str]:
    """Measure, write, print and gate one lane; returns its failures."""
    report = lane.measure(quick)
    path = out / f"BENCH_{lane.name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(lane.render(report))
    print(f"wrote {path}")
    problems = lane.checks(report)
    if baselines is not None:
        baseline_path = baselines / path.name
        if not baseline_path.exists():
            return problems + [f"no baseline at {baseline_path}"]
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        problems += check_drift(report, baseline, lane.gated, lane.threshold)
    return problems


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("lanes", nargs="*", metavar="LANE",
                        help=f"lanes to run (default: all of "
                             f"{', '.join(LANES)})")
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs, fewer repeats (the CI shape)")
    parser.add_argument("--out", type=Path, default=Path("."), metavar="DIR",
                        help="directory for the BENCH_<lane>.json reports")
    parser.add_argument("--check-against", type=Path, metavar="DIR",
                        help="directory of committed BENCH_<lane>.json "
                             "baselines to drift-gate against")
    args = parser.parse_args(argv)
    unknown = [name for name in args.lanes if name not in LANES]
    if unknown:
        parser.error(f"unknown lane(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(LANES)}")

    args.out.mkdir(parents=True, exist_ok=True)
    failed = False
    for name in args.lanes or LANES:
        lane = LANES[name]
        problems = run_lane(lane, args.quick, args.out, args.check_against)
        if problems:
            failed = True
            print(f"{name}: BENCH FAILURE", file=sys.stderr)
            for line in problems:
                print(f"  {line}", file=sys.stderr)
        elif args.check_against is not None:
            print(f"{name}: checks met, no drift beyond "
                  f"{lane.threshold:.0%} vs {args.check_against}")
    if failed:
        raise SystemExit(1)
