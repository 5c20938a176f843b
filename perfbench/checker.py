"""Child process of the ``check-*`` workloads: ``repro check`` in passes.

Runs ``repro.cli.main(["check", FILE, "--backend", B])`` over every
input file, pass after pass, for about ``--seconds`` seconds, and
writes what it saw to ``--out`` as JSON: per check the wall time from
opening the file to the collected verdict, the exit code, the events
analysed, the warned labels, and the machine's speed around it (the
mean of the :mod:`reference` times taken just before and just after
it); and the process's peak RSS over the first pass.  The inputs were
recorded by the parent process, and the reference's resident buffer
is taken off, so the peak RSS here is that of checking alone.

The backend factory the CLI resolves is wrapped to keep each backend
instance, which is how the verdict and blamed labels reach the gate;
the wrapper runs once per check, not per event.

With ``--trace 1`` passes alternate untraced and traced
(:mod:`layers`), so one run measures both the layer split and the
tracing overhead.  Spans of the traced passes go to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from layers import install_check
from reference import BUFFER_KIB, reference_seconds
from tracer import Tracer, clock, peak_rss_kb


def _capture_backends(cli, made: list) -> None:
    resolve = cli.resolve_backend

    def resolve_and_keep(name):
        factory = resolve(name)

        def build():
            backend = factory()
            made.append(backend)
            return backend

        return build

    cli.resolve_backend = resolve_and_keep


class _Discard(io.TextIOBase):
    """Standard output of a check: every report line is formatted and
    written, then dropped, so it neither reaches a terminal nor piles
    up in memory."""

    def write(self, text: str) -> int:
        return len(text)


def _check(cli, made: list, path: str, backend: str) -> dict:
    made.clear()
    started = clock()
    with contextlib.redirect_stdout(_Discard()):
        code = cli.main(["check", path, "--backend", backend])
    elapsed = clock() - started
    (checked,) = made
    graph = getattr(checked, "graph", None)
    return {
        "file": path,
        "seconds": elapsed,
        "exit": code,
        "events": checked.events_processed,
        "warnings": checked.warning_count,
        "labels": sorted(checked.warned_labels()),
        "peak_nodes": graph.stats.max_alive if graph is not None else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+")
    parser.add_argument("--backend", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="check")
    args = parser.parse_args(argv)

    from repro import cli
    # Modules `check` imports lazily: load them before timing starts.
    import repro.pipeline.source  # noqa: F401
    import repro.store.reader  # noqa: F401
    import repro.store.sniff  # noqa: F401

    made: list = []
    _capture_backends(cli, made)
    tracer = Tracer(run_id=args.run_id)
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            install_check(tracer)
        checks = []
        before = reference_seconds()
        try:
            for path in args.files:
                check = _check(cli, made, path, args.backend)
                after = reference_seconds()
                check["reference_s"] = (before + after) / 2
                checks.append(check)
                before = after
        finally:
            tracer.uninstall()
        passes.append({"traced": traced, "checks": checks})
        if len(passes) == 1:
            # Later passes only add allocator growth, and how many run
            # depends on the machine's speed: the peak is the first's.
            # Less the reference's buffer, resident all along.
            first_pass_rss_kb = peak_rss_kb() - BUFFER_KIB
        elapsed = time.perf_counter() - started
        # Whole passes only, at least two (one of them traced when
        # tracing): stop at the pass boundary nearest the deadline.
        per_pass = elapsed / len(passes)
        if len(passes) >= 2 and elapsed + per_pass / 2 >= args.seconds:
            break

    if args.trace and args.spans:
        tracer.dump(Path(args.spans))
    result = {
        "passes": passes,
        "peak_rss_kb": first_pass_rss_kb,
        "layers": tracer.layer_times() if args.trace else {},
        "counts": dict(tracer.counts),
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
