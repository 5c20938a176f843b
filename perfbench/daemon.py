"""Child process of ``serve-spool``: a ``repro serve`` daemon.

Runs ``repro.cli.main(["serve", ...])`` with the arguments after
``--``.  The parent stops it by closing this process's stdin: a
thread waiting on stdin then requests the daemon's graceful shutdown
through the same latch SIGTERM sets, so the daemon finishes its round,
writes its final state and returns.  Then ``--out`` receives the
process's peak RSS; the parent holds the recorded traces, so that
figure is the checking process's alone.

With ``--trace 1`` the stream lifecycle is traced (:mod:`layers`) and
the spans go to ``--spans`` at the end.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from layers import install_serve
from tracer import Tracer, peak_rss_kb


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="serve")
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    from repro import cli

    latches = []
    opened = threading.Event()

    class StoppableShutdown(cli.GracefulShutdown):
        def __enter__(self):
            latched = super().__enter__()
            latches.append(latched)
            opened.set()
            return latched

    def stop_on_eof():
        sys.stdin.buffer.read()
        opened.wait()
        latches[0].request()

    cli.GracefulShutdown = StoppableShutdown
    threading.Thread(target=stop_on_eof, daemon=True).start()

    tracer = Tracer(run_id=args.run_id)
    if args.trace:
        install_serve(tracer)
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        if args.trace and args.spans:
            tracer.dump(Path(args.spans))
        Path(args.out).write_text(json.dumps({
            "peak_rss_kb": peak_rss_kb(),
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
