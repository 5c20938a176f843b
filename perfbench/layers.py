"""Where the traced runs put their spans: one wrapper per layer boundary.

Span names are the per-layer metric prefixes of ``BENCHMARK.json``:

========================  ============================================
span                      wraps
========================  ============================================
``runtime.record``        ``run_with_backends`` as ``record_trace``
                          calls it (the interpreter run)
``store.encode``          ``save_packed`` as ``record_trace`` calls it
``store.open``            ``PackedTraceReader.__init__`` (header, index)
``store.summary``         ``PackedTraceReader.block_summary``
``store.decode``          ``PackedTraceReader.decode_block``
``pipeline.run``          ``Pipeline.run`` (source loop, finish)
``pipeline.dispatch``     ``Pipeline.process_block``
``pipeline.fold``         ``apply_block_summary`` of each backend
``core.<b>.analyze``      ``FanOut.process_block`` (its self time is
                          the per-operation loop into backend ``b``);
                          in the daemon, per-call time of ``b.process``
``core.report``           the CLI's warning report; in the daemon,
                          ``serve.stream.backend_result``
``resilience.supervise``  ``SupervisedChecker.run``/``process_block``
``resilience.checkpoint`` ``SupervisedChecker.checkpoint``
``serve.scan``            ``SpoolScanner.scan`` (listing, stat, sniff)
``serve.digest``          ``serve.spool.file_digest``
``serve.registry``        ``StreamRegistry.save``
``serve.stream``          ``serve.stream.process_stream``
========================  ============================================

Only block-granular calls get spans.  Per-operation analysis time
inside the daemon is accumulated (:meth:`Tracer.accumulate`), because
the supervised checker runs the analysis loop itself.
"""

from __future__ import annotations

import os

from tracer import Tracer


def _backend_classes():
    from repro.core.aerodrome import AeroDrome
    from repro.core.optimized import VelodromeOptimized

    return {"velodrome": VelodromeOptimized, "aerodrome": AeroDrome}


def install_setup(tracer: Tracer) -> None:
    """Spans for recording and packing the inputs."""
    from repro.experiments import runner

    def record_after(args, result):
        tracer.count("runtime.record_events", len(result.trace))

    tracer.span(runner, "run_with_backends", "runtime.record",
                after=record_after)
    tracer.span(runner, "save_packed", "store.encode")


def _install_store(tracer: Tracer) -> None:
    from repro.store.format import FRAME_SIZE
    from repro.store.reader import PackedTraceReader

    def decoded(args, _result):
        reader, block = args[0], args[1]
        info = reader.blocks[block] if isinstance(block, int) else block
        tracer.count("store.blocks_decoded")
        tracer.count("store.bytes_read", FRAME_SIZE + info.comp_len)

    tracer.span(PackedTraceReader, "__init__", "store.open")
    tracer.span(PackedTraceReader, "block_summary", "store.summary",
                after=lambda _a, _r: tracer.count("store.summaries_read"))
    tracer.span(PackedTraceReader, "decode_block", "store.decode",
                after=decoded)


def _install_fold(tracer: Tracer) -> None:
    def folded(_args, accepted):
        tracer.count("pipeline.fold_offered")
        if accepted:
            tracer.count("pipeline.blocks_folded")

    for cls in _backend_classes().values():
        tracer.span(cls, "apply_block_summary", "pipeline.fold",
                    after=folded)


def install_check(tracer: Tracer) -> None:
    """Spans for ``repro check`` over a packed trace."""
    from repro import cli
    from repro.pipeline.core import Pipeline
    from repro.pipeline.fanout import FanOut

    def pipeline_after(args, _result):
        memo = args[0].memo
        if memo is not None:
            tracer.count("pipeline.memo_hits", memo.hits)
            tracer.count("pipeline.memo_attempts", memo.hits + memo.misses)

    def analyze_name(args):
        return f"core.{args[0].backends[0].name.lower()}.analyze"

    _install_store(tracer)
    _install_fold(tracer)
    tracer.span(Pipeline, "run", "pipeline.run", after=pipeline_after)
    tracer.span(Pipeline, "process_block", "pipeline.dispatch",
                after=lambda _a, _r: tracer.count("pipeline.blocks_in"))
    tracer.span(FanOut, "process_block", analyze_name)
    tracer.span(cli, "_report_warnings", "core.report")


def install_serve(tracer: Tracer) -> None:
    """Spans for the ``repro serve`` daemon's stream lifecycle."""
    from repro.resilience.supervisor import SupervisedChecker
    from repro.serve import spool, stream
    from repro.serve.registry import StreamRegistry

    def checkpointed(_args, written):
        tracer.count("resilience.checkpoints_written")
        tracer.count("resilience.checkpoint_bytes",
                     os.path.getsize(written))

    def registry_key(args, _result):
        record = args[1]
        return [record.digest, record.status, record.stream_id]

    _install_store(tracer)
    _install_fold(tracer)
    tracer.span(spool.SpoolScanner, "scan", "serve.scan")
    tracer.span(spool, "file_digest", "serve.digest",
                key=lambda _args, result: result[0])
    tracer.span(StreamRegistry, "save", "serve.registry", key=registry_key)
    tracer.span(stream, "process_stream", "serve.stream",
                key=lambda args, _result: args[0].stream_id)
    tracer.span(stream, "backend_result", "core.report")
    tracer.span(SupervisedChecker, "run", "resilience.supervise")
    tracer.span(SupervisedChecker, "process_block", "resilience.supervise",
                after=lambda _a, _r: tracer.count("pipeline.blocks_in"))
    tracer.span(SupervisedChecker, "checkpoint", "resilience.checkpoint",
                after=checkpointed)
    for name, cls in _backend_classes().items():
        tracer.accumulate(cls, "process", f"core.{name}.analyze")
