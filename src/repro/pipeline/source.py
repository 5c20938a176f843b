"""Event sources: where a pipeline's operations come from.

Velodrome is an *online* analysis: it consumes an event stream, not a
stored trace.  The stream can come from a live interpreted execution
(:class:`LiveSource`) or from a recording on disk / in memory
(:class:`TraceSource`); the pipeline downstream is identical.  Any
object with a ``run(sink)`` method returning a :class:`SourceResult`
satisfies the :class:`EventSource` protocol.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Protocol, runtime_checkable

from repro.events.operations import Operation
from repro.events.trace import Trace

#: An event consumer: called once per operation, in stream order.
EventSink = Callable[[Operation], None]


class SourceResult:
    """What a source reports after driving a sink to exhaustion.

    Attributes:
        events: number of operations pushed into the sink.
        run: the interpreter's :class:`~repro.runtime.interpreter.
            RunResult` for live executions, ``None`` for recordings.
        trace: the underlying trace when one exists (always for
            :class:`TraceSource`; for :class:`LiveSource` only when
            recording was requested).
    """

    def __init__(self, events: int, run=None, trace: Optional[Trace] = None):
        self.events = events
        self.run = run
        self.trace = trace


@runtime_checkable
class EventSource(Protocol):
    """Anything that can push an operation stream into a sink."""

    def run(self, sink: EventSink) -> SourceResult:
        """Drive every event through ``sink``, in order."""
        ...


class TraceSource:
    """Replay a recorded trace (or any operation iterable) into a sink."""

    def __init__(self, ops: Iterable[Operation]):
        self.ops = ops

    @classmethod
    def from_path(cls, path) -> "TraceSource":
        """A source over the recording at ``path``, any format.

        The format — packed binary, JSONL, or DSL — is sniffed from
        the file's leading bytes (:mod:`repro.store.sniff`), never
        from its extension.
        """
        # Deferred: repro.store reaches this module through
        # repro.resilience.quarantine.
        from repro.events.serialize import load_trace

        return cls(load_trace(path))

    def run(self, sink: EventSink) -> SourceResult:
        # Sinks may expose ``process_many(ops) -> count`` (the region
        # assembler does) to take the whole iterable in one call,
        # saving a Python call per operation.
        batch = getattr(sink, "process_many", None)
        if batch is not None:
            count = batch(self.ops)
        else:
            count = 0
            for op in self.ops:
                sink(op)
                count += 1
        trace = self.ops if isinstance(self.ops, Trace) else None
        return SourceResult(events=count, trace=trace)


class PackedTraceSource:
    """Stream a packed (VTRC) recording block by block.

    Satisfies :class:`EventSource` through :meth:`run`, but also
    offers :meth:`run_blocks`, which :meth:`Pipeline.run
    <repro.pipeline.core.Pipeline.run>` and the supervised checker
    prefer: the sink receives each block's decoded operation list, so
    dispatch costs one call per block rather than one per operation.
    Each block is decoded exactly once, and only one block at a time
    is resident unless ``jobs`` prefetches them.

    Args:
        path: the packed trace file (or a seekable binary stream; a
            stream disables parallel prefetch).
        start_seq: first global position to deliver (resume support).
            Decoding starts at the block containing it, whose
            operations before ``start_seq`` are dropped.
        jobs: with more than one, block decodes are prefetched by
            worker processes (disjoint block ranges, merged in block
            order), so the operation stream — and therefore every
            backend state — is byte-identical to the serial path.
    """

    def __init__(self, path, start_seq: int = 0, jobs: int = 1):
        self.path = path
        self.start_seq = start_seq
        self.jobs = jobs

    def run(self, sink: EventSink) -> SourceResult:
        # Deferred: repro.store reaches this module through
        # repro.resilience.quarantine.
        from repro.store.reader import PackedTraceReader

        count = 0
        with PackedTraceReader(self.path) as reader:
            for op in reader.seek(self.start_seq):
                sink(op)
                count += 1
        return SourceResult(events=count)

    def run_blocks(self, block_sink) -> SourceResult:
        """Drive ``block_sink(ops)`` over every block, in order."""
        from repro.store.reader import PackedTraceReader

        count = 0
        with PackedTraceReader(self.path) as reader:
            start_block = 0
            skip = 0
            if self.start_seq:
                if self.start_seq >= reader.total_ops:
                    return SourceResult(events=0)
                first = reader.block_for_seq(self.start_seq)
                start_block = first.number
                skip = self.start_seq - first.first_seq
            prefetched = self._prefetch(reader, start_block)
            for info in reader.blocks[start_block:]:
                if prefetched is not None:
                    ops = prefetched[info.number - start_block]
                else:
                    ops = reader.decode_block(info)
                if skip:
                    # The resume position falls inside this block.
                    ops = ops[skip:]
                    skip = 0
                block_sink(ops)
                count += len(ops)
                # Let go of this block before decoding the next, so a
                # sink that no longer holds it frees it first.
                del ops
        return SourceResult(events=count)

    def _prefetch(self, reader, start_block: int):
        """Decode blocks ``start_block..`` in worker processes.

        Returns one operation list per block, or ``None`` when the
        file is too small to shard, ``jobs`` is 1, or the source wraps
        a stream (workers need a path to reopen).  Failed shards are
        re-decoded in-process, mirroring
        :func:`repro.store.parallel.load_packed_parallel`.
        """
        import os
        from pathlib import Path as _Path

        if not isinstance(self.path, (str, os.PathLike, _Path)):
            return None
        n_blocks = len(reader.blocks) - start_block
        from repro.store.parallel import (
            MIN_BLOCKS_PER_SHARD,
            block_ranges,
        )

        if self.jobs <= 1 or n_blocks < MIN_BLOCKS_PER_SHARD * 2:
            return None
        from repro.parallel.executor import run_shards
        from repro.parallel.tasks import BlockListTask, run_block_lists

        tasks = [
            BlockListTask(
                path=str(self.path),
                first_block=start_block + lo,
                end_block=start_block + hi,
            )
            for lo, hi in block_ranges(n_blocks, self.jobs)
        ]
        blocks: list[list[Operation]] = []
        for shard in run_shards(run_block_lists, tasks, jobs=self.jobs):
            if shard.ok:
                blocks.extend(shard.value)
            else:
                blocks.extend(run_block_lists(tasks[shard.index]))
        return blocks


class LiveSource:
    """Execute a program under the interpreter, streaming its events.

    Keyword arguments are forwarded to
    :class:`~repro.runtime.interpreter.Interpreter` (scheduler,
    record_trace, max_steps, array_granularity).
    """

    def __init__(self, program, **interpreter_options):
        self.program = program
        self.interpreter_options = interpreter_options

    def run(self, sink: EventSink) -> SourceResult:
        # Imported here: repro.runtime's tool facade imports
        # repro.pipeline, so the reverse import must be deferred.
        from repro.runtime.interpreter import Interpreter

        interpreter = Interpreter(
            self.program, sink=sink, **self.interpreter_options
        )
        result = interpreter.run()
        return SourceResult(
            events=result.events, run=result, trace=result.trace
        )
