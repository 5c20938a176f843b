"""The basic Velodrome analysis (paper Section 3, Figure 2).

The analysis state is the tuple ``(C, L, U, R, W, H)``:

* ``C(t)`` — the current transaction node of thread ``t`` (if any),
* ``L(t)`` — the transaction that executed the last operation of ``t``,
* ``U(m)`` — the last transaction to release lock ``m``,
* ``R(x, t)`` — the last transaction of ``t`` to read variable ``x``,
* ``W(x)`` — the last transaction to write variable ``x``,
* ``H`` — the transactional happens-before graph.

An operation adds edges from the conflicting predecessors recorded in
these components to the current transaction; the trace is
non-serializable exactly when an added edge would close a cycle
(Theorem 1).  Operations outside any atomic block run in their own
unary transaction via the [INS OUTSIDE] rule — the deliberately naive
allocation strategy whose cost motivates the merge optimization of
Figure 4 (and the "Without Merge" columns of Table 1).

This implementation is the executable specification: unoptimized,
close to the paper's rules, and cross-validated against the reference
serializability checkers by the property-test suite.  The production
analysis is :class:`repro.core.optimized.VelodromeOptimized`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.backend import AnalysisBackend
from repro.core.reports import atomicity_warning
from repro.events.operations import Operation, OpKind
from repro.graph.hbgraph import Cycle, HBGraph
from repro.graph.node import Step, TxNode


def _live(node: Optional[TxNode]) -> Optional[TxNode]:
    """Weak-dereference a node: collected nodes read as absent."""
    if node is None or node.collected:
        return None
    return node


def _purge_dead(table: dict) -> int:
    """Remove entries whose node has been collected; returns the count."""
    dead = [key for key, node in table.items() if node.collected]
    for key in dead:
        del table[key]
    return len(dead)


class VelodromeBasic(AnalysisBackend):
    """Sound and complete serializability analysis, unoptimized.

    Args:
        collect_garbage: apply the Section 4.1 GC rule eagerly.  The
            rule never changes verdicts (collected nodes cannot lie on
            cycles); disabling it reproduces the raw Figure 2 analysis
            and is used by the GC ablation.
        cycle_strategy: forwarded to :class:`HBGraph`.

    Nested atomic blocks are folded into the outermost one by tracking
    the per-thread nesting depth (Figure 2 itself defers nesting to the
    Figure 4 analysis, which also adds per-block blame).
    """

    name = "VELODROME-BASIC"

    def __init__(
        self,
        collect_garbage: bool = True,
        cycle_strategy: str = "ancestors",
    ):
        super().__init__()
        self.graph = HBGraph(
            cycle_strategy=cycle_strategy, collect_garbage=collect_garbage
        )
        self._current: dict[int, TxNode] = {}  # C
        self._depth: dict[int, int] = {}
        self._last: dict[int, TxNode] = {}  # L (weak)
        self._unlocker: dict[str, TxNode] = {}  # U (weak)
        self._readers: dict[str, dict[int, TxNode]] = {}  # R (weak)
        self._writer: dict[str, TxNode] = {}  # W (weak)
        # Per-kind dispatch table: one dict lookup per event instead of
        # an elif chain.  Non-marker kinds fold the [INS OUTSIDE]
        # wrapper into the per-kind method, which allocates a unary
        # transaction when the thread is not inside an atomic block.
        self._handlers = {
            OpKind.BEGIN: self._enter,
            OpKind.END: self._exit,
            OpKind.ACQUIRE: self._acquire,
            OpKind.RELEASE: self._release,
            OpKind.READ: self._read,
            OpKind.WRITE: self._write,
        }

    # ------------------------------------------------------------ state views
    def current(self, tid: int) -> Optional[TxNode]:
        """C(t): the node of thread ``tid``'s ongoing transaction."""
        return self._current.get(tid)

    def last(self, tid: int) -> Optional[TxNode]:
        """L(t): the node of the thread's last finished operation."""
        return _live(self._last.get(tid))

    def unlocker(self, lock: str) -> Optional[TxNode]:
        """U(m): the last transaction to release ``lock``."""
        return _live(self._unlocker.get(lock))

    def writer(self, var: str) -> Optional[TxNode]:
        """W(x): the last transaction to write ``var``."""
        return _live(self._writer.get(var))

    def reader(self, var: str, tid: int) -> Optional[TxNode]:
        """R(x, t): the last transaction of ``tid`` to read ``var``."""
        return _live(self._readers.get(var, {}).get(tid))

    # ------------------------------------------------------- resource hygiene
    def state_entry_count(self) -> int:
        return (
            len(self._last)
            + len(self._unlocker)
            + len(self._writer)
            + sum(len(readers) for readers in self._readers.values())
        )

    def compact_state(self) -> dict[str, int]:
        """Purge weak references to collected transactions (no-op on
        verdicts: a collected node already reads as absent)."""
        dropped = {
            "last": _purge_dead(self._last),
            "unlocker": _purge_dead(self._unlocker),
            "writer": _purge_dead(self._writer),
            "reader": 0,
        }
        for var in list(self._readers):
            dropped["reader"] += _purge_dead(self._readers[var])
            if not self._readers[var]:
                del self._readers[var]
        return dropped

    # ---------------------------------------------------------------- process
    def process(self, op: Operation) -> None:
        # Overrides the base class to fold the process -> _process call
        # into a single frame: one dict lookup, one handler call.
        self._handlers[op.kind](op, self.events_processed)
        self.events_processed += 1

    def _process(self, op: Operation, position: int) -> None:
        self._handlers[op.kind](op, position)

    # ------------------------------------------------------ per-kind rules
    # Each method folds the [INS OUTSIDE] wrapper into the rule body:
    # inside a transaction the rule runs against the current node;
    # outside, the operation is wrapped in a fresh unary transaction
    # (no merging in the basic analysis).  ``self._current`` is read
    # through the attribute on every call: snapshot restore rebinds
    # the dict wholesale.

    def _acquire(self, op: Operation, position: int) -> None:
        node = self._current.get(op.tid)
        unary = node is None
        if unary:
            node = self._start_transaction(op.tid, label=None)
        # [INS ACQUIRE]: edge from the last unlocker.
        self._edge(self.unlocker(op.target), node, op, position)
        if unary:
            self._finish_transaction(op.tid)

    def _release(self, op: Operation, position: int) -> None:
        node = self._current.get(op.tid)
        unary = node is None
        if unary:
            node = self._start_transaction(op.tid, label=None)
        # [INS RELEASE]: record the unlocker.
        self._unlocker[op.target] = node
        if unary:
            self._finish_transaction(op.tid)

    def _read(self, op: Operation, position: int) -> None:
        node = self._current.get(op.tid)
        unary = node is None
        if unary:
            node = self._start_transaction(op.tid, label=None)
        # [INS READ]: record the reader; edge from the last writer.
        self._readers.setdefault(op.target, {})[op.tid] = node
        self._edge(self.writer(op.target), node, op, position)
        if unary:
            self._finish_transaction(op.tid)

    def _write(self, op: Operation, position: int) -> None:
        node = self._current.get(op.tid)
        unary = node is None
        if unary:
            node = self._start_transaction(op.tid, label=None)
        # [INS WRITE]: edges from all readers and the last writer;
        # record the writer.
        for reader_tid in list(self._readers.get(op.target, {})):
            self._edge(self.reader(op.target, reader_tid), node, op, position)
        self._edge(self.writer(op.target), node, op, position)
        self._writer[op.target] = node
        if unary:
            self._finish_transaction(op.tid)

    # ----------------------------------------------------------- transactions
    def _enter(self, op: Operation, position: int = 0) -> None:
        tid = op.tid
        depth = self._depth.get(tid, 0)
        self._depth[tid] = depth + 1
        if depth == 0:
            # [INS ENTER]: fresh node, program-order edge from L(t).
            self._start_transaction(tid, label=op.label)

    def _exit(self, op: Operation, position: int = 0) -> None:
        tid = op.tid
        depth = self._depth.get(tid, 0)
        if depth == 0 or tid not in self._current:
            raise ValueError(f"end without begin for thread {tid}")
        self._depth[tid] = depth - 1
        if depth == 1:
            # [INS EXIT].
            self._finish_transaction(tid)

    def _start_transaction(self, tid: int, label: Optional[str]) -> TxNode:
        node = self.graph.new_node(tid, label=label)
        predecessor = self.last(tid)
        if predecessor is not None:
            cycle = self.graph.add_edge(
                Step(predecessor, 0), Step(node, 0),
                reason=f"program-order(t{tid})",
            )
            assert cycle is None, "fresh node cannot close a cycle"
        self._current[tid] = node
        return node

    def _finish_transaction(self, tid: int) -> None:
        node = self._current.pop(tid)
        self._last[tid] = node
        self.graph.finish(node)

    # -------------------------------------------------------------- edges
    def _edge(
        self,
        source: Optional[TxNode],
        target: TxNode,
        op: Operation,
        position: int,
    ) -> None:
        if source is None or source is target:
            return
        cycle = self.graph.add_edge(
            Step(source, 0), Step(target, 0), reason=str(op)
        )
        if cycle is not None:
            self._report_cycle(cycle, op, position)

    def _report_cycle(self, cycle: Cycle, op: Operation, position: int) -> None:
        label = cycle.blamed_candidate.label
        self.report(
            atomicity_warning(
                self.name,
                label,
                op.tid,
                position,
                f"non-serializable: {cycle} closed by {op}",
                cycle=cycle,
            )
        )
