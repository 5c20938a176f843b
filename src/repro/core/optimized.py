"""The optimized Velodrome analysis (paper Section 4, Figure 4).

This is the production analysis: the Figure 2 semantics extended with

* *steps* ``(node, timestamp)`` in every state component, so each
  happens-before edge records the operations at its endpoints;
* *nested atomic blocks*: ``C(t)`` is a stack of ``(label, step)``
  entries, one per open block, enabling per-block blame;
* *garbage collection* of finished nodes with no incoming edges
  (Section 4.1), via the reference counting in :class:`HBGraph`;
* *merging* of non-transactional operations (Section 4.2), avoiding a
  node allocation per operation outside atomic blocks;
* *blame assignment* (Section 4.3): when an edge would close a cycle,
  the increasing-cycle test decides whether the current transaction is
  provably not self-serializable, and if so every open atomic block
  containing both the root and target operations is refuted.

Verdicts (error iff the observed trace is not conflict-serializable)
coincide with :class:`repro.core.basic.VelodromeBasic`; the property
tests check this equivalence on random traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.backend import AnalysisBackend
from repro.core.merge import merge
from repro.core.reports import Warning, atomicity_warning
from repro.events.operations import Operation, OpKind
from repro.graph.hbgraph import Cycle, HBGraph
from repro.graph.node import Step, deref


@dataclass(slots=True)
class _Block:
    """One open atomic block on a thread's ``C(t)`` stack."""

    label: Optional[str]
    entry: Step  # step of the block's begin operation


def _purge_dead_steps(table: dict) -> int:
    """Remove step entries whose node was collected; returns the count."""
    dead = [key for key, step in table.items() if step.node.collected]
    for key in dead:
        del table[key]
    return len(dead)


class VelodromeOptimized(AnalysisBackend):
    """Sound and complete atomicity checker with all Figure 4 machinery.

    Args:
        merge_unary: apply the Section 4.2 merge rules to operations
            outside atomic blocks.  When False, the naive [INS OUTSIDE]
            rule is used instead (one fresh node per operation) — the
            "Without Merge" configuration of Table 1.
        collect_garbage: apply the Section 4.1 GC rule (ablation A2).
        cycle_strategy: ``"ancestors"`` or ``"dfs"`` (ablation A1).
        first_warning_per_label: record at most one warning per atomic
            block label (plus at most one unlocalized warning), counting
            the rest in :attr:`suppressed_warnings`.  Long benchmark
            runs use this to bound memory.
    """

    name = "VELODROME"

    def __init__(
        self,
        merge_unary: bool = True,
        collect_garbage: bool = True,
        cycle_strategy: str = "ancestors",
        first_warning_per_label: bool = False,
    ):
        super().__init__()
        self.graph = HBGraph(
            cycle_strategy=cycle_strategy, collect_garbage=collect_garbage
        )
        self.merge_unary = merge_unary
        self.first_warning_per_label = first_warning_per_label
        self.suppressed_warnings = 0
        self._stacks: dict[int, list[_Block]] = {}  # C
        self._last: dict[int, Step] = {}  # L (weak)
        self._unlocker: dict[str, Step] = {}  # U (weak)
        self._readers: dict[str, dict[int, Step]] = {}  # R (weak)
        self._writer: dict[str, Step] = {}  # W (weak)
        self._warned_labels: set[Optional[str]] = set()
        # Dispatch tables, built once: process costs one dict lookup
        # per event instead of walking an elif chain, and the
        # merged-vs-naive choice for non-transactional operations is
        # made here rather than per event.  Each per-kind method folds
        # the inside-vs-outside branch into itself (no extra call
        # frame); the naive configuration routes outside operations to
        # the [INS OUTSIDE] wrapper instead.
        self._merged_handlers = {
            OpKind.ACQUIRE: self._acquire,
            OpKind.RELEASE: self._release,
            OpKind.READ: self._read,
            OpKind.WRITE: self._write,
        }
        self._handlers = {
            OpKind.BEGIN: self._enter,
            OpKind.END: self._exit,
        }
        for kind, handler in self._merged_handlers.items():
            self._handlers[kind] = handler if merge_unary else self._naive

    # -------------------------------------------------------- state storage
    # The L/U/R/W components are weak maps of steps.  All access goes
    # through these methods so that alternative representations — the
    # paper's packed 64-bit encoding, in repro.core.compact — can
    # override storage without touching the analysis rules.

    def _load_last(self, tid: int) -> Optional[Step]:
        return deref(self._last.get(tid))

    def _store_last(self, tid: int, step: Optional[Step]) -> None:
        if step is None:
            self._last.pop(tid, None)
        else:
            self._last[tid] = step

    def _load_unlocker(self, lock: str) -> Optional[Step]:
        return deref(self._unlocker.get(lock))

    def _store_unlocker(self, lock: str, step: Optional[Step]) -> None:
        if step is None:
            self._unlocker.pop(lock, None)
        else:
            self._unlocker[lock] = step

    def _load_writer(self, var: str) -> Optional[Step]:
        return deref(self._writer.get(var))

    def _store_writer(self, var: str, step: Optional[Step]) -> None:
        if step is None:
            self._writer.pop(var, None)
        else:
            self._writer[var] = step

    def _load_reader(self, var: str, tid: int) -> Optional[Step]:
        return deref(self._readers.get(var, {}).get(tid))

    def _store_reader(self, var: str, tid: int, step: Optional[Step]) -> None:
        readers = self._readers.setdefault(var, {})
        if step is None:
            readers.pop(tid, None)
        else:
            readers[tid] = step

    def _reader_tids(self, var: str) -> list[int]:
        return list(self._readers.get(var, ()))

    # ------------------------------------------------------- resource hygiene
    def state_entry_count(self) -> int:
        return (
            len(self._last)
            + len(self._unlocker)
            + len(self._writer)
            + sum(len(readers) for readers in self._readers.values())
        )

    def compact_state(self) -> dict[str, int]:
        """Purge weak step references to collected transactions.

        No-op on verdicts: a collected node's step already dereferences
        to absent through every ``_load_*`` accessor.
        """
        dropped = {
            "last": _purge_dead_steps(self._last),
            "unlocker": _purge_dead_steps(self._unlocker),
            "writer": _purge_dead_steps(self._writer),
            "reader": 0,
        }
        for var in list(self._readers):
            dropped["reader"] += _purge_dead_steps(self._readers[var])
            if not self._readers[var]:
                del self._readers[var]
        return dropped

    # ------------------------------------------------------------ state views
    def in_transaction(self, tid: int) -> bool:
        """True iff thread ``tid`` is inside an atomic block."""
        return bool(self._stacks.get(tid))

    def block_depth(self, tid: int) -> int:
        """Current atomic-block nesting depth of thread ``tid``."""
        return len(self._stacks.get(tid, ()))

    def last(self, tid: int) -> Optional[Step]:
        """L(t), weak-dereferenced."""
        return self._load_last(tid)

    def unlocker(self, lock: str) -> Optional[Step]:
        """U(m), weak-dereferenced."""
        return self._load_unlocker(lock)

    def writer(self, var: str) -> Optional[Step]:
        """W(x), weak-dereferenced."""
        return self._load_writer(var)

    def reader(self, var: str, tid: int) -> Optional[Step]:
        """R(x, t), weak-dereferenced."""
        return self._load_reader(var, tid)

    # ------------------------------------------------------------- timestamps
    def _advance(self, tid: int) -> Step:
        """The paper's ``s = L(t)+1``: the thread's next step.

        Inside a transaction ``L(t)`` always resolves (the current node
        cannot be collected while current).
        """
        last = self._load_last(tid)
        assert last is not None, "advance with no live last step"
        step = last.next()
        self._set_last(tid, step)
        return step

    def _set_last(self, tid: int, step: Optional[Step]) -> None:
        if step is not None and step.timestamp > step.node.last_timestamp:
            step.node.last_timestamp = step.timestamp
        self._store_last(tid, step)

    # ---------------------------------------------------------------- process
    def process(self, op: Operation) -> None:
        # Overrides the base class to fold the process -> _process call
        # into a single frame: one dict lookup, one handler call.
        self._handlers[op.kind](op, self.events_processed)
        self.events_processed += 1

    def _process(self, op: Operation, position: int) -> None:
        self._handlers[op.kind](op, position)

    # ----------------------------------------------------------- begin / end
    def _enter(self, op: Operation, position: int = 0) -> None:
        tid = op.tid
        stack = self._stacks.setdefault(tid, [])
        if not stack:
            # [INS2 ENTER]: fresh node; program-order edge from L(t).
            node = self.graph.new_node(tid, label=op.label)
            step = Step(node, 0)
            predecessor = self.last(tid)
            if predecessor is not None:
                cycle = self.graph.add_edge(
                    predecessor, step, reason=f"program-order(t{tid})"
                )
                assert cycle is None, "fresh node cannot close a cycle"
            stack.append(_Block(op.label, step))
            self._set_last(tid, step)
        else:
            # [INS2 RE-ENTER]: the nested block shares the node; the
            # program-order edge (L(t), s) is a self-edge and vanishes.
            step = self._advance(tid)
            stack.append(_Block(op.label, step))

    def _exit(self, op: Operation, position: int = 0) -> None:
        tid = op.tid
        stack = self._stacks.get(tid)
        if not stack:
            raise ValueError(f"end without begin for thread {tid}")
        # [INS2 EXIT]: pop the innermost block; the end operation itself
        # takes a timestamp.
        stack.pop()
        step = self._advance(tid)
        if not stack:
            self.graph.finish(step.node)

    # ------------------------------------------------------ per-kind rules
    # Each method folds the [INS2 INSIDE ...] and [INS2 OUTSIDE ...]
    # variants of one operation kind into a single frame, branching on
    # the thread's transactional context.  ``self._stacks`` is read
    # through the attribute on every call: snapshot restore rebinds the
    # dict wholesale.

    def _acquire(self, op: Operation, position: int) -> None:
        tid = op.tid
        if self._stacks.get(tid):
            # [INS2 INSIDE ACQUIRE].
            step = self._advance(tid)
            self._edge(self.unlocker(op.target), step, op, position)
        else:
            # [INS2 OUTSIDE ACQUIRE].
            step = merge(
                self.graph, [self.last(tid), self.unlocker(op.target)], tid
            )
            self._set_last(tid, step)

    def _release(self, op: Operation, position: int) -> None:
        tid = op.tid
        if self._stacks.get(tid):
            # [INS2 INSIDE RELEASE].
            step = self._advance(tid)
            self._store_unlocker(op.target, step)
        else:
            # [INS2 OUTSIDE RELEASE]: fold the release into the
            # predecessor node; with no predecessor the release's unary
            # transaction can never join a cycle and needs no node.
            last = self.last(tid)
            if last is None:
                self._set_last(tid, None)
                self._store_unlocker(op.target, None)
            else:
                step = last.next()
                self._set_last(tid, step)
                self._store_unlocker(op.target, step)

    def _read(self, op: Operation, position: int) -> None:
        tid = op.tid
        if self._stacks.get(tid):
            # [INS2 INSIDE READ].
            step = self._advance(tid)
            self._store_reader(op.target, tid, step)
            self._edge(self.writer(op.target), step, op, position)
        else:
            # [INS2 OUTSIDE READ].
            step = merge(
                self.graph, [self.last(tid), self.writer(op.target)], tid
            )
            self._set_last(tid, step)
            self._store_reader(op.target, tid, step)

    def _write(self, op: Operation, position: int) -> None:
        tid = op.tid
        if self._stacks.get(tid):
            # [INS2 INSIDE WRITE].
            step = self._advance(tid)
            for reader_tid in self._reader_tids(op.target):
                self._edge(
                    self.reader(op.target, reader_tid), step, op, position
                )
            self._edge(self.writer(op.target), step, op, position)
            self._store_writer(op.target, step)
        else:
            # [INS2 OUTSIDE WRITE].
            sources: list[Optional[Step]] = [
                self.reader(op.target, reader_tid)
                for reader_tid in self._reader_tids(op.target)
            ]
            sources.append(self.writer(op.target))
            sources.append(self.last(tid))
            step = merge(self.graph, sources, tid)
            self._set_last(tid, step)
            self._store_writer(op.target, step)

    # ---------------------------------------------------- region memoization
    def apply_region_summary(self, summary, tid: int) -> bool:
        """Apply one memoized transaction-bounded region without replay.

        Inside a transaction every conflict edge goes through
        :meth:`_edge`, which is a no-op whenever its source step is
        dead (absent / collected) or already on the transaction's own
        node.  If every *pre-region* step the region would consult is
        dead, the replay therefore adds exactly one edge (the
        program-order edge of [INS2 ENTER]), performs no cycle check
        beyond it, and cannot warn; its final state is known in closed
        form from the summary's offsets (the operation at region
        offset ``k`` runs at timestamp ``k`` on the fresh node).  The
        preconditions, per footprint entry:

        * the thread is not inside an atomic block (the region's
          ``begin`` must be an outermost [INS2 ENTER]);
        * ``W(x)`` is dead for every accessed variable — the first
          access, read or write, consults it (later accesses only see
          the region's own steps);
        * for written variables, every pre-region reader entry is dead,
          except this thread's own when the region reads the variable
          before writing it (the in-region read shadows the entry
          before the write consults it);
        * ``U(m)`` is dead for locks whose first acquire precedes any
          release (an acquire after an in-region release only sees the
          region's own step; a release never consults ``U(m)``).

        When certified, the node allocation, program-order edge, and
        stores below replicate the replay *literally* — same
        ``add_edge`` call, same store helpers in the same weak-map
        insertion order, same ``finish`` (and therefore the same GC
        cascade) — so graph statistics and packed-state layouts match
        the op-by-op run bit for bit.
        """
        if self._stacks.get(tid):
            return False
        for use in summary.vars:
            if self._load_writer(use.name) is not None:
                return False
            if use.written:
                shadowed = use.read_before_write
                for reader_tid in self._reader_tids(use.name):
                    if shadowed and reader_tid == tid:
                        continue
                    if self._load_reader(use.name, reader_tid) is not None:
                        return False
        for use in summary.locks:
            if use.acquired_before_release and (
                self._load_unlocker(use.name) is not None
            ):
                return False

        # Certified: replay [INS2 ENTER] literally, then the final state.
        node = self.graph.new_node(tid, label=summary.label)
        step = Step(node, 0)
        predecessor = self.last(tid)
        if predecessor is not None:
            cycle = self.graph.add_edge(
                predecessor, step, reason=f"program-order(t{tid})"
            )
            assert cycle is None, "fresh node cannot close a cycle"
        self._stacks.setdefault(tid, [])
        for kind, name, offset in summary.stores:
            final = Step(node, offset)
            if kind == "r":
                self._store_reader(name, tid, final)
            elif kind == "w":
                self._store_writer(name, final)
            else:
                self._store_unlocker(name, final)
        self._set_last(tid, Step(node, summary.op_count - 1))
        self.graph.finish(node)
        self.events_processed += summary.op_count
        return True

    def _naive(self, op: Operation, position: int) -> None:
        """[INS OUTSIDE]: wrap in a fresh unary transaction, no merging.

        Installed for ACQUIRE/RELEASE/READ/WRITE when ``merge_unary``
        is off.  Inside a transaction the per-kind rule applies
        unchanged; outside, the operation runs in its own unary
        transaction, reusing the per-kind method — which routes to its
        inside branch because the unary block is on the stack.
        """
        tid = op.tid
        if self._stacks.get(tid):
            self._merged_handlers[op.kind](op, position)
            return
        node = self.graph.new_node(tid, label=None)
        step = Step(node, 0)
        predecessor = self.last(tid)
        if predecessor is not None:
            cycle = self.graph.add_edge(
                predecessor, step, reason=f"program-order(t{tid})"
            )
            assert cycle is None
        self._stacks.setdefault(tid, []).append(_Block(None, step))
        self._set_last(tid, step)
        self._merged_handlers[op.kind](op, position)
        self._stacks[tid].pop()
        self._advance(tid)
        self.graph.finish(step.node)

    # ------------------------------------------------------------------ edges
    def _edge(
        self, source: Optional[Step], target: Step, op: Operation, position: int
    ) -> None:
        if source is None or source.node is target.node:
            return
        cycle = self.graph.add_edge(source, target, reason=str(op))
        if cycle is not None:
            self._report_cycle(cycle, op, position)

    # ------------------------------------------------------------------ blame
    def _report_cycle(self, cycle: Cycle, op: Operation, position: int) -> None:
        tid = op.tid
        stack = self._stacks.get(tid, [])
        refuted = self._refuted_blocks(cycle, stack)
        if refuted:
            for block in refuted:
                self._record(
                    atomicity_warning(
                        self.name,
                        block.label,
                        tid,
                        position,
                        f"atomic block {block.label!r} is not serializable: "
                        f"{cycle} closed by {op}",
                        cycle=cycle,
                        blamed=True,
                    )
                )
        else:
            # Sound (the trace is non-serializable) but blame could not
            # be certified to a particular transaction.
            label = stack[0].label if stack else None
            self._record(
                atomicity_warning(
                    self.name,
                    None,
                    tid,
                    position,
                    f"non-serializable trace (blame not localized, "
                    f"observed in {label!r}): {cycle} closed by {op}",
                    cycle=cycle,
                    blamed=False,
                )
            )

    def _refuted_blocks(self, cycle: Cycle, stack: list[_Block]) -> list[_Block]:
        """The open blocks refuted by an increasing cycle (Section 4.3).

        When the cycle is increasing, the blamed transaction contains a
        root operation ``d'`` (timestamp ``cycle.root_timestamp``) and
        the target operation ``d`` (the current one); every open block
        that was entered at or before ``d'`` contains both, so it is not
        serializable.
        """
        if not cycle.is_increasing():
            return []
        node = cycle.blamed_candidate
        root = cycle.root_timestamp
        return [
            block
            for block in stack
            if block.entry.node is node and block.entry.timestamp <= root
        ]

    def _record(self, warning: Warning) -> None:
        if self.first_warning_per_label:
            if warning.label in self._warned_labels:
                self.suppressed_warnings += 1
                return
            self._warned_labels.add(warning.label)
        self.report(warning)
