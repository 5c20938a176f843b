"""The compact analysis-state representation (paper Section 5).

The Velodrome prototype stores every step as a single 64-bit integer —
16 bits of node slot, 48 bits of timestamp — with node slots recycled
on collection and stale codes reading as absent via a per-slot
timestamp watermark.  :class:`VelodromeCompact` is the optimized
analysis with its L/U/R/W state components stored exactly that way,
backed by :class:`repro.graph.stepcode.NodePool`.

Semantics are identical to :class:`VelodromeOptimized` (the property
suite checks verdict-for-verdict agreement); what changes is the memory
representation: four flat ``str/int -> int`` dictionaries instead of
dictionaries of step objects, and no per-step Python object retention —
the representation the paper credits for the prototype's memory
behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.core.optimized import VelodromeOptimized
from repro.graph.node import Step, TxNode
from repro.graph.stepcode import NIL, NodePool


class VelodromeCompact(VelodromeOptimized):
    """Optimized Velodrome with packed 64-bit state components.

    Accepts the same options as :class:`VelodromeOptimized`, plus the
    pool's slot count and timestamp capacity (see
    :class:`~repro.graph.stepcode.NodePool`).  Slots are attached on
    node allocation and
    recycled on collection via the graph's hooks; dereferencing a code
    whose slot was recycled (or whose timestamp falls at or below the
    slot's watermark) yields the paper's bottom, exactly like the weak
    references of the object representation.
    """

    name = "VELODROME-COMPACT"

    def __init__(
        self,
        max_slots: int = 1 << 16,
        timestamp_capacity: Optional[int] = None,
        **options,
    ):
        super().__init__(**options)
        pool_options = {"max_slots": max_slots}
        if timestamp_capacity is not None:
            pool_options["timestamp_capacity"] = timestamp_capacity
        self.pool = NodePool(**pool_options)
        self.graph.on_alloc = self.pool.attach
        self.graph.on_collect = self.pool.detach
        # Packed state: plain int codes, NIL for bottom.
        self._last_code: dict[int, int] = {}
        self._unlocker_code: dict[str, int] = {}
        self._writer_code: dict[str, int] = {}
        self._reader_code: dict[tuple[str, int], int] = {}
        self._reader_index: dict[str, set[int]] = {}

    # ------------------------------------------------------- packed storage
    def _load_last(self, tid: int) -> Optional[Step]:
        return self.pool.decode(self._last_code.get(tid, NIL))

    def _store_last(self, tid: int, step: Optional[Step]) -> None:
        self._last_code[tid] = self.pool.encode(step)

    def _load_unlocker(self, lock: str) -> Optional[Step]:
        return self.pool.decode(self._unlocker_code.get(lock, NIL))

    def _store_unlocker(self, lock: str, step: Optional[Step]) -> None:
        self._unlocker_code[lock] = self.pool.encode(step)

    def _load_writer(self, var: str) -> Optional[Step]:
        return self.pool.decode(self._writer_code.get(var, NIL))

    def _store_writer(self, var: str, step: Optional[Step]) -> None:
        self._writer_code[var] = self.pool.encode(step)

    def _load_reader(self, var: str, tid: int) -> Optional[Step]:
        return self.pool.decode(self._reader_code.get((var, tid), NIL))

    def _store_reader(self, var: str, tid: int, step: Optional[Step]) -> None:
        self._reader_code[(var, tid)] = self.pool.encode(step)
        if step is not None:
            self._reader_index.setdefault(var, set()).add(tid)

    def _reader_tids(self, var: str) -> list[int]:
        return list(self._reader_index.get(var, ()))

    # ------------------------------------------------------- resource hygiene
    def state_entry_count(self) -> int:
        return (
            len(self._last_code)
            + len(self._unlocker_code)
            + len(self._writer_code)
            + len(self._reader_code)
        )

    def compact_state(self) -> dict[str, int]:
        """Drop packed codes that decode to the paper's bottom.

        A dead code (NIL, or naming a recycled/retired slot incarnation
        at or below its watermark) already reads as absent, so removal
        — equivalent to storing NIL — cannot change verdicts.  The
        reader index keeps only threads whose reader code is live; the
        index drives edge *iteration*, and dead readers contribute no
        edges.
        """
        dropped = {
            "last": self._purge_dead_codes(self._last_code),
            "unlocker": self._purge_dead_codes(self._unlocker_code),
            "writer": self._purge_dead_codes(self._writer_code),
            "reader": self._purge_dead_codes(self._reader_code),
        }
        for var in list(self._reader_index):
            index = self._reader_index[var]
            index.intersection_update(
                tid for tid in index if (var, tid) in self._reader_code
            )
            if not index:
                del self._reader_index[var]
        return dropped

    def _purge_dead_codes(self, table: dict) -> int:
        dead = [
            key for key, code in table.items()
            if self.pool.decode(code) is None
        ]
        for key in dead:
            del table[key]
        return len(dead)

    # --------------------------------------------------------------- extras
    @property
    def slots_in_use(self) -> int:
        """Live node slots (diagnostics; bounded by GC like max-alive)."""
        return self.pool.slots_in_use

    def state_codes(self) -> dict[str, int]:
        """Sizes of the packed state maps (memory diagnostics)."""
        return {
            "last": len(self._last_code),
            "unlocker": len(self._unlocker_code),
            "writer": len(self._writer_code),
            "reader": len(self._reader_code),
        }


def encode_step_for(backend: VelodromeCompact, node: TxNode, timestamp: int) -> int:
    """Pack an explicit (node, timestamp) pair with the backend's pool.

    Test helper mirroring the paper's description of step codes.
    """
    return backend.pool.encode(Step(node, timestamp))
