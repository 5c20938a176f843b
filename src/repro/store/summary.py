"""Per-block summaries: what a VTRC block touches, without decoding it.

A :class:`BlockSummary` is the wire-level digest a v2 writer computes
while flushing each block — the tid set, the op-kind histogram, and a
per-target footprint (which variables/locks the block reads, writes,
acquires, releases, in first-touch order).  Readers of v2 files get
every summary from the trailing index for free; for v1 files the same
record is reconstructed lazily from a full decode of the block
(:meth:`repro.store.reader.PackedTraceReader.block_summary`).

Summaries are informational: ``repro trace info --summaries`` renders
them, and no analysis reads them (every block is decoded and replayed
op by op).  A *foldable* summary also records the result of a tiny
abstract replay run at write time, enough to apply the block as one
batched state update with bit-identical state:

* every step a merged outside-transaction run produces lives on the
  thread's current node ``N`` at some timestamp ``L(t).timestamp + k``;
* the integer machine below tracks only those ``k`` offsets: a release
  advances ``k`` by one, a write jumps ``k`` back to the step of the
  variable's latest in-block read (else its latest in-block write),
  reads and acquires leave ``k`` alone;
* the summary records, per target, the final ``k`` of its reader /
  writer / unlocker entry plus the in-block offset of its first touch
  (weak-map insertion order is part of backend state).

A summary is ``foldable`` only for single-tid blocks containing no
``begin``/``end`` markers; everything else still gets a footprint and
histogram (``repro trace info`` renders them) with ``foldable=False``.

The histogram is ordered exactly like the on-disk op-kind codes
(:data:`repro.store.codec.KIND_CODES`); ``tests/test_store.py`` pins
the alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.events.operations import Operation, OpKind
from repro.store.format import (
    StoreError,
    read_varint,
    unzigzag,
    write_varint,
    zigzag,
)

#: Histogram slot order; must match ``repro.store.codec.KIND_CODES``.
HISTOGRAM_KINDS: tuple[OpKind, ...] = (
    OpKind.READ,
    OpKind.WRITE,
    OpKind.ACQUIRE,
    OpKind.RELEASE,
    OpKind.BEGIN,
    OpKind.END,
)
_KIND_SLOT = {kind: slot for slot, kind in enumerate(HISTOGRAM_KINDS)}

_FLAG_FOLDABLE = 0x01

_FP_READ = 0x01
_FP_WRITTEN = 0x02
_FP_ACQUIRED = 0x04
_FP_RELEASED = 0x08
_FP_FIRST_ACCESS_WRITE = 0x10


@dataclass(frozen=True, slots=True)
class TargetFootprint:
    """One variable or lock touched by a block.

    The ``first_*`` fields are in-block operation offsets (position of
    the first read / write / release of the target inside the block);
    the ``*_k`` fields are the timestamp offsets the fold machine
    computed (see module docstring).  ``-1`` marks an absent offset.
    """

    name: str
    read: bool = False
    written: bool = False
    acquired: bool = False
    released: bool = False
    #: For variables: the first access was a write (no prior in-block
    #: read).  Folding such a block needs the pre-block reader/writer
    #: entries to be provably inert.
    first_access_write: bool = False
    first_read: int = -1
    read_k: int = 0
    first_write: int = -1
    write_k: int = 0
    #: Fold-machine ``k`` just before the first write of a
    #: first-access-write variable (the merge at that write picks the
    #: thread's last step only if nothing older is live).
    write_pre_k: int = 0
    first_release: int = -1
    release_k: int = 0

    @property
    def is_variable(self) -> bool:
        return self.read or self.written

    @property
    def is_lock(self) -> bool:
        return self.acquired or self.released


@dataclass(frozen=True, slots=True)
class BlockSummary:
    """Digest of one packed block; see the module docstring."""

    number: int
    first_seq: int
    op_count: int
    tids: tuple[int, ...]
    #: Op-kind counts in :data:`HISTOGRAM_KINDS` order.
    histogram: tuple[int, int, int, int, int, int]
    #: True iff the fold machine ran and its ``k`` offsets are valid.
    foldable: bool
    #: Final / maximal timestamp offset of the thread's last step.
    last_k: int = 0
    max_k: int = 0
    targets: tuple[TargetFootprint, ...] = ()

    @property
    def last_seq(self) -> int:
        return self.first_seq + self.op_count - 1

    @property
    def reads(self) -> int:
        return self.histogram[0]

    @property
    def writes(self) -> int:
        return self.histogram[1]

    @property
    def acquires(self) -> int:
        return self.histogram[2]

    @property
    def releases(self) -> int:
        return self.histogram[3]

    @property
    def begins(self) -> int:
        return self.histogram[4]

    @property
    def ends(self) -> int:
        return self.histogram[5]

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.targets if t.is_variable)

    @property
    def locks(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.targets if t.is_lock)


class _Footprint:
    """Mutable builder for one :class:`TargetFootprint`."""

    __slots__ = (
        "name", "read", "written", "acquired", "released",
        "first_access_write", "first_read", "read_k", "first_write",
        "write_k", "write_pre_k", "first_release", "release_k",
    )

    def __init__(self, name: str):
        self.name = name
        self.read = self.written = self.acquired = self.released = False
        self.first_access_write = False
        self.first_read = self.first_write = self.first_release = -1
        self.read_k = self.write_k = self.write_pre_k = self.release_k = 0

    def freeze(self) -> TargetFootprint:
        return TargetFootprint(
            name=self.name,
            read=self.read,
            written=self.written,
            acquired=self.acquired,
            released=self.released,
            first_access_write=self.first_access_write,
            first_read=self.first_read,
            read_k=self.read_k,
            first_write=self.first_write,
            write_k=self.write_k,
            write_pre_k=self.write_pre_k,
            first_release=self.first_release,
            release_k=self.release_k,
        )


def summarize_ops(
    ops: Sequence[Operation], first_seq: int, number: int = 0
) -> BlockSummary:
    """Compute the summary a v2 writer stores for this block.

    This is the single source of truth: the writer calls it at flush
    time and the reader calls it to reconstruct summaries for v1 files,
    so both paths agree byte for byte.
    """
    histogram = [0, 0, 0, 0, 0, 0]
    tids: dict[int, None] = {}
    entries: dict[str, _Footprint] = {}
    for offset, op in enumerate(ops):
        histogram[_KIND_SLOT[op.kind]] += 1
        tids[op.tid] = None
        target = op.target
        if target is None:
            continue
        fp = entries.get(target)
        if fp is None:
            fp = entries[target] = _Footprint(target)
        kind = op.kind
        if kind is OpKind.READ:
            if not fp.read:
                fp.read = True
                fp.first_read = offset
        elif kind is OpKind.WRITE:
            if not fp.written:
                fp.written = True
                fp.first_write = offset
                fp.first_access_write = not fp.read
        elif kind is OpKind.ACQUIRE:
            fp.acquired = True
        elif kind is OpKind.RELEASE:
            fp.released = True
            if fp.first_release < 0:
                fp.first_release = offset

    foldable = (
        len(ops) > 0
        and len(tids) == 1
        and histogram[4] == 0  # begin
        and histogram[5] == 0  # end
    )
    last_k = max_k = 0
    if foldable:
        # The fold machine: replay the block over timestamp offsets
        # only.  Mirrors the merged outside-transaction rules of
        # repro.core.optimized (reads/acquires merge to the last step,
        # releases advance it, writes jump it back to the variable's
        # latest in-block reader/writer step).
        read_in_block: set[str] = set()
        written_in_block: set[str] = set()
        for op in ops:
            kind = op.kind
            fp = entries[op.target]
            if kind is OpKind.READ:
                fp.read_k = last_k
                read_in_block.add(op.target)
            elif kind is OpKind.WRITE:
                if op.target in read_in_block:
                    last_k = fp.read_k
                elif op.target in written_in_block:
                    last_k = fp.write_k
                else:
                    # First in-block touch of a first-access-write
                    # variable: the merge keeps the last step.
                    fp.write_pre_k = last_k
                fp.write_k = last_k
                written_in_block.add(op.target)
            elif kind is OpKind.RELEASE:
                last_k += 1
                if last_k > max_k:
                    max_k = last_k
                fp.release_k = last_k
            # ACQUIRE merges into the last step; nothing moves.
    return BlockSummary(
        number=number,
        first_seq=first_seq,
        op_count=len(ops),
        tids=tuple(sorted(tids)),
        histogram=tuple(histogram),  # type: ignore[arg-type]
        foldable=foldable,
        last_k=last_k,
        max_k=max_k,
        targets=tuple(fp.freeze() for fp in entries.values()),
    )


# ------------------------------------------------------------- wire codec
# Summaries live in the v2 trailing index, after the v1-compatible
# [comp_len, op_count, crc] triplets: a file-level interned string
# table for target names, then one record per block.  ``number``,
# ``first_seq`` and ``op_count`` are not re-encoded — the reader
# already knows them from the triplets.

def encode_summary(
    out: bytearray, summary: BlockSummary, intern: Callable[[str], int]
) -> None:
    """Append one summary record to the index buffer."""
    out.append(_FLAG_FOLDABLE if summary.foldable else 0)
    write_varint(out, len(summary.tids))
    previous = 0
    for tid in summary.tids:
        write_varint(out, zigzag(tid - previous))
        previous = tid
    for count in summary.histogram:
        write_varint(out, count)
    write_varint(out, summary.last_k)
    write_varint(out, summary.max_k)
    write_varint(out, len(summary.targets))
    for fp in summary.targets:
        write_varint(out, intern(fp.name))
        flags = (
            (_FP_READ if fp.read else 0)
            | (_FP_WRITTEN if fp.written else 0)
            | (_FP_ACQUIRED if fp.acquired else 0)
            | (_FP_RELEASED if fp.released else 0)
            | (_FP_FIRST_ACCESS_WRITE if fp.first_access_write else 0)
        )
        out.append(flags)
        if fp.read:
            write_varint(out, fp.first_read)
            write_varint(out, fp.read_k)
        if fp.written:
            write_varint(out, fp.first_write)
            write_varint(out, fp.write_k)
            write_varint(out, fp.write_pre_k)
        if fp.released:
            write_varint(out, fp.first_release)
            write_varint(out, fp.release_k)


def decode_summary(
    data: bytes,
    pos: int,
    strings: Sequence[str],
    number: int,
    first_seq: int,
    op_count: int,
) -> tuple[BlockSummary, int]:
    """Parse one summary record; returns (summary, next_pos)."""
    if pos >= len(data):
        raise StoreError("truncated block summary")
    flags = data[pos]
    pos += 1
    n_tids, pos = read_varint(data, pos)
    tids = []
    tid = 0
    for _ in range(n_tids):
        delta, pos = read_varint(data, pos)
        tid += unzigzag(delta)
        tids.append(tid)
    histogram = []
    for _ in range(6):
        count, pos = read_varint(data, pos)
        histogram.append(count)
    last_k, pos = read_varint(data, pos)
    max_k, pos = read_varint(data, pos)
    n_targets, pos = read_varint(data, pos)
    targets = []
    for _ in range(n_targets):
        ref, pos = read_varint(data, pos)
        if not 1 <= ref <= len(strings):
            raise StoreError(
                f"summary string reference {ref} out of range"
            )
        if pos >= len(data):
            raise StoreError("truncated footprint flags")
        fp_flags = data[pos]
        pos += 1
        first_read, read_k = -1, 0
        first_write, write_k, write_pre_k = -1, 0, 0
        first_release, release_k = -1, 0
        if fp_flags & _FP_READ:
            first_read, pos = read_varint(data, pos)
            read_k, pos = read_varint(data, pos)
        if fp_flags & _FP_WRITTEN:
            first_write, pos = read_varint(data, pos)
            write_k, pos = read_varint(data, pos)
            write_pre_k, pos = read_varint(data, pos)
        if fp_flags & _FP_RELEASED:
            first_release, pos = read_varint(data, pos)
            release_k, pos = read_varint(data, pos)
        targets.append(TargetFootprint(
            name=strings[ref - 1],
            read=bool(fp_flags & _FP_READ),
            written=bool(fp_flags & _FP_WRITTEN),
            acquired=bool(fp_flags & _FP_ACQUIRED),
            released=bool(fp_flags & _FP_RELEASED),
            first_access_write=bool(fp_flags & _FP_FIRST_ACCESS_WRITE),
            first_read=first_read,
            read_k=read_k,
            first_write=first_write,
            write_k=write_k,
            write_pre_k=write_pre_k,
            first_release=first_release,
            release_k=release_k,
        ))
    return BlockSummary(
        number=number,
        first_seq=first_seq,
        op_count=op_count,
        tids=tuple(tids),
        histogram=tuple(histogram),  # type: ignore[arg-type]
        foldable=bool(flags & _FLAG_FOLDABLE),
        last_k=last_k,
        max_k=max_k,
        targets=tuple(targets),
    ), pos
