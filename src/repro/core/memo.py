"""Region memoization: certify a repeated transaction once, apply many.

Production traces are dominated by near-identical transaction-bounded
regions — the same request handler replayed endlessly by millions of
users.  Each occurrence is expensive to replay op by op, yet the *shape*
of the region (its operation kinds, targets, and labels, with thread
ids and values abstracted away) repeats almost verbatim.  This module
exploits that repetition:

* :func:`region_key` canonicalizes a transaction-bounded run of
  operations — one thread, from its outermost ``begin`` to the matching
  ``end`` — into a hashable shape, abstracting the thread id and the
  recorded values (no analysis consults values, and every backend takes
  the acting thread as a parameter when a summary is applied);
* :func:`summarize_region` derives a :class:`RegionSummary`: the static
  per-variable and per-lock access footprint (first/last offsets of
  each kind) that a backend needs to (a) check its *dynamic*
  preconditions against live analysis state and (b) write the region's
  final state directly — see
  :meth:`~repro.core.backend.AnalysisBackend.apply_region_summary`;
* :class:`RegionMemo` is the bounded LRU table mapping region keys to
  summaries, with exact hit/miss/eviction counters (``--stats``,
  ``/metrics``);
* :class:`RegionAssembler` sits in front of an event sink and tracks
  each transaction-bounded region as it streams by: the first
  occurrences of a shape are *certified* (streamed through to the sink
  while recorded on the side, then summarized — the ground-truth pass),
  and later occurrences are held back and *offered* to the backends as
  a summary, falling back to replay whenever a backend's preconditions
  do not hold.

Soundness does not rest on the memo: summaries are static facts about
the operation sequence, every application re-checks its preconditions
against the backend's current state, and any doubt declines into the
ordinary op-by-op replay.  The memoization is gated end to end by
``repro.fuzz.memogate`` (verdict, first warning, and state-snapshot
identity across the full ablation grid).
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.events.operations import Operation, OpKind

#: A region longer than this is not worth buffering: flush and replay.
MAX_REGION_OPS = 4096

#: A region shorter than this is not worth memoizing: applying a
#: summary has a fixed cost (key, lookup, node setup) comparable to
#: replaying a handful of operations, so tiny regions would be *slower*
#: from cache.  Below the threshold the assembler replays immediately —
#: no key is built, no counter moves.  ``RegionMemo(min_ops=0)`` lifts
#: the threshold (the equivalence gate does, to cover small shapes).
MIN_REGION_OPS = 8

#: Default LRU capacity of a :class:`RegionMemo` (``--memo-max``).
DEFAULT_MEMO_MAX = 1024


# --------------------------------------------------------------- summaries
@dataclass(frozen=True, slots=True)
class VarUse:
    """One shared variable's access footprint inside a region.

    Offsets index into the region's operation list (the ``begin`` is
    offset 0, so no access ever has offset 0); ``None`` means the
    region performs no access of that kind.
    """

    name: str
    first_read: Optional[int] = None
    last_read: Optional[int] = None
    first_write: Optional[int] = None
    last_write: Optional[int] = None

    @property
    def read(self) -> bool:
        return self.first_read is not None

    @property
    def written(self) -> bool:
        return self.first_write is not None

    @property
    def read_before_write(self) -> bool:
        """True iff the region's first access to this variable reads it."""
        return self.first_read is not None and (
            self.first_write is None or self.first_read < self.first_write
        )

    @property
    def reads_last(self) -> bool:
        """True iff the region's last access to this variable reads it."""
        return self.last_read is not None and (
            self.last_write is None or self.last_read > self.last_write
        )


@dataclass(frozen=True, slots=True)
class LockUse:
    """One lock's footprint inside a region (offsets as in VarUse)."""

    name: str
    first_acquire: Optional[int] = None
    first_release: Optional[int] = None
    last_release: Optional[int] = None

    @property
    def acquired_before_release(self) -> bool:
        """True iff an acquire precedes every release (or none exists).

        Such an acquire consults the *pre-region* unlocker state; an
        acquire after an in-region release only sees the region's own
        step and constrains nothing outside it.
        """
        return self.first_acquire is not None and (
            self.first_release is None
            or self.first_acquire < self.first_release
        )


@dataclass(frozen=True, slots=True)
class RegionSummary:
    """The static footprint of one transaction-bounded region.

    A pure function of the operation sequence (see
    :func:`summarize_region`) — it contains nothing about analysis
    state, which is why one summary can be applied to any backend at
    any later occurrence of the same shape.

    Attributes:
        op_count: operations in the region, markers included.
        label: the outermost ``begin``'s atomic-block label.
        vars: per-variable footprints, in first-touch order.
        locks: per-lock footprints, in first-touch order.
        stores: the graph family's store plan — ``(kind, name,
            final_offset)`` triples, ``kind`` one of ``"r"``/``"w"``/
            ``"u"`` (reader/writer/unlocker), ordered by the offset at
            which an op-by-op replay would first create the entry
            (weak-map insertion order is observable state).
    """

    op_count: int
    label: Optional[str]
    vars: tuple[VarUse, ...]
    locks: tuple[LockUse, ...]
    stores: tuple[tuple[str, str, int], ...]


def summarize_region(ops: Sequence[Operation]) -> RegionSummary:
    """Compute the :class:`RegionSummary` of a region's operations.

    ``ops`` must be one thread's transaction-bounded run: it starts
    with a ``begin``, every operation is by the same thread, and the
    block nesting depth returns to zero exactly at the last operation.
    Raises ``ValueError`` on any other shape.
    """
    if not ops or ops[0].kind is not OpKind.BEGIN:
        raise ValueError("a region starts with a begin operation")
    tid = ops[0].tid
    depth = 0
    var_uses: dict[str, dict[str, int]] = {}
    lock_uses: dict[str, dict[str, int]] = {}
    order: list[tuple[int, str, str, str]] = []  # (first offset, kind, name)
    for offset, op in enumerate(ops):
        if op.tid != tid:
            raise ValueError("a region belongs to a single thread")
        kind = op.kind
        if kind is OpKind.BEGIN:
            depth += 1
        elif kind is OpKind.END:
            depth -= 1
            if depth < 0:
                raise ValueError("end without begin inside a region")
            if depth == 0 and offset != len(ops) - 1:
                raise ValueError("region closes before its last operation")
        elif kind is OpKind.READ:
            use = var_uses.setdefault(op.target, {})
            if "first_read" not in use:
                use["first_read"] = offset
                order.append((offset, "r", op.target))
            use["last_read"] = offset
        elif kind is OpKind.WRITE:
            use = var_uses.setdefault(op.target, {})
            if "first_write" not in use:
                use["first_write"] = offset
                order.append((offset, "w", op.target))
            use["last_write"] = offset
        elif kind is OpKind.ACQUIRE:
            use = lock_uses.setdefault(op.target, {})
            if "first_acquire" not in use:
                use["first_acquire"] = offset
        elif kind is OpKind.RELEASE:
            use = lock_uses.setdefault(op.target, {})
            if "first_release" not in use:
                use["first_release"] = offset
                order.append((offset, "u", op.target))
            use["last_release"] = offset
    if depth != 0:
        raise ValueError("region ends with open atomic blocks")
    final = {
        "r": {name: use["last_read"] for name, use in var_uses.items()
              if "last_read" in use},
        "w": {name: use["last_write"] for name, use in var_uses.items()
              if "last_write" in use},
        "u": {name: use["last_release"] for name, use in lock_uses.items()
              if "last_release" in use},
    }
    return RegionSummary(
        op_count=len(ops),
        label=ops[0].label,
        vars=tuple(
            VarUse(name, **use) for name, use in var_uses.items()
        ),
        locks=tuple(
            LockUse(name, **use) for name, use in lock_uses.items()
        ),
        stores=tuple(
            (kind, name, final[kind][name])
            for _, kind, name in sorted(order)
        ),
    )


# ------------------------------------------------------------ canonical keys
def region_key(ops: Sequence[Operation]) -> tuple:
    """The hashable canonical shape of a region.

    Thread ids and values are abstracted away: no analysis consults
    recorded values, and the acting thread is supplied separately when
    a memoized summary is applied.  Two regions with equal keys have
    identical summaries and identical per-backend effects (given the
    acting thread and the backend's entry state).

    The shape is a *flat* tuple — three slots per operation (kind code,
    target, label) — of strings and ``None``, so hashing and equality
    stay entirely in C; ``OpKind`` members hash through a Python-level
    ``__hash__`` and would dominate the lookup cost on hot paths
    (``kind._value_`` reads the member's plain attribute and skips the
    ``DynamicClassAttribute`` descriptor of ``.value`` for the same
    reason).
    """
    key: list = []
    extend = key.extend
    for op in ops:
        extend((op.kind._value_, op.target, op.label))
    return tuple(key)


def region_digest(ops: Sequence[Operation]) -> str:
    """A short stable digest of a region's canonical shape.

    Used for display (``repro trace info --regions``) and triage; the
    hot path keys the memo table on :func:`region_key` directly and
    never hashes.
    """
    canonical = [
        [op.kind.value, op.target, op.label] for op in ops
    ]
    payload = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------- the memo
class RegionMemo:
    """Bounded LRU table: region key -> :class:`RegionSummary`.

    Summarization is deferred: the first occurrence of a shape records
    only the sentinel :data:`PENDING` (one dict slot, no footprint
    walk), and the *second* occurrence pays for the summary — so traces
    whose regions never repeat get close to zero memo overhead, and the
    one extra replay on repeating shapes is noise against their Nth
    occurrence being applied from cache.

    ``max_entries == 0`` disables storage entirely — every lookup
    misses, nothing is retained, nothing is evicted — which is how
    ``--memo-max 0`` turns the feature into (almost) a no-op while
    keeping the code path exercised.

    Counters are exact: every completed region at or above ``min_ops``
    is one lookup — a hit iff it returned a cached summary (the
    occurrence can be applied instead of replayed), a miss otherwise —
    and every capacity overflow is one eviction.  Regions below
    ``min_ops`` (see :data:`MIN_REGION_OPS`) bypass the memo entirely
    and move no counter.

    ``promising`` holds the begin-op prefixes (the first three slots of
    a region key) of every summarized shape: the assembler streams
    first occurrences straight through and only *holds back* a region
    whose ``begin`` matches a promising prefix — the one case a cached
    summary could be applied.  :meth:`insert` promotes the prefix, so a
    pre-warmed table applies from the very first occurrence.
    """

    #: Sentinel ``lookup`` result: the shape has been seen before but
    #: not summarized yet — summarize now and :meth:`insert`.
    PENDING = object()

    def __init__(
        self,
        max_entries: int = DEFAULT_MEMO_MAX,
        min_ops: int = MIN_REGION_OPS,
    ):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        if min_ops < 0:
            raise ValueError("min_ops must be >= 0")
        self.max_entries = max_entries
        self.min_ops = min_ops
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.promising: set[tuple] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        """Current keys, least recently used first (for tests)."""
        return list(self._entries)

    def lookup(self, key: tuple):
        """The cached summary for ``key``, counting a hit or a miss.

        Returns the :class:`RegionSummary` (a hit), :data:`PENDING`
        (seen once, unsummarized — a miss), or ``None`` (never seen —
        a miss).  The first-occurrence sentinel is recorded here, so a
        plain miss needs no second call.
        """
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            if self.max_entries:
                if len(entries) >= self.max_entries:
                    entries.popitem(last=False)
                    self.evictions += 1
                entries[key] = RegionMemo.PENDING
            return None
        entries.move_to_end(key)
        if entry is RegionMemo.PENDING:
            self.misses += 1
            return RegionMemo.PENDING
        self.hits += 1
        return entry

    def observe(self, key: tuple):
        """Record a completed occurrence that was already replayed.

        The stream-through path delivers a region's operations as they
        arrive, so by completion nothing can be applied — the occurrence
        always counts as a miss.  Returns :data:`PENDING` when the
        caller should summarize-and-insert now (second occurrence), the
        cached summary when one already exists (a pre-warmed table whose
        prefix promotion was lost — re-promoted here), or ``None``.
        """
        self.misses += 1
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            if self.max_entries:
                if len(entries) >= self.max_entries:
                    entries.popitem(last=False)
                    self.evictions += 1
                entries[key] = RegionMemo.PENDING
            return None
        entries.move_to_end(key)
        if entry is not RegionMemo.PENDING:
            self.promising.add(key[:3])
        return entry

    def insert(self, key: tuple, summary: RegionSummary) -> None:
        """Remember ``summary``, evicting the LRU entry on overflow.

        Also promotes the shape's begin prefix to ``promising`` so the
        assembler holds back — and can apply — later occurrences.  The
        prefix set is auxiliary (a stale prefix only costs a buffered
        replay) and self-healing, so on pathological growth it is
        simply cleared and rebuilt by later promotions.
        """
        if self.max_entries == 0:
            return
        promising = self.promising
        if len(promising) >= max(64, 4 * self.max_entries):
            promising.clear()
        promising.add(key[:3])
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = summary
            return
        if len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = summary

    def stats(self) -> dict[str, int]:
        """The counter snapshot reported by ``--stats`` / ``/metrics``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }


# ------------------------------------------------------------- the assembler
class RegionAssembler:
    """Assemble transaction-bounded regions out of an event stream.

    Sits in front of an event sink.  Operations outside regions pass
    straight through ``process_op``.  A ``begin`` opens a region, and
    the assembler handles it in one of two modes:

    * **stream-through** (the default): operations are delivered to
      ``process_op`` *immediately* and recorded on the side; when the
      nesting depth returns to zero the completed recording is
      :meth:`RegionMemo.observe`-d — the first occurrence of a shape
      records only that it was seen (:data:`RegionMemo.PENDING`), the
      second pays for the summary (so shapes that never repeat never
      pay for one, and no operation is ever handled twice);
    * **hold-back**: when the ``begin`` matches a *promising* prefix
      (the shape — or a sibling sharing its ``begin`` — has a certified
      summary), operations are buffered unseen by the sink, and the
      completed region's cached summary is delivered through
      ``process_region(ops, summary)`` — the caller offers it to its
      backends and replays for any that decline (or on a memo miss).

    Region contiguity is what makes a summary applicable — an
    interleaved operation of another thread could change the very state
    the summary's preconditions were checked against — so an
    interleaving operation abandons a recording (its operations already
    reached the sink) and drains a hold-back buffer through
    ``process_op`` in order; either way the downstream sink observes
    the exact input stream.  Over-long regions (:data:`MAX_REGION_OPS`)
    and :meth:`flush` do the same.
    """

    __slots__ = (
        "_process_op", "_process_region", "memo", "max_ops",
        "_buffer", "_tid", "_depth", "_rec", "_rec_tid", "_rec_depth",
    )

    def __init__(
        self,
        process_op: Callable[[Operation], None],
        process_region: Callable[[list, RegionSummary], None],
        memo: RegionMemo,
        max_ops: int = MAX_REGION_OPS,
    ):
        self._process_op = process_op
        self._process_region = process_region
        self.memo = memo
        self.max_ops = max_ops
        # Both lists live for the assembler's lifetime (cleared, never
        # rebound): a non-empty buffer/recording IS the mode flag, and
        # the stable identity lets :meth:`process_many` hold locals.
        self._buffer: list[Operation] = []
        self._tid: Optional[int] = None
        self._depth = 0
        self._rec: list[Operation] = []
        self._rec_tid: Optional[int] = None
        self._rec_depth = 0

    @property
    def buffering(self) -> bool:
        """True while a region is being held back *or* recorded.

        While set, held-back operations have not reached the backends
        yet, or an in-flight recording expects every further
        operation of its thread.
        """
        return bool(self._buffer) or bool(self._rec)

    def process(
        self,
        op: Operation,
        # Default-argument bindings: enum member lookups are two loads
        # (module global, then class attribute) and this runs per event.
        _BEGIN=OpKind.BEGIN,
        _END=OpKind.END,
        _BEGIN_CODE=OpKind.BEGIN._value_,
    ) -> None:
        buffer = self._buffer
        if buffer:
            if op.tid == self._tid:
                buffer.append(op)
                kind = op.kind
                if kind is _END:
                    self._depth -= 1
                    if self._depth == 0:
                        self._complete()
                        return
                elif kind is _BEGIN:
                    self._depth += 1
                if len(buffer) >= self.max_ops:
                    self.flush()
                return
            self.flush()
        else:
            rec = self._rec
            if rec:
                if op.tid == self._rec_tid:
                    rec.append(op)
                    kind = op.kind
                    if kind is _END:
                        self._rec_depth -= 1
                        if self._rec_depth == 0:
                            self._process_op(op)
                            self._observe()
                            return
                    elif kind is _BEGIN:
                        self._rec_depth += 1
                    elif len(rec) >= self.max_ops:
                        # Too long to memoize; the operations already
                        # reached the sink, so just stop recording.
                        rec.clear()
                    self._process_op(op)
                    return
                # Another thread interleaved: the region is not
                # contiguous, so its shape could never be applied from
                # cache anyway.
                rec.clear()
        kind = op.kind
        if kind is _BEGIN:
            if (_BEGIN_CODE, op.target, op.label) in self.memo.promising:
                self._buffer.append(op)
                self._tid = op.tid
                self._depth = 1
                return
            self._rec.append(op)
            self._rec_tid = op.tid
            self._rec_depth = 1
        self._process_op(op)

    __call__ = process

    def process_many(
        self,
        ops: Iterable[Operation],
        _BEGIN=OpKind.BEGIN,
        _END=OpKind.END,
        _BEGIN_CODE=OpKind.BEGIN._value_,
    ) -> int:
        """Process a whole operation iterable; returns the count.

        Semantically ``for op in ops: self.process(op)``, but the
        per-operation dispatch runs inside one frame with the hot state
        in locals — sources that hold a full operation list (see
        :class:`~repro.pipeline.source.TraceSource`) shave a Python
        call per event, which is most of the memo layer's overhead on
        streams that never repeat.
        """
        process_op = self._process_op
        buffer = self._buffer
        rec = self._rec
        promising = self.memo.promising
        max_ops = self.max_ops
        count = 0
        for op in ops:
            count += 1
            if buffer:
                if op.tid == self._tid:
                    buffer.append(op)
                    kind = op.kind
                    if kind is _END:
                        self._depth -= 1
                        if self._depth == 0:
                            self._complete()
                            continue
                    elif kind is _BEGIN:
                        self._depth += 1
                    if len(buffer) >= max_ops:
                        self.flush()
                    continue
                self.flush()
            elif rec:
                if op.tid == self._rec_tid:
                    rec.append(op)
                    kind = op.kind
                    if kind is _END:
                        self._rec_depth -= 1
                        if self._rec_depth == 0:
                            process_op(op)
                            self._observe()
                            continue
                    elif kind is _BEGIN:
                        self._rec_depth += 1
                    elif len(rec) >= max_ops:
                        rec.clear()
                    process_op(op)
                    continue
                rec.clear()
            kind = op.kind
            if kind is _BEGIN:
                if (_BEGIN_CODE, op.target, op.label) in promising:
                    buffer.append(op)
                    self._tid = op.tid
                    self._depth = 1
                    continue
                rec.append(op)
                self._rec_tid = op.tid
                self._rec_depth = 1
            process_op(op)
        return count

    def flush(self) -> None:
        """Drain any held-back operations through ``process_op``."""
        buffer = self._buffer
        if not buffer:
            return
        ops = buffer[:]
        buffer.clear()
        self._depth = 0
        process = self._process_op
        for op in ops:
            process(op)

    def _observe(self) -> None:
        """Account a completed stream-through recording with the memo."""
        rec = self._rec
        memo = self.memo
        if len(rec) >= memo.min_ops:
            key = region_key(rec)
            if memo.observe(key) is RegionMemo.PENDING:
                # Second occurrence: pay for the summary now; the
                # insert promotes the prefix, so the third occurrence
                # on is held back and applied.
                memo.insert(key, summarize_region(rec))
        # Regions below min_ops are not even keyed.
        rec.clear()

    def _complete(self) -> None:
        buffer = self._buffer
        ops = buffer[:]
        buffer.clear()
        self._depth = 0
        memo = self.memo
        if len(ops) < memo.min_ops:
            process = self._process_op
            for op in ops:
                process(op)
            return
        key = region_key(ops)
        summary = memo.lookup(key)
        if summary is None or summary is RegionMemo.PENDING:
            # A sibling shape shares this begin prefix but the region
            # itself has no summary yet: replay, certifying on the
            # second occurrence exactly like the stream-through path.
            if summary is RegionMemo.PENDING:
                memo.insert(key, summarize_region(ops))
            process = self._process_op
            for op in ops:
                process(op)
            return
        self._process_region(ops, summary)


# ----------------------------------------------------------------- triage
@dataclass(frozen=True)
class RegionScan:
    """Repetition statistics of a trace (``repro trace info --regions``).

    ``repeated`` counts region *occurrences* whose shape occurs more
    than once; ``contiguous`` counts occurrences uninterrupted by other
    threads in the global order (the ones the assembler can buffer and
    therefore the ones memoization can accelerate).
    """

    regions: int
    repeated: int
    contiguous: int
    region_events: int
    total_events: int
    top: tuple[tuple[str, int, int, Optional[str]], ...]  # digest, count, ops, label

    @property
    def repetition_ratio(self) -> float:
        """Share of region occurrences that repeat an earlier shape."""
        return self.repeated / self.regions if self.regions else 0.0

    @property
    def region_event_ratio(self) -> float:
        """Share of trace events that sit inside a region."""
        return (
            self.region_events / self.total_events
            if self.total_events else 0.0
        )


def scan_regions(ops: Iterable[Operation], top: int = 10) -> RegionScan:
    """Measure region repetition to predict memoization payoff.

    Walks the trace once, extracting every thread's transaction-bounded
    regions (by that thread's own subsequence, so interleaved regions
    are still recognized) and counting repeated shapes; contiguity in
    the global order is tracked separately since only contiguous
    occurrences can be assembled on the fly.
    """
    open_regions: dict[int, dict] = {}  # tid -> {ops, depth, contiguous}
    shape_counts: dict[tuple, int] = {}
    shape_info: dict[tuple, tuple[str, int, Optional[str]]] = {}
    regions = contiguous = region_events = total_events = 0
    for op in ops:
        total_events += 1
        tid = op.tid
        # Any operation breaks the contiguity of other threads' regions.
        for other_tid, other in open_regions.items():
            if other_tid != tid:
                other["contiguous"] = False
        current = open_regions.get(tid)
        if current is None:
            if op.kind is OpKind.BEGIN:
                open_regions[tid] = {
                    "ops": [op], "depth": 1, "contiguous": True,
                }
            continue
        current["ops"].append(op)
        if op.kind is OpKind.BEGIN:
            current["depth"] += 1
        elif op.kind is OpKind.END:
            current["depth"] -= 1
            if current["depth"] == 0:
                del open_regions[tid]
                region_ops = current["ops"]
                key = region_key(region_ops)
                count = shape_counts.get(key, 0) + 1
                shape_counts[key] = count
                if key not in shape_info:
                    shape_info[key] = (
                        region_digest(region_ops),
                        len(region_ops),
                        region_ops[0].label,
                    )
                regions += 1
                if current["contiguous"]:
                    contiguous += 1
                region_events += len(region_ops)
    repeated = sum(
        count for count in shape_counts.values() if count > 1
    )
    ranked = sorted(
        shape_counts.items(), key=lambda item: (-item[1], shape_info[item[0]][0])
    )
    return RegionScan(
        regions=regions,
        repeated=repeated,
        contiguous=contiguous,
        region_events=region_events,
        total_events=total_events,
        top=tuple(
            (shape_info[key][0], count, shape_info[key][1], shape_info[key][2])
            for key, count in ranked[:top]
        ),
    )


__all__ = [
    "MAX_REGION_OPS",
    "MIN_REGION_OPS",
    "DEFAULT_MEMO_MAX",
    "VarUse",
    "LockUse",
    "RegionSummary",
    "summarize_region",
    "region_key",
    "region_digest",
    "RegionMemo",
    "RegionAssembler",
    "RegionScan",
    "scan_regions",
]
