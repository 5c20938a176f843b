"""Spans around the layer boundaries, recorded from outside the program.

The benchmark never edits the code it measures.  A :class:`Tracer`
replaces a public function or method with a wrapper that records one
span per call -- name, start, end, parent span, run id, and an
optional key such as a stream id -- keeps every span in memory, and
restores the original on :meth:`Tracer.uninstall`.  Spans go to disk
only when the run ends (:meth:`Tracer.dump`).

Hot per-event methods are not spanned: a span per event would cost
more than the work.  :meth:`Tracer.accumulate` instead adds each
call's duration to a named total and charges it to the enclosing span
as child time, so that span's self time still excludes it.

Self time of a span is its duration minus the time its child spans
(and accumulated children) cover.  A layer's time is the sum of the
self times of the spans that carry its name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

#: Every process of one run reads the same clock, so spans from the
#: daemon and stamps from the load generator line up.
clock = time.monotonic

_MISSING = object()


def peak_rss_kb() -> int:
    """This process's peak resident set size, in KiB.

    Read from ``VmHWM``, the high-water mark of the process's own
    address space.  ``getrusage`` would fold in the parent's peak
    when the process was started by fork and exec, and the parent is
    the one holding the recorded traces.
    """
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


# Span record fields (lists, not objects: a traced pass makes ~10^4).
ID, NAME, START, END, PARENT, KEY = range(6)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: span id -> {name: accumulated child time charged to it}.
        self._charged: dict[int, dict[str, float]] = {}
        #: name -> accumulated time spent outside any span.
        self._uncharged: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers
    def span(
        self,
        owner,
        attr: str,
        name,
        key: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Record one span per call of ``owner.attr``.

        ``name`` is a string or ``name(args) -> str``; ``key(args,
        result)`` labels the span (e.g. with a stream id);
        ``after(args, result)`` runs once the span has closed, to
        record counts.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            label = name if isinstance(name, str) else name(args)
            record = [span_id, label, clock(), None,
                      stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if key is not None:
                record[KEY] = key(args, result)
            if after is not None:
                after(args, result)
            return result

        self._patch(owner, attr, traced)

    def accumulate(self, owner, attr: str, name: str) -> None:
        """Add each call's duration to ``name`` without a span."""
        original = getattr(owner, attr)
        charged, uncharged, stack = (
            self._charged, self._uncharged, self._stack
        )

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                if stack:
                    bucket = charged.setdefault(stack[-1], {})
                    bucket[name] = bucket.get(name, 0.0) + elapsed
                else:
                    uncharged[name] += elapsed

        self._patch(owner, attr, timed)

    def _patch(self, owner, attr: str, replacement) -> None:
        own = owner.__dict__.get(attr, _MISSING) if isinstance(
            owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)   # it was inherited
            else:
                setattr(owner, attr, original)

    # -------------------------------------------------------------- results
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def layer_times(self) -> dict[str, float]:
        """Span name -> summed self time, plus accumulated totals."""
        return layer_times(self.spans, self._charged, self._uncharged)

    def document(self) -> dict:
        """Spans, counts, and accumulated time as one JSON-able dict."""
        return {
            "run_id": self.run_id,
            "span_fields": ["id", "name", "start", "end", "parent", "key"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "charged": {str(k): v for k, v in self._charged.items()},
            "uncharged": dict(self._uncharged),
        }

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write the run's spans and counts when the run ends."""
        document = self.document()
        document.update(extra or {})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")


def load_charged(document: dict) -> dict[int, dict[str, float]]:
    """The ``charged`` map of a dumped document, with int span ids."""
    return {int(k): v for k, v in document["charged"].items()}


def self_times(spans: list, charged: dict) -> dict[int, float]:
    """span id -> duration minus child spans and accumulated time."""
    own = {
        record[ID]: record[END] - record[START]
        - sum(charged.get(record[ID], {}).values())
        for record in spans
    }
    for record in spans:
        parent = record[PARENT]
        if parent in own:
            own[parent] -= record[END] - record[START]
    return own


def layer_times(
    spans: list, charged: dict, uncharged: Optional[dict] = None
) -> dict[str, float]:
    """Name -> summed self time of ``spans``, plus the accumulated time
    charged to them (and ``uncharged`` totals, for a whole run)."""
    own = self_times(spans, charged)
    layers: dict[str, float] = defaultdict(float)
    for record in spans:
        layers[record[NAME]] += own[record[ID]]
        for name, total in charged.get(record[ID], {}).items():
            layers[name] += total
    for name, total in (uncharged or {}).items():
        layers[name] += total
    return dict(layers)
