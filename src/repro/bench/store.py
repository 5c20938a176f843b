"""``repro bench store``: packed-store size and speed measurements.

Produces ``BENCH_store.json`` with four sections:

* **size** — bytes on the wire for the same recording as JSONL and as
  packed VTRC, plus the ratio.  The acceptance floor is 3.0x: packed
  must stay at least three times smaller than JSONL.
* **encode** / **decode** — best-of-N events/sec for each format's
  writer and reader over an in-memory stream (no disk noise).  The
  acceptance floor is a 1.5x decode speedup of packed over JSONL.
* **seek** — how long ``seek(seq)`` to the middle of the recording
  takes versus decoding everything up to that point, and the fraction
  of blocks it touched.

The floors are absolute; the encode/decode events/sec figures are
drift-gated at 30% against the committed baseline.
"""

from __future__ import annotations

import io
import os
import zlib

from repro.bench.harness import Lane, best_of

#: Acceptance floors: packed must be at least this many times smaller
#: than JSONL, and decode at least this many times faster.  These are
#: absolute gates, independent of any baseline.
SIZE_RATIO_FLOOR = 3.0
DECODE_SPEEDUP_FLOOR = 1.5

_STAGE_SEED = 7
_STAGE_COPIES = 40
_STAGE_COPIES_QUICK = 10


def _bench_ops(quick: bool) -> list:
    from repro.fuzz.engine import trace_for_seed

    copies = _STAGE_COPIES_QUICK if quick else _STAGE_COPIES
    return list(trace_for_seed(_STAGE_SEED)) * copies


def measure_store(quick: bool = False) -> dict:
    """The full measurement; returns the ``BENCH_store.json`` dict."""
    from repro.events.serialize import dump_jsonl, load_jsonl
    from repro.store.reader import PackedTraceReader
    from repro.store.writer import PackedTraceWriter

    repeats = 3 if quick else 7
    ops = _bench_ops(quick)
    events = len(ops)

    buffer = io.StringIO()
    dump_jsonl(ops, buffer)
    jsonl_text = buffer.getvalue()
    jsonl_bytes = len(jsonl_text.encode("utf-8"))

    def pack() -> bytes:
        sink = io.BytesIO()
        with PackedTraceWriter(sink) as writer:
            writer.write_all(ops)
        return sink.getvalue()

    packed_blob = pack()
    packed_bytes = len(packed_blob)

    def decode_packed():
        with PackedTraceReader(io.BytesIO(packed_blob)) as reader:
            return reader.read()

    jsonl_encode, jsonl_decode, packed_encode, packed_decode = best_of(
        repeats,
        lambda: dump_jsonl(ops, io.StringIO()),
        lambda: load_jsonl(io.StringIO(jsonl_text)),
        pack,
        decode_packed,
    )

    # Seek to the midpoint: only the containing block onward is read.
    mid = events // 2
    with PackedTraceReader(io.BytesIO(packed_blob)) as reader:
        block = reader.block_for_seq(mid)
        blocks_touched = len(reader.blocks) - block.number

        def seek_tail():
            for _op in reader.seek(mid):
                pass

        seek, = best_of(repeats, seek_tail)

    return {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "zlib": zlib.ZLIB_VERSION,
        "events": events,
        "size": {
            "jsonl_bytes": jsonl_bytes,
            "packed_bytes": packed_bytes,
            "ratio": round(jsonl_bytes / packed_bytes, 2),
            "floor": SIZE_RATIO_FLOOR,
        },
        "encode": {
            "jsonl": jsonl_encode.entry(events),
            "packed": packed_encode.entry(events),
        },
        "decode": {
            "jsonl": jsonl_decode.entry(events),
            "packed": packed_decode.entry(events),
            "speedup": round(jsonl_decode.best / packed_decode.best, 2)
            if packed_decode.best else 0.0,
            "floor": DECODE_SPEEDUP_FLOOR,
        },
        "seek": {
            "position": mid,
            "blocks_touched": blocks_touched,
            "blocks_total_fraction": round(
                blocks_touched / max(1, blocks_touched + block.number), 3
            ),
            **seek.entry(events - mid),
        },
    }


def check_floors(report: dict) -> list[str]:
    """Violations of the absolute acceptance floors (empty = pass)."""
    problems = []
    ratio = report["size"]["ratio"]
    if ratio < SIZE_RATIO_FLOOR:
        problems.append(
            f"size: packed is only {ratio:.2f}x smaller than JSONL "
            f"(floor {SIZE_RATIO_FLOOR:.1f}x)"
        )
    speedup = report["decode"]["speedup"]
    if speedup < DECODE_SPEEDUP_FLOOR:
        problems.append(
            f"decode: packed is only {speedup:.2f}x faster than JSONL "
            f"(floor {DECODE_SPEEDUP_FLOOR:.1f}x)"
        )
    return problems


def render(report: dict) -> str:
    size = report["size"]
    lines = [f"size   : {size['jsonl_bytes']:,} B jsonl -> "
             f"{size['packed_bytes']:,} B packed ({size['ratio']}x smaller)"]
    for section in ("encode", "decode"):
        entry = report[section]
        lines.append(
            f"{section} : jsonl "
            f"{entry['jsonl']['events_per_sec']:>12,.0f} ev/s | packed "
            f"{entry['packed']['events_per_sec']:>12,.0f} ev/s"
        )
    lines.append(f"decode speedup: {report['decode']['speedup']}x "
                 f"(floor {DECODE_SPEEDUP_FLOOR}x)")
    seek = report["seek"]
    lines.append(f"seek   : position {seek['position']} touched "
                 f"{seek['blocks_touched']} block(s), "
                 f"{seek['events_per_sec']:,.0f} ev/s")
    return "\n".join(lines)


LANE = Lane(
    name="store",
    measure=measure_store,
    gated=tuple(
        f"{section}.{fmt}.events_per_sec"
        for section in ("encode", "decode") for fmt in ("jsonl", "packed")
    ),
    threshold=0.30,
    render=render,
    checks=check_floors,
)
