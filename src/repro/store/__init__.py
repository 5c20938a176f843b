"""The packed binary trace store (VTRC).

A first-class on-disk representation for recorded event streams:
compressed, seekable, CRC-protected, and shardable.  See
``docs/traces.md`` for the format specification and
:mod:`repro.store.format` for the wire layout.

Public surface:

* :class:`PackedTraceWriter` / :func:`save_packed` — streaming encode;
* :class:`PackedTraceReader` / :func:`load_packed` — strict decode,
  ``seek(seq)``, ``iter_blocks()``, ``info()``;
* :class:`TolerantPackedReader` / :func:`load_packed_tolerant` —
  quarantine-aware recovery reads;
* :func:`load_packed_parallel` — multi-process block-range decode;
* :class:`BlockSummary` / :class:`TargetFootprint` /
  :func:`summarize_ops` — the v2 per-block summary records (what each
  block touches), rendered by ``repro trace info --summaries``;
* :func:`sniff_path` / :func:`sniff_bytes` — magic-byte format
  detection shared by every trace-reading entry point.
"""

from repro.store.format import (
    DEFAULT_BLOCK_OPS,
    MAGIC,
    VERSION,
    CorruptBlock,
    StoreError,
    StoreFormatError,
)
from repro.store.parallel import block_ranges, load_packed_parallel
from repro.store.reader import (
    BlockInfo,
    PackedTraceReader,
    StoreInfo,
    TolerantPackedReader,
    load_packed,
    load_packed_tolerant,
)
from repro.store.sniff import (
    FORMAT_DSL,
    FORMAT_JSONL,
    FORMAT_PACKED,
    UnknownTraceFormat,
    sniff_bytes,
    sniff_path,
)
from repro.store.summary import (
    HISTOGRAM_KINDS,
    BlockSummary,
    TargetFootprint,
    summarize_ops,
)
from repro.store.writer import PackedTraceWriter, save_packed

__all__ = [
    "BlockInfo",
    "BlockSummary",
    "HISTOGRAM_KINDS",
    "TargetFootprint",
    "summarize_ops",
    "CorruptBlock",
    "DEFAULT_BLOCK_OPS",
    "FORMAT_DSL",
    "FORMAT_JSONL",
    "FORMAT_PACKED",
    "MAGIC",
    "PackedTraceReader",
    "PackedTraceWriter",
    "StoreError",
    "StoreFormatError",
    "StoreInfo",
    "TolerantPackedReader",
    "UnknownTraceFormat",
    "VERSION",
    "block_ranges",
    "load_packed",
    "load_packed_parallel",
    "load_packed_tolerant",
    "save_packed",
    "sniff_bytes",
    "sniff_path",
]
