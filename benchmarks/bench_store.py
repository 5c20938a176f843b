"""Packed trace store benchmarks: ``repro bench store`` under pytest.

Runs the ``store`` lane of :mod:`repro.bench` through its CLI in its
quick shape: size ratio versus JSONL, encode/decode events/sec for
both formats, mid-file seek cost, and JSON report emission.  The
absolute floors (packed >= 3x smaller, decode >= 1.5x faster than
JSONL) and the drift gate are tested against the committed baseline in
``tests/test_bench.py``.

Run with ``pytest benchmarks/bench_store.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import main


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench")
    main(["store", "--quick", "--out", str(out)])
    return json.loads((out / "BENCH_store.json").read_text())


def test_report_shape(quick_report):
    assert quick_report["schema"] == 1
    assert quick_report["quick"] is True
    assert quick_report["cpu_count"] >= 1
    assert quick_report["events"] > 0
    assert quick_report["size"]["jsonl_bytes"] > 0
    assert quick_report["size"]["packed_bytes"] > 0
    for section in ("encode", "decode"):
        for fmt in ("jsonl", "packed"):
            assert quick_report[section][fmt]["events_per_sec"] > 0
    seek = quick_report["seek"]
    assert 0 < seek["blocks_touched"]
    assert seek["events_per_sec"] > 0
