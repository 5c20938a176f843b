"""Shard-and-merge benchmarks: ``repro bench parallel`` under pytest.

Runs the ``parallel`` lane of :mod:`repro.bench` through its CLI in
its quick (CI) shape: per-stage single-process throughput,
serial-versus-``--jobs 2`` fuzz throughput, and JSON report emission.
On a single-core box the parallel speedup hovers near 1.0x rather than
the multi-core scaling the shard layer exists for.  The drift gate is
tested against the committed baseline in ``tests/test_bench.py``.

Run with ``pytest benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import main


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench")
    main(["parallel", "--quick", "--out", str(out)])
    return json.loads((out / "BENCH_parallel.json").read_text())


def test_report_shape(quick_report):
    assert quick_report["schema"] == 1
    assert quick_report["cpu_count"] >= 1
    assert set(quick_report["stages"]) == {
        "generate", "encode", "decode", "analyze",
    }
    for entry in quick_report["stages"].values():
        assert entry["events"] > 0
        assert entry["events_per_sec"] > 0
    fuzz = quick_report["fuzz"]
    assert fuzz["serial"]["events_per_sec"] > 0
    assert fuzz["parallel"]["jobs"] == 2
    assert fuzz["speedup"] > 0
