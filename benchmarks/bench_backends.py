"""Backend head-to-head benchmarks: ``repro bench backends`` under pytest.

Runs the ``backends`` lane of :mod:`repro.bench` through its CLI in
its quick (CI) shape: per-workload events/sec for the graph checker
(:class:`~repro.core.optimized.VelodromeOptimized`) versus the
vector-clock checker (:class:`~repro.core.aerodrome.AeroDrome`) over
identical recorded traces, verdict/first-warning agreement (a
disagreement aborts the measurement rather than averaging away), and
JSON report emission.  The drift gate and its 50% threshold are
tested against the committed baseline in ``tests/test_bench.py``.

Run with ``pytest benchmarks/bench_backends.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import main
from repro.workloads import paper_workloads


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench")
    main(["backends", "--quick", "--out", str(out)])
    return json.loads((out / "BENCH_backends.json").read_text())


def test_report_shape(quick_report):
    assert quick_report["schema"] == 1
    assert quick_report["scale"] == 0.5
    assert set(quick_report["workloads"]) == {
        workload.name for workload in paper_workloads()
    }
    for entry in quick_report["workloads"].values():
        assert entry["events"] > 0
        for backend in ("velodrome", "aerodrome"):
            assert entry[backend]["events_per_sec"] > 0
        assert entry["speedup"] > 0
        assert isinstance(entry["error_detected"], bool)
    total = quick_report["total"]
    assert total["events"] == sum(
        entry["events"] for entry in quick_report["workloads"].values()
    )
    assert total["speedup"] > 0


def test_vector_clocks_not_slower_overall(quick_report):
    # The deliverable: the linear-time clock analysis must at least
    # hold its own against the graph checker on the paper lineup.
    assert quick_report["total"]["speedup"] >= 1.0
