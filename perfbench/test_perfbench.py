"""Tests of the benchmark's own machinery: the gate, the tracer, the
registry watch of the serve load generator and the reference.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from gate import Gate, Observation, self_test
from reference import reading, reference_seconds
from serve_load import RegistryWatch
from tracer import Tracer, layer_times


def _observation(**overrides) -> Observation:
    fields = dict(
        family="mpmc_queue", point="small", backend="velodrome",
        status="done", violating=True,
        labels=frozenset({"queue.put"}), events=5, expected_events=5,
    )
    fields.update(overrides)
    return Observation(**fields)


def test_self_test_counts_the_wrong_declaration():
    self_test()


def test_correct_observations_pass():
    gate = Gate()
    assert gate.check(_observation())
    assert gate.check(_observation(
        family="conn_pool", violating=False, labels=frozenset()))
    assert gate.check(_observation(
        backend="aerodrome", labels=None, first_label=None))
    assert (gate.attempted, gate.failed, gate.error_rate) == (3, 0, 0.0)


@pytest.mark.parametrize("overrides", [
    dict(violating=False, labels=frozenset()),           # wrong verdict
    dict(labels=frozenset({"queue.put", "queue.get"})),  # wrong blame set
    dict(labels=None, first_label="queue.get"),          # served: wrong first
    dict(status="parked"),
    dict(status="quarantined"),
    dict(status="never finished"),
    dict(retries=1),
    dict(events=4),                                      # lost events
])
def test_every_kind_of_wrong_is_counted(overrides):
    gate = Gate()
    assert not gate.check(_observation(**overrides))
    assert gate.failed == 1 and gate.error_rate == 1.0


def test_self_times_exclude_children_and_accumulated_time():
    class Layer:
        def outer(self):
            self.inner()
            self.hot()

        def inner(self):
            self.hot()

        def hot(self):
            sum(range(20000))

    tracer = Tracer("test")
    tracer.span(Layer, "outer", "outer")
    tracer.span(Layer, "inner", "inner")
    tracer.accumulate(Layer, "hot", "hot")
    Layer().outer()
    tracer.uninstall()
    assert not hasattr(Layer.outer, "__wrapped__")

    (outer, inner) = tracer.spans
    layers = tracer.layer_times()
    total = outer[3] - outer[2]
    assert layers["hot"] > 0 and layers["inner"] >= 0
    assert sum(layers.values()) == pytest.approx(total)
    assert layers["outer"] < total - (inner[3] - inner[2])
    assert layer_times([inner], {}) == {"inner": inner[3] - inner[2]}


def test_registry_watch_reads_changes_until_terminal(tmp_path):
    def save(name, status, stamp):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"digest": name, "status": status}))
        os.utime(path, ns=(stamp, stamp))

    watch = RegistryWatch(tmp_path)
    save("a", "pending", 1)
    save("b", "pending", 1)
    assert sorted(r["digest"] for r in watch.changed()) == ["a", "b"]
    assert watch.changed() == []                 # nothing changed
    save("a", "done", 2)
    assert [r["status"] for r in watch.changed()] == ["done"]
    save("a", "done", 3)                         # terminal: not read again
    save("b", "running", 2)
    assert [r["digest"] for r in watch.changed()] == ["b"]


def test_reference_times_are_positive():
    assert reference_seconds() > 0
    assert reading() > 0
