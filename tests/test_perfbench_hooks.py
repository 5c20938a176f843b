"""The repository benchmark's layer hooks still find what they wrap.

``perfbench/layers.py`` wraps public functions and methods of the
package by name (``getattr``) to time each layer.  A rename or removal
on the package side breaks every traced benchmark run, but nothing
under ``tests/`` imports ``perfbench``, so this test installs every
hook set and drives one traced ``repro check`` through them.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.fuzz import trace_for_seed
from repro.store import save_packed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``(Tracer, layers)`` imported from the benchmark directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import NAME, Tracer

    return Tracer, layers, NAME


def test_every_hook_set_installs_and_uninstalls(perfbench):
    Tracer, layers, _ = perfbench
    tracer = Tracer("hooks")
    try:
        layers.install_setup(tracer)
        layers.install_check(tracer)
        layers.install_serve(tracer)
    finally:
        tracer.uninstall()


def test_traced_check_records_the_layer_spans(perfbench, tmp_path, capsys):
    Tracer, layers, NAME = perfbench
    path = tmp_path / "t.vtrc"
    save_packed(list(trace_for_seed(7)), path, block_ops=16)
    tracer = Tracer("check")
    layers.install_check(tracer)
    try:
        code = main(["check", str(path), "--backend", "velodrome"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 1  # the seed-7 trace is not serializable
    names = {record[NAME] for record in tracer.spans}
    assert {"store.decode", "pipeline.dispatch",
            "core.velodrome.analyze"} <= names
    assert tracer.counts["pipeline.blocks_in"] == tracer.counts[
        "store.blocks_decoded"] == 7
