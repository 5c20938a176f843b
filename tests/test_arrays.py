"""Tests for array support (experiment X2: the paper's future work).

The prototype in the paper analyses objects and fields only (Section
5); this reproduction adds arrays with a granularity switch.  Element
granularity is precise; object granularity (one variable per array) is
what a tool gets when it cannot distinguish indices — threads touching
*disjoint* elements then appear to conflict, and a perfectly atomic
program draws warnings.  Velodrome remains sound and complete *for the
modeled trace* either way; granularity decides how faithfully the trace
models the program.
"""

import pytest

from repro.core import VelodromeOptimized, is_serializable
from repro.pipeline import Pipeline
from repro.runtime.interpreter import Interpreter
from repro.runtime.program import (
    Begin,
    End,
    Program,
    ReadElem,
    ThreadSpec,
    WriteElem,
)
from repro.runtime.scheduler import RandomScheduler


def bump_element(index):
    def body():
        yield Begin("Grid.bump")
        value = yield ReadElem("grid", index)
        yield WriteElem("grid", index, value + 1)
        yield End()

    return body


def run_grid(indices, granularity, seed):
    program = Program(
        "grid", [ThreadSpec(bump_element(index)) for index in indices]
    )
    backend = VelodromeOptimized(first_warning_per_label=True)
    pipeline = Pipeline([backend])
    interpreter = Interpreter(
        program,
        scheduler=RandomScheduler(seed),
        sink=pipeline.process,
        record_trace=True,
        array_granularity=granularity,
    )
    result = interpreter.run()
    return backend, result


class TestSemantics:
    def test_elements_hold_independent_values(self):
        seen = {}

        def writer():
            yield WriteElem("a", 0, 10)
            yield WriteElem("a", 1, 20)
            seen[0] = yield ReadElem("a", 0)
            seen[1] = yield ReadElem("a", 1)

        program = Program("p", [ThreadSpec(writer)])
        Interpreter(program).run()
        assert seen == {0: 10, 1: 20}

    def test_values_independent_of_granularity(self):
        # Granularity changes the *analysis view*, never the data.
        for granularity in ("element", "object"):
            seen = []

            def body():
                yield WriteElem("a", 3, 42)
                seen.append((yield ReadElem("a", 3)))

            Interpreter(
                Program("p", [ThreadSpec(body)]),
                array_granularity=granularity,
            ).run()
            assert seen == [42]

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            Interpreter(Program("p", []), array_granularity="page")


class TestGranularityPrecision:
    def test_disjoint_elements_clean_at_element_granularity(self):
        for seed in range(6):
            backend, result = run_grid([0, 1], "element", seed)
            assert not backend.error_detected
            assert is_serializable(result.trace)

    def test_disjoint_elements_flagged_at_object_granularity(self):
        # The coarse trace makes disjoint accesses conflict; on some
        # interleaving the blocks cross and the (modeled) trace is
        # genuinely non-serializable.
        flagged = 0
        for seed in range(10):
            backend, result = run_grid([0, 1], "object", seed)
            if backend.error_detected:
                flagged += 1
                # Sound for the modeled trace: the warning is real there.
                assert not is_serializable(result.trace)
        assert flagged > 0

    def test_same_element_contention_flagged_either_way(self):
        found = {granularity: False for granularity in ("element", "object")}
        for granularity in found:
            for seed in range(10):
                backend, _result = run_grid([2, 2], granularity, seed)
                if backend.error_detected:
                    found[granularity] = True
                    break
        assert all(found.values())

    def test_event_targets_reflect_granularity(self):
        _backend, element_run = run_grid([0, 1], "element", 0)
        targets = {op.target for op in element_run.trace if op.is_access}
        assert "grid[0]" in targets and "grid[1]" in targets

        _backend, object_run = run_grid([0, 1], "object", 0)
        targets = {op.target for op in object_run.trace if op.is_access}
        assert "grid" in targets
        assert not any("[" in target for target in targets)
