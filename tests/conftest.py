"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import json

from hypothesis import strategies as st

from repro.events import operations as ops
from repro.events.trace import Trace
from repro.resilience.snapshot import capture_backend

# ---------------------------------------------------------------------------
# Random well-formed trace generation.
#
# A trace must be a legal interleaving of some execution: begin/end
# properly nested per thread, acquires only of free locks, releases only
# by the holder.  We draw a list of abstract action codes and interpret
# them, silently skipping illegal actions — this keeps hypothesis
# shrinking effective (deleting codes yields a smaller legal trace).
# ---------------------------------------------------------------------------

_ACTION = st.tuples(
    st.integers(min_value=0, max_value=3),  # thread index
    st.integers(min_value=0, max_value=5),  # action kind
    st.integers(min_value=0, max_value=3),  # variable / lock / label index
)


def interpret_actions(
    codes: list[tuple[int, int, int]],
    n_threads: int = 3,
    n_vars: int = 3,
    n_locks: int = 2,
    max_depth: int = 2,
) -> Trace:
    """Interpret abstract action codes into a well-formed trace."""
    result: list[ops.Operation] = []
    depth = {tid: 0 for tid in range(1, n_threads + 1)}
    lock_owner: dict[str, int] = {}
    for thread_index, kind, target in codes:
        tid = (thread_index % n_threads) + 1
        if kind == 0:  # begin
            if depth[tid] < max_depth:
                depth[tid] += 1
                result.append(ops.begin(tid, label=f"m{target % 3}"))
        elif kind == 1:  # end
            if depth[tid] > 0:
                depth[tid] -= 1
                result.append(ops.end(tid))
        elif kind == 2:  # read
            result.append(ops.read(tid, f"x{target % n_vars}"))
        elif kind == 3:  # write
            result.append(ops.write(tid, f"x{target % n_vars}"))
        elif kind == 4:  # acquire
            lock = f"l{target % n_locks}"
            if lock_owner.get(lock) is None:
                lock_owner[lock] = tid
                result.append(ops.acquire(tid, lock))
        else:  # release
            lock = f"l{target % n_locks}"
            if lock_owner.get(lock) == tid:
                lock_owner[lock] = None
                result.append(ops.release(tid, lock))
    return Trace(result)


@st.composite
def traces(draw, max_ops: int = 24, n_threads: int = 3) -> Trace:
    """Strategy producing well-formed traces (locks balanced mid-trace)."""
    codes = draw(st.lists(_ACTION, max_size=max_ops))
    return interpret_actions(codes, n_threads=n_threads)


@st.composite
def small_traces(draw) -> Trace:
    """Strategy producing traces small enough for brute-force search."""
    codes = draw(st.lists(_ACTION, max_size=9))
    return interpret_actions(codes, n_threads=2, n_vars=2, n_locks=1)


def state_digest(backend) -> str:
    """Canonical full-state fingerprint of a snapshot-capable backend.

    The same capture checkpointing trusts
    (:func:`~repro.resilience.snapshot.capture_backend`), so equal
    digests mean equal verdicts, counters and internal maps.
    """
    return json.dumps(capture_backend(backend), sort_keys=True)
