"""A fixed reference workload that measures how fast the machine is now.

On a shared host the speed a process gets drifts: the same check can
take half again as long a few minutes later.  The benchmark therefore
times this reference beside the work it measures and reports that
work's time scaled to a machine on which the reference takes
:data:`NOMINAL_S`::

    scaled = seconds * NOMINAL_S / reference_seconds

A neighbour can slow the interpreter, or evict the caches and slow
memory-bound work far more, so the reference has a part of each kind:

* interpreter work -- the standard library's pure-Python unpickler
  decoding records of small dicts and tuples, then a dict-counting
  loop over them;
* memory work -- reads at pseudo-random offsets of a buffer far
  larger than a core's private caches, as a graph of live Python
  objects is read.

It runs none of the program's code, so no change to the program
moves it, and a change that makes checking faster raises the scaled
rate by the same factor as the raw one.  The buffer stays resident in
the process that imports this module: :data:`BUFFER_KIB` is what it
adds to that process's peak RSS.
"""

from __future__ import annotations

import gc
import pickle
import statistics

from tracer import clock

#: Reference seconds on the machine the scale is quoted for (a 2-vCPU
#: Intel Xeon VM at 2.0 GHz, Python 3.11, in a quiet period).
NOMINAL_S = 0.03

#: Size of the memory part's buffer, in KiB.
BUFFER_KIB = 16 * 1024

#: Reads of the buffer per reference pass.
READS = 60_000

#: Reference passes per reading of the machine's speed (:func:`reading`).
REPEATS = 5

_BLOB = pickle.dumps([
    {"op": index % 7, "thread": index % 13, "target": ("x", index),
     "clock": [index, index + 1, index + 2]}
    for index in range(1500)
], protocol=4)

#: Zero-filled on creation, so every page is resident before it is
#: timed, and no larger temporary raises the peak RSS.
_BUFFER = bytearray(BUFFER_KIB * 1024)


def _interpreter_work() -> int:
    records = pickle._loads(_BLOB)   # the pure-Python unpickler
    counts: dict = {}
    for record in records:
        key = (record["op"], record["thread"])
        counts[key] = counts.get(key, 0) + len(record["clock"])
    return len(counts)


def _memory_work() -> int:
    buffer, mask = _BUFFER, len(_BUFFER) - 1
    offset = total = 0
    for _ in range(READS):
        offset = (offset * 1103515245 + 12345) & mask
        total += buffer[offset]
    return total


def reference_seconds() -> float:
    """Seconds one pass of the reference work takes now.

    The collector is paused so that the size of the caller's heap does
    not decide when a collection falls inside the timed work.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        _interpreter_work()
        _memory_work()
        return clock() - started
    finally:
        if enabled:
            gc.enable()


def reading() -> float:
    """The machine's speed now: the median of :data:`REPEATS` passes."""
    return statistics.median(reference_seconds() for _ in range(REPEATS))
