"""The correctness gate: every check and stream against its declaration.

Each server family declares, per scale point, the verdict a sound and
complete checker must reach and the block labels it must blame
(``SERVER_FAMILIES[name].truth_at(point)``).  The benchmark feeds the
gate one :class:`Observation` per check or stream before it reports a
number.  An observation is wrong when

* it did not finish (failed, parked, quarantined, deduplicated, never
  seen done, or needed a retry),
* its verdict differs from the declared one,
* its blame contradicts the declaration: for ``repro check`` with a
  graph backend the warned label set must equal the declared set; a
  served stream exposes only its first warning, whose label must be
  one of the declared ones,
* or it analysed another number of events than were recorded.

``error_rate`` is wrong observations over observations.
:func:`self_test` feeds a gate one deliberately wrong declaration and
fails unless the gate counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Backends whose warnings name the blamed labels.
GRAPH_BACKENDS = frozenset({"velodrome"})


@dataclass(frozen=True)
class Observation:
    """What one check or stream produced, as seen from outside."""

    family: str
    point: str
    backend: str
    status: str                 #: "done" or how it failed
    violating: bool = False
    labels: Optional[frozenset] = None       #: full warned label set
    first_label: Optional[str] = None        #: first warning's label
    events: int = 0
    expected_events: int = 0
    retries: int = 0


def _default_truth(family: str, point: str):
    from repro.workloads.server import SERVER_FAMILIES

    return SERVER_FAMILIES[family].truth_at(point)


class Gate:
    """Counts observations and the ones that contradict the truth."""

    def __init__(self, truth_at: Callable = _default_truth):
        self.truth_at = truth_at
        self.attempted = 0
        self.problems: list[str] = []

    def judge(self, obs: Observation) -> Optional[str]:
        """Why ``obs`` is wrong, or ``None`` when it is right."""
        truth = self.truth_at(obs.family, obs.point)
        if obs.status != "done":
            return f"status {obs.status}"
        if obs.retries:
            return f"needed {obs.retries} retries"
        if obs.events != obs.expected_events:
            return (f"analysed {obs.events} events, recorded "
                    f"{obs.expected_events}")
        if obs.violating == truth.serializable:
            observed = "violating" if obs.violating else "serializable"
            return f"observed {observed}, declared {truth.verdict}"
        if obs.backend in GRAPH_BACKENDS:
            if obs.labels is not None and obs.labels != truth.blamed:
                return (f"blamed {sorted(obs.labels)}, declared "
                        f"{sorted(truth.blamed)}")
            if obs.first_label is not None and (
                obs.first_label not in truth.blamed
            ):
                return (f"first warning blames {obs.first_label}, "
                        f"declared {sorted(truth.blamed)}")
        return None

    def check(self, obs: Observation) -> bool:
        """Count ``obs``; True when it is right."""
        self.attempted += 1
        problem = self.judge(obs)
        if problem is not None:
            self.problems.append(
                f"{obs.family}@{obs.point}×{obs.backend}: {problem}"
            )
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_test() -> None:
    """Raise unless a deliberately wrong declaration is counted.

    ``kv_store`` is declared violating (blaming ``kv.evict``); the
    test gate is told it is serializable instead, and a correct
    observation of the real behaviour must then count as an error --
    while the same observation against the real declaration must not.
    """
    from repro.workloads.server import GroundTruth

    observed = Observation(
        family="kv_store", point="smoke", backend="velodrome",
        status="done", violating=True, labels=frozenset({"kv.evict"}),
        events=10, expected_events=10,
    )
    wrong = Gate(lambda family, point: GroundTruth(serializable=True))
    wrong.check(observed)
    right = Gate()
    right.check(observed)
    if wrong.failed != 1 or wrong.error_rate != 1.0:
        raise AssertionError("gate missed a contradicted declaration")
    if right.failed != 0:
        raise AssertionError(f"gate rejected a correct check: "
                             f"{right.problems}")
