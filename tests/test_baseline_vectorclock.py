"""Unit tests for the vector-clock happens-before race detector."""

from repro.baselines.vectorclock import HappensBeforeRaces
from repro.core.clocks import VectorClock
from repro.events.trace import Trace


def run(text, **options):
    backend = HappensBeforeRaces(**options)
    backend.process_trace(Trace.parse(text))
    return backend


class TestVectorClock:
    def test_get_default_zero(self):
        assert VectorClock().get(3) == 0

    def test_tick(self):
        vc = VectorClock()
        vc.tick(1)
        vc.tick(1)
        assert vc.get(1) == 2

    def test_join_pointwise_max(self):
        a = VectorClock({1: 3, 2: 1})
        b = VectorClock({2: 5, 3: 2})
        a.join(b)
        assert (a.get(1), a.get(2), a.get(3)) == (3, 5, 2)

    def test_dominates(self):
        assert VectorClock({1: 2, 2: 2}).dominates(VectorClock({1: 1}))
        assert not VectorClock({1: 1}).dominates(VectorClock({2: 1}))

    def test_copy_is_independent(self):
        a = VectorClock({1: 1})
        b = a.copy()
        b.tick(1)
        assert a.get(1) == 1


class TestRaceDetection:
    def test_same_thread_accesses_never_race(self):
        assert not run("1:wr(x) 1:rd(x) 1:wr(x)").error_detected

    def test_unordered_write_write_races(self):
        assert run("1:wr(x) 2:wr(x)").error_detected

    def test_unordered_write_read_races(self):
        assert run("1:wr(x) 2:rd(x)").error_detected

    def test_unordered_read_write_races(self):
        assert run("1:rd(x) 2:wr(x)").error_detected

    def test_reads_never_race_with_reads(self):
        assert not run("1:rd(x) 2:rd(x) 3:rd(x)").error_detected

    def test_lock_ordering_prevents_race(self):
        backend = run(
            "1:acq(m) 1:wr(x) 1:rel(m) 2:acq(m) 2:rd(x) 2:wr(x) 2:rel(m)"
        )
        assert not backend.error_detected

    def test_lock_must_be_the_same(self):
        backend = run(
            "1:acq(m) 1:wr(x) 1:rel(m) 2:acq(n) 2:wr(x) 2:rel(n)"
        )
        assert backend.error_detected

    def test_transitive_ordering_through_third_thread(self):
        backend = run(
            "1:wr(x) 1:rel(m)".replace("1:rel(m)", "1:acq(m) 1:rel(m)")
            + " 2:acq(m) 2:rel(m) 2:acq(n) 2:rel(n) 3:acq(n) 3:rd(x)"
        )
        # x's write is ordered before t3's read through m then n.
        assert not backend.error_detected

    def test_plain_flag_handoff_is_a_race(self):
        # Happens-before through data writes is NOT tracked (only locks
        # synchronize), matching hardware-level race semantics: the
        # flag itself races.
        backend = run("1:wr(b) 2:rd(b)")
        assert backend.error_detected

    def test_report_once_per_var(self):
        text = "1:wr(x) 2:wr(x) 1:wr(x) 2:wr(x)"
        assert len(run(text).warnings) == 1
        assert len(run(text, report_once_per_var=False).warnings) >= 2

    def test_write_clears_read_history(self):
        backend = run(
            "1:acq(m) 1:rd(x) 1:rel(m) "
            "2:acq(m) 2:wr(x) 2:rel(m) "
            "3:acq(m) 3:wr(x) 3:rel(m)"
        )
        assert not backend.error_detected

    def test_begin_end_carry_no_synchronization(self):
        backend = run("1:begin 1:wr(x) 1:end 2:begin 2:wr(x) 2:end")
        assert backend.error_detected
