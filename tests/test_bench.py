"""The ``repro bench`` harness: drift gate, absolute checks, lane wiring.

Every lane is exercised through its declaration
(:data:`repro.bench.LANES`) against its committed
``benchmarks/baseline/BENCH_<lane>.json``, which doubles as a real
report of that lane's shape.  No test here measures anything.
"""

import copy
import dataclasses
import json
import pathlib

import pytest

import repro.bench as bench
from repro.bench import LANES, main
from repro.bench.harness import Lane, best_of, check_drift, figures

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baseline"


def baseline(name: str) -> dict:
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text())


def gated_labels(lane: Lane, report: dict) -> list[str]:
    return [
        label for path in lane.gated for label, _ in figures(report, path)
    ]


def set_figure(report: dict, label: str, value) -> dict:
    """A copy of ``report`` with the figure at ``label`` replaced."""
    out = copy.deepcopy(report)
    *parents, leaf = label.split(".")
    node = out
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def scaled(lane: Lane, report: dict, factor: float) -> dict:
    """A copy of ``report`` with every gated figure times ``factor``."""
    for path in lane.gated:
        for label, value in list(figures(report, path)):
            report = set_figure(report, label, value * factor)
    return report


LANE_NAMES = sorted(LANES)


class TestDeclarations:
    def test_thresholds_are_the_ci_values(self):
        assert {name: lane.threshold for name, lane in LANES.items()} == {
            "backends": 0.50, "memo": 0.30, "store": 0.30,
            "parallel": 0.30, "workloads": 0.60,
        }

    def test_floors_are_the_ci_values(self):
        assert (bench.store.SIZE_RATIO_FLOOR,
                bench.store.DECODE_SPEEDUP_FLOOR) == (3.0, 1.5)
        assert (bench.memo.MIN_SPEEDUP,
                bench.memo.MAX_OVERHEAD) == (2.0, 0.10)
        assert bench.parallel.JOBS == 2


class TestCommittedBaselines:
    """Reads only the committed ``BENCH_<lane>.json`` files."""

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_every_gated_path_matches_a_figure(self, name):
        lane, report = LANES[name], baseline(name)
        for path in lane.gated:
            assert list(figures(report, path)), (
                f"{name}: gated path {path!r} matches no figure, so its "
                f"gate would check nothing"
            )

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_baseline_passes_its_own_gate(self, name):
        lane, report = LANES[name], baseline(name)
        assert check_drift(report, report, lane.gated, lane.threshold) == []
        assert lane.checks(report) == []


class TestDriftGate:
    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_drop_past_threshold_fails_every_figure(self, name):
        lane, old = LANES[name], baseline(name)
        new = scaled(lane, old, (1.0 - lane.threshold) * 0.99)
        failures = check_drift(new, old, lane.gated, lane.threshold)
        labels = gated_labels(lane, old)
        assert len(failures) == len(labels)
        for label, failure in zip(labels, failures):
            assert failure.startswith(label + ":")

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_drop_within_threshold_passes(self, name):
        lane, old = LANES[name], baseline(name)
        new = scaled(lane, old, (1.0 - lane.threshold) * 1.01)
        assert check_drift(new, old, lane.gated, lane.threshold) == []

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_faster_passes(self, name):
        lane, old = LANES[name], baseline(name)
        new = scaled(lane, old, 10.0)
        assert check_drift(new, old, lane.gated, lane.threshold) == []

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_missing_figures_pass(self, name):
        lane, report = LANES[name], baseline(name)
        assert check_drift(report, {}, lane.gated, lane.threshold) == []
        assert check_drift({}, report, lane.gated, lane.threshold) == []

    def test_wildcard_skips_non_numeric_branches(self):
        report = {"a": {"x": {"rate": 5.0}, "flag": True, "name": "n"}}
        assert list(figures(report, "a.*.rate")) == [("a.x.rate", 5.0)]
        assert list(figures(report, "a.*")) == []


#: One synthetic miss per absolute check: (lane, figure, value, blame).
ABSOLUTE_MISSES = [
    ("store", "size.ratio", 2.99, "size"),
    ("store", "decode.speedup", 1.49, "decode"),
    ("memo", "lanes.high_repetition.speedup", 1.99, "high_repetition"),
    ("memo", "lanes.low_repetition.overhead", 0.11, "low_repetition"),
]


class TestAbsoluteChecks:
    @pytest.mark.parametrize(
        "name,label,value,blame", ABSOLUTE_MISSES,
        ids=[f"{name}-{label}" for name, label, _, _ in ABSOLUTE_MISSES],
    )
    def test_miss_fails(self, name, label, value, blame):
        report = set_figure(baseline(name), label, value)
        failures = LANES[name].checks(report)
        assert len(failures) == 1 and blame in failures[0], failures

    def test_backend_disagreement_aborts(self, monkeypatch):
        monkeypatch.setattr(bench.backends, "first_warning_position",
                            lambda backend: type(backend).__name__)
        with pytest.raises(RuntimeError, match="backend disagreement"):
            bench.backends.measure_backends(scale=0.1, repeats=1)

    def test_memo_disagreement_aborts(self, monkeypatch):
        from repro.fuzz.engine import trace_for_seed

        positions = iter(range(100))
        monkeypatch.setattr(bench.memo, "first_warning_position",
                            lambda backend: next(positions))
        with pytest.raises(RuntimeError, match="memo disagreement"):
            bench.memo._measure_lane(list(trace_for_seed(1)), repeats=1)

    def test_ground_truth_mismatch_exits_2(self, monkeypatch):
        monkeypatch.setattr(bench.workloads, "check_cell",
                            lambda *args: "cell blamed the wrong label")
        with pytest.raises(SystemExit) as excinfo:
            bench.workloads.run_bench(quick=True)
        assert excinfo.value.code == 2


class TestMain:
    """The CLI over stub lanes that replay a committed baseline."""

    @pytest.fixture
    def replay(self, monkeypatch):
        lanes = {
            name: dataclasses.replace(
                lane, measure=lambda quick, name=name: baseline(name)
            )
            for name, lane in LANES.items()
        }
        monkeypatch.setattr(bench, "LANES", lanes)

    def test_all_lanes_pass_against_the_baselines(self, replay, tmp_path,
                                                  capsys):
        main(["--out", str(tmp_path), "--check-against", str(BASELINES)])
        for name in LANES:
            assert json.loads(
                (tmp_path / f"BENCH_{name}.json").read_text()
            ) == baseline(name)
        assert capsys.readouterr().out.count("checks met") == len(LANES)

    @pytest.mark.parametrize("name", LANE_NAMES)
    def test_raised_baseline_figure_fails(self, replay, tmp_path, name):
        lane, report = LANES[name], baseline(name)
        label = gated_labels(lane, report)[0]
        old = next(figures(report, label))[1]
        raised = tmp_path / "raised"
        raised.mkdir()
        (raised / f"BENCH_{name}.json").write_text(json.dumps(
            set_figure(report, label, old / (1.0 - lane.threshold) * 1.01)
        ))
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--out", str(tmp_path),
                  "--check-against", str(raised)])
        assert excinfo.value.code == 1

    def test_missing_baseline_fails(self, replay, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "--out", str(tmp_path),
                  "--check-against", str(tmp_path / "nowhere")])
        assert excinfo.value.code == 1

    def test_unknown_lane_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["nosuchlane", "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestBestOf:
    def test_one_timing_per_thunk_with_spread(self):
        calls = []
        timings = best_of(3, lambda: calls.append("a"),
                          lambda: calls.append("b"))
        assert calls == ["a", "b"] * 3
        assert len(timings) == 2
        for timing in timings:
            assert timing.best >= 0.0 and timing.spread >= 0.0
            entry = timing.entry(100)
            assert set(entry) == {"best_seconds", "events_per_sec", "spread"}
