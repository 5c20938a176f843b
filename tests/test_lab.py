"""Tests for the ``repro lab`` experiment subsystem.

Covers the spec layer (validation, JSON round trips, CLI overrides),
the runner (clean matrix, the loud ground-truth gate), the report
renderer, the digest map, and the serve-side family tagging the map
feeds.
"""

import dataclasses
import json

import pytest

from repro.experiments.digests import (
    digest_map,
    family_for_digest,
    load_digests,
    save_digests,
)
from repro.experiments.lab import main as lab_main
from repro.experiments.report import render_report
from repro.experiments.runner import (
    GroundTruthMismatch,
    check_cell,
    record_trace,
    run_lab,
)
from repro.experiments.spec import (
    DEFAULT_BACKENDS,
    LabSpec,
    SpecError,
    load_spec,
)
from repro.serve.registry import StreamRecord, StreamRegistry
from repro.workloads.server import (
    SERVER_FAMILIES,
    get_family,
    uniform_truth,
)


class TestLabSpec:
    def test_defaults_validate(self):
        spec = LabSpec().validate()
        assert spec.backends == DEFAULT_BACKENDS
        assert spec.points == ("smoke",)
        assert len(spec.selected_workloads) == 5

    def test_json_round_trip(self):
        spec = LabSpec(
            name="exp", workloads=("kv_store",), backends=("velodrome",),
            points=("smoke", "small"), seed=3, jobs=2, repeats=2,
            memoize=True,
        )
        assert LabSpec.from_json(spec.to_json()) == spec

    def test_unknown_json_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            LabSpec.from_json({"wrkloads": ["kv_store"]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown server workload"):
            LabSpec(workloads=("mtrt",)).validate()

    def test_heuristic_backend_rejected(self):
        with pytest.raises(SpecError, match="sound-and-complete"):
            LabSpec(backends=("atomizer",)).validate()

    def test_unknown_point_rejected(self):
        with pytest.raises(SpecError, match="unknown scale point"):
            LabSpec(points=("huge",)).validate()

    def test_bad_execution_knobs_rejected(self):
        with pytest.raises(SpecError, match="jobs"):
            LabSpec(jobs=0).validate()
        with pytest.raises(SpecError, match="repeats"):
            LabSpec(repeats=0).validate()

    def test_cells_enumerate_full_matrix(self):
        spec = LabSpec(
            workloads=("kv_store", "cache"),
            backends=("velodrome", "aerodrome"),
            points=("smoke",),
        )
        assert spec.cells() == [
            ("kv_store", "smoke", "velodrome"),
            ("kv_store", "smoke", "aerodrome"),
            ("cache", "smoke", "velodrome"),
            ("cache", "smoke", "aerodrome"),
        ]

    def test_load_spec_flag_overrides_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"workloads": ["kv_store"], "backends": ["velodrome"],
             "seed": 9}
        ))
        spec = load_spec(
            path, workloads=None, backends=("aerodrome",), seed=None
        )
        assert spec.workloads == ("kv_store",)  # None override = keep file
        assert spec.backends == ("aerodrome",)  # live override wins
        assert spec.seed == 9

    def test_load_spec_malformed_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("not json")
        with pytest.raises(SpecError, match="cannot load spec"):
            load_spec(path)


@pytest.fixture(scope="module")
def clean_doc(tmp_path_factory):
    """One small clean matrix, shared by the runner/report/digest tests."""
    spec = LabSpec(
        workloads=("conn_pool",),
        backends=("velodrome", "aerodrome"),
        points=("smoke",),
    )
    trace_dir = tmp_path_factory.mktemp("lab-traces")
    return run_lab(spec, trace_dir)


class TestRunner:
    def test_clean_matrix_doc_shape(self, clean_doc):
        assert len(clean_doc["cells"]) == 2
        assert set(clean_doc["recorded"]) == {"conn_pool@smoke"}
        entry = clean_doc["recorded"]["conn_pool@smoke"]
        assert entry["events"] > 0
        assert len(entry["digest"]) == 12
        for cell in clean_doc["cells"]:
            assert cell["verdict"] == "serializable"
            assert cell["events"] == entry["events"]
            assert cell["events_per_sec"] > 0
        by_backend = {c["backend"]: c for c in clean_doc["cells"]}
        # Graph backend reports peak alive nodes; vector clock has none.
        assert by_backend["velodrome"]["peak_nodes"] is not None
        assert by_backend["aerodrome"]["peak_nodes"] is None

    def test_mismatch_raises_naming_cell(self, tmp_path, monkeypatch):
        # Corrupt kv_store's declaration: claim it is serializable.
        family = get_family("kv_store")
        lying = dataclasses.replace(
            family,
            truth=uniform_truth(family.scale_points, serializable=True),
        )
        monkeypatch.setitem(SERVER_FAMILIES, "kv_store", lying)
        spec = LabSpec(
            workloads=("kv_store",), backends=("velodrome",),
            points=("smoke",),
        )
        with pytest.raises(GroundTruthMismatch) as excinfo:
            run_lab(spec, tmp_path)
        message = str(excinfo.value)
        assert "kv_store@smoke×velodrome" in message
        assert "observed violating" in message
        assert "declared serializable" in message
        assert excinfo.value.failures

    def test_blame_mismatch_detected(self, tmp_path, monkeypatch):
        # Right verdict, wrong blamed family: still a gate failure for
        # graph backends.
        family = get_family("kv_store")
        lying = dataclasses.replace(
            family,
            truth=uniform_truth(
                family.scale_points, serializable=False,
                blamed=frozenset({"kv.put"}),
            ),
        )
        monkeypatch.setitem(SERVER_FAMILIES, "kv_store", lying)
        spec = LabSpec(
            workloads=("kv_store",), backends=("velodrome",),
            points=("smoke",),
        )
        with pytest.raises(GroundTruthMismatch, match="blamed"):
            run_lab(spec, tmp_path)

    def test_vector_backend_asserts_verdict_only(self):
        # check_cell ignores label sets for aerodrome (it has no
        # graph-blame contract) but still gates the verdict.
        family = get_family("kv_store")
        cell = {
            "workload": "kv_store", "point": "smoke",
            "backend": "aerodrome", "events": 1, "verdict": "violating",
            "labels": ("something.else",), "best_seconds": 0.1,
            "events_per_sec": 10.0, "peak_nodes": None,
            "memoized": 0,
            "memo_hits": 0, "memo_misses": 0,
        }
        from repro.parallel.tasks import LabCellResult
        result = LabCellResult(**cell)
        assert check_cell(family, "smoke", "aerodrome", result) is None
        assert check_cell(family, "smoke", "velodrome", result) is not None

    def test_record_trace_manifest(self, tmp_path):
        family = get_family("cache")
        entry = record_trace(family, "smoke", 0, tmp_path)
        assert entry["workload"] == "cache"
        assert (tmp_path / "cache@smoke.vtrc").exists()
        again = record_trace(family, "smoke", 0, tmp_path)
        assert again["digest"] == entry["digest"]  # deterministic


class TestReport:
    def test_report_renders_matrix_table(self, clean_doc):
        text = render_report(clean_doc)
        assert "conn_pool@smoke" in text
        assert "velodrome" in text
        assert "aerodrome" in text
        assert "serializable" in text
        assert "ev/s" in text


class TestDigests:
    def test_round_trip_and_lookup(self, clean_doc, tmp_path):
        mapping = digest_map(clean_doc)
        digest = clean_doc["recorded"]["conn_pool@smoke"]["digest"]
        assert mapping[digest]["workload"] == "conn_pool"
        assert mapping[digest]["point"] == "smoke"
        path = tmp_path / "digests.json"
        save_digests(path, mapping)
        loaded = load_digests(path)
        assert loaded == mapping
        assert family_for_digest(loaded, digest) == "conn_pool"
        assert family_for_digest(loaded, "ffffffffffff") is None

    def test_load_none_is_empty(self):
        assert load_digests(None) == {}

    def test_load_malformed_raises(self, tmp_path):
        path = tmp_path / "digests.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="lab digests"):
            load_digests(path)


class TestLabCli:
    def test_run_writes_results_and_digests(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        digests = tmp_path / "digests.json"
        lab_main([
            "run", "--workloads", "conn_pool", "--backends", "velodrome",
            "--output", str(out), "--digests", str(digests),
        ])
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 1
        assert load_digests(digests)
        assert "1 cell(s) clean" in capsys.readouterr().out

    def test_bad_spec_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lab_main(["run", "--backends", "atomizer"])
        assert excinfo.value.code == 2
        assert "sound-and-complete" in capsys.readouterr().err

    def test_mismatch_exits_two_naming_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        family = get_family("cache")
        lying = dataclasses.replace(
            family,
            truth=uniform_truth(family.scale_points, serializable=True),
        )
        monkeypatch.setitem(SERVER_FAMILIES, "cache", lying)
        with pytest.raises(SystemExit) as excinfo:
            lab_main([
                "run", "--workloads", "cache", "--backends", "velodrome",
                "--trace-dir", str(tmp_path),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "GROUND TRUTH MISMATCH" in err
        assert "cache@smoke×velodrome" in err

    def test_report_subcommand(self, clean_doc, tmp_path, capsys):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(clean_doc))
        lab_main(["report", str(path)])
        assert "conn_pool@smoke" in capsys.readouterr().out

    def test_list_subcommand(self, capsys):
        lab_main(["list"])
        out = capsys.readouterr().out
        for name in ("kv_store", "web_pipeline", "mpmc_queue",
                     "conn_pool", "cache"):
            assert name in out
        assert "violating" in out and "serializable" in out


class TestServeFamilyTagging:
    def test_stream_record_back_compat(self):
        # Records written before the field existed load untouched.
        old = {
            "stream_id": "s-abc", "path": "/spool/t.vtrc",
            "digest": "abc", "format": "vtrc", "status": "done",
            "attempts": 0, "checkpointable": True, "error": "",
            "result": None,
        }
        record = StreamRecord(**old)
        assert record.workload_family is None

    def test_family_counts(self, tmp_path):
        registry = StreamRegistry(tmp_path)
        registry.save(StreamRecord(
            stream_id="a", path="a", digest="1",
            workload_family="kv_store",
        ))
        registry.save(StreamRecord(
            stream_id="b", path="b", digest="2",
            workload_family="kv_store",
        ))
        registry.save(StreamRecord(stream_id="c", path="c", digest="3"))
        assert registry.family_counts() == {"kv_store": 2}
        # Tags survive the on-disk round trip.
        reloaded = StreamRegistry(tmp_path)
        reloaded.load()
        assert reloaded.family_counts() == {"kv_store": 2}
