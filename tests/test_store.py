"""The packed binary trace store: round trips, seeking, sniffing.

Everything here guards the store's one invariant: a packed recording
is a *lossless* encoding of its operation stream.  Round trips run
over hand-built edge-case traces, the randomgen grid, and the
committed corpus; verdict equivalence runs the full 22-configuration
ablation grid over packed and JSONL encodings of the same trace and
requires identical results.  Corruption handling lives in
``test_store_corruption.py``.
"""

import io
from pathlib import Path

import pytest

from repro.events.operations import (
    OpKind,
    acquire,
    begin,
    end,
    read,
    release,
    write,
)
from repro.events.serialize import load_trace, save_trace
from repro.events.trace import Trace
from repro.fuzz import ablation_grid, check_trace
from repro.fuzz.engine import trace_for_seed
from repro.pipeline import TraceSource
from repro.store import (
    DEFAULT_BLOCK_OPS,
    FORMAT_DSL,
    FORMAT_JSONL,
    FORMAT_PACKED,
    HISTOGRAM_KINDS,
    PackedTraceReader,
    PackedTraceWriter,
    StoreError,
    UnknownTraceFormat,
    block_ranges,
    load_packed,
    load_packed_parallel,
    save_packed,
    sniff_bytes,
    sniff_path,
    summarize_ops,
)
from repro.store.codec import KIND_CODES

CORPUS = Path(__file__).parent / "corpus"


def simple_trace() -> Trace:
    return Trace([
        begin(1, "m1"),
        acquire(1, "l"),
        read(1, "x", 1),
        write(1, "x", 2),
        release(1, "l"),
        end(1),
        begin(2, "m2"),
        write(2, "x", 3),
        end(2),
    ])


def edge_case_trace() -> Trace:
    """Unicode, every value type, loc strings, negative/huge tids."""
    return Trace([
        begin(3, "méthode-中文"),
        write(3, "vàr", "valeur ☃"),
        read(3, "vàr", None),
        write(3, "big", 2**80),
        write(3, "neg", -17),
        write(3, "f", 3.25),
        write(3, "t", True),
        write(3, "one", 1),
        write(3, "onef", 1.0),
        read(3, "vàr", "", loc="file.py:12"),
        end(3),
        begin(1000000007, "far-thread"),
        write(1000000007, "w", "x" * 300),
        end(1000000007),
    ])


def assert_lossless(original: Trace, decoded: Trace) -> None:
    """Equality plus the fields dataclass comparison skips (loc) and
    value type identity (True vs 1 vs 1.0)."""
    a, b = list(original), list(decoded)
    assert a == b
    for x, y in zip(a, b):
        assert x.loc == y.loc
        assert type(x.value) is type(y.value)


class TestRoundTrip:
    def roundtrip(self, trace, **writer_options) -> Trace:
        sink = io.BytesIO()
        with PackedTraceWriter(sink, **writer_options) as writer:
            writer.write_all(trace)
        sink.seek(0)
        with PackedTraceReader(sink) as reader:
            return reader.read()

    def test_simple(self):
        trace = simple_trace()
        assert_lossless(trace, self.roundtrip(trace))

    def test_edge_cases(self):
        trace = edge_case_trace()
        assert_lossless(trace, self.roundtrip(trace))

    def test_empty(self):
        decoded = self.roundtrip(Trace([]))
        assert list(decoded) == []

    def test_multi_block(self):
        trace = Trace(list(simple_trace()) * 100)
        decoded = self.roundtrip(trace, block_ops=16)
        assert_lossless(trace, decoded)

    def test_one_op_per_block(self):
        trace = edge_case_trace()
        assert_lossless(trace, self.roundtrip(trace, block_ops=1))

    @pytest.mark.parametrize("seed", [0, 7, 42, 182261230])
    def test_randomgen_grid(self, seed):
        trace = trace_for_seed(seed)
        assert_lossless(trace, self.roundtrip(trace))
        assert_lossless(trace, self.roundtrip(trace, block_ops=13))

    def test_committed_corpus(self):
        for path in sorted(CORPUS.glob("*.jsonl")):
            trace = load_trace(path)
            assert_lossless(trace, self.roundtrip(trace))

    def test_non_json_value_rejected(self):
        trace = Trace([write(1, "x", object())])
        with pytest.raises(StoreError):
            self.roundtrip(trace)

    def test_writer_rejects_bad_block_ops(self):
        with pytest.raises(StoreError):
            PackedTraceWriter(io.BytesIO(), block_ops=0)

    def test_closed_writer_rejects_writes(self):
        writer = PackedTraceWriter(io.BytesIO())
        writer.close()
        with pytest.raises(StoreError):
            writer.write(begin(1, "m"))


class TestSeeking:
    @pytest.fixture(scope="class")
    def packed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "trace.vtrc"
        trace = Trace(list(simple_trace()) * 50)  # 450 ops
        save_packed(trace, path, block_ops=32)
        return path, list(trace)

    def test_seek_everywhere(self, packed):
        path, ops = packed
        with PackedTraceReader(path) as reader:
            for seq in (0, 1, 31, 32, 33, 200, len(ops) - 1):
                assert list(reader.seek(seq)) == ops[seq:]

    def test_seek_past_end_is_empty(self, packed):
        path, ops = packed
        with PackedTraceReader(path) as reader:
            assert list(reader.seek(len(ops))) == []
            assert list(reader.seek(len(ops) + 1000)) == []

    def test_seek_every_block_boundary(self, packed):
        # The exact edges the block index bisects on: the first seq of
        # each block and the last seq of the block before it.
        path, ops = packed
        with PackedTraceReader(path) as reader:
            for info in reader.blocks:
                assert list(reader.seek(info.first_seq)) == \
                    ops[info.first_seq:], f"block {info.number} first seq"
                if info.number:
                    previous_last = info.first_seq - 1
                    assert list(reader.seek(previous_last)) == \
                        ops[previous_last:], \
                        f"block {info.number - 1} last seq"

    def test_seek_negative_raises(self, packed):
        path, _ops = packed
        with PackedTraceReader(path) as reader:
            with pytest.raises(StoreError):
                list(reader.seek(-1))

    def test_block_for_seq(self, packed):
        path, ops = packed
        with PackedTraceReader(path) as reader:
            for seq in (0, 31, 32, len(ops) - 1):
                block = reader.block_for_seq(seq)
                assert block.first_seq <= seq <= block.last_seq

    def test_iter_blocks_covers_stream(self, packed):
        path, ops = packed
        with PackedTraceReader(path) as reader:
            collected = []
            expected_seq = 0
            for info, block_ops in reader.iter_blocks():
                assert info.first_seq == expected_seq
                assert info.op_count == len(block_ops)
                expected_seq += len(block_ops)
                collected.extend(block_ops)
            assert collected == ops

    def test_info(self, packed):
        path, ops = packed
        with PackedTraceReader(path) as reader:
            info = reader.info()
        assert info.ops == len(ops)
        assert info.block_ops == 32
        assert info.blocks == len(ops) // 32 + (1 if len(ops) % 32 else 0)
        assert info.file_bytes == path.stat().st_size
        assert str(info.ops) in info.render()


class TestSniffing:
    def test_packed_magic(self):
        assert sniff_bytes(b"VTRC\x01\x00\x00\x00") == FORMAT_PACKED

    def test_jsonl(self):
        assert sniff_bytes(b'{"kind": "wr"}') == FORMAT_JSONL
        assert sniff_bytes(b'  \n{"kind"') == FORMAT_JSONL

    def test_dsl(self):
        assert sniff_bytes(b"1:begin(m1) 1:wr(x)") == FORMAT_DSL

    def test_empty_file_raises(self):
        # A zero-byte (or whitespace-only) file carries no format
        # evidence; it must fail loudly, not sniff as an empty trace.
        for prefix in (b"", b"  \n\t"):
            with pytest.raises(UnknownTraceFormat) as excinfo:
                sniff_bytes(prefix)
            assert "empty file" in str(excinfo.value)

    def test_unknown_raises_with_leading_bytes(self):
        with pytest.raises(UnknownTraceFormat) as excinfo:
            sniff_bytes(b"SQLite format 3\x00")
        assert "SQLite" in str(excinfo.value)

    def test_extension_is_ignored(self, tmp_path):
        # A packed trace named .jsonl still loads as packed.
        lying = tmp_path / "trace.jsonl"
        trace = simple_trace()
        save_packed(trace, lying)
        assert sniff_path(lying) == FORMAT_PACKED
        assert list(load_trace(lying)) == list(trace)


class TestSerializeIntegration:
    def test_save_trace_picks_format_by_extension(self, tmp_path):
        trace = edge_case_trace()
        packed = tmp_path / "t.vtrc"
        jsonl = tmp_path / "t.jsonl"
        save_trace(trace, packed)
        save_trace(trace, jsonl)
        assert packed.read_bytes().startswith(b"VTRC")
        assert jsonl.read_text(encoding="utf-8").startswith("{")
        assert_lossless(trace, load_trace(packed))
        assert_lossless(trace, load_trace(jsonl))

    def test_load_packed(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "t.vtrc"
        save_packed(trace, path)
        assert_lossless(trace, load_packed(path))

    def test_trace_source_from_path(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "t.vtrc"
        save_trace(trace, path)
        seen = []
        TraceSource.from_path(path).run(seen.append)
        assert seen == list(trace)

    def test_unknown_format_fails_loudly(self, tmp_path):
        impostor = tmp_path / "trace.jsonl"
        impostor.write_bytes(b"\x89PNG\r\n\x1a\n not a trace")
        with pytest.raises(UnknownTraceFormat):
            load_trace(impostor)


class TestParallelDecode:
    def test_block_ranges_partition(self):
        for n_blocks in (1, 4, 7, 16):
            for jobs in (1, 2, 3, 8, 40):
                ranges = block_ranges(n_blocks, jobs)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n_blocks
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo

    def test_parallel_decode_is_byte_identical(self, tmp_path):
        path = tmp_path / "t.vtrc"
        trace = Trace(list(simple_trace()) * 60)
        save_packed(trace, path, block_ops=16)
        serial = load_packed(path)
        parallel = load_packed_parallel(path, jobs=3)
        assert list(parallel) == list(serial) == list(trace)

    def test_small_file_falls_back_to_serial(self, tmp_path):
        path = tmp_path / "t.vtrc"
        trace = simple_trace()
        save_packed(trace, path)  # one block: below the shard floor
        assert list(load_packed_parallel(path, jobs=8)) == list(trace)


class TestVerdictEquivalence:
    """Packed and JSONL encodings must be indistinguishable to every
    analysis configuration — the full 22-config ablation grid."""

    @pytest.mark.parametrize("seed", [7, 42])
    def test_full_grid_identical(self, tmp_path, seed):
        trace = trace_for_seed(seed)
        jsonl = tmp_path / "t.jsonl"
        packed = tmp_path / "t.vtrc"
        save_trace(trace, jsonl)
        save_trace(trace, packed)
        grid = ablation_grid()
        assert len(grid) == 22
        from_jsonl = check_trace(load_trace(jsonl), configs=grid)
        from_packed = check_trace(load_trace(packed), configs=grid)
        assert from_jsonl == from_packed

    def test_corpus_verdicts_identical(self, tmp_path):
        for source in sorted(CORPUS.glob("*.jsonl")):
            trace = load_trace(source)
            packed = tmp_path / (source.stem + ".vtrc")
            save_trace(trace, packed)
            grid = ablation_grid()
            assert check_trace(load_trace(packed), configs=grid) == \
                check_trace(trace, configs=grid)


class TestDefaultBlockSize:
    def test_default_flows_from_header(self, tmp_path):
        path = tmp_path / "t.vtrc"
        save_packed(simple_trace(), path)
        with PackedTraceReader(path) as reader:
            assert reader.block_ops == DEFAULT_BLOCK_OPS


class TestKindOrder:
    """The summary histogram's slot order is the on-disk kind order."""

    def test_histogram_matches_wire_codes(self):
        for slot, kind in enumerate(HISTOGRAM_KINDS):
            assert KIND_CODES[kind] == slot

    def test_all_kinds_covered(self):
        assert set(HISTOGRAM_KINDS) == set(OpKind)


class TestSummarizeOps:
    def test_histogram_and_tids(self):
        ops = [
            begin(1, "m"), read(1, "x", 0), write(2, "x", 1),
            acquire(1, "l"), release(1, "l"), end(1),
            read(3, "y", 2),
        ]
        s = summarize_ops(ops, first_seq=10, number=3)
        assert s.number == 3
        assert s.first_seq == 10
        assert s.last_seq == 16
        assert s.op_count == 7
        assert s.tids == (1, 2, 3)
        assert s.histogram == (2, 1, 1, 1, 1, 1)
        assert s.reads == 2 and s.writes == 1
        assert not s.foldable  # multi-tid, has begin/end

    def test_footprint_first_touch_order(self):
        ops = [read(1, "b", 0), write(1, "a", 1), acquire(1, "l")]
        s = summarize_ops(ops, first_seq=0)
        assert [t.name for t in s.targets] == ["b", "a", "l"]
        assert s.variables == ("b", "a")
        assert s.locks == ("l",)

    def test_fold_machine_offsets(self):
        # Hand-computed: release bumps k, a write jumps k back to the
        # variable's latest in-block read, reads/acquires hold k.
        ops = [
            read(1, "x", 0),       # k=0, x.read_k=0
            release(1, "m"),       # k=1
            release(1, "m"),       # k=2
            write(1, "x", 1),      # jumps back: k=x.read_k=0
            write(1, "y", 2),      # first-access write: pre_k=0, k=0
            release(1, "m"),       # k=1
            write(1, "y", 3),      # jumps to y.write_k=0
        ]
        s = summarize_ops(ops, first_seq=0)
        assert s.foldable
        assert s.last_k == 0
        assert s.max_k == 2
        by_name = {t.name: t for t in s.targets}
        x, y, m = by_name["x"], by_name["y"], by_name["m"]
        assert x.read_k == 0 and x.write_k == 0
        assert not x.first_access_write
        assert y.first_access_write
        assert y.write_pre_k == 0 and y.write_k == 0
        assert m.release_k == 1  # last release's k
        assert m.first_release == 1

    def test_empty_block_not_foldable(self):
        assert not summarize_ops([], first_seq=0).foldable


def foldable_trace() -> list:
    """One thread outside transactions: every block is foldable."""
    ops = []
    for i in range(64):
        ops += [acquire(1, "m"), read(1, f"x{i % 5}", i),
                write(1, f"x{i % 5}", i + 1), write(1, f"fresh{i}", i),
                release(1, "m")]
    return ops


def mixed_trace() -> list:
    """Two threads with a transaction: mixed summaries."""
    ops = []
    for i in range(40):
        ops += [read(1, f"a{i % 3}", i), write(1, f"a{i % 3}", i)]
    ops += [begin(2, "txn"), write(2, "shared", 1), end(2)]
    for i in range(40):
        ops += [acquire(1, "l"), write(1, "shared", i), release(1, "l")]
    return ops


class TestStoredVsReconstructed:
    """A v2 file's stored summaries == a v1 file's lazy reconstruction."""

    @pytest.mark.parametrize("make", [foldable_trace, mixed_trace])
    def test_equal_per_block(self, tmp_path, make):
        ops = make()
        v1 = tmp_path / "t.v1.vtrc"
        v2 = tmp_path / "t.v2.vtrc"
        save_packed(ops, v1, block_ops=16, version=1)
        save_packed(ops, v2, block_ops=16, version=2)
        with PackedTraceReader(v1) as r1, PackedTraceReader(v2) as r2:
            assert r1.info().version == 1
            assert r2.info().version == 2
            assert len(r1.blocks) == len(r2.blocks)
            for info in r2.blocks:
                stored = r2.block_summary(info.number)
                lazy = r1.block_summary(info.number, reconstruct=True)
                assert stored == lazy

    def test_v1_summary_is_none_without_reconstruct(self, tmp_path):
        path = tmp_path / "t.vtrc"
        save_packed(foldable_trace(), path, block_ops=16, version=1)
        with PackedTraceReader(path) as reader:
            assert reader.block_summary(0) is None
            assert reader.block_summary(0, reconstruct=True) is not None


def test_cat_and_info_cli(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "t.vtrc"
    jsonl = tmp_path / "t.jsonl"
    trace = Trace(list(simple_trace()) * 10)
    save_trace(trace, jsonl)

    assert main(["trace", "pack", str(jsonl), str(path),
                 "--block-size", "16"]) == 0
    assert main(["trace", "info", str(path), "--blocks"]) == 0
    out = capsys.readouterr().out
    assert "operations : 90" in out

    assert main(["trace", "cat", str(path), "--start", "85"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert lines[0].startswith("85: ")

    back = tmp_path / "back.jsonl"
    assert main(["trace", "unpack", str(path), str(back)]) == 0
    assert back.read_text(encoding="utf-8") == \
        jsonl.read_text(encoding="utf-8")


def test_check_cli_packed_matches_jsonl(tmp_path, capsys):
    from repro.cli import main

    trace = trace_for_seed(7)
    jsonl = tmp_path / "t.jsonl"
    packed = tmp_path / "t.vtrc"
    save_trace(trace, jsonl)
    save_trace(trace, packed)

    code_jsonl = main(["check", str(jsonl), "--backend", "all"])
    out_jsonl = capsys.readouterr().out
    code_packed = main(["check", str(packed), "--backend", "all"])
    out_packed = capsys.readouterr().out
    assert code_jsonl == code_packed
    assert out_jsonl == out_packed
