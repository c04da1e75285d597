"""Stream-layer tests: chunks, formats, torn files, resume (DESIGN §14)."""

from __future__ import annotations

import gzip
import json
import struct

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.faults.checkpoint import run_checkpointed
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.mmu.address_space import DemandLayout
from repro.system.multiprocessor import Multiprocessor
from repro.trace import textio
from repro.trace.binio import (
    MAGIC,
    RECORD_SIZE,
    VERSION,
    BinaryTraceReader,
    BinaryTraceWriter,
    write_binary,
)
from repro.trace.formats import TextTraceStream, open_trace, sniff_format
from repro.trace.record import RefKind, TraceRecord
from repro.trace.stream import (
    KIND_TO_CODE,
    StreamCursor,
    SyntheticTraceStream,
    TraceChunk,
    TraceStream,
    chunk_iter,
)
from repro.trace.synchro import SynchroTraceReader, parse_event_line
from repro.trace.workloads import get_spec, make_workload


def _records(n: int = 100) -> list[TraceRecord]:
    kinds = [RefKind.INSTR, RefKind.READ, RefKind.WRITE, RefKind.CSWITCH]
    return [
        TraceRecord(i % 2, i % 3, kinds[i % len(kinds)], 0x1000 + 16 * i)
        for i in range(n)
    ]


# -- chunks --------------------------------------------------------------------


class TestTraceChunk:
    def test_round_trips_records(self):
        records = _records(50)
        chunk = TraceChunk.from_records(records, start=7)
        assert len(chunk) == 50
        assert chunk.start == 7
        assert chunk.end == 57
        assert list(chunk.records()) == records

    def test_kind_codes_match_engine_encoding(self):
        chunk = TraceChunk.from_records(_records(40))
        for code, record in zip(chunk.kind.tolist(), _records(40)):
            assert code == KIND_TO_CODE[record.kind]

    def test_memory_refs_counts_non_markers(self):
        records = _records(40)  # every 4th is a CSWITCH
        chunk = TraceChunk.from_records(records)
        assert chunk.memory_refs == sum(1 for r in records if r.is_memory)

    def test_tail_trims_and_preserves_positions(self):
        chunk = TraceChunk.from_records(_records(20), start=100)
        tail = chunk.tail(5)
        assert tail.start == 105
        assert len(tail) == 15
        assert list(tail.records()) == _records(20)[5:]
        assert chunk.tail(0) is chunk

    def test_tail_rejects_bad_skip(self):
        chunk = TraceChunk.from_records(_records(10))
        with pytest.raises(ValueError):
            chunk.tail(11)
        with pytest.raises(ValueError):
            chunk.tail(-1)

    def test_unequal_vectors_rejected(self):
        with pytest.raises(ValueError):
            TraceChunk(
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
            )


def test_chunk_iter_batches_with_absolute_positions():
    chunks = list(chunk_iter(_records(25), chunk_records=10, start=40))
    assert [len(c) for c in chunks] == [10, 10, 5]
    assert [c.start for c in chunks] == [40, 50, 60]
    flattened = [r for c in chunks for r in c.records()]
    assert flattened == _records(25)


def test_chunk_iter_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        list(chunk_iter(_records(5), chunk_records=0))


# -- synthetic streams ---------------------------------------------------------


class TestSyntheticTraceStream:
    def test_matches_materialised_workload(self):
        spec = get_spec("pops", 0.005)
        stream = SyntheticTraceStream(spec, chunk_records=333)
        assert list(stream) == make_workload("pops", 0.005).records()

    def test_resume_skips_exactly(self):
        spec = get_spec("thor", 0.005)
        stream = SyntheticTraceStream(spec, chunk_records=256)
        full = list(stream.records())
        assert list(stream.records(start=1000)) == full[1000:]

    def test_chunks_restartable(self):
        spec = get_spec("pops", 0.003)
        stream = SyntheticTraceStream(spec, chunk_records=128)
        first = [len(c) for c in stream.chunks()]
        second = [len(c) for c in stream.chunks()]
        assert first == second

    def test_provenance_is_spec_stable(self):
        spec = get_spec("pops", 0.01)
        a = SyntheticTraceStream(spec).provenance()
        b = SyntheticTraceStream(spec).provenance()
        assert a == b
        assert a[0] == "synthetic"
        other = SyntheticTraceStream(get_spec("thor", 0.01)).provenance()
        assert other != a


class TestStreamCursor:
    def test_take_walks_the_stream(self):
        stream = SyntheticTraceStream(get_spec("pops", 0.003), 100)
        full = list(stream)
        cursor = StreamCursor(stream)
        taken = []
        while batch := cursor.take(97):
            taken.extend(batch)
        assert taken == full
        assert cursor.position == len(full)
        assert cursor.take(10) == []

    def test_resume_position(self):
        stream = SyntheticTraceStream(get_spec("pops", 0.003), 100)
        full = list(stream)
        cursor = StreamCursor(stream, position=500)
        assert cursor.take(100) == full[500:600]

    def test_rejects_bad_args(self):
        stream = SyntheticTraceStream(get_spec("pops", 0.003))
        with pytest.raises(ValueError):
            StreamCursor(stream, position=-1)
        with pytest.raises(ValueError):
            StreamCursor(stream).take(0)


# -- binary format -------------------------------------------------------------


class TestBinaryFormat:
    def test_write_read_round_trip(self, tmp_path):
        records = _records(1000)
        path = tmp_path / "t.rtb"
        written = write_binary(records, path, chunk_records=64)
        assert written == 1000
        reader = BinaryTraceReader(path)
        assert reader.n_records == 1000
        assert list(reader) == records

    def test_chunk_resume_seeks_mid_frame(self, tmp_path):
        records = _records(500)
        path = tmp_path / "t.rtb"
        write_binary(records, path, chunk_records=64)
        reader = BinaryTraceReader(path)
        for start in (0, 1, 63, 64, 65, 250, 499, 500):
            assert list(reader.records(start)) == records[start:], start

    def test_deterministic_bytes(self, tmp_path):
        records = _records(300)
        a, b = tmp_path / "a.rtb", tmp_path / "b.rtb"
        write_binary(records, a, chunk_records=50)
        write_binary(iter(records), b, chunk_records=50)
        assert a.read_bytes() == b.read_bytes()

    def test_text_binary_text_byte_identical(self, tmp_path):
        records = make_workload("abaqus", 0.003).records()
        text1 = tmp_path / "a.din"
        binary = tmp_path / "a.rtb"
        text2 = tmp_path / "b.din"
        textio.dump(records, text1)
        write_binary(open_trace(text1), binary, chunk_records=128)
        textio.dump(open_trace(binary), text2)
        assert text1.read_bytes() == text2.read_bytes()

    def test_provenance_pins_file_bytes(self, tmp_path):
        path = tmp_path / "t.rtb"
        write_binary(_records(100), path)
        fmt, version, digest = BinaryTraceReader(path).provenance()
        assert (fmt, version) == ("rtb", VERSION)
        write_binary(_records(101), path)
        assert BinaryTraceReader(path).provenance()[2] != digest

    def test_writer_rejects_out_of_range_fields(self, tmp_path):
        bad = [TraceRecord(1 << 16, 0, RefKind.READ, 0x100)]
        with pytest.raises(TraceFormatError):
            write_binary(bad, tmp_path / "t.rtb")

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rtb"
        assert write_binary([], path) == 0
        reader = BinaryTraceReader(path)
        assert reader.n_records == 0
        assert list(reader) == []


class TestTornBinaryFiles:
    """Satellite: torn/truncated binaries raise structured errors and
    never surface partial records."""

    def _valid(self, tmp_path, n=200, chunk=64):
        path = tmp_path / "t.rtb"
        write_binary(_records(n), path, chunk_records=chunk)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="bad magic"):
            BinaryTraceReader(path)

    def test_wrong_version(self, tmp_path):
        path = self._valid(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version 99"):
            BinaryTraceReader(path)

    def test_truncated_header(self, tmp_path):
        path = self._valid(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(TraceFormatError, match="truncated header"):
            BinaryTraceReader(path)

    def test_truncated_frame_header(self, tmp_path):
        path = self._valid(tmp_path)
        raw = path.read_bytes()
        # Cut into the second frame's 12-byte header.
        reader = BinaryTraceReader(path)
        second = reader.frame_index()[1]
        path.write_bytes(raw[: second[1] + 5])
        with pytest.raises(TraceFormatError, match="truncated frame header"):
            BinaryTraceReader(path).frame_index()

    def test_truncated_payload_mid_record(self, tmp_path):
        path = self._valid(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # tear the last frame's payload
        reader = BinaryTraceReader(path)
        with pytest.raises(TraceFormatError, match="past|truncated"):
            list(reader)

    def test_corrupt_payload_never_yields_partial_records(self, tmp_path):
        path = self._valid(tmp_path, n=128, chunk=64)
        raw = bytearray(path.read_bytes())
        reader = BinaryTraceReader(path)
        first = reader.frame_index()[0]
        # Replace the first frame's payload with a gzip of a short
        # (mid-record) byte string, fixing up the length field.
        torn = gzip.compress(b"\0" * (RECORD_SIZE + 3), mtime=0)
        header_end = first[1] + 12
        rest = bytes(raw[header_end + first[3] :])
        new = (
            bytes(raw[: first[1]])
            + struct.pack("<4sII", b"RPFR", first[2], len(torn))
            + torn
            + rest
        )
        path.write_bytes(new)
        fresh = BinaryTraceReader(path)
        seen: list = []
        with pytest.raises(TraceFormatError, match="mid-record EOF"):
            for record in fresh:
                seen.append(record)
        assert seen == []  # the torn frame yielded nothing at all

    def test_record_count_mismatch(self, tmp_path):
        path = self._valid(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 12, 9999)  # lie about n_records
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="promises 9999"):
            BinaryTraceReader(path).frame_index()


# -- text I/O satellite --------------------------------------------------------


class TestTextIO:
    def test_dump_gzip_by_suffix_round_trip(self, tmp_path):
        records = _records(500)
        path = tmp_path / "t.din.gz"
        assert textio.dump(records, path) == 500
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert list(textio.load(path)) == records

    def test_gzip_dump_deterministic(self, tmp_path):
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        textio.dump(_records(100), a)
        textio.dump(_records(100), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "line, column",
        [
            ("x 1 r 10", 1),
            ("0 x r 10", 2),
            ("0 1 q 10", 3),
            ("0 1 r zz", 4),
        ],
    )
    def test_parse_line_reports_offending_column(self, line, column):
        with pytest.raises(TraceFormatError) as err:
            textio.parse_line(line, lineno=3)
        assert f"column {column}" in str(err.value)
        assert err.value.context["column"] == column

    def test_parse_line_field_count_message_unchanged(self):
        with pytest.raises(TraceFormatError, match="4 fields"):
            textio.parse_line("1 2 3", lineno=1)


# -- SynchroTrace dialect ------------------------------------------------------


class TestSynchro:
    def _write(self, directory, tid, lines):
        directory.mkdir(exist_ok=True)
        with gzip.open(
            directory / f"sigil.events.out-{tid}.gz", "wt"
        ) as handle:
            handle.write("\n".join(lines) + "\n")

    def test_lowering_round_robin(self, tmp_path):
        st = tmp_path / "st"
        self._write(st, 0, ["1,0,2,0,1,1 * 4096 4111 $ 8192 8207"])
        self._write(st, 1, ["1,1,1,0,1,0 * 12288 12303"])
        reader = SynchroTraceReader(st, n_cpus=2)
        records = list(reader)
        # One INSTR per event, then the ranges; threads interleaved.
        assert [r.pid for r in records] == [0, 0, 0, 1, 1]
        assert [r.kind for r in records] == [
            RefKind.INSTR,
            RefKind.READ,
            RefKind.WRITE,
            RefKind.INSTR,
            RefKind.READ,
        ]
        assert records[1].vaddr == 4096
        assert records[2].vaddr == 8192

    def test_communication_event_reads_produced_range(self, tmp_path):
        st = tmp_path / "st"
        self._write(st, 0, ["1,0 # 1 5 8192 8223"])
        records = list(SynchroTraceReader(st, n_cpus=1))
        reads = [r for r in records if r.kind is RefKind.READ]
        assert [r.vaddr for r in reads] == [8192, 8208]

    def test_pthread_marker_touches_sync_address(self, tmp_path):
        st = tmp_path / "st"
        self._write(st, 0, ["1,0,pth_ty:1^81920"])
        records = list(SynchroTraceReader(st, n_cpus=1))
        assert records[-1].kind is RefKind.READ
        assert records[-1].vaddr == 81920

    def test_range_cap_bounds_huge_events(self, tmp_path):
        st = tmp_path / "st"
        self._write(st, 0, ["1,0,1,0,1,0 * 0 1048576"])
        reader = SynchroTraceReader(st, n_cpus=1, max_range_refs=4)
        reads = [r for r in reader if r.kind is RefKind.READ]
        assert len(reads) == 4

    @pytest.mark.parametrize(
        "line",
        [
            "1,0,5,0",  # wrong CSV arity
            "1,0,x,0,1,0",  # non-integer iops
            "1,0,1,0,1,0 * 4096",  # dangling range
            "1,0,1,0,1,0 * 9 5",  # inverted range
            "1,0 # 1 5 10",  # short communication edge
            "1,0,pth_ty:1",  # marker missing address
        ],
    )
    def test_malformed_events_raise_structured_errors(self, tmp_path, line):
        with pytest.raises(TraceFormatError):
            parse_event_line(line, tmp_path / "f.gz", 3)

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "st"
        empty.mkdir()
        with pytest.raises(TraceFormatError):
            SynchroTraceReader(empty)


# -- sniffing ------------------------------------------------------------------


class TestOpenTrace:
    def test_sniffs_all_formats(self, tmp_path):
        records = _records(64)
        din = tmp_path / "t.din"
        rtb = tmp_path / "t.rtb"
        gz = tmp_path / "t.din.gz"
        textio.dump(records, din)
        write_binary(records, rtb)
        textio.dump(records, gz)
        st = tmp_path / "st"
        st.mkdir()
        with gzip.open(st / "sigil.events.out-0.gz", "wt") as handle:
            handle.write("1,0,1,0,1,0 * 4096 4096\n")
        assert sniff_format(din) == "din"
        assert sniff_format(rtb) == "rtb"
        assert sniff_format(gz) == "din"
        assert sniff_format(st) == "synchro"
        assert list(open_trace(din)) == records
        assert list(open_trace(rtb)) == records
        assert list(open_trace(gz)) == records
        assert isinstance(open_trace(st), SynchroTraceReader)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            open_trace(tmp_path / "missing.din")

    def test_garbage_file_rejected(self, tmp_path):
        junk = tmp_path / "junk.din"
        junk.write_bytes(b"\x00\x01\x02 not a trace\n")
        with pytest.raises(TraceFormatError):
            open_trace(junk)

    def test_text_stream_resume(self, tmp_path):
        records = _records(100)
        din = tmp_path / "t.din"
        textio.dump(records, din)
        stream = TextTraceStream(din, chunk_records=16)
        assert list(stream.records(start=37)) == records[37:]


# -- replay + checkpoint integration ------------------------------------------


class TestStreamedReplay:
    def _config(self):
        return HierarchyConfig.sized("1K", "16K")

    def test_both_engines_match_in_memory_run(self, tmp_path):
        spec = get_spec("pops", 0.004)
        workload = make_workload("pops", 0.004)
        records = workload.records()
        path = tmp_path / "t.rtb"
        write_binary(records, path, chunk_records=512)

        reference = Multiprocessor(
            workload.layout, spec.n_cpus, self._config()
        ).run(records)
        counters = {}
        for path_name in ("walker", "scalar"):
            machine = Multiprocessor(DemandLayout(), spec.n_cpus, self._config())
            trace = BinaryTraceReader(path)
            if path_name == "walker":
                result = machine.run(trace)
            else:
                result = machine.run_scalar(trace)
            assert result.refs_processed == reference.refs_processed
            # External traces translate through a demand layout, so
            # physical placement differs from the synthetic layout —
            # but the walker must agree with the scalar loop.
            counters[path_name] = [s.counters.export_state() for s in result.per_cpu]
        assert counters["walker"] == counters["scalar"]

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        records = make_workload("pops", 0.004).records()
        path = tmp_path / "t.rtb"
        write_binary(records, path, chunk_records=512)
        config = self._config()

        class Stop(Exception):
            pass

        def run(interrupt_at=None):
            ckpt = str(tmp_path / "resume.ckpt")
            machine = Multiprocessor(DemandLayout(), 4, config)

            def bomb(position):
                if interrupt_at is not None and position >= interrupt_at:
                    raise Stop()

            return run_checkpointed(
                machine,
                BinaryTraceReader(path),
                ckpt,
                chunk=3000,
                on_chunk=bomb,
            )

        plain_ckpt = str(tmp_path / "plain.ckpt")
        plain_machine = Multiprocessor(DemandLayout(), 4, config)
        plain = run_checkpointed(
            plain_machine, BinaryTraceReader(path), plain_ckpt, chunk=3000
        )
        with pytest.raises(Stop):
            run(interrupt_at=9000)
        resumed = run()
        assert resumed.refs_processed == plain.refs_processed
        assert [s.counters.export_state() for s in resumed.per_cpu] == [
            s.counters.export_state() for s in plain.per_cpu
        ]
        assert resumed.bus_transactions == plain.bus_transactions
        assert resumed.tlb_per_cpu == plain.tlb_per_cpu

    def test_demand_layout_state_round_trips(self):
        layout = DemandLayout()
        addresses = [(1, 0x1000), (1, 0x2000), (2, 0x1000), (1, 0x1008)]
        translations = [layout.translate(p, v) for p, v in addresses]
        state = layout.export_state()
        fresh = DemandLayout()
        fresh.restore_state(json.loads(json.dumps(state)))
        assert [
            fresh.translate(p, v) for p, v in addresses
        ] == translations
        assert fresh.allocator.frames_allocated == layout.allocator.frames_allocated

    def test_run_options_key_trace_provenance(self):
        from repro.experiments.base import RunOptions

        plain = RunOptions()
        pinned = RunOptions(trace_provenance=("rtb", 1, "ab" * 32))
        keys = {
            plain.result_key_parts(),
            pinned.result_key_parts(),
        }
        assert len(keys) == 2


def test_trace_stream_default_surface():
    stream = TraceStream()
    assert stream.provenance() is None
    with pytest.raises(NotImplementedError):
        next(stream.chunks())
