"""Unit tests for trace serialisation."""

import pytest

from repro.trace import TraceConfig, generate_trace, load_trace, save_trace
from repro.trace.io import TraceFormatError
from repro.trace.records import AccessType, AddressRange, Trace, TraceRecord


@pytest.fixture(scope="module")
def small_trace():
    # Shared by the module: every test only saves or reads it.
    return generate_trace(
        TraceConfig(cpus=2, records_per_cpu=500, seed=42), name="roundtrip"
    )


class TestRoundTrip:
    def test_plain_text(self, small_trace, tmp_path):
        path = tmp_path / "trace.swcc"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert loaded.name == small_trace.name
        assert loaded.cpus == small_trace.cpus
        assert loaded.shared_region == small_trace.shared_region
        assert list(loaded.records) == list(small_trace.records)

    def test_gzip(self, small_trace, tmp_path):
        path = tmp_path / "trace.swcc.gz"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert list(loaded.records) == list(small_trace.records)

    def test_gzip_is_smaller(self, small_trace, tmp_path):
        plain = tmp_path / "a.swcc"
        packed = tmp_path / "a.swcc.gz"
        save_trace(small_trace, plain)
        save_trace(small_trace, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_all_kinds_survive(self, tmp_path):
        records = [
            TraceRecord(0, AccessType.INST_FETCH, 0x10),
            TraceRecord(1, AccessType.LOAD, 0x20),
            TraceRecord(2, AccessType.STORE, 0x30),
            TraceRecord(0, AccessType.FLUSH, 0x40),
        ]
        trace = Trace(
            name="kinds", cpus=3,
            shared_region=AddressRange(0x40, 0x80), records=records,
        )
        path = tmp_path / "kinds.swcc"
        save_trace(trace, path)
        assert list(load_trace(path).records) == records


class TestBinaryV2:
    def test_round_trip(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert loaded.name == small_trace.name
        assert loaded.cpus == small_trace.cpus
        assert loaded.shared_region == small_trace.shared_region
        assert list(loaded.records) == list(small_trace.records)

    def test_npz_suffix_selects_v2(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        assert path.read_bytes()[:4] == b"PK\x03\x04"

    def test_format_override_beats_suffix(self, small_trace, tmp_path):
        path = tmp_path / "trace.swcc"
        save_trace(small_trace, path, format="v2")
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        # load_trace sniffs magic bytes, so the odd suffix is fine.
        loaded = load_trace(path)
        assert list(loaded.records) == list(small_trace.records)

    def test_v2_smaller_than_text(self, small_trace, tmp_path):
        text = tmp_path / "a.swcc"
        binary = tmp_path / "a.npz"
        save_trace(small_trace, text)
        save_trace(small_trace, binary)
        assert binary.stat().st_size < text.stat().st_size

    def test_all_kinds_survive(self, tmp_path):
        records = [
            TraceRecord(0, AccessType.INST_FETCH, 0x10),
            TraceRecord(1, AccessType.LOAD, 0x20),
            TraceRecord(2, AccessType.STORE, 0x30),
            TraceRecord(0, AccessType.FLUSH, 0x40),
        ]
        trace = Trace(
            name="kinds", cpus=3,
            shared_region=AddressRange(0x40, 0x80), records=records,
        )
        path = tmp_path / "kinds.npz"
        save_trace(trace, path)
        assert list(load_trace(path).records) == records

    def test_unknown_format_rejected(self, small_trace, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            save_trace(small_trace, tmp_path / "t.swcc", format="v3")

    def test_truncated_archive(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(TraceFormatError, match="not a readable"):
            load_trace(path)

    def test_missing_members(self, tmp_path):
        import numpy as np

        path = tmp_path / "odd.npz"
        with open(path, "wb") as stream:
            np.savez_compressed(stream, cpu=np.zeros(1, dtype=np.uint16))
        with pytest.raises(TraceFormatError, match="missing members"):
            load_trace(path)

    def test_foreign_archive_rejected(self, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "foreign.npz"
        meta = json.dumps({"format": "something-else"}).encode()
        with open(path, "wb") as stream:
            np.savez_compressed(
                stream,
                meta=np.frombuffer(meta, dtype=np.uint8),
                cpu=np.zeros(1, dtype=np.uint16),
                kind=np.zeros(1, dtype=np.uint8),
                address=np.zeros(1, dtype=np.uint64),
            )
        with pytest.raises(TraceFormatError, match="not a swcc trace"):
            load_trace(path)

    def test_unknown_kind_code(self, small_trace, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "badkind.npz"
        meta = json.dumps(
            {
                "format": "swcc-trace", "version": 2, "name": "x",
                "cpus": 1, "shared": [0, 16],
            }
        ).encode()
        with open(path, "wb") as stream:
            np.savez_compressed(
                stream,
                meta=np.frombuffer(meta, dtype=np.uint8),
                cpu=np.zeros(1, dtype=np.uint16),
                kind=np.full(1, 9, dtype=np.uint8),
                address=np.zeros(1, dtype=np.uint64),
            )
        with pytest.raises(TraceFormatError, match="unknown access kind"):
            load_trace(path)


class TestErrors:
    def test_missing_magic(self, tmp_path):
        path = tmp_path / "bad.swcc"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(path)

    def test_malformed_header_fields(self, tmp_path):
        path = tmp_path / "bad.swcc"
        path.write_text("#swcc-trace v1 name=x cpus=two shared=0:10\n")
        with pytest.raises(TraceFormatError, match="malformed"):
            load_trace(path)

    def test_bad_record_width(self, tmp_path):
        path = tmp_path / "bad.swcc"
        path.write_text(
            "#swcc-trace v1 name=x cpus=1 shared=0:10\n0 L\n"
        )
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(path)

    def test_unknown_kind_letter(self, tmp_path):
        path = tmp_path / "bad.swcc"
        path.write_text(
            "#swcc-trace v1 name=x cpus=1 shared=0:10\n0 Q ff\n"
        )
        with pytest.raises(TraceFormatError, match="unknown access kind"):
            load_trace(path)

    def test_bad_address(self, tmp_path):
        path = tmp_path / "bad.swcc"
        path.write_text(
            "#swcc-trace v1 name=x cpus=1 shared=0:10\n0 L zz!\n"
        )
        with pytest.raises(TraceFormatError, match="bad cpu or address"):
            load_trace(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.swcc"
        path.write_text(
            "#swcc-trace v1 name=x cpus=1 shared=0:10\n"
            "\n# a comment\n0 L ff\n"
        )
        trace = load_trace(path)
        assert len(trace) == 1
        assert trace.records[0].address == 0xFF
