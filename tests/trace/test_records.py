"""Unit tests for trace records and the Trace container."""

import pytest

from repro.trace import AccessType, Trace, TraceRecord
from repro.trace.records import AddressRange


class TestAccessType:
    def test_data_classification(self):
        assert AccessType.LOAD.is_data
        assert AccessType.STORE.is_data
        assert not AccessType.INST_FETCH.is_data
        assert not AccessType.FLUSH.is_data


class TestAddressRange:
    def test_membership(self):
        shared = AddressRange(0x1000, 0x2000)
        assert 0x1000 in shared
        assert 0x1FFF in shared
        assert 0x2000 not in shared
        assert 0x0FFF not in shared

    def test_length(self):
        assert len(AddressRange(16, 48)) == 32

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            AddressRange(100, 50)
        with pytest.raises(ValueError):
            AddressRange(-1, 50)


def _toy_trace() -> Trace:
    records = [
        TraceRecord(0, AccessType.INST_FETCH, 0x0),
        TraceRecord(1, AccessType.LOAD, 0x1000),
        TraceRecord(0, AccessType.STORE, 0x1004),
        TraceRecord(2, AccessType.FLUSH, 0x1008),
        TraceRecord(1, AccessType.INST_FETCH, 0x8),
    ]
    return Trace(
        name="toy",
        cpus=3,
        shared_region=AddressRange(0x1000, 0x2000),
        records=records,
    )


class TestTrace:
    def test_len_and_iter(self):
        trace = _toy_trace()
        assert len(trace) == 5
        assert [record.cpu for record in trace] == [0, 1, 0, 2, 1]

    def test_is_shared(self):
        trace = _toy_trace()
        assert trace.is_shared(0x1000)
        assert not trace.is_shared(0x0)

    def test_per_cpu_counts(self):
        assert _toy_trace().per_cpu_counts() == [2, 2, 1]

    def test_restricted_to(self):
        restricted = _toy_trace().restricted_to(2)
        assert restricted.cpus == 2
        assert all(record.cpu < 2 for record in restricted)
        assert len(restricted) == 4
        assert restricted.shared_region == _toy_trace().shared_region

    def test_restricted_keeps_per_cpu_order(self):
        trace = _toy_trace()
        restricted = trace.restricted_to(2)
        original_cpu0 = [r for r in trace if r.cpu == 0]
        restricted_cpu0 = [r for r in restricted if r.cpu == 0]
        assert original_cpu0 == restricted_cpu0

    def test_restricted_bounds(self):
        trace = _toy_trace()
        with pytest.raises(ValueError):
            trace.restricted_to(0)
        with pytest.raises(ValueError):
            trace.restricted_to(4)

    def test_restriction_naming(self):
        assert _toy_trace().restricted_to(1).name == "toy[1cpu]"
        assert _toy_trace().restricted_to(1, name="solo").name == "solo"

    def test_from_records_materialises(self):
        generator = (record for record in _toy_trace().records)
        trace = Trace.from_records(
            generator, cpus=3, shared_region=AddressRange(0, 1)
        )
        assert len(trace) == 5

    def test_rejects_zero_cpus(self):
        with pytest.raises(ValueError):
            Trace(name="x", cpus=0, shared_region=AddressRange(0, 1))

    @pytest.mark.parametrize("cpus", [2.0, 2.5, True])
    def test_rejects_non_integer_cpus(self, cpus):
        message = rf"^cpus must be an integer, got {cpus!r}$"
        with pytest.raises(ValueError, match=message):
            _toy_trace().restricted_to(cpus)
        with pytest.raises(ValueError, match=message):
            Trace(name="x", cpus=cpus, shared_region=AddressRange(0, 1))
        with pytest.raises(ValueError, match=message):
            Trace.from_arrays(
                name="x", cpus=cpus, shared_region=AddressRange(0, 1),
                cpu=[], kind=[], address=[],
            )


class TestColumnarLayout:
    def test_column_dtypes(self):
        import numpy as np

        trace = _toy_trace()
        assert trace.cpu.dtype == np.uint16
        assert trace.kind.dtype == np.uint8
        assert trace.address.dtype == np.uint64

    def test_from_arrays_round_trip(self):
        original = _toy_trace()
        rebuilt = Trace.from_arrays(
            name=original.name,
            cpus=original.cpus,
            shared_region=original.shared_region,
            cpu=original.cpu,
            kind=original.kind,
            address=original.address,
        )
        assert rebuilt.records == original.records

    def test_from_arrays_rejects_length_mismatch(self):
        trace = _toy_trace()
        with pytest.raises(ValueError, match="column lengths"):
            Trace.from_arrays(
                name="x",
                cpus=3,
                shared_region=AddressRange(0, 1),
                cpu=trace.cpu[:-1],
                kind=trace.kind,
                address=trace.address,
            )

    def test_from_arrays_rejects_unknown_kind_code(self):
        trace = _toy_trace()
        bad_kind = trace.kind.copy()
        bad_kind[0] = 200
        with pytest.raises(ValueError, match="kind codes"):
            Trace.from_arrays(
                name="x",
                cpus=3,
                shared_region=AddressRange(0, 1),
                cpu=trace.cpu,
                kind=bad_kind,
                address=trace.address,
            )

    def test_records_view_indexing(self):
        records = _toy_trace().records
        assert records[1] == TraceRecord(1, AccessType.LOAD, 0x1000)
        assert records[-1] == TraceRecord(1, AccessType.INST_FETCH, 0x8)
        assert records[1:3] == [
            TraceRecord(1, AccessType.LOAD, 0x1000),
            TraceRecord(0, AccessType.STORE, 0x1004),
        ]
        assert records[1].kind is AccessType.LOAD

    def test_records_view_equality(self):
        trace = _toy_trace()
        assert trace.records == _toy_trace().records
        assert trace.records == list(trace.records)
        assert trace.records != list(trace.records)[:-1]

    def test_block_index(self):
        blocks = _toy_trace().block_index(4)
        assert blocks.tolist() == [0x0, 0x100, 0x100, 0x100, 0x0]

    def test_shared_mask(self):
        mask = _toy_trace().shared_mask()
        assert mask.tolist() == [False, True, True, True, False]
