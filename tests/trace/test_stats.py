"""Unit tests for trace statistics and the apl estimator.

``oracle_stats`` and ``oracle_runs`` are the per-record reference
loops that the columnar kernel in :mod:`repro.trace.stats` must equal
exactly, run order included.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    TraceConfig,
    TraceStats,
    collect_stats,
    generate_trace,
    shared_run_lengths,
)
from repro.trace.records import AccessType, AddressRange, Trace, TraceRecord

SHARED = AddressRange(0x1000, 0x2000)


def make_trace(records, cpus=2) -> Trace:
    return Trace(name="t", cpus=cpus, shared_region=SHARED, records=records)


def ref(cpu, kind, address):
    return TraceRecord(cpu, kind, address)


L, S, I, F = (
    AccessType.LOAD,
    AccessType.STORE,
    AccessType.INST_FETCH,
    AccessType.FLUSH,
)


class TestBasicCounts:
    def test_mix(self):
        trace = make_trace(
            [
                ref(0, I, 0x0),
                ref(0, L, 0x100),
                ref(0, I, 0x4),
                ref(0, S, 0x1000),
                ref(1, F, 0x1000),
            ]
        )
        stats = collect_stats(trace)
        assert stats.instructions == 2
        assert stats.loads == 1
        assert stats.stores == 1
        assert stats.flushes == 1
        assert stats.shared_stores == 1
        assert stats.shared_loads == 0
        assert stats.ls == pytest.approx(1.0)
        assert stats.shd == pytest.approx(0.5)
        assert stats.wr == pytest.approx(1.0)

    def test_empty_trace(self):
        stats = collect_stats(make_trace([]))
        assert stats.ls == 0.0
        assert stats.shd == 0.0
        assert stats.wr == 0.0
        assert stats.apl == 1.0
        assert stats.mdshd == 0.0

    def test_per_cpu_records(self):
        trace = make_trace([ref(0, I, 0), ref(1, I, 4), ref(1, L, 8)])
        assert collect_stats(trace).per_cpu_records == [1, 2]


class TestRunLengths:
    def test_single_processor_single_run(self):
        # Three references by CPU 0 to the same shared block, one write.
        trace = make_trace(
            [ref(0, L, 0x1000), ref(0, S, 0x1004), ref(0, L, 0x1008)]
        )
        stats = collect_stats(trace)
        assert stats.run_lengths == [3]
        assert stats.write_run_lengths == [3]
        assert stats.apl == pytest.approx(3.0)

    def test_interleaving_closes_runs(self):
        # CPU0 twice, CPU1 once, CPU0 once -> runs 2, 1, 1.
        trace = make_trace(
            [
                ref(0, S, 0x1000),
                ref(0, L, 0x1000),
                ref(1, S, 0x1000),
                ref(0, S, 0x1000),
            ]
        )
        stats = collect_stats(trace)
        assert sorted(stats.run_lengths) == [1, 1, 2]

    def test_apl_counts_only_write_runs(self):
        """The paper counts runs with at least one write."""
        trace = make_trace(
            [
                # CPU0: read-only run of 4.
                ref(0, L, 0x1000),
                ref(0, L, 0x1000),
                ref(0, L, 0x1000),
                ref(0, L, 0x1000),
                # CPU1: write run of 2.
                ref(1, S, 0x1000),
                ref(1, L, 0x1000),
            ]
        )
        stats = collect_stats(trace)
        assert stats.apl == pytest.approx(2.0)
        assert stats.mdshd == pytest.approx(0.5)

    def test_apl_falls_back_to_all_runs(self):
        trace = make_trace([ref(0, L, 0x1000), ref(0, L, 0x1000)])
        stats = collect_stats(trace)
        assert stats.write_run_lengths == []
        assert stats.apl == pytest.approx(2.0)

    def test_blocks_tracked_independently(self):
        trace = make_trace(
            [
                ref(0, S, 0x1000),
                ref(0, S, 0x1010),  # different 16-byte block
                ref(1, S, 0x1000),
            ]
        )
        stats = collect_stats(trace)
        assert stats.shared_blocks_touched == 2
        assert sorted(stats.run_lengths) == [1, 1, 1]

    def test_private_references_do_not_contribute(self):
        trace = make_trace([ref(0, S, 0x100), ref(1, S, 0x100)])
        stats = collect_stats(trace)
        assert stats.run_lengths == []
        assert stats.shared_blocks_touched == 0


class TestSharedRunLengths:
    def test_per_block_view(self):
        trace = make_trace(
            [
                ref(0, S, 0x1000),
                ref(0, L, 0x1004),
                ref(1, L, 0x1000),
                ref(0, S, 0x1010),
            ]
        )
        runs = shared_run_lengths(trace)
        assert runs[0x1000 >> 4] == [2, 1]
        assert runs[0x1010 >> 4] == [1]

    def test_matches_collect_stats_totals(self):
        from repro.trace import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=3_000, seed=9)
        )
        stats = collect_stats(trace)
        runs = shared_run_lengths(trace)
        flattened = sorted(
            length for block_runs in runs.values() for length in block_runs
        )
        assert flattened == sorted(stats.run_lengths)


# -- reference loops ---------------------------------------------------------

_BLOCK_SHIFT = 4


def oracle_stats(trace: Trace) -> TraceStats:
    """Per-record reference for :func:`collect_stats`."""
    stats = TraceStats(per_cpu_records=[0] * trace.cpus)
    # shared block -> (owner cpu, run length, run contains a write)
    open_runs: dict[int, tuple[int, int, bool]] = {}
    shared_blocks: set[int] = set()

    def close(run):
        _, length, wrote = run
        stats.run_lengths.append(length)
        if wrote:
            stats.write_run_lengths.append(length)

    for cpu, kind, address in trace.records:
        stats.per_cpu_records[cpu] += 1
        if kind is AccessType.INST_FETCH:
            stats.instructions += 1
            continue
        if kind is AccessType.FLUSH:
            stats.flushes += 1
            continue

        is_store = kind is AccessType.STORE
        if is_store:
            stats.stores += 1
        else:
            stats.loads += 1

        if not trace.is_shared(address):
            continue
        if is_store:
            stats.shared_stores += 1
        else:
            stats.shared_loads += 1

        block = address >> _BLOCK_SHIFT
        shared_blocks.add(block)
        run = open_runs.get(block)
        if run is None or run[0] != cpu:
            if run is not None:
                close(run)
            open_runs[block] = (cpu, 1, is_store)
        else:
            open_runs[block] = (cpu, run[1] + 1, run[2] or is_store)

    for run in open_runs.values():
        close(run)
    stats.shared_blocks_touched = len(shared_blocks)
    return stats


def oracle_runs(trace: Trace) -> dict[int, list[int]]:
    """Per-record reference for :func:`shared_run_lengths`."""
    runs: dict[int, list[int]] = defaultdict(list)
    current: dict[int, tuple[int, int]] = {}
    for cpu, kind, address in trace.records:
        if not kind.is_data or not trace.is_shared(address):
            continue
        block = address >> _BLOCK_SHIFT
        owner = current.get(block)
        if owner is None or owner[0] != cpu:
            if owner is not None:
                runs[block].append(owner[1])
            current[block] = (cpu, 1)
        else:
            current[block] = (cpu, owner[1] + 1)
    for block, (_, length) in current.items():
        runs[block].append(length)
    return dict(runs)


def assert_matches_oracle(trace: Trace) -> TraceStats:
    stats = collect_stats(trace)
    assert stats == oracle_stats(trace)
    runs = shared_run_lengths(trace)
    expected = oracle_runs(trace)
    assert runs == expected
    assert list(runs) == list(expected)
    return stats


def shifted(trace: Trace, start_offset: int, stop_offset: int) -> Trace:
    """``trace`` with its shared region moved by a few bytes."""
    region = trace.shared_region
    return Trace.from_arrays(
        trace.name,
        trace.cpus,
        AddressRange(region.start + start_offset, region.stop + stop_offset),
        trace.cpu,
        trace.kind,
        trace.address,
    )


# -- columnar kernel == reference loops --------------------------------------

generated = st.builds(
    TraceConfig,
    cpus=st.integers(min_value=1, max_value=4),
    records_per_cpu=st.integers(min_value=1, max_value=800),
    shd=st.floats(min_value=0.0, max_value=0.8),
    shared_write_fraction=st.floats(min_value=0.0, max_value=0.8),
    section_length_mean=st.integers(min_value=1, max_value=20),
    shared_objects=st.integers(min_value=1, max_value=16),
    object_blocks=st.integers(min_value=1, max_value=4),
    flush_on_exit=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)

# Dense hand-rolled streams: few CPUs and blocks, so runs of one block
# close and reopen often and open runs interleave across blocks.
raw_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0x0FF0, max_value=0x1050),
    ),
    max_size=80,
)


class TestMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        generated,
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
    )
    def test_generated_traces(self, config, start_offset, stop_offset):
        trace = generate_trace(config)
        assert_matches_oracle(trace)
        assert_matches_oracle(shifted(trace, start_offset, stop_offset))

    @settings(max_examples=60, deadline=None)
    @given(raw_records)
    def test_raw_record_streams(self, records):
        trace = Trace(
            name="raw",
            cpus=3,
            shared_region=AddressRange(0x1008, 0x1034),
            records=records,
        )
        assert_matches_oracle(trace)

    def test_empty_trace(self):
        stats = assert_matches_oracle(make_trace([], cpus=3))
        assert stats == TraceStats(per_cpu_records=[0, 0, 0])

    def test_no_shared_references(self):
        stats = assert_matches_oracle(
            make_trace([ref(0, L, 0x100), ref(1, S, 0x104), ref(1, I, 0x0)])
        )
        assert stats.run_lengths == []
        assert stats.shared_references == 0

    def test_one_cpu(self):
        stats = assert_matches_oracle(
            make_trace(
                [
                    ref(0, L, 0x1010),
                    ref(0, S, 0x1000),
                    ref(0, L, 0x1010),
                    ref(0, L, 0x1000),
                ],
                cpus=1,
            )
        )
        # One run per block, closed at the end in first-touch order.
        assert stats.run_lengths == [2, 2]
        assert stats.write_run_lengths == [2]

    def test_flush_only(self):
        stats = assert_matches_oracle(
            make_trace([ref(0, F, 0x1000), ref(1, F, 0x1000)])
        )
        assert stats.flushes == 2
        assert stats.shared_blocks_touched == 0
        assert stats.run_lengths == []

    def test_close_order(self):
        a, b = 0x1000, 0x1010
        trace = make_trace(
            [
                ref(0, S, a),
                ref(0, S, a),
                ref(0, L, b),
                ref(0, L, b),
                ref(0, L, b),
                ref(1, L, b),  # closes b's run of 3
                ref(1, S, a),  # closes a's run of 2
                ref(0, L, b),  # closes b's run of 1
                ref(0, L, a),  # closes a's run of 1
                ref(0, L, a),
                ref(0, L, a),
                ref(0, L, a),
            ]
        )
        stats = assert_matches_oracle(trace)
        # Mid-trace closes in trace order, then the open runs in the
        # order their blocks were first touched: a (4), then b (1).
        assert stats.run_lengths == [3, 2, 1, 1, 4, 1]
        assert stats.write_run_lengths == [2, 1]
        # Blocks are keyed in the order their first runs close.
        runs = shared_run_lengths(trace)
        assert runs == {b >> 4: [3, 1, 1], a >> 4: [2, 1, 4]}
        assert list(runs) == [b >> 4, a >> 4]

    def test_unaligned_shared_region_classifies_bytes(self):
        trace = Trace(
            name="t",
            cpus=2,
            shared_region=AddressRange(0x1008, 0x2004),
            records=[
                ref(0, L, 0x1000),  # shares a block with 0x1008, private
                ref(0, S, 0x1008),
                ref(1, L, 0x2000),
                ref(1, S, 0x2004),  # shares a block with 0x2000, private
                ref(1, L, 0x200C),
            ],
        )
        stats = assert_matches_oracle(trace)
        assert (stats.shared_loads, stats.shared_stores) == (1, 1)
        assert stats.run_lengths == [1, 1]
        assert shared_run_lengths(trace) == {0x100: [1], 0x200: [1]}


class TestValidation:
    def test_cpu_id_out_of_range(self):
        trace = Trace.from_arrays(
            "t", 2, SHARED, cpu=[0, 2], kind=[1, 1], address=[0x100, 0x1000]
        )
        with pytest.raises(
            ValueError,
            match=r"^cpu id 2 out of range for a trace of 2 cpus$",
        ):
            collect_stats(trace)
