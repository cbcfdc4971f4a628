"""Unit tests for flush-placement policies."""

import pytest

from repro.trace import TraceConfig, generate_trace, preset
from repro.trace.flushing import (
    FLUSH_POLICIES,
    apply_flush_policy,
    implied_apl,
)
from repro.trace.records import AccessType, AddressRange, Trace, TraceRecord

SHARED = AddressRange(0x1000, 0x2000)
L, S, I, F = (
    AccessType.LOAD,
    AccessType.STORE,
    AccessType.INST_FETCH,
    AccessType.FLUSH,
)


@pytest.fixture(scope="module")
def thor_trace():
    # Shared by the module: policies build new traces, never edit theirs.
    return preset("thor").generate(records_per_cpu=2_000)


def make_trace(records, cpus=2):
    return Trace(name="t", cpus=cpus, shared_region=SHARED, records=records)


class TestPolicyBasics:
    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            apply_flush_policy(make_trace([]), "jit")

    def test_section_is_identity(self):
        trace = make_trace([TraceRecord(0, F, 0x1000)])
        assert apply_flush_policy(trace, "section") is trace

    def test_none_strips_flushes(self):
        trace = make_trace(
            [TraceRecord(0, L, 0x1000), TraceRecord(0, F, 0x1000)]
        )
        stripped = apply_flush_policy(trace, "none")
        assert all(r.kind is not F for r in stripped)
        assert len(stripped) == 1

    def test_references_never_modified(self):
        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=3_000, seed=6)
        )
        for policy in FLUSH_POLICIES:
            rewritten = apply_flush_policy(trace, policy)
            original_refs = [
                r for r in trace.records if r.kind is not F
            ]
            rewritten_refs = [
                r for r in rewritten.records if r.kind is not F
            ]
            assert rewritten_refs == original_refs, policy

    def test_naming(self):
        trace = make_trace([])
        assert apply_flush_policy(trace, "eager").name == "t[eager]"


class TestEager:
    def test_flush_after_every_shared_reference(self):
        trace = make_trace(
            [
                TraceRecord(0, L, 0x1004),
                TraceRecord(0, L, 0x200),  # private: no flush
                TraceRecord(1, S, 0x1008),
            ]
        )
        eager = apply_flush_policy(trace, "eager")
        kinds = [(r.cpu, r.kind) for r in eager.records]
        assert kinds == [(0, L), (0, F), (0, L), (1, S), (1, F)]

    def test_flush_targets_block_base(self):
        # 0x1FFC sits in the shared region at offset 12 of its block.
        trace = make_trace([TraceRecord(0, L, 0x1FFC)], cpus=1)
        eager = apply_flush_policy(trace, "eager")
        flushes = [r for r in eager.records if r.kind is F]
        assert flushes[0].address == 0x1FF0

    def test_implied_apl_is_one(self):
        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=3_000, seed=6)
        )
        eager = apply_flush_policy(trace, "eager")
        assert implied_apl(eager) == pytest.approx(1.0)


class TestOracle:
    def test_flush_only_at_run_ends(self):
        trace = make_trace(
            [
                TraceRecord(0, S, 0x1000),
                TraceRecord(0, L, 0x1004),   # same block, same CPU
                TraceRecord(1, L, 0x1000),   # run of CPU 0 ended above
            ]
        )
        oracle = apply_flush_policy(trace, "oracle")
        flushes = [
            (index, r) for index, r in enumerate(oracle.records)
            if r.kind is F
        ]
        # One flush after CPU 0's second reference, one closing CPU 1's
        # final run.
        assert len(flushes) == 2
        assert oracle.records[2].kind is F
        assert oracle.records[2].cpu == 0

    def test_single_cpu_flushes_only_last_reference(self):
        trace = make_trace(
            [TraceRecord(0, S, 0x1000)] * 5, cpus=1
        )
        oracle = apply_flush_policy(trace, "oracle")
        flushes = [r for r in oracle.records if r.kind is F]
        assert len(flushes) == 1
        assert oracle.records[-1].kind is F

    def test_oracle_achieves_mean_run_length(self):
        from repro.trace.stats import shared_run_lengths

        trace = generate_trace(
            TraceConfig(cpus=4, records_per_cpu=5_000, seed=8)
        )
        oracle = apply_flush_policy(trace, "oracle")
        runs = shared_run_lengths(trace)
        lengths = [
            length for block_runs in runs.values() for length in block_runs
        ]
        mean_run = sum(lengths) / len(lengths)
        assert implied_apl(oracle) == pytest.approx(mean_run, rel=1e-9)

    def test_oracle_never_flushes_mid_run(self):
        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=2_000, seed=12)
        )
        oracle = apply_flush_policy(trace, "oracle")
        last_flusher: dict[int, int] = {}
        for record in oracle.records:
            block = record.address >> 4
            if record.kind is F:
                last_flusher[block] = record.cpu
            elif record.kind.is_data and oracle.is_shared(record.address):
                # After a flush of this block, the next toucher must
                # be a different CPU (otherwise the flush was wasted).
                if block in last_flusher:
                    assert record.cpu != last_flusher.pop(block)


class TestImpliedApl:
    def test_no_flushes_is_infinite(self):
        trace = make_trace([TraceRecord(0, L, 0x1000)])
        assert implied_apl(trace) == float("inf")

    def test_counts_only_shared_references(self):
        trace = make_trace(
            [
                TraceRecord(0, L, 0x1000),
                TraceRecord(0, L, 0x200),    # private, not counted
                TraceRecord(0, L, 0x1004),
                TraceRecord(0, F, 0x1000),
            ]
        )
        assert implied_apl(trace) == pytest.approx(2.0)

    @pytest.mark.parametrize("policy", FLUSH_POLICIES)
    def test_matches_record_loop(self, policy, thor_trace):
        trace = apply_flush_policy(thor_trace, policy)
        shared = flushes = 0
        for record in trace.records:
            if record.kind is F:
                flushes += 1
            elif record.kind.is_data and trace.is_shared(record.address):
                shared += 1
        expected = shared / flushes if flushes else float("inf")
        assert implied_apl(trace) == expected
