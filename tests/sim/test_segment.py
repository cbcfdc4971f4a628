"""Geometry-local classification: one classifier, one engine label.

The Base, No-Cache and Software-Flush sweeps classify hits and misses
with one walk, :func:`repro.sim.onepass._classify`, at every
associativity and with or without flush records.  A one-size
:func:`repro.sim.run_geometry_family` is the single-configuration
entry to it and must be byte-identical to ``Machine.run``.  The
run-collapse kernel :func:`repro.sim.classify_lru` survives only
inside the Dragon family; its theorem is pinned against a
direct LRU simulation below.  ``Machine.run`` has no ``segment``
engine label: asking for one is refused loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import CostTable, Operation, OperationCost
from repro.sim import (
    ONEPASS_PROTOCOLS,
    Machine,
    SimulationConfig,
    classify_lru,
    family_support,
    run_geometry_family,
)
from repro.trace import TraceConfig, derived_columns, generate_trace
from repro.trace.records import Trace
from repro.verify.differential import stats_signature
from repro.verify.fuzzer import generate_case

#: An engine label ``Machine.run`` must reject.
REMOVED_ENGINE = "segment"
ENGINE_MESSAGE = (
    "engine must be 'columnar', 'legacy', or 'arbitrated', "
    f"got {REMOVED_ENGINE!r}"
)


@pytest.fixture(scope="module")
def seeded_trace():
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


def without_flushes(trace):
    keep = trace.kind != 3
    return Trace.from_arrays(
        name=f"{trace.name}-noflush",
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        cpu=trace.cpu[keep],
        kind=trace.kind[keep],
        address=trace.address[keep],
    )


def assert_onepass_matches(
    trace, protocol, config, order="time", engine="columnar"
):
    """A one-size family equals ``Machine.run(engine=engine)``."""
    run = run_geometry_family(
        protocol,
        trace,
        [config.cache_bytes],
        block_bytes=config.block_bytes,
        associativity=config.associativity,
        order=order,
    )[config.cache_bytes]
    reference = Machine(protocol, config).run(
        trace, order=order, engine=engine
    )
    assert run.engine == "onepass"
    assert stats_signature(run) == stats_signature(reference), (
        f"{protocol} {order} {config}"
    )


def assert_segment_engine_refused(trace, protocol, config, costs=None):
    machine = Machine(protocol, config, costs)
    with pytest.raises(ValueError) as raised:
        machine.run(trace, engine=REMOVED_ENGINE)
    assert str(raised.value) == ENGINE_MESSAGE


class TestSegmentMatchesColumnar:
    @pytest.mark.parametrize("protocol", ["base", "nocache"])
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_onepass_matches(
                seeded_trace, protocol, config, order=order
            )

    @pytest.mark.parametrize("associativity", [1, 2])
    @pytest.mark.parametrize("block_bytes", [8, 32])
    def test_identical_across_geometries(
        self, seeded_trace, associativity, block_bytes
    ):
        config = SimulationConfig(
            cache_bytes=8192,
            block_bytes=block_bytes,
            associativity=associativity,
        )
        assert_onepass_matches(seeded_trace, "base", config)

    def test_swflush_exact_on_flushfree_trace(self, seeded_trace):
        trace = without_flushes(seeded_trace)
        assert family_support("swflush") == ("onepass", None)
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_onepass_matches(trace, "swflush", config)

    def test_swflush_exact_on_flush_trace(self, seeded_trace):
        # Real swflush traces always flush at section exits; the
        # classifier walk handles the flush records itself.
        assert int(np.count_nonzero(seeded_trace.kind == 3)) > 0
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_onepass_matches(seeded_trace, "swflush", config)

    def test_swflush_flush_trace_matches_machine_run(self, seeded_trace):
        # End-to-end: a one-size family must reproduce the reference
        # record loop byte-for-byte on a flush-bearing trace.
        config = SimulationConfig(cache_bytes=16384)
        assert_onepass_matches(
            seeded_trace, "swflush", config, engine="legacy"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzz_traces(self, seed):
        case = generate_case(seed, scale=0.3)
        for protocol in ("base", "nocache"):
            config = SimulationConfig(cache_bytes=16384)
            assert_onepass_matches(case.trace, protocol, config)


class TestSegmentGate:
    """``segment`` is not an engine label; ``family_support`` routes."""

    def test_refuses_coupled_protocol(self, seeded_trace):
        assert family_support("dragon") == ("epoch", None)
        assert_segment_engine_refused(
            seeded_trace, "dragon", SimulationConfig()
        )

    def test_refuses_high_associativity(self, seeded_trace):
        # The classifier walk covers associativities above two, so a
        # four-way sweep stays on the one-pass engine.
        assert family_support("base", associativity=4) == ("onepass", None)
        config = SimulationConfig(cache_bytes=8192, associativity=4)
        assert_onepass_matches(seeded_trace, "base", config)
        assert_segment_engine_refused(seeded_trace, "base", config)

    def test_refuses_non_integral_costs(self, seeded_trace):
        table = CostTable.bus()
        costs = dict(table.items())
        costs[Operation.CLEAN_MISS_MEMORY] = OperationCost(
            cpu_cycles=19.5, channel_cycles=19.5
        )
        fractional = CostTable(costs, name="fractional")
        assert family_support("base", fractional) == (
            "fallback",
            "costs:non-integral operation costs",
        )
        assert_segment_engine_refused(
            seeded_trace, "base", SimulationConfig(), fractional
        )

    def test_gate_passes_inside_the_theorem(self):
        for protocol in ONEPASS_PROTOCOLS:
            for associativity in (1, 2, 4):
                assert family_support(
                    protocol, associativity=associativity
                ) == ("onepass", None)


# -- The run-collapse theorem vs a reference LRU simulation ------------

references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # cpu (of 3)
        st.integers(min_value=1, max_value=2),  # kind: load/store only
        st.integers(min_value=0, max_value=15),  # block
    ),
    min_size=1,
    max_size=150,
)


def build_trace(refs):
    cpu = np.array([r[0] for r in refs], dtype=np.uint16)
    kind = np.array([r[1] for r in refs], dtype=np.uint8)
    address = np.array([r[2] * 16 for r in refs], dtype=np.uint64)
    return Trace.from_arrays(
        name="hyp-seg",
        cpus=3,
        shared_region=range(8 * 16, 16 * 16),
        cpu=cpu,
        kind=kind,
        address=address,
    )


def reference_lru(derived, sets, associativity):
    """Per-record LRU classification by direct simulation."""
    total = len(derived.kinds_sorted)
    miss = np.zeros(total, dtype=bool)
    victim_block = np.full(total, -1, dtype=np.int64)
    victim_pos = np.full(total, -1, dtype=np.int64)
    state = {}  # (cpu, set) -> list of [block, insert_pos], MRU first
    positions = {}
    for i in range(total):
        cpu = int(derived.cpus_sorted[i])
        block = int(derived.blocks_sorted[i])
        pos = positions.get(cpu, 0)
        positions[cpu] = pos + 1
        key = (cpu, block % sets)
        ways = state.setdefault(key, [])
        for way, entry in enumerate(ways):
            if entry[0] == block:
                ways.insert(0, ways.pop(way))
                break
        else:
            miss[i] = True
            if len(ways) == associativity:
                victim = ways.pop()
                victim_block[i] = victim[0]
                victim_pos[i] = victim[1]
            ways.insert(0, [block, pos])
    return miss, victim_block, victim_pos


class TestClassifyLruTheorem:
    @settings(max_examples=60, deadline=None)
    @given(references, st.sampled_from([1, 2]), st.sampled_from([2, 4]))
    def test_matches_reference_simulation(self, refs, associativity, sets):
        trace = build_trace(refs)
        derived = derived_columns(trace, 4)
        touches = np.ones(len(trace), dtype=bool)
        cls = classify_lru(derived, sets, associativity, touches)
        miss, victim_block, victim_pos = reference_lru(
            derived, sets, associativity
        )
        np.testing.assert_array_equal(cls.miss, miss)
        np.testing.assert_array_equal(cls.victim_block, victim_block)
        np.testing.assert_array_equal(cls.victim_pos, victim_pos)

    def test_rejects_unsupported_associativity(self, seeded_trace):
        derived = derived_columns(seeded_trace, 4)
        touches = np.ones(len(seeded_trace), dtype=bool)
        with pytest.raises(ValueError, match="associativity"):
            classify_lru(derived, 64, 4, touches)
