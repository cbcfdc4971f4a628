"""Epoch-partitioned Dragon families vs per-config ``Machine.run``.

``run_coupled_family`` is an optimisation, not a re-specification: for
Dragon, every replay order, and every geometry the epoch engine
supports, it must produce statistics exactly equal — float clocks, bus
grants, steals, and the protocol's own counters — to one
``Machine.run`` per configuration, while traversing the trace once per
family.  WTI, the other geometry-coupled snoopy protocol, has no epoch
engine: its sweeps are one ``Machine.run`` per configuration, and the
parametrised equivalence tests keep it to pin that routing exact.
The classifier :func:`repro.sim.classify_lru` that the family shares
with the geometry-local sweeps is pinned in ``test_segment.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import replay_counters
from repro.sim import (
    FAMILY_PROTOCOLS,
    Machine,
    SimulationConfig,
    family_support,
    run_geometry_family,
)
from repro.trace import TraceConfig, generate_trace
from repro.trace.records import Trace
from repro.verify.fuzzer import generate_case
from tests.sim.test_conformance import (
    assert_family_matches_machine,
    signature,
)

SIZES = [4096, 16384, 65536, 262144]

#: The geometry-coupled snoopy protocols: Dragon on the epoch engine,
#: WTI through the per-config fallback.
COUPLED = FAMILY_PROTOCOLS + ("wti",)


@pytest.fixture(scope="module")
def seeded_trace():
    # Small caches + a real seeded workload: misses, dirty victims,
    # contended blocks, write broadcasts, and steal-prone timing.
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


class TestEpochMatchesMachine:
    @pytest.mark.parametrize("protocol", COUPLED)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        assert_family_matches_machine(seeded_trace, protocol, SIZES, order=order)

    # The epoch engine covers every associativity at every paper block
    # size; the per-geometry events must stay exact on all of them,
    # not just the default geometry.
    @pytest.mark.parametrize("block_bytes", [8, 32, 64])
    @pytest.mark.parametrize("associativity", [1, 2, 4])
    @pytest.mark.parametrize("protocol", COUPLED)
    def test_identical_across_geometry_families(
        self, seeded_trace, protocol, block_bytes, associativity
    ):
        assert_family_matches_machine(
            seeded_trace,
            protocol,
            [4096, 65536],
            block_bytes=block_bytes,
            associativity=associativity,
        )

    @pytest.mark.parametrize("protocol", COUPLED)
    def test_single_cpu_trace(self, protocol):
        trace = generate_trace(
            TraceConfig(cpus=1, records_per_cpu=3_000, seed=11)
        )
        for order in ("time", "trace"):
            assert_family_matches_machine(
                trace, protocol, [1024, 8192, 65536], order=order
            )

    @pytest.mark.parametrize("protocol", COUPLED)
    def test_cpu_restriction_matches(self, seeded_trace, protocol):
        family = run_geometry_family(
            protocol, seeded_trace, [4096, 65536], cpus=2
        )
        restricted = seeded_trace.restricted_to(2)
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            reference = Machine(protocol, config).run(restricted)
            assert signature(family[size]) == signature(reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_traces(self, seed):
        case = generate_case(seed, scale=0.3)
        for protocol in FAMILY_PROTOCOLS:
            for order in ("time", "trace"):
                assert_family_matches_machine(
                    case.trace, protocol, [2048, 16384, 131072], order=order
                )
            # The case's own geometry: the fuzzer's adversarial shapes
            # with its block size and associativity.
            assert_family_matches_machine(
                case.trace, protocol, [1024, case.config.cache_bytes],
                block_bytes=case.config.block_bytes,
                associativity=case.config.associativity,
            )


class TestEpochProvenance:
    def test_epoch_engine_provenance(self, seeded_trace):
        for protocol in FAMILY_PROTOCOLS:
            assert family_support(protocol) == ("epoch", None)
            family = run_geometry_family(protocol, seeded_trace, SIZES)
            for result in family.values():
                assert result.engine == "epoch"
                assert result.protocol_stats is not None
                assert result.records_replayed == len(seeded_trace)
                assert result.run_wall_s > 0.0

    @pytest.mark.parametrize("protocol", FAMILY_PROTOCOLS)
    def test_family_is_one_traversal(self, seeded_trace, protocol):
        before, _ = replay_counters()
        run_geometry_family(protocol, seeded_trace, SIZES)
        after, engine = replay_counters()
        # Four cache sizes, one traversal: the per-config loop would
        # have replayed 4 * len(trace) records.
        assert after - before == len(seeded_trace)
        assert engine == "epoch"


class TestOneEventMerge:
    """Both sweep engines merge their events in ``Machine.run``'s
    replay loop: one ``_run_columnar`` call per geometry, each filling
    the result it returns."""

    @pytest.mark.parametrize(
        "protocol, engine",
        [("base", "onepass"), ("nocache", "onepass"),
         ("swflush", "onepass"), ("dragon", "epoch")],
    )
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_one_replay_loop_call_per_geometry(
        self, seeded_trace, monkeypatch, protocol, engine, order
    ):
        import repro.sim.family as family

        filled = []
        real = family._run_columnar

        def spy(derived, streams, op_info, bus, result, *args, **kwargs):
            filled.append(result)
            return real(derived, streams, op_info, bus, result, *args, **kwargs)

        monkeypatch.setattr(family, "_run_columnar", spy)
        results = run_geometry_family(
            protocol, seeded_trace, SIZES, order=order
        )
        assert {result.engine for result in results.values()} == {engine}
        assert len(filled) == len(SIZES)
        assert {id(result) for result in filled} == {
            id(result) for result in results.values()
        }


# -- Hypothesis: exactness on arbitrary tiny traces --------------------

references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # cpu (of 3)
        st.integers(min_value=0, max_value=3),  # kind incl. FLUSH
        st.integers(min_value=0, max_value=23),  # block
    ),
    min_size=1,
    max_size=200,
)


def build_trace(refs):
    cpu = np.array([r[0] for r in refs], dtype=np.uint16)
    kind = np.array([r[1] for r in refs], dtype=np.uint8)
    address = np.array([r[2] * 16 for r in refs], dtype=np.uint64)
    # Blocks 12..23 are shared.
    return Trace.from_arrays(
        name="hyp",
        cpus=3,
        shared_region=range(12 * 16, 24 * 16),
        cpu=cpu,
        kind=kind,
        address=address,
    )


class TestEpochProperties:
    @settings(max_examples=40, deadline=None)
    @given(references)
    def test_exact_equality_on_tiny_traces(self, refs):
        trace = build_trace(refs)
        # Tiny caches so the 24-block working set overflows them and
        # contended blocks bounce between the three processors.
        sizes = [64, 128, 256, 512]
        for protocol in FAMILY_PROTOCOLS:
            for order in ("time", "trace"):
                family = run_geometry_family(
                    protocol,
                    trace,
                    sizes,
                    block_bytes=16,
                    associativity=2,
                    order=order,
                )
                for size in sizes:
                    config = SimulationConfig(
                        cache_bytes=size, block_bytes=16, associativity=2
                    )
                    reference = Machine(protocol, config).run(
                        trace, order=order
                    )
                    assert signature(family[size]) == signature(reference)

    @settings(max_examples=25, deadline=None)
    @given(references)
    def test_exact_equality_direct_mapped(self, refs):
        trace = build_trace(refs)
        for protocol in FAMILY_PROTOCOLS:
            family = run_geometry_family(
                trace=trace,
                protocol=protocol,
                cache_sizes=[64, 256],
                block_bytes=16,
                associativity=1,
            )
            for size in (64, 256):
                config = SimulationConfig(
                    cache_bytes=size, block_bytes=16, associativity=1
                )
                reference = Machine(protocol, config).run(trace)
                assert signature(family[size]) == signature(reference)
