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
with the geometry-local sweeps is pinned in ``test_segment.py``, and
the family on arbitrary tiny traces by ``TestEpochProperties``, on
the strategy of ``test_conformance.py``'s property over every engine.
"""

import pytest
from hypothesis import given, settings

from repro.obs.metrics import replay_counters
from repro.sim import (
    FAMILY_PROTOCOLS,
    Machine,
    SimulationConfig,
    family_support,
    run_geometry_family,
)
from tests.sim.test_conformance import (
    TINY_SIZES,
    assert_family_matches_machine,
    build_trace,
    fuzz_case,
    signature,
    tiny_references,
    workload,
)

SIZES = [4096, 16384, 65536, 262144]

#: The geometry-coupled snoopy protocols: Dragon on the epoch engine,
#: WTI through the per-config fallback.
COUPLED = FAMILY_PROTOCOLS + ("wti",)


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
        trace = workload(1, 3_000, 11)
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
            expected = Machine(protocol, config).run(restricted)
            assert signature(family[size]) == signature(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_traces(self, seed):
        case = fuzz_case(seed, scale=0.3)
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


class TestEpochProperties:
    @settings(max_examples=40, deadline=None)
    @given(tiny_references)
    def test_exact_equality_on_tiny_traces(self, refs):
        # Tiny caches so the 24-block working set overflows them and
        # contended blocks bounce between the three processors.
        trace = build_trace(refs)
        for protocol in FAMILY_PROTOCOLS:
            for order in ("time", "trace"):
                assert_family_matches_machine(
                    trace, protocol, TINY_SIZES, order=order
                )

    @settings(max_examples=25, deadline=None)
    @given(tiny_references)
    def test_exact_equality_direct_mapped(self, refs):
        trace = build_trace(refs)
        for protocol in FAMILY_PROTOCOLS:
            assert_family_matches_machine(
                trace, protocol, [64, 256], associativity=1
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
