"""Columnar-vs-legacy cells of the conformance grid on larger traces.

The columnar replay loop (``machine._run_columnar``) is an
optimisation, not a re-specification: over the fcfs ``TimedBus``, for
every protocol, both replay orders, integral and fractional costs and
any arbitration overhead, it must produce statistics identical —
including exact float clocks — to the reference record loop,
``machine._run_reference``, over the same bus.  Each test names cells
of ``tests/sim/test_conformance.py``'s one check.
"""

import pytest

from repro.sim import PROTOCOLS, Machine, SimulationConfig
from repro.sim.engines import REF_MACHINE
from tests.sim.test_conformance import (
    EDGE_TRACES,
    FRACTIONAL,
    assert_conforms,
    reference,
    signature,
    workload,
)

PROTOCOLS = sorted(PROTOCOLS)
CONFIG = SimulationConfig(cache_bytes=16384, block_bytes=16, associativity=2)


class TestColumnarMatchesLegacy:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        assert_conforms("columnar", protocol, seeded_trace, CONFIG, order)

    # The static hit analysis groups references by cache set, so the
    # engines must also agree on direct-mapped and highly-associative
    # caches, and on the default configuration the benchmarks use.
    @pytest.mark.parametrize(
        "geometry",
        [
            SimulationConfig(
                cache_bytes=16384, block_bytes=16, associativity=1
            ),
            SimulationConfig(
                cache_bytes=16384, block_bytes=16, associativity=4
            ),
            SimulationConfig(),
        ],
        ids=["direct-mapped", "assoc-4", "default"],
    )
    @pytest.mark.parametrize("protocol", ["base", "dragon", "swflush"])
    def test_identical_across_geometries(
        self, seeded_trace, protocol, geometry
    ):
        for order in ("time", "trace"):
            assert_conforms(
                "columnar", protocol, seeded_trace, geometry, order
            )

    @pytest.mark.parametrize("protocol", ["dragon", "wti", "directory"])
    def test_identical_protocol_stats(self, seeded_trace, protocol):
        # The signature holds the protocol's own counters.
        assert_conforms("columnar", protocol, seeded_trace, CONFIG)

    # Table 1 with no overhead is ``test_identical_statistics``; the
    # other cells of the cost/overhead axis run on a smaller trace and
    # cache, which still contend for the bus.  An integral overhead
    # keeps the spans (``columnar+arb``), a fractional one or
    # fractional costs make the run span-free.
    @pytest.mark.parametrize(
        "costs, overhead",
        [(FRACTIONAL, 0.0), (None, 2.0), (None, 2.5)],
        ids=["fractional", "overhead-2", "overhead-2.5"],
    )
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_across_costs_and_overhead(
        self, protocol, order, costs, overhead
    ):
        config = SimulationConfig(
            cache_bytes=4096, bus_arbitration_cycles=overhead
        )
        label = "columnar+arb" if overhead else "columnar"
        assert_conforms(
            label, protocol, workload(4, 1_000, 7), config, order, costs
        )

    @pytest.mark.parametrize("overhead", [0.0, 2.0])
    @pytest.mark.parametrize("order", ["time", "trace"])
    @pytest.mark.parametrize(
        "trace",
        list(EDGE_TRACES.values()),
        ids=["empty", "one-cpu", "one-idle-cpu"],
    )
    @pytest.mark.parametrize("protocol", ["base", "dragon", "wti"])
    def test_edge_traces(self, protocol, trace, order, overhead):
        config = SimulationConfig(
            cache_bytes=256, bus_arbitration_cycles=overhead
        )
        label = "columnar+arb" if overhead else "columnar"
        assert_conforms(label, protocol, trace, config, order)

    def test_restriction_matches(self, seeded_trace):
        machine = Machine("dragon", CONFIG)
        columnar = machine.run(seeded_trace, cpus=2, engine="columnar")
        legacy = machine.run(seeded_trace, cpus=2, engine="legacy")
        assert signature(columnar) == signature(legacy)

    def test_rejects_unknown_engine(self, seeded_trace):
        with pytest.raises(ValueError, match="engine"):
            Machine("base", CONFIG).run(seeded_trace, engine="vectorised")


class TestOrderEquivalence:
    # With one CPU there is no clock drift to reorder, so the two
    # replay orders must agree on *every* statistic, not just the
    # reference counts.
    def test_single_cpu_orders_identical(self):
        assert_orders_agree("swflush", workload(1, 5_000, 11))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_cpu_orders_identical_all_protocols(self, protocol):
        assert_orders_agree(protocol, workload(1, 2_000, 3))


def assert_orders_agree(protocol, trace):
    by_time, by_trace = (
        reference(REF_MACHINE, protocol, trace, CONFIG, order)
        for order in ("time", "trace")
    )
    assert signature(by_time) == signature(by_trace)
