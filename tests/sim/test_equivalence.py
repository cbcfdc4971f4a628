"""Columnar-vs-legacy replay engine equivalence.

The columnar replay loop (``machine._run_columnar``) is an
optimisation, not a re-specification: over the fcfs ``TimedBus``, for
every protocol, both replay orders, integral and fractional costs and
any arbitration overhead, it must produce statistics identical —
including exact float clocks — to the reference record loop,
``machine._run_reference``, over the same bus.
"""

import pytest

from repro.sim import Machine, SimulationConfig
from repro.sim.engines import COLUMNAR, COLUMNAR_ARB
from repro.trace import TraceConfig, generate_trace
from repro.verify.differential import engine_divergence
from tests.sim.test_conformance import (
    edge_trace,
    fractional_costs,
    random_refs,
    signature,
)

PROTOCOLS = [
    "base",
    "dragon",
    "nocache",
    "swflush",
    "wti",
    "directory",
    "hybrid-2",
    "hybrid-4",
    "hybrid-limit",
]
CONFIG = SimulationConfig(cache_bytes=16384, block_bytes=16, associativity=2)


@pytest.fixture(scope="module")
def seeded_trace():
    # Small caches + a real seeded workload: plenty of misses, dirty
    # victims, flushes, and shared traffic to exercise every branch.
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


def assert_matches_legacy(protocol, config, trace, order="time", costs=None):
    """The columnar loop ``==`` the legacy record loop, through the
    verifier's engine diff: ``columnar+arb`` when an overhead keeps
    the spans."""
    engine = COLUMNAR_ARB if config.bus_arbitration_cycles else COLUMNAR
    _, message = engine_divergence(
        engine, protocol, trace, config, order, costs
    )
    assert message is None, message


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=1_000, seed=7))


@pytest.fixture(scope="module")
def single_cpu_trace():
    return generate_trace(TraceConfig(cpus=1, records_per_cpu=2_000, seed=3))


class TestColumnarMatchesLegacy:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        assert_matches_legacy(protocol, CONFIG, seeded_trace, order)

    # The static hit analysis has geometry-dependent rules (the
    # previous-run rule only holds for associativity >= 2), so the
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
            assert_matches_legacy(protocol, geometry, seeded_trace, order)

    @pytest.mark.parametrize("protocol", ["dragon", "wti", "directory"])
    def test_identical_protocol_stats(self, seeded_trace, protocol):
        # The signature holds the protocol's own counters.
        assert_matches_legacy(protocol, CONFIG, seeded_trace)

    # Table 1 with no overhead is ``test_identical_statistics``; the
    # other cells of the cost/overhead axis run on a smaller trace and
    # cache, which still contend for the bus.  An integral overhead
    # keeps the spans (``columnar+arb``), a fractional one or
    # fractional costs make the run span-free.
    @pytest.mark.parametrize(
        "costs, overhead",
        [(fractional_costs(), 0.0), (None, 2.0), (None, 2.5)],
        ids=["fractional", "overhead-2", "overhead-2.5"],
    )
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_across_costs_and_overhead(
        self, small_trace, protocol, order, costs, overhead
    ):
        config = SimulationConfig(
            cache_bytes=4096, bus_arbitration_cycles=overhead
        )
        assert_matches_legacy(protocol, config, small_trace, order, costs)

    @pytest.mark.parametrize("overhead", [0.0, 2.0])
    @pytest.mark.parametrize("order", ["time", "trace"])
    @pytest.mark.parametrize(
        "trace",
        [
            edge_trace("empty", 2, []),
            edge_trace("one-cpu", 1, random_refs(1, 1, 60, (0, 1, 2))),
            edge_trace(
                "one-idle-cpu", 2, random_refs(2, 1, 60, (0, 1, 2))
            ),
        ],
        ids=["empty", "one-cpu", "one-idle-cpu"],
    )
    @pytest.mark.parametrize("protocol", ["base", "dragon", "wti"])
    def test_edge_traces(self, protocol, trace, order, overhead):
        config = SimulationConfig(
            cache_bytes=256, bus_arbitration_cycles=overhead
        )
        assert_matches_legacy(protocol, config, trace, order)

    def test_restriction_matches(self, seeded_trace):
        machine = Machine("dragon", CONFIG)
        columnar = machine.run(seeded_trace, cpus=2, engine="columnar")
        legacy = machine.run(seeded_trace, cpus=2, engine="legacy")
        assert signature(columnar) == signature(legacy)

    def test_rejects_unknown_engine(self, seeded_trace):
        with pytest.raises(ValueError, match="engine"):
            Machine("base", CONFIG).run(seeded_trace, engine="vectorised")


class TestOrderEquivalence:
    def test_single_cpu_orders_identical(self):
        # With one CPU there is no clock drift to reorder, so the two
        # replay orders must agree on *every* statistic, not just the
        # reference counts.
        trace = generate_trace(
            TraceConfig(cpus=1, records_per_cpu=5_000, seed=11)
        )
        machine = Machine("swflush", CONFIG)
        by_time = machine.run(trace, order="time")
        by_trace = machine.run(trace, order="trace")
        assert signature(by_time) == signature(by_trace)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_cpu_orders_identical_all_protocols(
        self, protocol, single_cpu_trace
    ):
        machine = Machine(protocol, CONFIG)
        by_time = machine.run(single_cpu_trace, order="time")
        by_trace = machine.run(single_cpu_trace, order="trace")
        assert signature(by_time) == signature(by_trace)
