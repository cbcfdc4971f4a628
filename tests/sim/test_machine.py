"""Unit tests for the machine (trace replay + timing)."""

import subprocess
import sys

import pytest

from repro.core import Operation
from repro.sim import Machine, SimulationConfig
from repro.trace.records import AccessType, AddressRange, Trace, TraceRecord

L, S, I, F = (
    AccessType.LOAD,
    AccessType.STORE,
    AccessType.INST_FETCH,
    AccessType.FLUSH,
)

SHARED = AddressRange(0x100000, 0x101000)
CONFIG = SimulationConfig(cache_bytes=1024, block_bytes=16, associativity=2)


def make_trace(records, cpus=2):
    return Trace(name="hand", cpus=cpus, shared_region=SHARED, records=records)


class TestSingleCpuTiming:
    def test_fetch_miss_costs_eleven_cycles(self):
        trace = make_trace([TraceRecord(0, I, 0x0)], cpus=1)
        result = Machine("base", CONFIG).run(trace)
        # 1 cycle execution + 10 cycle clean miss.
        assert result.cpus[0].clock == pytest.approx(11.0)
        assert result.fetch_misses == 1

    def test_fetch_hit_costs_one_cycle(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(0, I, 0x4)], cpus=1
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.cpus[0].clock == pytest.approx(12.0)
        assert result.fetch_misses == 1

    def test_load_miss_adds_ten_cycles(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(0, L, 0x2000)], cpus=1
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.cpus[0].clock == pytest.approx(21.0)
        assert result.data_misses == 1

    def test_utilization_is_instructions_over_cycles(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(0, I, 0x4)], cpus=1
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.utilization == pytest.approx(2.0 / 12.0)
        assert result.processing_power == pytest.approx(2.0 / 12.0)

    def test_no_contention_alone(self):
        trace = make_trace(
            [TraceRecord(0, I, addr * 4) for addr in range(50)], cpus=1
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.wait_cycles == 0.0


class TestContention:
    def test_second_processor_waits_for_bus(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(1, I, 0x8000)]
        )
        result = Machine("base", CONFIG).run(trace)
        # Both miss; the second grant waits until the first transaction
        # (7 bus cycles starting at cycle 1) completes.
        total_wait = result.wait_cycles
        assert total_wait == pytest.approx(7.0)

    def test_bus_busy_accounting(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(1, I, 0x8000)]
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.bus_busy_cycles == pytest.approx(14.0)
        assert result.bus_transactions == 2


class TestFlushHandling:
    def test_flush_skipped_by_base(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(0, F, SHARED.start)],
            cpus=1,
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.cpus[0].flushes == 1
        assert result.cpus[0].clock == pytest.approx(11.0)  # flush free

    def test_flush_charged_by_swflush(self):
        trace = make_trace(
            [
                TraceRecord(0, I, 0x0),
                TraceRecord(0, S, SHARED.start),
                TraceRecord(0, F, SHARED.start),
            ],
            cpus=1,
        )
        result = Machine("swflush", CONFIG).run(trace)
        # 11 (fetch miss) + 10 (store miss) + 6 (dirty flush).
        assert result.cpus[0].clock == pytest.approx(27.0)
        assert result.operation_counts[Operation.DIRTY_FLUSH] == 1


class TestSharedCounters:
    def test_shared_reference_counting(self):
        trace = make_trace(
            [
                TraceRecord(0, I, 0x0),
                TraceRecord(0, L, SHARED.start),
                TraceRecord(0, S, SHARED.start + 4),
                TraceRecord(0, L, 0x2000),
            ],
            cpus=1,
        )
        result = Machine("base", CONFIG).run(trace)
        assert result.shared_loads == 1
        assert result.shared_stores == 1
        assert result.data_references == 3
        assert result.shared_data_misses == 1  # one block, one miss

    def test_nocache_miss_rate_excludes_shared(self):
        trace = make_trace(
            [
                TraceRecord(0, I, 0x0),
                TraceRecord(0, L, SHARED.start),   # read-through
                TraceRecord(0, L, 0x2000),          # cachable miss
            ],
            cpus=1,
        )
        result = Machine("nocache", CONFIG).run(trace)
        assert result.data_miss_rate == pytest.approx(1.0)


class TestReplayOrders:
    def test_orders_agree_for_single_cpu(self):
        from repro.trace import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(cpus=1, records_per_cpu=3_000, seed=2)
        )
        machine = Machine("base", CONFIG)
        by_time = machine.run(trace, order="time")
        by_trace = machine.run(trace, order="trace")
        assert by_time.cpus[0].clock == by_trace.cpus[0].clock

    def test_rejects_unknown_order(self):
        trace = make_trace([TraceRecord(0, I, 0x0)], cpus=1)
        with pytest.raises(ValueError, match="order"):
            Machine("base", CONFIG).run(trace, order="random")

    def test_time_order_does_not_change_reference_counts(self):
        from repro.trace import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(cpus=3, records_per_cpu=2_000, seed=4)
        )
        machine = Machine("base", CONFIG)
        by_time = machine.run(trace, order="time")
        by_trace = machine.run(trace, order="trace")
        assert by_time.instructions == by_trace.instructions
        assert by_time.data_references == by_trace.data_references


class TestOneReference:
    """Every reference run, over either bus, is one call of the one
    reference loop."""

    @pytest.fixture
    def buses(self, monkeypatch):
        from repro.sim import machine

        buses = []
        reference = machine._run_reference

        def spy(trace, order, costs, protocol, bus, *rest):
            buses.append(type(bus).__name__)
            return reference(trace, order, costs, protocol, bus, *rest)

        monkeypatch.setattr(machine, "_run_reference", spy)
        return buses

    def trace(self):
        return make_trace(
            [
                TraceRecord(0, S, SHARED.start),
                TraceRecord(1, S, SHARED.start),
                TraceRecord(0, L, SHARED.start),
                TraceRecord(1, I, 0x40),
            ]
        )

    @pytest.mark.parametrize(
        "discipline, bus",
        [("fcfs", "TimedBus"), ("round-robin", "ArbitratedBus")],
    )
    def test_legacy_engine(self, buses, discipline, bus):
        config = SimulationConfig(cache_bytes=1024, bus_discipline=discipline)
        result = Machine("dragon", config).run(self.trace(), engine="legacy")
        assert result.engine == "legacy"
        assert buses == [bus]

    def test_deferred_contract(self, buses):
        from repro.sim.engines import ARBITRATED
        from repro.verify.differential import engine_divergence

        _, message = engine_divergence(
            ARBITRATED, "dragon", self.trace(), CONFIG
        )
        assert message is None
        assert buses == ["ArbitratedBus"]


class TestRestriction:
    def test_cpu_restriction(self):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(1, I, 0x8000)]
        )
        result = Machine("base", CONFIG).run(trace, cpus=1)
        assert len(result.cpus) == 1
        assert result.instructions == 1

    @pytest.mark.parametrize("cpus", [2.5, 1.0, True])
    def test_rejects_non_integer_cpu_count(self, cpus):
        trace = make_trace(
            [TraceRecord(0, I, 0x0), TraceRecord(1, I, 0x8000)]
        )
        with pytest.raises(
            ValueError, match=rf"^cpus must be an integer, got {cpus!r}$"
        ):
            Machine("base", CONFIG).run(trace, cpus=cpus)


# Run in a fresh interpreter: replays every protocol through the
# columnar loop on both buses and prints the ``repro`` modules the
# replays imported.
_REPLAY_IMPORT_PROBE = """
import sys

import numpy as np

import repro.sim
from repro.sim import DISCIPLINES, PROTOCOLS, Machine, SimulationConfig
from repro.trace.records import AddressRange, Trace

rng = np.random.default_rng(0)
trace = Trace.from_arrays(
    name="probe",
    cpus=3,
    shared_region=AddressRange(0, 1024),
    cpu=rng.integers(0, 3, 300),
    kind=rng.integers(0, 4, 300),
    address=rng.integers(0, 256, 300) * 16,
)
loaded = set(sys.modules)
for protocol in PROTOCOLS:
    for engine in ("columnar", "arbitrated"):
        for discipline in DISCIPLINES:
            config = SimulationConfig(
                cache_bytes=256, bus_discipline=discipline
            )
            Machine(protocol, config).run(trace, engine=engine)
print(sorted(
    name for name in set(sys.modules) - loaded
    if name.split(".")[0] == "repro"
))
"""


class TestImports:
    def test_replays_import_no_module(self):
        """``import repro.sim`` binds everything a columnar or
        arbitrated replay runs: a module imported inside a replay is
        loaded after any instrumentation that rebinds loaded modules
        was installed, and escapes it."""
        probe = subprocess.run(
            [sys.executable, "-c", _REPLAY_IMPORT_PROBE],
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == "[]"


class TestProtocolSelection:
    def test_accepts_class(self):
        from repro.sim import DragonProtocol

        machine = Machine(DragonProtocol, CONFIG)
        trace = make_trace([TraceRecord(0, I, 0x0)], cpus=1)
        assert machine.run(trace).protocol == "dragon"

    def test_result_carries_dragon_stats(self):
        trace = make_trace(
            [TraceRecord(0, S, SHARED.start)], cpus=1
        )
        result = Machine("dragon", CONFIG).run(trace)
        from repro.sim.protocols.dragon import DragonStats

        assert isinstance(result.protocol_stats, DragonStats)

    def test_empty_result_properties(self):
        trace = make_trace([], cpus=2)
        result = Machine("base", CONFIG).run(trace)
        assert result.utilization == 0.0
        assert result.data_miss_rate == 0.0
        assert result.dirty_victim_fraction == 0.0
        assert result.elapsed_cycles == 0.0
