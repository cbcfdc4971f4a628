"""Unit and engine tests for parameterized bus arbitration."""

import dataclasses

import pytest

from repro.sim import (
    DISCIPLINES,
    PROTOCOLS,
    ArbitratedBus,
    Machine,
    SimulationConfig,
    run_geometry_family,
    validate_discipline,
)
from repro.sim.engines import ENGINES, REF_MACHINE
from repro.sim.onepass import ONEPASS_PROTOCOLS, family_support
from repro.verify.differential import engine_divergence, stats_signature
from repro.verify.invariants import check_result_invariants
from tests.sim.test_conformance import (
    EDGE_TRACES,
    assert_conforms,
    edge_trace,
    fuzz_case,
    random_refs,
    reference,
)


@pytest.fixture(scope="module")
def case():
    return fuzz_case(7, scale=0.5)


class TestArbitratedBusUnit:
    def test_fcfs_serves_in_request_order(self):
        bus = ArbitratedBus(3)
        bus.request(2, 0.0, 5.0)
        bus.request(0, 0.0, 3.0)
        assert bus.next_grant_at() == 0.0
        cpu, start, wait = bus.grant_next()
        assert (cpu, start, wait) == (2, 0.0, 0.0)
        cpu, start, wait = bus.grant_next()
        assert (cpu, start, wait) == (0, 5.0, 5.0)
        assert bus.busy_cycles == 8.0
        assert bus.transactions == 2
        assert bus.grants_by_cpu == [1, 0, 1]

    def test_round_robin_rotates_among_pending(self):
        bus = ArbitratedBus(3, "round-robin")
        for cpu in (2, 1, 0):
            bus.request(cpu, 0.0, 1.0)
        winners = [bus.grant_next()[0] for _ in range(3)]
        assert winners == [0, 1, 2]
        # The pointer advanced past the last winner: a fresh pool of
        # {0, 1} now starts the search at CPU 0 again.
        bus.request(1, 0.0, 1.0)
        bus.request(0, 0.0, 1.0)
        cpu, start, _ = bus.grant_next()
        assert cpu == 0
        # The pointer moved past the winner, not onto it: CPU 0 posting
        # again at once still yields to the waiting CPU 1.
        bus.request(0, start + 1.0, 1.0)
        assert bus.grant_next()[0] == 1

    def test_fixed_priority_starves_the_high_cpu(self):
        bus = ArbitratedBus(2, "fixed-priority")
        bus.request(1, 0.0, 5.0)
        bus.request(0, 0.0, 5.0)
        winners = []
        for _ in range(4):
            cpu, start, _ = bus.grant_next()
            winners.append(cpu)
            if cpu == 0:
                # CPU 0 is ready again before the bus frees, so it is
                # pending at every subsequent arbitration instant.
                bus.request(0, start + 1.0, 5.0)
        assert winners == [0, 0, 0, 0]

    def test_batched_window_holds_later_arrivals(self):
        bus = ArbitratedBus(3, "batched", arbitration_cycles=3.0)
        bus.request(1, 0.0, 5.0)
        bus.request(0, 0.0, 5.0)
        cpu, start, _ = bus.grant_next()
        assert (cpu, start) == (0, 3.0)  # window opens, overhead paid
        bus.request(2, 1.0, 5.0)  # arrives after the window froze
        cpu, start, _ = bus.grant_next()
        assert (cpu, start) == (1, 8.0)  # same window, no re-arbitration
        cpu, start, _ = bus.grant_next()
        assert (cpu, start) == (2, 16.0)  # next window, overhead again
        assert bus.arbitration_busy_cycles == 6.0
        assert bus.busy_cycles == 15.0

    def test_request_validation(self):
        bus = ArbitratedBus(2)
        with pytest.raises(ValueError, match="cpu must be in"):
            bus.request(2, 0.0, 1.0)
        with pytest.raises(ValueError, match="ready_at"):
            bus.request(0, -1.0, 1.0)
        with pytest.raises(ValueError, match="hold_cycles"):
            bus.request(0, 0.0, 0.0)
        bus.request(0, 0.0, 1.0)
        with pytest.raises(ValueError, match="already has a pending"):
            bus.request(0, 5.0, 1.0)
        with pytest.raises(ValueError, match="unknown bus discipline"):
            ArbitratedBus(2, "lifo")
        with pytest.raises(ValueError, match="cpus must be >= 1, got 0"):
            ArbitratedBus(0)

    def test_next_grant_without_pending_raises(self):
        with pytest.raises(ValueError, match="no pending"):
            ArbitratedBus(2).next_grant_at()

    def test_overfull_utilization_raises(self):
        bus = ArbitratedBus(1)
        bus.request(0, 0.0, 5.0)
        bus.grant_next()
        with pytest.raises(ValueError, match="exceeds 1.0"):
            bus.utilization(2.0)


class TestConfigValidation:
    def test_discipline_is_validated(self):
        with pytest.raises(ValueError, match="unknown bus discipline"):
            SimulationConfig(bus_discipline="lifo")
        with pytest.raises(ValueError, match="arbitration_cycles"):
            SimulationConfig(bus_arbitration_cycles=-1.0)
        assert validate_discipline("fcfs") == "fcfs"

    def test_default_config_keeps_the_columnar_engine(self, case):
        run = Machine("base", case.config).run(case.trace)
        assert run.engine == "columnar"

    def test_non_fcfs_forces_the_arbitrated_engine(self, case):
        config = dataclasses.replace(
            case.config, bus_discipline="round-robin"
        )
        run = Machine("base", config).run(case.trace)
        assert run.engine == "arbitrated"

    def test_non_fcfs_legacy_runs_the_deferred_reference(self, case):
        config = dataclasses.replace(
            case.config, bus_discipline="round-robin"
        )
        machine = Machine("dragon", config)
        reference = machine.run(case.trace, engine="legacy")
        assert reference.engine == "legacy"
        assert stats_signature(reference) == stats_signature(
            machine.run(case.trace)
        )

    def test_trace_order_is_rejected(self, case):
        config = dataclasses.replace(case.config, bus_discipline="batched")
        with pytest.raises(ValueError, match="order='trace'"):
            Machine("base", config).run(case.trace, order="trace")


class TestArbitratedEngine:
    @pytest.mark.parametrize("protocol", ONEPASS_PROTOCOLS)
    def test_fcfs_is_bit_identical_for_geometry_local(self, case, protocol):
        columnar = reference(REF_MACHINE, protocol, case.trace, case.config)
        arbitrated = Machine(protocol, case.config).run(
            case.trace, engine="arbitrated"
        )
        assert arbitrated.engine == "arbitrated"
        assert stats_signature(arbitrated) == stats_signature(columnar)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @pytest.mark.parametrize("protocol", ("dragon", "wti", "swflush"))
    def test_every_discipline_conserves(self, case, discipline, protocol):
        config = dataclasses.replace(
            case.config,
            bus_discipline=discipline,
            bus_arbitration_cycles=2.0,
        )
        run = Machine(protocol, config).run(case.trace)
        # fcfs + integral overhead folds into the synchronous columnar
        # grants (labelled distinctly); every other discipline needs
        # deferred grants.
        expected = "columnar+arb" if discipline == "fcfs" else "arbitrated"
        assert run.engine == expected
        check_result_invariants(run, trace=case.trace)
        assert run.bus_arbitration_cycles > 0.0

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_disciplines_conserve_counters_for_geometry_local(
        self, case, discipline
    ):
        baseline = Machine("swflush", case.config).run(case.trace)
        config = dataclasses.replace(
            case.config,
            bus_discipline=discipline,
            bus_arbitration_cycles=2.0,
        )
        run = Machine("swflush", config).run(case.trace)
        assert run.operation_counts == baseline.operation_counts
        assert run.bus_busy_cycles == baseline.bus_busy_cycles
        assert run.bus_transactions == baseline.bus_transactions
        assert run.data_misses == baseline.data_misses
        assert run.fetch_misses == baseline.fetch_misses

    def test_batched_amortizes_arbitration(self, case):
        def arbitration(discipline):
            config = dataclasses.replace(
                case.config,
                bus_discipline=discipline,
                bus_arbitration_cycles=2.0,
            )
            return Machine("dragon", config).run(
                case.trace
            ).bus_arbitration_cycles

        assert arbitration("batched") < arbitration("fcfs")

    def test_fixed_priority_widens_the_wait_spread(self, case):
        def spread(discipline):
            config = dataclasses.replace(
                case.config,
                bus_discipline=discipline,
                bus_arbitration_cycles=2.0,
            )
            run = Machine("dragon", config).run(case.trace)
            waits = [cpu.wait_cycles for cpu in run.cpus]
            return max(waits) - min(waits)

        assert spread("fixed-priority") >= spread("fcfs")


@pytest.fixture(scope="module")
def conformance_case():
    return fuzz_case(24, scale=0.4)


#: Three CPUs flushing often, in 256-byte caches.
FLUSHES = edge_trace("flushes", 3, random_refs(3, 3, 400, (0, 0, 1, 2, 3)))


class TestDeferredGrantConformance:
    @pytest.mark.parametrize("overhead", (0.0, 2.0, 2.5))
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matches_reference(
        self, conformance_case, protocol, discipline, overhead
    ):
        config = dataclasses.replace(
            conformance_case.config,
            bus_discipline=discipline,
            bus_arbitration_cycles=overhead,
        )
        assert_conforms(
            "arbitrated", protocol, conformance_case.trace, config
        )

    @pytest.mark.parametrize(
        "protocol, seed, associativity, discipline, overhead",
        (
            ("dragon", 38, 1, "round-robin", 2.0),
            ("dragon", 85, 2, "fixed-priority", 3.0),
            ("hybrid-2", 21, 2, "round-robin", 2.0),
        ),
    )
    def test_steal_onto_the_pending_event(
        self, protocol, seed, associativity, discipline, overhead
    ):
        """A steal can move the victim's frontier exactly onto its
        pending event, leaving an empty span whose deferred dirty
        marks must still replay before that event.  Replayed after it
        instead, the first cell diverges from the reference."""
        case = fuzz_case(seed, scale=0.5)
        config = dataclasses.replace(
            case.config,
            associativity=associativity,
            bus_discipline=discipline,
            bus_arbitration_cycles=overhead,
        )
        assert_conforms("arbitrated", protocol, case.trace, config)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @pytest.mark.parametrize(
        "trace",
        list(EDGE_TRACES.values()),
        ids=("empty", "one-cpu", "one-idle-cpu"),
    )
    @pytest.mark.parametrize("protocol", ("base", "dragon", "wti"))
    def test_edge_traces(self, protocol, trace, discipline):
        config = SimulationConfig(
            cache_bytes=256,
            bus_discipline=discipline,
            bus_arbitration_cycles=2.0,
        )
        assert_conforms("arbitrated", protocol, trace, config)

    @pytest.mark.parametrize("overhead", (0.0, 2.5))
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_swflush_flushes(self, discipline, overhead):
        config = SimulationConfig(
            cache_bytes=256,
            bus_discipline=discipline,
            bus_arbitration_cycles=overhead,
        )
        assert_conforms("arbitrated", "swflush", FLUSHES, config)


#: Protocols whose replays run proven-hit spans through cycle steals or
#: the single-owner proof: the sweep below covers their geometries.
SPANNED_PROTOCOLS = (
    "dragon", "wti", "directory", "hybrid-2", "hybrid-4", "hybrid-limit",
)


@pytest.mark.slow
class TestDeferredGrantGeometrySweep:
    @pytest.mark.parametrize(
        "discipline", ("round-robin", "fixed-priority", "batched")
    )
    @pytest.mark.parametrize("protocol", SPANNED_PROTOCOLS)
    def test_matches_reference(self, protocol, discipline):
        """``generate_case`` seeds 0-119 with the associativity
        overridden: the natural fuzz corpus keeps its geometry and
        misses steals that land a frontier on a pending event."""
        mismatched = []
        for seed in range(120):
            case = fuzz_case(seed, scale=0.5)
            for associativity in (1, 2, 4):
                for overhead in (0.0, 2.0, 3.0):
                    config = dataclasses.replace(
                        case.config,
                        associativity=associativity,
                        bus_discipline=discipline,
                        bus_arbitration_cycles=overhead,
                    )
                    _, message = engine_divergence(
                        ENGINES["arbitrated"], protocol, case.trace, config
                    )
                    if message is not None:
                        mismatched.append((seed, associativity, overhead))
        assert not mismatched, mismatched[:10]


class TestFastPathGates:
    @pytest.mark.parametrize("protocol", ("base", "dragon"))
    def test_family_support_falls_back_loudly(self, protocol):
        engine, reason = family_support(
            protocol, bus_discipline="fixed-priority"
        )
        assert engine == "fallback"
        assert reason.startswith("bus-discipline:fixed-priority")
        # Integral fcfs overhead folds into the one-pass merges; only
        # a non-integral overhead still needs the arbitrated engine.
        engine, _reason = family_support(
            protocol, bus_arbitration_cycles=2.0
        )
        assert engine != "fallback"
        engine, reason = family_support(
            protocol, bus_arbitration_cycles=2.5
        )
        assert engine == "fallback"
        assert reason.startswith("bus-discipline:arbitration overhead")

    def test_family_fallback_result_is_exact(self, case):
        config = case.config
        family = run_geometry_family(
            "swflush",
            case.trace,
            (config.cache_bytes,),
            block_bytes=config.block_bytes,
            associativity=config.associativity,
            bus_discipline="round-robin",
        )
        run = family[config.cache_bytes]
        assert run.engine == "arbitrated"
        direct = Machine(
            "swflush",
            dataclasses.replace(config, bus_discipline="round-robin"),
        ).run(case.trace)
        assert stats_signature(run) == stats_signature(direct)


class TestResultAccounting:
    def test_result_bus_utilization_raises_on_double_counting(self, case):
        run = Machine("dragon", case.config).run(case.trace)
        assert 0.0 <= run.bus_utilization <= 1.0
        run.bus_busy_cycles = run.elapsed_cycles * 2.0
        with pytest.raises(ValueError, match="double-counted bus cycles"):
            run.bus_utilization
