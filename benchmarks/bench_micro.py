"""Micro-benchmarks of the substrates.

Not paper artefacts: these track the cost of the building blocks so
performance regressions in the solvers, the generator, or the
simulator surface in benchmark history.
"""

import pytest

from repro.core import ALL_SCHEMES, BusSystem, NetworkSystem, WorkloadParams
from repro.queueing import DeltaNetwork, closed_loop_utilization, solve_machine_repairman
from repro.sim import Machine, SimulationConfig
from repro.trace import (
    TraceConfig,
    collect_stats,
    generate_trace,
    load_trace,
    save_trace,
)

MIDDLE = WorkloadParams.middle()


def test_mva_solver(benchmark):
    benchmark(solve_machine_repairman, 64, 20.0, 1.5)


def test_delta_fixed_point(benchmark):
    network = DeltaNetwork(stages=10)
    benchmark(closed_loop_utilization, network, 0.6)


def test_bus_evaluation_all_schemes(benchmark):
    bus = BusSystem()

    def evaluate_all():
        for scheme in ALL_SCHEMES:
            bus.evaluate(scheme, MIDDLE, processors=16)

    benchmark(evaluate_all)


def test_network_evaluation(benchmark):
    network = NetworkSystem(8)
    from repro.core import SOFTWARE_FLUSH

    benchmark(network.evaluate, SOFTWARE_FLUSH, MIDDLE)


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=10_000, seed=1))


def test_trace_generation(benchmark):
    config = TraceConfig(cpus=4, records_per_cpu=5_000, seed=1)
    benchmark.pedantic(generate_trace, args=(config,), rounds=3, iterations=1)


def test_collect_stats(benchmark, small_trace):
    stats = benchmark(collect_stats, small_trace)
    assert stats.run_lengths


@pytest.mark.parametrize(
    "protocol", ["base", "dragon", "hybrid-4", "nocache", "swflush"]
)
def test_simulator_throughput(benchmark, small_trace, protocol):
    machine = Machine(protocol, SimulationConfig())
    result = benchmark.pedantic(
        machine.run, args=(small_trace,), rounds=3, iterations=1
    )
    assert result.instructions > 0


@pytest.mark.parametrize("protocol", ["base", "dragon"])
def test_simulator_trace_order(benchmark, small_trace, protocol):
    """Trace-order replay (no time merge): the engine's upper bound."""
    machine = Machine(protocol, SimulationConfig())
    result = benchmark.pedantic(
        machine.run, args=(small_trace,), kwargs={"order": "trace"},
        rounds=3, iterations=1,
    )
    assert result.instructions > 0


@pytest.mark.parametrize("protocol", ["base", "dragon"])
def test_simulator_legacy_reference(benchmark, small_trace, protocol):
    """The retained record-loop engine, so the history shows both."""
    machine = Machine(protocol, SimulationConfig())
    result = benchmark.pedantic(
        machine.run, args=(small_trace,), kwargs={"engine": "legacy"},
        rounds=3, iterations=1,
    )
    assert result.instructions > 0


@pytest.mark.parametrize("format", ["v1", "v2"])
def test_trace_save(benchmark, small_trace, tmp_path, format):
    path = tmp_path / f"bench.{format}"
    benchmark.pedantic(
        save_trace, args=(small_trace, path), kwargs={"format": format},
        rounds=3, iterations=1,
    )


@pytest.mark.parametrize("format", ["v1", "v2"])
def test_trace_load(benchmark, small_trace, tmp_path, format):
    path = tmp_path / f"bench.{format}"
    save_trace(small_trace, path, format=format)
    loaded = benchmark.pedantic(
        load_trace, args=(path,), rounds=3, iterations=1
    )
    assert len(loaded) == len(small_trace)
