"""Micro-benchmarks of the substrates.

Not paper artefacts: these track the cost of the building blocks so
performance regressions in the solvers, the generator, or the
simulator surface in benchmark history.

``test_single_owner_span_speedup`` enforces a floor: for the five
protocols whose proven hits come from the single-owner-block proof
(remote traffic can evict, so only blocks one CPU references qualify),
the columnar engine must beat ``engine="legacy"`` by at least
``_SINGLE_OWNER_FLOOR`` on the 8-CPU x 10k thor trace, both sides
timed in alternating rounds with the garbage collector off.
``test_trace_generation_speedup`` holds ``generate_trace`` to
``_GENERATOR_FLOOR`` over the record-at-a-time reference in
``tests/trace/reference_generator.py`` on pops and pero8, timed the
same way.
"""

import gc
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ALL_SCHEMES, BusSystem, NetworkSystem, WorkloadParams
from repro.queueing import DeltaNetwork, closed_loop_utilization, solve_machine_repairman
from repro.sim import PROTOCOLS, Machine, SimulationConfig
from repro.trace import (
    TraceConfig,
    collect_stats,
    generate_trace,
    load_trace,
    preset,
    save_trace,
)
from repro.verify.differential import stats_signature
from tests.trace.reference_generator import reference_generate_trace

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


#: Three-phase generator over the record-at-a-time reference at 10k
#: records per CPU (recorded over three runs, both sides gc-disabled,
#: min of 5 alternating rounds, Intel Xeon 2-vCPU VM: pops 2.94x,
#: 3.03x, 2.85x; pero8 3.26x, 3.12x, 2.97x).  The floor is 70% of the
#: lowest, so host noise cannot straddle it (a loaded host once
#: measured pero8 at 2.44x).
_GENERATOR_FLOOR = 2.0


@pytest.mark.parametrize("workload", ["pops", "pero8"])
def test_trace_generation_speedup(benchmark, workload):
    """Record the generator and enforce its floor over the reference."""
    config = replace(preset(workload).config, records_per_cpu=10_000)
    trace = benchmark.pedantic(
        generate_trace, args=(config,), rounds=3, iterations=1
    )
    reference = reference_generate_trace(config)
    for column in ("cpu", "kind", "address"):
        assert np.array_equal(getattr(trace, column), getattr(reference, column))
    best_fast = best_reference = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            generate_trace(config)
            best_fast = min(best_fast, time.perf_counter() - start)
            start = time.perf_counter()
            reference_generate_trace(config)
            best_reference = min(best_reference, time.perf_counter() - start)
    finally:
        gc.enable()
    speedup = best_reference / best_fast
    benchmark.extra_info["generator_seconds"] = best_fast
    benchmark.extra_info["reference_seconds"] = best_reference
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["records"] = len(trace)
    assert speedup >= _GENERATOR_FLOOR, (
        f"{workload} generator only {speedup:.2f}x faster than the "
        f"reference ({best_fast:.3f}s vs {best_reference:.3f}s)"
    )


def test_collect_stats(benchmark, small_trace):
    stats = benchmark(collect_stats, small_trace)
    assert stats.run_lengths


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_simulator_throughput(benchmark, small_trace, protocol):
    machine = Machine(protocol, SimulationConfig())
    result = benchmark.pedantic(
        machine.run, args=(small_trace,), rounds=3, iterations=1
    )
    assert result.instructions > 0


#: Protocols proven-hit spans reach only through single-owner blocks.
_SINGLE_OWNER_PROTOCOLS = sorted(
    name for name, cls in PROTOCOLS.items() if cls.private_blocks_are_local
)
#: Columnar over legacy on the contended trace (measured 3.4-4.5x,
#: both sides gc-disabled, on a 2.7 GHz Xeon).
_SINGLE_OWNER_FLOOR = 2.5


@pytest.fixture(scope="module")
def contended_trace():
    return preset("thor").generate(seed=1, cpus=8, records_per_cpu=10_000)


@pytest.mark.parametrize("protocol", _SINGLE_OWNER_PROTOCOLS)
def test_single_owner_span_speedup(benchmark, contended_trace, protocol):
    """Record the columnar replay and enforce its floor over legacy."""
    machine = Machine(protocol, SimulationConfig())
    reference = machine.run(contended_trace, engine="legacy")
    run = benchmark.pedantic(
        machine.run, args=(contended_trace,), rounds=3, iterations=1
    )
    assert stats_signature(run) == stats_signature(reference)
    best_columnar = best_legacy = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            machine.run(contended_trace)
            best_columnar = min(best_columnar, time.perf_counter() - start)
            start = time.perf_counter()
            machine.run(contended_trace, engine="legacy")
            best_legacy = min(best_legacy, time.perf_counter() - start)
    finally:
        gc.enable()
    speedup = best_legacy / best_columnar
    benchmark.extra_info["columnar_seconds"] = best_columnar
    benchmark.extra_info["legacy_seconds"] = best_legacy
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["records"] = len(contended_trace)
    assert speedup >= _SINGLE_OWNER_FLOOR, (
        f"{protocol} columnar only {speedup:.2f}x faster than legacy "
        f"({best_columnar:.3f}s vs {best_legacy:.3f}s)"
    )


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
    """The reference record loop, so the history shows both."""
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
