"""Bus arbitration disciplines: exactness + overhead micro-benchmark.

The arbitrated engine replays the trace through the deferred-grant
:class:`~repro.sim.bus.ArbitratedBus` so non-FCFS disciplines can
reorder grants; that generality costs wall clock over the synchronous
columnar fold.  The pytest-benchmark entries here record the per-
discipline replay times and the pure bus request/grant throughput, and
``test_arbitrated_overhead_ceiling`` pins the price: the fcfs
arbitrated replay must stay within ``_OVERHEAD_CEILING``x of the
columnar engine, so the deferred-grant loop never quietly decays into
something pathological.  ``test_round_robin_speedup`` records the
columnar deferred-grant loop against the generator-driven reference
(``engine="legacy"`` under round-robin), both sides timed in
alternating rounds with the garbage collector off, and enforces
``_ROUND_ROBIN_FLOOR``.

fcfs with an *integral* arbitration overhead no longer pays that
price at all: the overhead folds into the synchronous engines' grant
arithmetic (``engine="columnar+arb"``), and
``test_folded_arbitration_overhead`` pins the fold at parity —
within ``_FOLDED_CEILING``x of the zero-overhead columnar replay
(measured ~1.0x, vs the ~9.4x the deferred-grant engine used to
charge the default discipline).

The module also runs standalone for CI::

    python benchmarks/bench_bus.py --smoke

which checks fcfs bit-exactness (arbitrated vs columnar), round-robin
bit-exactness (arbitrated vs the deferred-grant reference), plus the
oracle invariants for every registered discipline on a reduced trace,
then times the fcfs replay against a noise-tolerant smoke ceiling —
seconds, not minutes, suitable for ``scripts/check.sh``.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time

from repro.sim import Machine, SimulationConfig
from repro.sim.bus import DISCIPLINES, ArbitratedBus
from repro.trace import preset
from repro.verify.differential import stats_signature
from repro.verify.invariants import check_result_invariants

#: Discipline replay entries run the geometry-coupled Dragon protocol
#: (the expensive, representative case); the bit-exactness claim is
#: made on a geometry-local protocol, where fcfs arbitration is
#: guaranteed byte-identical (coupled protocols may legally reorder
#: same-cycle steals).
_BENCH_PROTOCOL = "dragon"
_EXACT_PROTOCOL = "swflush"
_BENCH_RECORDS = 40_000
_SMOKE_RECORDS = 10_000
_ARBITRATION_CYCLES = 2.0

_ROUNDS = 5
#: The recorded claim, enforced by the pytest-benchmark entry: the
#: deferred-grant replay pays at most this factor over the columnar
#: fold (measured 1.14x recorded, ~1.25x with both sides gc-disabled;
#: the 1.3x headroom absorbs machine noise, not drift).
_OVERHEAD_CEILING = 1.6
#: Noise-tolerant CI tripwire (same pattern as bench_coupled: the
#: smoke bound sits looser than the benchmarked claim so a loaded box
#: does not flake the gate, while a real regression still trips it).
_SMOKE_OVERHEAD_CEILING = 2.0

#: Round-robin Dragon: the columnar deferred-grant loop must beat the
#: generator-driven reference by at least this factor (measured
#: ~5-6x, both sides gc-disabled).
_ROUND_ROBIN_FLOOR = 4.0

#: The folded fcfs path: integral overhead added inside the synchronous
#: grant arithmetic costs a constant per transaction, so the fold must
#: stay at parity with the zero-overhead columnar replay (measured
#: ~1.0x; the ceiling is the recorded claim, not headroom for drift).
_FOLDED_ARBITRATION_CYCLES = 4.0
_FOLDED_CEILING = 1.5

#: Pure-bus micro: requests posted and granted per arbitration cycle.
_GRANT_CPUS = 16
_GRANT_ROUNDS = 2_000


def _trace(records: int):
    return preset("pops").generate(records_per_cpu=records)


def _discipline_config(discipline: str) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(),
        bus_discipline=discipline,
        bus_arbitration_cycles=_ARBITRATION_CYCLES,
    )


def _min_seconds(fn, rounds: int = _ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_min_seconds(fast, slow, rounds: int = _ROUNDS):
    """Min wall time for both sides, measured in *alternating* rounds
    so slow drift in machine load hits both paths, not just one."""
    best_fast = best_slow = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fast()
        best_fast = min(best_fast, time.perf_counter() - start)
        start = time.perf_counter()
        slow()
        best_slow = min(best_slow, time.perf_counter() - start)
    return best_fast, best_slow


def _grant_storm(discipline: str) -> float:
    """Saturate one bus: every CPU re-requests as soon as it is served."""
    bus = ArbitratedBus(
        _GRANT_CPUS, discipline, arbitration_cycles=_ARBITRATION_CYCLES
    )
    for cpu in range(_GRANT_CPUS):
        bus.request(cpu, 0.0, 4.0)
    for _ in range(_GRANT_ROUNDS):
        cpu, start, _ = bus.grant_next()
        bus.request(cpu, start + 4.0, 4.0)
    return bus.busy_cycles


# -- pytest-benchmark entries -------------------------------------------


def test_arbitrated_overhead_ceiling(benchmark):
    """Record and bound the fcfs arbitrated replay's columnar overhead."""
    trace = _trace(_BENCH_RECORDS)
    machine = Machine(_EXACT_PROTOCOL, SimulationConfig())
    columnar = machine.run(trace, engine="columnar")
    columnar_seconds = _min_seconds(
        lambda: machine.run(trace, engine="columnar")
    )
    arbitrated = benchmark(lambda: machine.run(trace, engine="arbitrated"))
    arbitrated_seconds = benchmark.stats.stats.min

    assert arbitrated.engine == "arbitrated"
    assert stats_signature(arbitrated) == stats_signature(columnar)
    overhead = arbitrated_seconds / columnar_seconds
    benchmark.extra_info["columnar_seconds"] = columnar_seconds
    benchmark.extra_info["arbitrated_seconds"] = arbitrated_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["records"] = len(trace)
    assert overhead <= _OVERHEAD_CEILING, (
        f"arbitrated replay {overhead:.2f}x over columnar "
        f"({arbitrated_seconds:.3f}s vs {columnar_seconds:.3f}s) "
        f"exceeds the {_OVERHEAD_CEILING:.0f}x ceiling"
    )


def test_folded_arbitration_overhead(benchmark):
    """Record and bound the folded fcfs overhead vs zero-overhead
    columnar."""
    trace = _trace(_BENCH_RECORDS)
    plain = Machine(_EXACT_PROTOCOL, SimulationConfig())
    folded_config = dataclasses.replace(
        SimulationConfig(),
        bus_arbitration_cycles=_FOLDED_ARBITRATION_CYCLES,
    )
    machine = Machine(_EXACT_PROTOCOL, folded_config)
    reference = machine.run(trace, engine="arbitrated")
    columnar_seconds = _min_seconds(
        lambda: plain.run(trace, engine="columnar")
    )
    folded = benchmark(lambda: machine.run(trace))
    folded_seconds = benchmark.stats.stats.min

    assert folded.engine == "columnar+arb"
    assert stats_signature(folded) == stats_signature(reference)
    overhead = folded_seconds / columnar_seconds
    benchmark.extra_info["columnar_seconds"] = columnar_seconds
    benchmark.extra_info["folded_seconds"] = folded_seconds
    benchmark.extra_info["overhead"] = overhead
    benchmark.extra_info["arbitration_cycles"] = (
        _FOLDED_ARBITRATION_CYCLES
    )
    benchmark.extra_info["records"] = len(trace)
    assert overhead <= _FOLDED_CEILING, (
        f"folded fcfs replay {overhead:.2f}x over zero-overhead "
        f"columnar ({folded_seconds:.3f}s vs {columnar_seconds:.3f}s) "
        f"exceeds the {_FOLDED_CEILING:.1f}x ceiling"
    )


def test_round_robin_speedup(benchmark):
    """Record the round-robin deferred-grant loop against the
    generator-driven reference, symmetric gc and alternating rounds."""
    trace = _trace(_BENCH_RECORDS)
    machine = Machine(_BENCH_PROTOCOL, _discipline_config("round-robin"))
    reference = machine.run(trace, engine="legacy")
    run = benchmark(lambda: machine.run(trace))

    assert (run.engine, reference.engine) == ("arbitrated", "legacy")
    assert stats_signature(run) == stats_signature(reference)
    gc.disable()
    try:
        loop_seconds, reference_seconds = _paired_min_seconds(
            lambda: machine.run(trace),
            lambda: machine.run(trace, engine="legacy"),
        )
    finally:
        gc.enable()
    speedup = reference_seconds / loop_seconds
    benchmark.extra_info["loop_seconds"] = loop_seconds
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["records"] = len(trace)
    assert speedup >= _ROUND_ROBIN_FLOOR, (
        f"round-robin deferred-grant loop only {speedup:.2f}x faster "
        f"than the reference ({loop_seconds:.3f}s vs "
        f"{reference_seconds:.3f}s)"
    )


def test_discipline_replay(benchmark, discipline):
    """Record per-discipline replay time with arbitration overhead on."""
    trace = _trace(_BENCH_RECORDS)
    machine = Machine(_BENCH_PROTOCOL, _discipline_config(discipline))
    run = benchmark(lambda: machine.run(trace))
    check_result_invariants(run, trace=trace)
    benchmark.extra_info["discipline"] = discipline
    benchmark.extra_info["engine"] = run.engine
    benchmark.extra_info["records"] = len(trace)


def pytest_generate_tests(metafunc):
    if "discipline" in metafunc.fixturenames:
        metafunc.parametrize("discipline", DISCIPLINES)


def test_grant_throughput(benchmark):
    """Record the pure request/grant loop on a saturated 16-CPU bus."""
    busy = benchmark(lambda: _grant_storm("round-robin"))
    assert busy > 0.0
    benchmark.extra_info["grants"] = _GRANT_ROUNDS
    benchmark.extra_info["cpus"] = _GRANT_CPUS


# -- standalone smoke mode ----------------------------------------------


def run_smoke() -> int:
    """fcfs bit-exactness (plain and folded), round-robin exactness
    against the deferred-grant reference, per-discipline invariants,
    and the overhead and fold ceilings; 0 if ok."""
    trace = _trace(_SMOKE_RECORDS)
    failures = 0
    machine = Machine(_EXACT_PROTOCOL, SimulationConfig())
    columnar = machine.run(trace, engine="columnar")
    arbitrated = machine.run(trace, engine="arbitrated")
    if stats_signature(arbitrated) != stats_signature(columnar):
        print("MISMATCH fcfs arbitrated vs columnar", file=sys.stderr)
        failures += 1
    round_robin = Machine(_BENCH_PROTOCOL, _discipline_config("round-robin"))
    if stats_signature(round_robin.run(trace)) != stats_signature(
        round_robin.run(trace, engine="legacy")
    ):
        print(
            "MISMATCH round-robin arbitrated vs deferred-grant reference",
            file=sys.stderr,
        )
        failures += 1
    folded_config = dataclasses.replace(
        SimulationConfig(),
        bus_arbitration_cycles=_FOLDED_ARBITRATION_CYCLES,
    )
    folded_machine = Machine(_EXACT_PROTOCOL, folded_config)
    folded = folded_machine.run(trace)
    if folded.engine != "columnar+arb":
        print(
            f"FOLD NOT USED for integral fcfs overhead "
            f"(engine={folded.engine})",
            file=sys.stderr,
        )
        failures += 1
    if stats_signature(folded) != stats_signature(
        folded_machine.run(trace, engine="arbitrated")
    ):
        print("MISMATCH folded fcfs vs arbitrated", file=sys.stderr)
        failures += 1
    for discipline in DISCIPLINES:
        run = Machine(
            _BENCH_PROTOCOL, _discipline_config(discipline)
        ).run(trace)
        try:
            check_result_invariants(run, trace=trace)
        except Exception as violation:
            print(
                f"INVARIANT VIOLATION under {discipline}: {violation}",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1

    bench_trace = _trace(_BENCH_RECORDS)
    machine = Machine(_EXACT_PROTOCOL, SimulationConfig())
    machine.run(bench_trace, engine="arbitrated")  # warm
    arbitrated_seconds, columnar_seconds = _paired_min_seconds(
        lambda: machine.run(bench_trace, engine="arbitrated"),
        lambda: machine.run(bench_trace, engine="columnar"),
        rounds=5,
    )
    overhead = arbitrated_seconds / columnar_seconds
    folded_machine = Machine(
        _EXACT_PROTOCOL,
        dataclasses.replace(
            SimulationConfig(),
            bus_arbitration_cycles=_FOLDED_ARBITRATION_CYCLES,
        ),
    )
    folded_machine.run(bench_trace)  # warm
    folded_seconds, plain_seconds = _paired_min_seconds(
        lambda: folded_machine.run(bench_trace),
        lambda: machine.run(bench_trace, engine="columnar"),
        rounds=5,
    )
    fold_overhead = folded_seconds / plain_seconds
    print(
        f"bus smoke ok: {len(DISCIPLINES)} disciplines x "
        f"{len(bench_trace)} records, columnar {columnar_seconds:.3f}s, "
        f"arbitrated {arbitrated_seconds:.3f}s ({overhead:.1f}x), "
        f"folded fcfs overhead {fold_overhead:.2f}x"
    )
    if overhead > _SMOKE_OVERHEAD_CEILING:
        print(
            f"arbitrated overhead {overhead:.2f}x above the "
            f"{_SMOKE_OVERHEAD_CEILING:.1f}x smoke ceiling",
            file=sys.stderr,
        )
        return 1
    if fold_overhead > _FOLDED_CEILING:
        print(
            f"folded fcfs overhead {fold_overhead:.2f}x above the "
            f"{_FOLDED_CEILING:.1f}x ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    print(__doc__)
    raise SystemExit(
        "run under pytest (--benchmark-only) or with --smoke"
    )
