"""Epoch-partitioned Dragon/WTI families.

The epoch engine extends sweep-scale simulation to the geometry-coupled
snoopy protocols: one :func:`repro.sim.run_geometry_family` call per
protocol replaces one full trace replay per cache size, with per-config
statistics bit-identical to ``Machine.run``.  The pytest-benchmark
entries here track the eight-size family for both protocols;
``test_dragon_family_speedup`` / ``test_wti_family_speedup`` record the
measured ratios (``extra_info["speedup"]``) and enforce the 2x
wall-clock floor.

The module also runs standalone for CI::

    python benchmarks/bench_coupled.py --smoke

which checks family-vs-per-config bit-exactness for Dragon and WTI on
a reduced trace, then times the benchmark families against a
noise-tolerant smoke floor — seconds, not minutes, suitable for
``scripts/check.sh``.
"""

from __future__ import annotations

import sys
import time

from repro.sim import Machine, SimulationConfig, run_geometry_family
from repro.trace import preset
from repro.verify.differential import stats_signature

#: Sweep-scale benchmark family: the paper's 16K-256K validation axis
#: extended down to 2K — eight cache sizes, one 160k-record trace.
_BENCH_PROTOCOLS = ("dragon", "wti")
_BENCH_SIZES = tuple(2048 << k for k in range(8))
_BENCH_RECORDS = 40_000

#: Small smoke family for the exactness check, < 10 s total.
_SMOKE_SIZES = (4096, 16384, 65536, 262144)
_SMOKE_RECORDS = 10_000

_ROUNDS = 5
#: The recorded claim, enforced by the pytest-benchmark entries.
_WALL_FLOOR = 2.0
#: Noise-tolerant CI tripwire (same pattern as bench_onepass: the
#: smoke floor sits below the benchmarked claim so a loaded box does
#: not flake the gate, while a real regression still trips it).
_SMOKE_WALL_FLOOR = 1.6


def _trace(records: int):
    return preset("pops").generate(records_per_cpu=records)


def _per_config_sweep(protocol, trace, sizes) -> dict:
    """The reference path: one full ``Machine.run`` per cache size."""
    results = {}
    for size in sizes:
        config = SimulationConfig(cache_bytes=size)
        results[size] = Machine(protocol, config).run(trace)
    return results


def _identical(family: dict, reference: dict) -> bool:
    return all(
        stats_signature(family[size]) == stats_signature(reference[size])
        for size in reference
    )


def _min_seconds(fn, rounds: int = _ROUNDS) -> float:
    """Min wall time over ``rounds`` calls — the noise-robust statistic
    pytest-benchmark itself reports for the fast side."""
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


def _family_speedup(benchmark, protocol: str) -> None:
    trace = _trace(_BENCH_RECORDS)
    reference = _per_config_sweep(protocol, trace, _BENCH_SIZES)
    per_config_seconds = _min_seconds(
        lambda: _per_config_sweep(protocol, trace, _BENCH_SIZES)
    )
    family = benchmark(
        lambda: run_geometry_family(protocol, trace, _BENCH_SIZES)
    )
    family_seconds = benchmark.stats.stats.min

    assert _identical(family, reference)
    assert all(run.engine == "epoch" for run in family.values())
    speedup = per_config_seconds / family_seconds
    benchmark.extra_info["per_config_seconds"] = per_config_seconds
    benchmark.extra_info["family_seconds"] = family_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cache_sizes"] = len(_BENCH_SIZES)
    benchmark.extra_info["records"] = len(trace)
    assert speedup >= _WALL_FLOOR, (
        f"{protocol} family only {speedup:.2f}x faster than per-config "
        f"({per_config_seconds:.3f}s vs {family_seconds:.3f}s)"
    )


# -- pytest-benchmark entries -------------------------------------------


def test_dragon_family_speedup(benchmark):
    """Record and enforce the >= 2x Dragon eight-size sweep speedup."""
    _family_speedup(benchmark, "dragon")


def test_wti_family_speedup(benchmark):
    """Record and enforce the >= 2x WTI eight-size sweep speedup."""
    _family_speedup(benchmark, "wti")


# -- standalone smoke mode ----------------------------------------------


def run_smoke() -> int:
    """Bit-exactness for Dragon/WTI + the 2x timing floor; 0 if ok."""
    trace = _trace(_SMOKE_RECORDS)
    failures = 0
    for protocol in _BENCH_PROTOCOLS:
        family = run_geometry_family(protocol, trace, _SMOKE_SIZES)
        reference = _per_config_sweep(protocol, trace, _SMOKE_SIZES)
        if not _identical(family, reference):
            print(f"MISMATCH epoch/{protocol}", file=sys.stderr)
            failures += 1
        if any(run.engine != "epoch" for run in family.values()):
            print(f"FAST PATH NOT USED for {protocol}", file=sys.stderr)
            failures += 1
    if failures:
        return 1

    bench_trace = _trace(_BENCH_RECORDS)
    status = 0
    for protocol in _BENCH_PROTOCOLS:
        run_geometry_family(protocol, bench_trace, _BENCH_SIZES)  # warm
        family_seconds, per_config_seconds = _paired_min_seconds(
            lambda: run_geometry_family(protocol, bench_trace, _BENCH_SIZES),
            lambda: _per_config_sweep(protocol, bench_trace, _BENCH_SIZES),
            rounds=5,
        )
        speedup = per_config_seconds / family_seconds
        print(
            f"{protocol} smoke ok: {len(_BENCH_SIZES)} sizes x "
            f"{len(bench_trace)} records, per-config "
            f"{per_config_seconds:.3f}s, family {family_seconds:.3f}s "
            f"({speedup:.1f}x)"
        )
        if speedup < _SMOKE_WALL_FLOOR:
            print(
                f"{protocol} speedup {speedup:.2f}x below the "
                f"{_SMOKE_WALL_FLOOR:.1f}x smoke floor",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        raise SystemExit(run_smoke())
    print(__doc__)
    raise SystemExit(
        "run under pytest (--benchmark-only) or with --smoke"
    )
