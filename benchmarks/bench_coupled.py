"""Epoch-partitioned Dragon families.

The epoch engine extends sweep-scale simulation to Dragon, a
geometry-coupled snoopy protocol: one
:func:`repro.sim.run_geometry_family` call replaces one full trace
replay per cache size, with per-config statistics bit-identical to
``Machine.run``.  ``test_dragon_family_speedup`` tracks the eight-size
family, records the measured ratio (``extra_info["speedup"]``) and
enforces the 2x wall-clock floor.  WTI has no epoch engine: its
sweeps run one ``Machine.run`` per configuration.

The module also runs standalone for CI::

    python benchmarks/bench_coupled.py --smoke

which checks family-vs-per-config bit-exactness for Dragon on a
reduced trace at associativity 1, 2 and 4 and that a WTI sweep
reports its pinned per-config fallback reason, then times the Dragon
benchmark family against a noise-tolerant smoke floor — seconds, not
minutes, suitable for ``scripts/check.sh``.
"""

from __future__ import annotations

import sys
import time

from repro.obs.metrics import fallback_counters
from repro.sim import (
    Machine,
    SimulationConfig,
    family_support,
    run_geometry_family,
)
from repro.trace import preset
from repro.verify.differential import stats_signature

#: Sweep-scale benchmark family: the paper's 16K-256K validation axis
#: extended down to 2K — eight cache sizes, one 160k-record trace.
_BENCH_SIZES = tuple(2048 << k for k in range(8))
_BENCH_RECORDS = 40_000

#: The structured reason a WTI sweep records for its per-config runs.
_WTI_FALLBACK = "protocol:wti couples geometries and has no epoch engine"

#: Small smoke family for the exactness check, < 10 s total.
_SMOKE_SIZES = (4096, 16384, 65536, 262144)
_SMOKE_RECORDS = 10_000
_SMOKE_ASSOCIATIVITIES = (1, 2, 4)

_ROUNDS = 5
#: The recorded claim, enforced by the pytest-benchmark entries.
_WALL_FLOOR = 2.0
#: Noise-tolerant CI tripwire (same pattern as bench_onepass: the
#: smoke floor sits below the benchmarked claim so a loaded box does
#: not flake the gate, while a real regression still trips it).
_SMOKE_WALL_FLOOR = 1.6


def _trace(records: int):
    return preset("pops").generate(records_per_cpu=records)


def _per_config_sweep(protocol, trace, sizes, associativity=2) -> dict:
    """The reference path: one full ``Machine.run`` per cache size."""
    results = {}
    for size in sizes:
        config = SimulationConfig(
            cache_bytes=size, associativity=associativity
        )
        results[size] = Machine(protocol, config).run(trace)
    return results


def _identical(family: dict, reference: dict) -> bool:
    return all(
        stats_signature(family[size]) == stats_signature(reference[size])
        for size in reference
    )


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


# -- pytest-benchmark entries -------------------------------------------


def test_dragon_family_speedup(benchmark):
    """Record and enforce the >= 2x Dragon eight-size sweep speedup."""
    trace = _trace(_BENCH_RECORDS)
    reference = {}
    per_config_rounds = []

    def time_per_config():
        # pytest-benchmark calls this before each family round, so the
        # two sides alternate and host drift lands on both.
        start = time.perf_counter()
        reference.update(_per_config_sweep("dragon", trace, _BENCH_SIZES))
        per_config_rounds.append(time.perf_counter() - start)

    family = benchmark.pedantic(
        lambda: run_geometry_family("dragon", trace, _BENCH_SIZES),
        setup=time_per_config,
        rounds=_ROUNDS,
    )
    per_config_seconds = min(per_config_rounds)
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
        f"dragon family only {speedup:.2f}x faster than per-config "
        f"({per_config_seconds:.3f}s vs {family_seconds:.3f}s)"
    )


# -- standalone smoke mode ----------------------------------------------


def _wti_fallback_failures(trace) -> int:
    """A WTI sweep runs per-config and says so with the pinned reason."""
    failures = 0
    if family_support("wti") != ("fallback", _WTI_FALLBACK):
        print(f"WTI ROUTING {family_support('wti')!r}", file=sys.stderr)
        failures += 1
    before, _ = fallback_counters()
    family = run_geometry_family("wti", trace, _SMOKE_SIZES[:2])
    after, reason = fallback_counters()
    if after != before + 1 or reason != _WTI_FALLBACK:
        print(f"WTI FALLBACK NOT RECORDED ({reason!r})", file=sys.stderr)
        failures += 1
    if any(run.engine != "columnar" for run in family.values()):
        print("WTI SWEEP NOT PER-CONFIG", file=sys.stderr)
        failures += 1
    return failures


def run_smoke() -> int:
    """Dragon bit-exactness, WTI routing + the timing floor; 0 if ok."""
    trace = _trace(_SMOKE_RECORDS)
    failures = _wti_fallback_failures(trace)
    for associativity in _SMOKE_ASSOCIATIVITIES:
        family = run_geometry_family(
            "dragon", trace, _SMOKE_SIZES, associativity=associativity
        )
        reference = _per_config_sweep(
            "dragon", trace, _SMOKE_SIZES, associativity
        )
        if not _identical(family, reference):
            print(f"MISMATCH epoch/dragon a{associativity}", file=sys.stderr)
            failures += 1
        if any(run.engine != "epoch" for run in family.values()):
            print(
                f"FAST PATH NOT USED for dragon a{associativity}",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1

    bench_trace = _trace(_BENCH_RECORDS)
    run_geometry_family("dragon", bench_trace, _BENCH_SIZES)  # warm
    family_seconds, per_config_seconds = _paired_min_seconds(
        lambda: run_geometry_family("dragon", bench_trace, _BENCH_SIZES),
        lambda: _per_config_sweep("dragon", bench_trace, _BENCH_SIZES),
        rounds=5,
    )
    speedup = per_config_seconds / family_seconds
    print(
        f"dragon smoke ok: {len(_BENCH_SIZES)} sizes x "
        f"{len(bench_trace)} records, per-config "
        f"{per_config_seconds:.3f}s, family {family_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    if speedup < _SMOKE_WALL_FLOOR:
        print(
            f"dragon speedup {speedup:.2f}x below the "
            f"{_SMOKE_WALL_FLOOR:.1f}x smoke floor",
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
