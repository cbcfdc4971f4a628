"""One-pass geometry families vs per-config ``Machine.run``.

The tentpole claim of the one-pass engine is *sweep-scale* simulation
throughput: one :func:`repro.sim.run_geometry_family` call replaces one
full trace replay per cache size — one traversal per (protocol, block
size) family instead of one per cell — while returning statistics
bit-identical to the per-config path.  The pytest-benchmark entries
here track both paths on the paper-bracketing eight-size family;
``test_family_speedup`` records the measured ratio
(``extra_info["speedup"]``) and enforces the 3x wall-clock floor, and
``test_family_traversals`` enforces the >= 5x traversal saving.

The module also runs standalone for CI::

    python benchmarks/bench_onepass.py --smoke

which checks family-vs-per-config bit-exactness for all three
geometry-local protocols on a reduced trace, then times the benchmark
family — seconds, not minutes, suitable for ``scripts/check.sh``.
"""

from __future__ import annotations

import sys
import time

from repro.obs.metrics import replay_counters
from repro.sim import Machine, SimulationConfig, run_geometry_family
from repro.trace import preset
from repro.verify.differential import stats_signature

#: Sweep-scale benchmark family: the paper's 16K-256K validation axis
#: extended down to 2K — eight cache sizes, one 160k-record trace.
_BENCH_PROTOCOL = "swflush"
_BENCH_SIZES = tuple(2048 << k for k in range(8))
_BENCH_RECORDS = 40_000

#: Small smoke family: all three fast-path protocols, < 10 s total.
_SMOKE_SIZES = (4096, 16384, 65536, 262144)
_SMOKE_RECORDS = 10_000

_ROUNDS = 5
_WALL_FLOOR = 3.0
_SMOKE_WALL_FLOOR = 2.0
_TRAVERSAL_FLOOR = 5.0


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


# -- pytest-benchmark entries -------------------------------------------


def test_family_per_config(benchmark):
    trace = _trace(_BENCH_RECORDS)
    benchmark.pedantic(
        lambda: _per_config_sweep(_BENCH_PROTOCOL, trace, _BENCH_SIZES),
        rounds=3,
        iterations=1,
    )


def test_family_onepass(benchmark):
    trace = _trace(_BENCH_RECORDS)
    benchmark(
        lambda: run_geometry_family(_BENCH_PROTOCOL, trace, _BENCH_SIZES)
    )


def test_family_speedup(benchmark):
    """Record and enforce the >= 3x sweep-scale speedup."""
    trace = _trace(_BENCH_RECORDS)
    reference = {}
    per_config_rounds = []

    def time_per_config():
        # pytest-benchmark calls this before each one-pass round, so
        # the two sides alternate and host drift lands on both.
        start = time.perf_counter()
        reference.update(
            _per_config_sweep(_BENCH_PROTOCOL, trace, _BENCH_SIZES)
        )
        per_config_rounds.append(time.perf_counter() - start)

    family = benchmark.pedantic(
        lambda: run_geometry_family(_BENCH_PROTOCOL, trace, _BENCH_SIZES),
        setup=time_per_config,
        rounds=_ROUNDS,
    )
    # Min over the same number of rounds on both sides, matching
    # pytest-benchmark's own statistic for the fast path.
    per_config_seconds = min(per_config_rounds)
    onepass_seconds = benchmark.stats.stats.min

    assert _identical(family, reference)
    speedup = per_config_seconds / onepass_seconds
    benchmark.extra_info["per_config_seconds"] = per_config_seconds
    benchmark.extra_info["onepass_seconds"] = onepass_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cache_sizes"] = len(_BENCH_SIZES)
    benchmark.extra_info["records"] = len(trace)
    assert speedup >= _WALL_FLOOR, (
        f"one-pass family only {speedup:.1f}x faster than per-config "
        f"({per_config_seconds:.3f}s vs {onepass_seconds:.3f}s)"
    )


def test_family_traversals():
    """One traversal per family: >= 5x fewer records replayed."""
    trace = _trace(_SMOKE_RECORDS)
    before, _ = replay_counters()
    run_geometry_family(_BENCH_PROTOCOL, trace, _BENCH_SIZES)
    onepass_replayed = replay_counters()[0] - before
    before, _ = replay_counters()
    _per_config_sweep(_BENCH_PROTOCOL, trace, _BENCH_SIZES)
    per_config_replayed = replay_counters()[0] - before
    ratio = per_config_replayed / onepass_replayed
    assert ratio >= _TRAVERSAL_FLOOR, (
        f"only {ratio:.1f}x fewer traversals "
        f"({onepass_replayed} vs {per_config_replayed} records)"
    )


# -- standalone smoke mode ----------------------------------------------


def run_smoke() -> int:
    """Bit-exactness for all three protocols + timing floor; 0 if ok."""
    trace = _trace(_SMOKE_RECORDS)
    failures = 0
    for protocol in ("base", "nocache", "swflush"):
        family = run_geometry_family(protocol, trace, _SMOKE_SIZES)
        reference = _per_config_sweep(protocol, trace, _SMOKE_SIZES)
        if not _identical(family, reference):
            print(f"MISMATCH onepass/{protocol}", file=sys.stderr)
            failures += 1
        if any(run.engine != "onepass" for run in family.values()):
            print(f"FAST PATH NOT USED for {protocol}", file=sys.stderr)
            failures += 1
    if failures:
        return 1

    bench_trace = _trace(_BENCH_RECORDS)
    run_geometry_family(_BENCH_PROTOCOL, bench_trace, _BENCH_SIZES)  # warm
    start = time.perf_counter()
    family = run_geometry_family(_BENCH_PROTOCOL, bench_trace, _BENCH_SIZES)
    onepass_seconds = time.perf_counter() - start
    start = time.perf_counter()
    reference = _per_config_sweep(
        _BENCH_PROTOCOL, bench_trace, _BENCH_SIZES
    )
    per_config_seconds = time.perf_counter() - start
    if not _identical(family, reference):
        print("MISMATCH onepass benchmark family", file=sys.stderr)
        return 1
    speedup = per_config_seconds / onepass_seconds
    print(
        f"onepass smoke ok: {len(_BENCH_SIZES)} sizes x "
        f"{len(bench_trace)} records, per-config "
        f"{per_config_seconds:.3f}s, one-pass {onepass_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    if speedup < _SMOKE_WALL_FLOOR:
        print(
            f"speedup {speedup:.1f}x below the "
            f"{_SMOKE_WALL_FLOOR:.0f}x smoke floor",
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
