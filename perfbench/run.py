"""Benchmark of the ``repro`` reproduction: end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-fast --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same untraced passes, then one pass with spans
around every layer entry point, and reports the per-layer metrics.
Untraced passes are timed with the host-speed-adjusted clock of
``clock.py``.  Either way the correctness gate runs after timing, and a
digest of every simulated ``stats_signature`` is printed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import AdjustedClock
from probe import LAYERS, Probe, nesting_errors, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / "bench-spans"

#: Timed passes per run, at least; more start while they are expected
#: to end within ``--seconds``.
MIN_PASSES = 2
#: Set-ups (imports in fresh interpreters, trace generations) per run;
#: ``setup_s`` is built from their medians.
SETUP_REPEATS = 7
#: Engine labels of ``Machine.run`` reported per record, with the
#: metric-safe name of each.
MACHINE_ENGINES = {
    "columnar": "columnar",
    "arbitrated": "arbitrated",
    "columnar+arb": "columnar_arb",
}


def _time_import(modules: tuple[str, ...]) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(time.perf_counter() - started)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _reset_caches() -> None:
    """Empty every in-process memo of ``repro``: each ``functools``
    cache in its modules and the derived-column cache."""
    from repro.trace import clear_derived_cache

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    clear_derived_cache()
    gc.collect()


def _digest(results: list) -> str:
    """Digest of every simulated ``stats_signature`` with its
    configuration, in sorted order."""
    from repro.verify.differential import stats_signature

    lines = sorted(
        repr((result.config, stats_signature(result))) for result in results
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _simulated_records(results: list) -> int:
    """Trace records times configurations simulated."""
    return sum(result.records_replayed for result in results)


def _machine_statistics(results: list) -> dict[str, tuple[float, str]]:
    """Statistics of the modelled machine, in simulated cycles."""
    count = len(results) or 1
    return {
        "sim.bus.utilization_mean": (
            sum(r.bus_utilization for r in results) / count, "fraction"),
        "sim.bus.wait_cycles_per_instr": (
            sum(r.wait_cycles_per_instruction for r in results) / count,
            "cycles/instr"),
        "sim.cache.miss_rate_mean": (
            sum(
                r.total_misses / (r.instructions + r.data_references)
                for r in results
            ) / count,
            "fraction"),
        "sim.processing_power_sum": (
            sum(r.processing_power for r in results), "processors"),
    }


def _layer_metrics(
    probe: Probe, window_s: float, untraced_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced window."""
    from repro.trace import derived_cache_info

    own = self_times(probe.spans)
    by_layer = {layer: [] for layer in LAYERS}
    for span, self_s in zip(probe.spans, own):
        by_layer[span.layer].append((span, self_s))

    def self_s(layer: str) -> float:
        return sum(value for _, value in by_layer[layer])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {f"{layer}.self_s": (self_s(layer), "s") for layer in LAYERS}
    stats_calls = len(by_layer["trace.stats"])
    distinct = {span.detail["trace"] for span, _ in by_layer["trace.stats"]}
    generated = sum(span.detail["records"] for span, _ in by_layer["trace.synthetic"])
    cache = derived_cache_info()
    configs = sum(span.detail["configs"] for span, _ in by_layer["sim.onepass"])
    fallback = sum(span.detail["fallback"] for span, _ in by_layer["sim.onepass"])
    metrics.update({
        "trace.stats.calls": (stats_calls, "count"),
        "trace.stats.distinct_frac": (ratio(len(distinct), stats_calls), "fraction"),
        "trace.synthetic.records_per_s": (
            ratio(generated, self_s("trace.synthetic")), "1/s"),
        "trace.derived.hit_frac": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "fraction"),
        "sim.onepass.configs": (configs, "count"),
        "sim.onepass.fallback_frac": (ratio(fallback, configs), "fraction"),
    })
    for engine, label in MACHINE_ENGINES.items():
        runs = [
            (span.detail["records"], value)
            for span, value in by_layer["sim.machine"]
            if span.detail["engine"] == engine
        ]
        metrics[f"sim.machine.{label}.ns_per_record"] = (
            ratio(1e9 * sum(v for _, v in runs), sum(n for n, _ in runs)), "ns")
    metrics.update(_machine_statistics(probe.results))
    top_level = sum(span.duration for span in probe.spans if span.parent is None)
    metrics["bench.other.self_s"] = (window_s - top_level, "s")
    metrics["bench.tracing_overhead_frac"] = (window_s / untraced_s - 1.0, "fraction")
    return metrics


def _write_spans(probe: Probe, origin: float, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"{workload}-seed{seed}.jsonl"
    with path.open("w") as out:
        for span in probe.spans:
            out.write(json.dumps({
                "name": span.layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                **span.detail,
            }) + "\n")
    return path


def _run_pass(steps: list, clock: AdjustedClock, step_times: dict) -> dict:
    """Run the body's steps in order, appending each step's ``(raw,
    adjusted)`` seconds to ``step_times[key]``; return the results by
    key."""
    results = {}
    for key, thunk in steps:
        clock.start()
        results[key] = thunk()
        step_times.setdefault(key, []).append(clock.stop())
    return results


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    checks: list[tuple[str, bool, str]] = []

    # -- set-up: imports, then the seeded input ---------------------------
    started = time.perf_counter()
    for module in workload.imports:
        __import__(module)
    import_s = [time.perf_counter() - started] + [
        _time_import(workload.imports) for _ in range(SETUP_REPEATS - 1)
    ]
    generate_s = [0.0]
    workload_input = None
    if workload.make_input is not None:
        from repro.trace import trace_digest

        generate_s, digests = [], set()
        for _ in range(SETUP_REPEATS):
            workload_input = None
            started = time.perf_counter()
            workload_input = workload.make_input(seed)
            generate_s.append(time.perf_counter() - started)
            digests.add(trace_digest(workload_input))
        checks.append(("input-deterministic", len(digests) == 1,
                       f"{len(digests)} distinct inputs for seed {seed}"))
    setup_s = statistics.median(import_s) + statistics.median(generate_s)

    # -- timed passes -------------------------------------------------------
    clock = AdjustedClock()
    step_times: dict[object, list[tuple[float, float]]] = {}
    pass_s: list[float] = []
    pass_digests: list[str] = []
    output = probe = None
    deadline = time.perf_counter() + seconds
    while len(pass_s) < MIN_PASSES or (
        time.perf_counter() + statistics.median(pass_s) <= deadline
    ):
        output = probe = None
        started = time.perf_counter()
        _reset_caches()
        with Probe(spans=False, clock=clock) as probe:
            output = _run_pass(workload.steps(workload_input), clock, step_times)
        pass_digests.append(_digest(probe.results))
        pass_s.append(time.perf_counter() - started)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Per-step medians: a slow spell of the host that hits one step of
    # one pass does not move the sum.
    raw_wall_s = sum(
        statistics.median(raw for raw, _ in times) for times in step_times.values()
    )
    adjusted_wall_s = sum(
        statistics.median(adjusted for _, adjusted in times)
        for times in step_times.values()
    )
    records = _simulated_records(probe.results)

    # -- correctness gate (untimed) -------------------------------------
    checks.append(("passes-agree", len(set(pass_digests)) == 1,
                   f"{len(set(pass_digests))} digests over {len(pass_s)} passes"))
    checks.extend(workload.checks(workload_input, output, seed))
    model_error = workload.model_error(workload_input, probe)

    print(f"workload {workload_name} seed {seed}: {len(pass_s)} passes of "
          + " ".join(f"{p:.3f}" for p in pass_s) + " s; raw wall "
          f"{raw_wall_s:.3f} s, adjusted {adjusted_wall_s:.3f} s; reference loop "
          f"median {1e3 * statistics.median(clock.samples):.2f} ms")
    print(f"sim-digest {pass_digests[-1]} ({len(probe.results)} results, "
          f"{records} records x configs)")

    if trace:
        output = probe = None
        _reset_caches()
        with Probe(spans=True) as probe:
            origin = time.perf_counter()
            traced_input = workload_input
            if workload.make_input is not None:
                traced_input = workload.make_input(seed)
            for _, thunk in workload.steps(traced_input):
                thunk()
            window_s = time.perf_counter() - origin
        untraced_s = raw_wall_s + statistics.median(generate_s)
        metrics = _layer_metrics(probe, window_s, untraced_s)
        metrics["bench.raw_wall_s"] = (raw_wall_s, "s")
        metrics["bench.reference_loop_s"] = (statistics.median(clock.samples), "s")
        own_total = sum(self_times(probe.spans)) + metrics["bench.other.self_s"][0]
        errors = nesting_errors(probe.spans, origin, origin + window_s)
        checks.append(("spans-nest", not errors, "; ".join(errors[:3])))
        checks.append((
            "self-times-add-up",
            abs(own_total - window_s) <= 1e-9 * window_s
            and metrics["bench.other.self_s"][0] >= 0.0,
            f"layers + other {own_total:.6f} s vs traced wall {window_s:.6f} s",
        ))
        checks.append(("traced-pass-agrees",
                       _digest(probe.results) == pass_digests[-1], ""))
        path = _write_spans(probe, origin, workload_name, seed)
        print(f"{len(probe.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        passed = sum(ok for _, ok, _ in checks)
        metrics = {
            "adjusted_wall_s": (adjusted_wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "sim_records_per_s": (records / adjusted_wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "checks_passed_frac": (passed / len(checks), "fraction"),
            "model_error_max": (model_error, "fraction"),
        }

    failed = [(name, detail) for name, ok, detail in checks if not ok]
    for name, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
