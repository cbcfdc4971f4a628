"""Model-versus-simulation validation (paper Figures 1-3, Section 3).

The paper validates the analytical model by simulating multiprocessor
address traces and comparing predicted against simulated processing
power for the Base and Dragon schemes at 16K/64K/256K caches.  We do
the same with the synthetic ATUM-like traces: for each processor
count, workload parameters are measured from the (restricted) trace at
the simulated cache configuration and fed to the model — the paper's
own methodology ("a parameter value must be input for each point under
consideration").
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.core import BASE, DRAGON, BusSystem, CoherenceScheme
from repro.experiments.parallel import CellFailure, parallel_map
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, Series, TableData
from repro.sim import (
    SimulationConfig,
    measure_workload_params,
    run_geometry_family,
)
from repro.trace import Trace, preset_trace

__all__ = ["model_vs_simulation", "validation_points", "validation_sweep"]

_SCHEME_BY_PROTOCOL: dict[str, CoherenceScheme] = {
    "base": BASE,
    "dragon": DRAGON,
}

#: records_per_cpu used when an experiment is run with fast=True.
_FAST_RECORDS = 40_000


@lru_cache(maxsize=32)
def _restricted(
    workload: str, records_per_cpu: int | None, cpus: int
) -> Trace:
    """The workload trace restricted to ``cpus`` processors.

    Hoisted out of the sweep loops: every (protocol, cache-size) cell
    at the same processor count shares one restriction (and, through
    the derived-column memo in :mod:`repro.trace.derived`, one set of
    decoded column arrays) instead of re-deriving both per cell.
    """
    trace = preset_trace(workload, records_per_cpu)
    return trace.restricted_to(cpus) if cpus != trace.cpus else trace


def validation_sweep(
    workload: str,
    protocol: str,
    cache_sizes: Sequence[int],
    cpu_counts: Sequence[int],
    records_per_cpu: int | None = None,
) -> dict[int, list[dict]]:
    """Simulated and predicted performance over a cache-size family.

    The whole ``cache_sizes`` axis is simulated per processor count
    with :func:`repro.sim.run_geometry_family` — a single trace
    traversal for the geometry-local protocols (one-pass engine) and
    for Dragon (epoch-partitioned engine), per-config replay for every
    other protocol — with statistics identical to per-cell
    ``Machine.run`` either way.

    Returns:
        ``{cache_bytes: [point per processor count]}`` where each
        point has keys ``cpus``, ``simulated_power``,
        ``predicted_power``, ``relative_error``, and the measured miss
        rates.
    """
    scheme = _SCHEME_BY_PROTOCOL[protocol]
    bus = BusSystem()
    points: dict[int, list[dict]] = {size: [] for size in cache_sizes}
    for cpus in cpu_counts:
        restricted = _restricted(workload, records_per_cpu, cpus)
        family = run_geometry_family(protocol, restricted, cache_sizes)
        for cache_bytes in cache_sizes:
            simulated = family[cache_bytes]
            config = SimulationConfig(cache_bytes=cache_bytes)
            # Dragon measurement run reused when the protocol is dragon.
            measurement = simulated if protocol == "dragon" else None
            params = measure_workload_params(restricted, config, measurement)
            predicted = bus.evaluate(scheme, params, cpus)
            simulated_power = simulated.processing_power
            predicted_power = predicted.processing_power
            points[cache_bytes].append(
                {
                    "cpus": cpus,
                    "simulated_power": simulated_power,
                    "predicted_power": predicted_power,
                    "relative_error": (
                        (predicted_power - simulated_power) / simulated_power
                        if simulated_power
                        else 0.0
                    ),
                    "msdat": params.msdat,
                    "mains": params.mains,
                }
            )
    return points


def validation_points(
    workload: str,
    protocol: str,
    cache_bytes: int,
    cpu_counts: Sequence[int],
    records_per_cpu: int | None = None,
) -> list[dict]:
    """Single-cache-size convenience wrapper over
    :func:`validation_sweep`."""
    sweep = validation_sweep(
        workload, protocol, (cache_bytes,), cpu_counts, records_per_cpu
    )
    return sweep[cache_bytes]


def _sweep_cell(cell: tuple) -> dict[int, list[dict]]:
    """Worker for :func:`parallel_map`: one (workload, protocol) group
    of a validation sweep, covering its whole cache-size family in one
    traversal per processor count.  Module-level and fed a plain tuple
    so it pickles into worker processes."""
    workload, protocol, cache_sizes, cpu_counts, records_per_cpu = cell
    return validation_sweep(
        workload, protocol, cache_sizes, cpu_counts, records_per_cpu
    )


def model_vs_simulation(
    experiment_id: str,
    title: str,
    workloads: Sequence[str],
    protocols: Sequence[str],
    cache_sizes: Sequence[int],
    cpu_counts: Sequence[int],
    records_per_cpu: int | None,
    error_budget: float = 0.10,
    jobs: int | None = None,
) -> ExperimentResult:
    """Generic validation sweep with an error-budget shape check.

    ``jobs`` fans the independent (workload, protocol, cache-size)
    cells out over worker processes; cell results are consumed in the
    same nested-loop order either way, so the rendered figure is
    identical to a serial run.
    """
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        xlabel="processors",
        ylabel="processing power",
    )
    # One cell per (workload, protocol): the cache-size axis is swept
    # inside the cell by ``run_geometry_family`` — a single trace
    # traversal per processor count on the one-pass (base) and epoch
    # (dragon) engines — so cells stay coarse enough to amortize and
    # the rendered output is identical to the old per-cache-size cells.
    cells = [
        (
            workload,
            protocol,
            tuple(cache_sizes),
            tuple(cpu_counts),
            records_per_cpu,
        )
        for workload in workloads
        for protocol in protocols
    ]
    cell_points = parallel_map(_sweep_cell, cells, jobs)
    # Under a resilient monitor (``swcc run``) a crashed cell comes
    # back as a CellFailure value instead of aborting the sweep: render
    # every completed cell and report the casualties as a failing
    # check.  A clean run takes neither branch, so its output is
    # untouched (the resume byte-identity guarantee depends on this).
    failures = [
        outcome for outcome in cell_points if isinstance(outcome, CellFailure)
    ]
    rows = []
    worst = 0.0
    for cell, sweep in zip(cells, cell_points):
        if isinstance(sweep, CellFailure):
            continue
        workload, protocol = cell[:2]
        for cache_bytes in cache_sizes:
            points = sweep[cache_bytes]
            tag = _series_tag(
                workload, protocol, cache_bytes,
                len(workloads) > 1, len(protocols) > 1,
                len(cache_sizes) > 1,
            )
            result.series.append(
                Series(
                    f"sim {tag}".strip(),
                    tuple(float(p["cpus"]) for p in points),
                    tuple(p["simulated_power"] for p in points),
                )
            )
            result.series.append(
                Series(
                    f"model {tag}".strip(),
                    tuple(float(p["cpus"]) for p in points),
                    tuple(p["predicted_power"] for p in points),
                )
            )
            for point in points:
                worst = max(worst, abs(point["relative_error"]))
                rows.append(
                    (
                        workload,
                        protocol,
                        f"{cache_bytes // 1024}K",
                        str(point["cpus"]),
                        f"{point['simulated_power']:.3f}",
                        f"{point['predicted_power']:.3f}",
                        f"{100 * point['relative_error']:+.1f}%",
                    )
                )
    result.tables.append(
        TableData(
            title="model vs simulation",
            headers=(
                "workload", "protocol", "cache", "cpus",
                "sim power", "model power", "error",
            ),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "model-tracks-simulation",
        worst <= error_budget,
        f"worst relative error {100 * worst:.1f}% "
        f"(budget {100 * error_budget:.0f}%)",
    )
    if failures:
        result.add_check(
            "sweep-cells-complete",
            False,
            f"{len(failures)}/{len(cells)} cells failed: "
            + "; ".join(str(failure) for failure in failures),
        )
    return result


def _series_tag(
    workload: str,
    protocol: str,
    cache_bytes: int,
    show_workload: bool,
    show_protocol: bool,
    show_cache: bool,
) -> str:
    parts = []
    if show_workload:
        parts.append(workload)
    if show_protocol:
        parts.append(protocol)
    if show_cache:
        parts.append(f"{cache_bytes // 1024}K")
    return " ".join(parts)


@register(
    "figure1",
    "Model vs simulation: Base and Dragon, 64K caches",
    "Figure 1",
)
def figure1(
    fast: bool = False, jobs: int | None = None, **_
) -> ExperimentResult:
    result = model_vs_simulation(
        "figure1",
        "Model vs simulation, Base and Dragon schemes, 64K-byte caches",
        workloads=("pops", "thor", "pero"),
        protocols=("base", "dragon"),
        cache_sizes=(65536,),
        cpu_counts=(1, 2, 3, 4),
        records_per_cpu=_FAST_RECORDS if fast else None,
        jobs=jobs,
    )
    # The model must capture the (small) Base-over-Dragon advantage.
    for workload in ("pops", "thor", "pero"):
        sim_gap = (
            result.series_by_label(f"sim {workload} base").y_at(4)
            - result.series_by_label(f"sim {workload} dragon").y_at(4)
        )
        model_gap = (
            result.series_by_label(f"model {workload} base").y_at(4)
            - result.series_by_label(f"model {workload} dragon").y_at(4)
        )
        result.add_check(
            f"relative-difference-captured-{workload}",
            sim_gap >= 0.0 and model_gap >= 0.0,
            f"{workload}: Base-Dragon gap sim {sim_gap:+.3f}, "
            f"model {model_gap:+.3f}",
        )
    return result


@register(
    "figure2",
    "Model vs simulation: Dragon at three cache sizes, <=4 CPUs",
    "Figure 2",
)
def figure2(
    fast: bool = False, jobs: int | None = None, **_
) -> ExperimentResult:
    result = model_vs_simulation(
        "figure2",
        "Impact of cache size on Dragon, four or fewer processors (pops)",
        workloads=("pops",),
        protocols=("dragon",),
        cache_sizes=(16384, 65536, 262144),
        cpu_counts=(1, 2, 3, 4),
        records_per_cpu=_FAST_RECORDS if fast else None,
        jobs=jobs,
    )
    small = result.series_by_label("sim 16K").y_at(4)
    large = result.series_by_label("sim 256K").y_at(4)
    result.add_check(
        "bigger-caches-help",
        large > small,
        f"power at n=4: 16K {small:.3f} < 256K {large:.3f}",
    )
    return result


@register(
    "figure3",
    "Model vs simulation: Dragon at three cache sizes, <=8 CPUs",
    "Figure 3",
)
def figure3(
    fast: bool = False, jobs: int | None = None, **_
) -> ExperimentResult:
    result = model_vs_simulation(
        "figure3",
        "Impact of cache size on Dragon, eight or fewer processors (pero8)",
        workloads=("pero8",),
        protocols=("dragon",),
        cache_sizes=(16384, 65536, 262144),
        cpu_counts=(1, 2, 4, 8),
        records_per_cpu=_FAST_RECORDS if fast else None,
        jobs=jobs,
        # At 8 processors the synthetic traces' burstiness (broadcast
        # trains inside critical sections, miss clusters) costs more
        # contention than the model's Poisson-arrival assumption sees;
        # the paper's own 8-CPU plot shows gaps of similar magnitude,
        # though with the opposite sign (its exponential-service bus
        # model overestimates contention on the ATUM traces).
        error_budget=0.20,
    )
    result.notes.append(
        "Model-simulation divergence grows with processor count because "
        "the trace's bus requests are burstier than the contention "
        "model's arrival assumption; see EXPERIMENTS.md."
    )
    small = result.series_by_label("sim 16K").y_at(8)
    large = result.series_by_label("sim 256K").y_at(8)
    result.add_check(
        "bigger-caches-help",
        large > small,
        f"power at n=8: 16K {small:.3f} < 256K {large:.3f}",
    )
    return result
