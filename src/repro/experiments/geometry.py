"""Geometry sweeps: cache size × block size in one pass per family.

The paper's sensitivity studies (Section 3's cache-size validation,
the block-size extension) re-simulate the same trace under many cache
geometries.  :func:`sweep_geometries` is the experiment-layer API for
that pattern: for each block size it builds the matching bus cost
table and hands the whole cache-size axis to
:func:`repro.sim.run_geometry_family`, which traverses the trace once
per (protocol, block size) family — via the vectorised one-pass engine
for the geometry-local protocols and the epoch-partitioned engine for
Dragon — and falls back to per-config ``Machine.run`` for every other
protocol, WTI included (recording the structured reason).  Either way
the statistics are bit-identical to a per-cell replay.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.operations import CostTable, derive_bus_costs
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, TableData
from repro.obs.metrics import replay_counters
from repro.sim import (
    Machine,
    SimulationConfig,
    SimulationResult,
    run_geometry_family,
)
from repro.sim.engines import COLUMNAR, FALLBACK, family_support
from repro.trace import Trace, preset_trace

__all__ = ["sweep_geometries"]


def sweep_geometries(
    protocol: str,
    trace: Trace,
    cache_sizes: Sequence[int],
    block_sizes: Sequence[int] = (16,),
    associativity: int = 2,
    order: str = "time",
    cpus: int | None = None,
    costs_for_block: Callable[[int], CostTable] | None = None,
) -> dict[tuple[int, int], SimulationResult]:
    """Simulate a full cache-size × block-size grid.

    Args:
        protocol: any registered protocol name.
        trace: the reference stream.
        cache_sizes: per-processor cache sizes in bytes.
        block_sizes: cache block sizes in bytes; each defines one
            geometry family (one trace traversal on the fast path).
        associativity: shared by the whole grid.
        order: replay order, as in ``Machine.run``.
        cpus: optional restriction to the first ``cpus`` processors.
        costs_for_block: cost table per block size.  The default
            derives the paper's Table 1 with the matching block
            transfer cycles (``derive_bus_costs(block_words=bb // 4)``,
            which reproduces Table 1 exactly at 16 bytes).

    Returns:
        ``{(cache_bytes, block_bytes): SimulationResult}``, every entry
        bit-identical to the corresponding per-config ``Machine.run``.
    """
    results: dict[tuple[int, int], SimulationResult] = {}
    for block_bytes in block_sizes:
        costs = (
            costs_for_block(block_bytes)
            if costs_for_block is not None
            else derive_bus_costs(block_words=block_bytes // 4)
        )
        family = run_geometry_family(
            protocol,
            trace,
            cache_sizes,
            block_bytes=block_bytes,
            associativity=associativity,
            costs=costs,
            order=order,
            cpus=cpus,
        )
        for cache_bytes, result in family.items():
            results[(cache_bytes, block_bytes)] = result
    return results


@register(
    "sweep-geometry",
    "Geometry sweep: one trace traversal per (protocol, block size)",
    "Section 3 context",
)
def geometry_sweep(
    fast: bool = True,
    protocol: str = "swflush",
    workload: str = "pops",
    **_,
) -> ExperimentResult:
    """Exercise the one-pass engine on a full geometry grid.

    Sweeps the paper's three validation cache sizes crossed with three
    block sizes under one software scheme, and checks the properties
    that make the sweep trustworthy: the fast path actually engaged
    (one traversal per block size, not one per cell), a spot cell is
    bit-identical to a fresh per-config ``Machine.run``, and miss
    rates fall monotonically with cache size at every block size.
    """
    records = 40_000 if fast else None
    trace = preset_trace(workload, records)
    cache_sizes = (16384, 65536, 262144)
    block_sizes = (8, 16, 32)

    replayed_before, _ = replay_counters()
    grid = sweep_geometries(protocol, trace, cache_sizes, block_sizes)
    replayed_after, _ = replay_counters()

    result = ExperimentResult(
        experiment_id="sweep-geometry",
        title=(
            f"{protocol} on {workload}: "
            f"{len(cache_sizes)}x{len(block_sizes)} geometry grid"
        ),
    )
    rows = []
    for block_bytes in block_sizes:
        for cache_bytes in cache_sizes:
            run = grid[(cache_bytes, block_bytes)]
            rows.append(
                (
                    f"{block_bytes}B",
                    f"{cache_bytes // 1024}K",
                    f"{run.data_miss_rate:.4f}",
                    f"{run.instruction_miss_rate:.4f}",
                    f"{run.processing_power:.3f}",
                    run.engine,
                )
            )
    result.tables.append(
        TableData(
            title=f"{trace.cpus} processors, associativity 2",
            headers=("block", "cache", "msdat", "mains", "power", "engine"),
            rows=tuple(rows),
        )
    )

    expected_engine, _ = family_support(protocol)
    fast_path = expected_engine != FALLBACK
    if not fast_path:
        # One default Machine.run per cell.
        expected_engine = COLUMNAR.label
    engines = {run.engine for run in grid.values()}
    result.add_check(
        "one-pass-fast-path-used",
        engines == {expected_engine},
        f"engines: {sorted(engines)}",
    )
    replayed = replayed_after - replayed_before
    budget = len(block_sizes) * len(trace)
    result.add_check(
        "one-traversal-per-family",
        replayed <= budget if fast_path else replayed >= budget,
        f"{replayed} records replayed for {len(grid)} cells "
        f"({len(trace)} per full traversal)",
    )

    spot_cache, spot_block = 65536, 16
    spot_config = SimulationConfig(
        cache_bytes=spot_cache, block_bytes=spot_block, associativity=2
    )
    spot_costs = derive_bus_costs(block_words=spot_block // 4)
    reference = Machine(protocol, spot_config, spot_costs).run(trace)
    spot = grid[(spot_cache, spot_block)]
    result.add_check(
        "spot-cell-bit-identical-to-replay",
        _stats_equal(spot, reference),
        f"64K/16B: power {spot.processing_power:.6f} "
        f"vs replay {reference.processing_power:.6f}",
    )

    monotone = all(
        grid[(small, bb)].data_misses >= grid[(large, bb)].data_misses
        for bb in block_sizes
        for small, large in zip(cache_sizes, cache_sizes[1:])
    )
    result.add_check(
        "bigger-caches-cut-misses",
        monotone,
        "data misses non-increasing in cache size at every block size",
    )
    return result


def _stats_equal(a: SimulationResult, b: SimulationResult) -> bool:
    from repro.verify.differential import stats_signature

    return stats_signature(a) == stats_signature(b)
