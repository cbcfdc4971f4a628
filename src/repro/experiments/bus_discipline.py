"""Bus arbitration disciplines, in the model and the simulator.

ROADMAP open item 4: the paper's contention layer assumes a single
FCFS-ish bus server, while arXiv:1004.3560 compares service
disciplines on exactly this shared-bus/private-cache architecture.
With arbitration a parameterized axis on both sides of the repo —
:class:`repro.sim.bus.ArbitratedBus` in the simulator,
:func:`repro.queueing.disciplines.solve_bus_discipline` in the model —
this experiment asks the paper-shaped question: does the choice of
bus arbitration move the software-coherence crossover?
"""

from __future__ import annotations

import dataclasses

from repro.core import DRAGON, NO_CACHE, SOFTWARE_FLUSH, BusSystem
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, TableData

__all__ = []

#: Per-grant arbitration overhead used throughout the study, in bus
#: cycles.  Large against the paper's 5.5-cycle mean transaction on
#: purpose: the study is about where overhead and its amortization
#: move the answers, so the axis must be loud enough to see.
_ARBITRATION_CYCLES = 4.0


def _crossover_apl(bus: BusSystem, params, processors: int = 16):
    """Smallest apl (0.1 steps) where Software-Flush beats No-Cache.

    The paper's Section 5 axis: No-Cache never caches shared data, so
    its power is apl-independent, while Software-Flush amortizes each
    fetch over ``apl`` references — the crossover is the run length a
    compiler must achieve before caching shared data pays off.
    """
    for tenth in range(10, 251):
        apl = tenth / 10.0
        point = params.replace(apl=apl)
        flush = bus.evaluate(
            SOFTWARE_FLUSH, point, processors
        ).processing_power
        nocache = bus.evaluate(NO_CACHE, point, processors).processing_power
        if flush >= nocache:
            return apl
    return None


@register(
    "extension-bus-discipline",
    "Extension: bus arbitration disciplines in model and simulator",
    "ROADMAP item 4 / arXiv:1004.3560",
)
def bus_discipline_effect(fast: bool = True, **_) -> ExperimentResult:
    """Compare arbitration disciplines end to end.

    Simulator side: the deferred-grant arbitrated engine replays one
    Dragon workload under every registered discipline with a fixed
    per-grant overhead; the model side solves the matching
    discipline-corrected machine-repairman variants on the measured
    workload parameters.  Checks pin

    * ``fcfs`` through the arbitrated engine is bit-identical to the
      default engines for a geometry-local protocol;
    * the geometry-family fast paths refuse non-FCFS disciplines with
      a loud structured ``bus-discipline:`` reason instead of
      silently diverging;
    * every discipline satisfies the conservation invariants, batched
      grant windows amortize arbitration cycles, and fixed priority
      starves high-numbered CPUs (wait-cycle spread);
    * model and simulator agree per discipline within a band;
    * in the model, per-grant overhead moves the Software-Flush vs
      No-Cache crossover run length *down* (overhead taxes No-Cache's
      frequent small transactions hardest) and batching recovers most
      of it, while work-conserving disciplines share FCFS's crossover
      exactly.
    """
    from repro.core import WorkloadParams
    from repro.obs.metrics import fallback_counters
    from repro.sim import (
        DISCIPLINES,
        Machine,
        SimulationConfig,
        measure_workload_params,
        run_geometry_family,
    )
    from repro.sim.engines import ARBITRATED, FALLBACK, family_support
    from repro.trace import preset_trace
    from repro.verify.differential import stats_signature
    from repro.verify.invariants import (
        InvariantViolation,
        check_result_invariants,
    )

    records = 8_000 if fast else 32_000
    trace = preset_trace("pops", records)
    config = SimulationConfig()
    result = ExperimentResult(
        experiment_id="extension-bus-discipline",
        title="Bus arbitration disciplines: model vs simulator (pops)",
    )

    # -- simulator sweep + model comparison ------------------------------
    baseline = Machine("dragon", config).run(trace)
    params = measure_workload_params(trace, config, baseline)
    rows = []
    runs = {}
    errors = {}
    conserved = True
    conservation_detail = "all disciplines satisfy the invariants"
    for discipline in DISCIPLINES:
        arbitrated_config = dataclasses.replace(
            config,
            bus_discipline=discipline,
            bus_arbitration_cycles=_ARBITRATION_CYCLES,
        )
        run = Machine("dragon", arbitrated_config).run(
            trace, engine="arbitrated"
        )
        try:
            check_result_invariants(run, trace=trace)
        except InvariantViolation as violation:
            conserved = False
            conservation_detail = f"{discipline}: {violation}"
        runs[discipline] = run
        model = BusSystem(
            service_model="measured",
            bus_discipline=discipline,
            arbitration_cycles=_ARBITRATION_CYCLES,
        )
        predicted = model.evaluate(
            DRAGON, params, trace.cpus
        ).processing_power
        errors[discipline] = (
            predicted - run.processing_power
        ) / run.processing_power
        waits = [cpu.wait_cycles for cpu in run.cpus]
        rows.append(
            (
                discipline,
                f"{run.processing_power:.3f}",
                f"{predicted:.3f}",
                f"{100 * errors[discipline]:+.1f}%",
                f"{run.bus_arbitration_cycles:.0f}",
                f"{max(waits) - min(waits):.0f}",
            )
        )
    result.tables.append(
        TableData(
            title=(
                f"dragon at {trace.cpus} processors, "
                f"{_ARBITRATION_CYCLES:g}-cycle arbitration"
            ),
            headers=(
                "discipline", "sim power", "model power", "error",
                "arbitration cycles", "wait spread",
            ),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "all-disciplines-conserve", conserved, conservation_detail
    )
    result.add_check(
        "model-tracks-simulator-per-discipline",
        all(abs(error) <= 0.40 for error in errors.values()),
        "; ".join(
            f"{discipline}: {100 * error:+.1f}%"
            for discipline, error in errors.items()
        ),
    )
    fcfs_arbitration = runs["fcfs"].bus_arbitration_cycles
    batched_arbitration = runs["batched"].bus_arbitration_cycles
    result.add_check(
        "batched-windows-amortize-arbitration",
        batched_arbitration < 0.85 * fcfs_arbitration,
        f"arbitration cycles: batched {batched_arbitration:.0f} vs "
        f"per-grant fcfs {fcfs_arbitration:.0f}",
    )

    def wait_spread(run):
        waits = [cpu.wait_cycles for cpu in run.cpus]
        return max(waits) - min(waits)

    result.add_check(
        "fixed-priority-starves-high-cpus",
        wait_spread(runs["fixed-priority"]) > 4.0 * wait_spread(runs["fcfs"]),
        f"wait-cycle spread {wait_spread(runs['fixed-priority']):.0f} "
        f"under fixed priority vs {wait_spread(runs['fcfs']):.0f} under "
        f"fcfs",
    )

    # -- fcfs byte-identity and the loud fast-path gates -----------------
    columnar = Machine("swflush", config).run(trace)
    arbitrated = Machine("swflush", config).run(trace, engine="arbitrated")
    result.add_check(
        "fcfs-arbitrated-is-bit-identical",
        stats_signature(arbitrated) == stats_signature(columnar),
        "swflush statistics match across engines counter for counter",
    )
    engine, reason = family_support("swflush", bus_discipline="round-robin")
    fallbacks, _ = fallback_counters()
    family_run = run_geometry_family(
        "swflush",
        trace,
        (config.cache_bytes,),
        bus_discipline="round-robin",
        bus_arbitration_cycles=_ARBITRATION_CYCLES,
    )[config.cache_bytes]
    # Loudly: the family records the gate's reason for the manifest.
    result.add_check(
        "family-engine-falls-back-loudly",
        engine == FALLBACK
        and fallback_counters() == (fallbacks + 1, reason),
        f"family_support: engine={engine!r}, reason={reason!r}",
    )
    result.add_check(
        "family-fallback-runs-arbitrated",
        family_run.engine == ARBITRATED.label,
        f"fallback result engine={family_run.engine!r}",
    )

    # -- model: where the crossover run length moves ---------------------
    middle = WorkloadParams.middle()
    crossovers = {}
    crossover_rows = []
    for label, discipline, overhead in (
        ("fcfs, free arbitration", "fcfs", 0.0),
        ("round-robin", "round-robin", _ARBITRATION_CYCLES),
        ("fixed-priority", "fixed-priority", _ARBITRATION_CYCLES),
        ("fcfs", "fcfs", _ARBITRATION_CYCLES),
        ("batched", "batched", _ARBITRATION_CYCLES),
    ):
        bus = BusSystem(
            service_model="measured",
            bus_discipline=discipline,
            arbitration_cycles=overhead,
        )
        crossovers[label] = _crossover_apl(bus, middle)
        crossover_rows.append(
            (
                label,
                f"{overhead:g}",
                "-"
                if crossovers[label] is None
                else f"{crossovers[label]:.1f}",
            )
        )
    result.tables.append(
        TableData(
            title=(
                "run length (apl) where Software-Flush overtakes "
                "No-Cache, 16 processors, middle parameters"
            ),
            headers=("discipline", "arbitration cycles", "crossover apl"),
            rows=tuple(crossover_rows),
        )
    )
    free = crossovers["fcfs, free arbitration"]
    fcfs = crossovers["fcfs"]
    batched = crossovers["batched"]
    result.add_check(
        "overhead-moves-the-crossover-down",
        fcfs is not None and free is not None and fcfs < free,
        f"crossover apl {fcfs} with {_ARBITRATION_CYCLES:g}-cycle "
        f"grants vs {free} with free arbitration: per-grant overhead "
        "taxes No-Cache's frequent small transactions hardest, so "
        "caching shared data pays off at shorter run lengths",
    )
    result.add_check(
        "batching-recovers-the-crossover",
        batched is not None and fcfs < batched <= free,
        f"batched grant windows put the crossover at apl {batched}, "
        f"between per-grant fcfs ({fcfs}) and free arbitration "
        f"({free})",
    )
    result.add_check(
        "work-conserving-disciplines-share-the-crossover",
        crossovers["round-robin"] == fcfs
        and crossovers["fixed-priority"] == fcfs,
        "round-robin and fixed priority reorder grants but conserve "
        "work, so the aggregate crossover equals fcfs's",
    )
    return result
