"""Table reproductions (paper Tables 1, 7, 8, 9) and model ablations.

Tables 1, 7, and 9 are inputs the paper publishes; reproducing them
means rebuilding them from first principles (block transfers, memory
latency, stage counts) and checking the published values drop out.
Table 8 is an output: the sensitivity of execution time to each
workload parameter.

The ``ablation*`` experiments are extensions marked as such in
DESIGN.md: they quantify design remarks the paper makes in passing.
"""

from __future__ import annotations

from repro.core import (
    ALL_SCHEMES,
    DRAGON,
    NO_CACHE,
    PARAMETER_RANGES,
    SOFTWARE_FLUSH,
    BufferedNetworkSystem,
    NetworkSystem,
    WorkloadParams,
    derive_bus_costs,
    derive_network_costs,
    sensitivity_table,
)
from repro.core.operations import Operation
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, Series, TableData
from repro.experiments.surface import sweep_grid

__all__ = []

#: The published Table 1, for the derivation check.
_PUBLISHED_TABLE1 = {
    Operation.INSTRUCTION: (1, 0),
    Operation.CLEAN_MISS_MEMORY: (10, 7),
    Operation.DIRTY_MISS_MEMORY: (14, 11),
    Operation.READ_THROUGH: (5, 4),
    Operation.WRITE_THROUGH: (2, 1),
    Operation.CLEAN_FLUSH: (1, 0),
    Operation.DIRTY_FLUSH: (6, 4),
    Operation.WRITE_BROADCAST: (2, 1),
    Operation.CLEAN_MISS_CACHE: (9, 6),
    Operation.DIRTY_MISS_CACHE: (13, 10),
    Operation.CYCLE_STEAL: (1, 0),
}

#: The published Table 9 as (cpu, network) offsets from 2n.
_PUBLISHED_TABLE9 = {
    Operation.INSTRUCTION: (1, 0, False),
    Operation.CLEAN_MISS_MEMORY: (9, 6, True),
    Operation.DIRTY_MISS_MEMORY: (12, 9, True),
    Operation.CLEAN_FLUSH: (1, 0, False),
    Operation.DIRTY_FLUSH: (7, 5, True),
    Operation.WRITE_THROUGH: (3, 2, True),
    Operation.READ_THROUGH: (4, 3, True),
}


@register("table1", "System model: CPU and bus time per operation", "Table 1")
def table1(**_) -> ExperimentResult:
    costs = derive_bus_costs()
    result = ExperimentResult(
        experiment_id="table1",
        title="System model (bus machine, 4-word blocks)",
    )
    rows = []
    all_match = True
    for operation, (cpu, bus) in _PUBLISHED_TABLE1.items():
        derived = costs[operation]
        match = derived.cpu_cycles == cpu and derived.channel_cycles == bus
        all_match = all_match and match
        rows.append(
            (
                operation.value,
                f"{derived.cpu_cycles:g}",
                f"{derived.channel_cycles:g}",
                "ok" if match else f"paper: {cpu}/{bus}",
            )
        )
    result.tables.append(
        TableData(
            title="Table 1 (derived from machine primitives)",
            headers=("operation", "CPU time", "bus time", "vs paper"),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "derivation-matches-published-table",
        all_match,
        "all 11 operations match the published cycle counts",
    )
    return result


@register("table7", "Workload parameter ranges", "Table 7")
def table7(**_) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table7",
        title="Parameter ranges (low / middle / high)",
    )
    rows = []
    for name, parameter_range in PARAMETER_RANGES.items():
        if name == "apl":
            # Table 7 lists 1/apl.
            rows.append(
                (
                    "1/apl",
                    f"{1.0 / parameter_range.low:g}",
                    f"{1.0 / parameter_range.middle:g}",
                    f"{1.0 / parameter_range.high:g}",
                )
            )
        else:
            rows.append(
                (
                    name,
                    f"{parameter_range.low:g}",
                    f"{parameter_range.middle:g}",
                    f"{parameter_range.high:g}",
                )
            )
    result.tables.append(
        TableData(
            title="Table 7",
            headers=("parameter", "low", "middle", "high"),
            rows=tuple(rows),
        )
    )
    middle = WorkloadParams.middle()
    result.add_check(
        "middle-point-valid",
        middle.ls == 0.3 and middle.shd == 0.25,
        f"middle workload: ls={middle.ls}, shd={middle.shd}",
    )
    return result


@register("table8", "Sensitivity to parameter variation", "Table 8")
def table8(processors: int = 16, **_) -> ExperimentResult:
    """Percent change in execution time, parameter low→high.

    The published numeric cells are not available in our source text;
    the checks assert the ordering claims of Section 4's prose instead.
    """
    result = ExperimentResult(
        experiment_id="table8",
        title=f"Sensitivity of execution time at {processors} processors",
    )
    columns = {
        scheme.name: sensitivity_table(scheme, processors=processors)
        for scheme in ALL_SCHEMES
    }
    rows = []
    for parameter in PARAMETER_RANGES:
        label = "1/apl" if parameter == "apl" else parameter
        rows.append(
            (label,)
            + tuple(
                f"{columns[scheme.name][parameter].percent_change:+.1f}%"
                for scheme in ALL_SCHEMES
            )
        )
    result.tables.append(
        TableData(
            title="Table 8 (percent change, low→high, others middle)",
            headers=("parameter",) + tuple(s.name for s in ALL_SCHEMES),
            rows=tuple(rows),
        )
    )

    flush = {p: e.percent_change for p, e in columns["Software-Flush"].items()}
    result.add_check(
        "apl-dominates-software-flush",
        flush["apl"] > flush["shd"] > flush["ls"] > flush["msdat"],
        f"Software-Flush: apl {flush['apl']:.0f}% > shd {flush['shd']:.0f}% "
        f"> ls {flush['ls']:.0f}% > msdat {flush['msdat']:.0f}%",
    )
    nocache = {p: e.percent_change for p, e in columns["No-Cache"].items()}
    result.add_check(
        "nocache-like-flush-minus-apl",
        nocache["apl"] == 0.0 and nocache["shd"] > nocache["ls"] > 0.0,
        f"No-Cache: apl {nocache['apl']:.0f}%, shd {nocache['shd']:.0f}%, "
        f"ls {nocache['ls']:.0f}%",
    )
    dragon = {p: e.percent_change for p, e in columns["Dragon"].items()}
    result.add_check(
        "dragon-miss-rate-beats-sharing",
        dragon["msdat"] > dragon["shd"],
        f"Dragon: msdat {dragon['msdat']:.0f}% > shd {dragon['shd']:.0f}%",
    )
    result.add_check(
        "wr-unimportant",
        all(abs(columns[s.name]["wr"].percent_change) < 25.0
            for s in ALL_SCHEMES),
        "wr stays a second-order effect for every scheme",
    )
    return result


@register("table9", "Network system model", "Table 9")
def table9(stages: int = 8, **_) -> ExperimentResult:
    costs = derive_network_costs(stages)
    result = ExperimentResult(
        experiment_id="table9",
        title=f"Network system model at n={stages} stages",
    )
    rows = []
    all_match = True
    for operation, (cpu_offset, net_offset, scales) in _PUBLISHED_TABLE9.items():
        derived = costs[operation]
        expected_cpu = cpu_offset + (2 * stages if scales else 0)
        expected_net = net_offset + (2 * stages if scales else 0)
        match = (
            derived.cpu_cycles == expected_cpu
            and derived.channel_cycles == expected_net
        )
        all_match = all_match and match
        formula = (
            f"{cpu_offset}+2n / {net_offset}+2n" if scales
            else f"{cpu_offset} / {net_offset}"
        )
        rows.append(
            (
                operation.value,
                f"{derived.cpu_cycles:g}",
                f"{derived.channel_cycles:g}",
                formula,
                "ok" if match else "MISMATCH",
            )
        )
    result.tables.append(
        TableData(
            title=f"Table 9 (derived, n={stages})",
            headers=("operation", "CPU", "network", "paper formula", "check"),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "derivation-matches-published-formulas",
        all_match,
        "all 7 operations match the published n-stage formulas",
    )
    return result


@register(
    "ablation-packet-switching",
    "Extension: packet switching favours No-Cache",
    "Section 6.3 remark",
)
def ablation_packet_switching(stages: int = 8, **_) -> ExperimentResult:
    """Circuit vs (extension) buffered packet-switched network.

    The paper conjectures: "Use of packet-switching would be more
    favorable to No-Cache" — many small messages benefit from skipping
    the end-to-end path setup.  We check that No-Cache's relative gain
    exceeds Software-Flush's.
    """
    params = WorkloadParams.middle()
    circuit = NetworkSystem(stages)
    packet = BufferedNetworkSystem(stages)
    result = ExperimentResult(
        experiment_id="ablation-packet-switching",
        title=f"Circuit vs packet switching, {2**stages} processors",
    )
    gains = {}
    rows = []
    for scheme in (SOFTWARE_FLUSH, NO_CACHE):
        circuit_power = circuit.evaluate(scheme, params).processing_power
        packet_power = packet.evaluate(scheme, params).processing_power
        gains[scheme.name] = packet_power / circuit_power
        rows.append(
            (
                scheme.name,
                f"{circuit_power:.1f}",
                f"{packet_power:.1f}",
                f"{gains[scheme.name]:.2f}x",
            )
        )
    result.tables.append(
        TableData(
            title="processing power by switching discipline",
            headers=("scheme", "circuit", "packet", "gain"),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "packet-switching-favours-nocache",
        gains["No-Cache"] > gains["Software-Flush"],
        f"gain No-Cache {gains['No-Cache']:.2f}x vs "
        f"Software-Flush {gains['Software-Flush']:.2f}x",
    )
    return result


@register(
    "ablation-dragon-small-terms",
    "Extension: Dragon cache-supply and cycle-steal terms are small",
    "Section 2.2.4 remark",
)
def ablation_dragon_terms(processors: int = 16, **_) -> ExperimentResult:
    """Drop Dragon's two second-order effects and measure the change.

    The paper: "the last two effects [cache-supplied misses, cycle
    stealing] are small and could have been omitted from the model
    without significantly affecting our results."
    """
    full = WorkloadParams.middle()
    # oclean=1: no misses supplied from caches; nshd=0: no stealing.
    stripped = full.replace(oclean=1.0, nshd=0.0)
    result = ExperimentResult(
        experiment_id="ablation-dragon-small-terms",
        title="Dragon model with and without second-order terms",
        xlabel="processors",
        ylabel="processing power",
    )
    counts = tuple(range(1, processors + 1))
    for label, params in (("full", full), ("stripped", stripped)):
        surface = sweep_grid(DRAGON, params, processors=counts)
        x, y = surface.series("processors")
        result.series.append(Series(label, x, y))
    full_power = result.series_by_label("full").y_at(processors)
    stripped_power = result.series_by_label("stripped").y_at(processors)
    change = abs(stripped_power - full_power) / full_power
    result.add_check(
        "terms-are-second-order",
        change < 0.03,
        f"dropping both terms changes power at n={processors} by "
        f"{100 * change:.2f}%",
    )
    return result


@register(
    "ablation-replay-order",
    "Extension: trace-order replay distorts contention",
    "Section 3 remark",
)
def ablation_replay_order(fast: bool = True, **_) -> ExperimentResult:
    """Quantify the reference-order distortion the paper discusses.

    Replaying strictly in trace order lets processors whose clocks
    drifted ahead capture the bus "from the future"; time-ordered
    replay removes the artefact.  The check asserts the distortion
    inflates contention (trace order shows lower processing power).
    """
    from repro.sim import Machine, SimulationConfig
    from repro.trace import preset_trace

    records = 40_000 if fast else None
    trace = preset_trace("pops", records)
    machine = Machine("dragon", SimulationConfig())
    result = ExperimentResult(
        experiment_id="ablation-replay-order",
        title="Replay-order sensitivity of the simulator (pops, Dragon, n=4)",
    )
    rows = []
    powers = {}
    for order in ("time", "trace"):
        run = machine.run(trace, order=order)
        powers[order] = run.processing_power
        rows.append(
            (
                order,
                f"{run.processing_power:.3f}",
                f"{run.wait_cycles_per_instruction:.4f}",
            )
        )
    result.tables.append(
        TableData(
            title="replay order",
            headers=("order", "processing power", "wait cycles/instr"),
            rows=tuple(rows),
        )
    )
    result.add_check(
        "trace-order-inflates-contention",
        powers["trace"] <= powers["time"],
        f"trace-order power {powers['trace']:.3f} <= "
        f"time-order power {powers['time']:.3f}",
    )
    return result
