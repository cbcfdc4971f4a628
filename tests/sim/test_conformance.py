"""One conformance test for every engine in the registry.

Each engine of :data:`repro.sim.engines.ENGINES` is held ``==`` —
every counter, float clock and protocol counter, plus the arbitration
busy cycles — to the reference contract it declares, through the
verifier's one engine diff,
:func:`repro.verify.differential.engine_divergence`.
The grid is engine × protocol × cell × order, where a cell is a trace,
a bus (every discipline, fcfs overheads 0/2/2.5, fractional costs) and
a geometry (associativity 1/2/4, block sizes 8/16/64).  Where an
engine's gate admits a cell it must engage and match; where the gate
refuses, the entry point must run the cell under the label routing
names instead, and a sweep must record routing's fallback reason.
"""

import functools
import re

import numpy as np
import pytest

from repro.core.operations import CostTable, Operation, OperationCost
from repro.obs.metrics import fallback_counters
from repro.sim import (
    PROTOCOLS,
    Machine,
    SimulationConfig,
    protocol_class,
    run_geometry_family,
)
from repro.sim.engines import (
    COLUMNAR,
    ENGINES,
    FALLBACK,
    GEOMETRY_FAMILY,
    deferred_grants,
    family_support,
    machine_engine,
)
from repro.trace import TraceConfig, generate_trace
from repro.trace.records import Trace
from repro.verify.differential import engine_divergence, stats_signature


def signature(result):
    """Every statistic a run reports, exactly, plus the arbitration
    busy cycles (which ``stats_signature`` leaves out because the
    benchmark digest hashes it)."""
    return stats_signature(result) + (result.bus_arbitration_cycles,)


def assert_family_matches_machine(
    trace, protocol, sizes, block_bytes=16, associativity=2, order="time"
):
    """A sweep ``==`` one ``Machine.run`` per configuration, whichever
    engine (or the per-config fallback) routing picks."""
    family = run_geometry_family(
        protocol,
        trace,
        sizes,
        block_bytes=block_bytes,
        associativity=associativity,
        order=order,
    )
    assert sorted(family) == sorted(set(sizes))
    for size in sizes:
        config = SimulationConfig(
            cache_bytes=size,
            block_bytes=block_bytes,
            associativity=associativity,
        )
        reference = Machine(protocol, config).run(trace, order=order)
        assert signature(family[size]) == signature(reference), (
            f"{protocol} {order} b{block_bytes} a{associativity} {size}"
        )


def edge_trace(name, cpus, refs):
    """A trace of ``(cpu, kind, block)`` rows; blocks 12..23 shared."""
    refs = np.array(refs, dtype=np.int64).reshape(-1, 3)
    return Trace.from_arrays(
        name=name,
        cpus=cpus,
        shared_region=range(12 * 16, 24 * 16),
        cpu=refs[:, 0],
        kind=refs[:, 1],
        address=refs[:, 2] * 16,
    )


def random_refs(seed, cpus, count, kinds):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.integers(0, cpus, count),
            rng.choice(kinds, count),
            rng.integers(0, 24, count),
        ]
    )


def fractional_costs():
    """Table 1 with non-integral miss and broadcast costs, which rule
    out proven-hit spans and every sweep engine."""
    costs = dict(CostTable.bus().items())
    costs[Operation.CLEAN_MISS_MEMORY] = OperationCost(
        cpu_cycles=19.5, channel_cycles=19.5
    )
    costs[Operation.WRITE_BROADCAST] = OperationCost(
        cpu_cycles=2.25, channel_cycles=1.25
    )
    return CostTable(costs, name="fractional")


def contended_trace():
    """Four CPUs on 24 blocks: same-block runs (proven-hit spans),
    dirty victims in 256-byte caches, write broadcasts onto sharers
    (cycle steals), and flushes."""
    refs = random_refs(7, 4, 160, (0, 0, 1, 1, 2, 2, 3))
    runs = np.random.default_rng(8).integers(1, 4, len(refs))
    return edge_trace("contended", 4, np.repeat(refs, runs, axis=0))


TRACES = {
    "contended": contended_trace(),
    # A synthetic workload: code, private data and shared sections with
    # section-exit flushes, as the paper's traces have.
    "workload": generate_trace(
        TraceConfig(cpus=4, records_per_cpu=300, seed=7)
    ),
    "empty": edge_trace("empty", 2, []),
    "one-cpu": edge_trace("one-cpu", 1, random_refs(1, 1, 60, (0, 1, 2))),
    "idle-cpu": edge_trace("idle-cpu", 2, random_refs(2, 1, 60, (0, 1, 2))),
}

#: bus -> (discipline, arbitration overhead, cost table or None).
BUSES = {
    "fcfs": ("fcfs", 0.0, None),
    "fcfs+2": ("fcfs", 2.0, None),
    "fcfs+2.5": ("fcfs", 2.5, None),
    "fractional": ("fcfs", 0.0, fractional_costs()),
    "round-robin+2": ("round-robin", 2.0, None),
    "fixed+2.5": ("fixed-priority", 2.5, None),
    "batched": ("batched", 0.0, None),
    "batched+2": ("batched", 2.0, None),
}

#: geometry -> (associativity, block bytes).
GEOMETRIES = {
    "a2b16": (2, 16),
    "a1b16": (1, 16),
    "a4b16": (4, 16),
    "a2b8": (2, 8),
    "a2b64": (2, 64),
}

#: Machine runs at 256 bytes; a sweep adds 1024 so the per-geometry
#: prefilter runs over two sizes.
CACHE_BYTES = 256
EXTRA_SIZES = (1024,)

#: (trace, bus, geometry): every bus at the default geometry, every
#: other geometry on one of the two fcfs buses every sweep engine
#: admits, the workload on one bus of each kind, and the edge traces
#: on every discipline.
CELLS = (
    [("contended", bus, "a2b16") for bus in BUSES]
    + [
        ("contended", bus, geometry)
        for bus, geometry in zip(
            ("fcfs", "fcfs+2", "fcfs", "fcfs+2"), list(GEOMETRIES)[1:]
        )
    ]
    + [
        ("workload", bus, "a2b16")
        for bus in ("fcfs", "fcfs+2", "round-robin+2")
    ]
    + [
        (trace, bus, "a2b16")
        for trace in ("empty", "one-cpu", "idle-cpu")
        for bus in BUSES
        if bus not in ("fcfs+2.5", "fractional", "batched")
    ]
)

REASON = re.compile(r"(bus-discipline|protocol|costs):.+")


def cell_config(bus, geometry):
    discipline, overhead, costs = BUSES[bus]
    associativity, block_bytes = GEOMETRIES[geometry]
    config = SimulationConfig(
        cache_bytes=CACHE_BYTES,
        block_bytes=block_bytes,
        associativity=associativity,
        bus_discipline=discipline,
        bus_arbitration_cycles=overhead,
    )
    return config, costs


@functools.lru_cache(maxsize=None)
def default_run(entry, protocol, cell, order):
    """Labels of a default run of ``entry`` on ``cell`` (a one-size
    family for a sweep), and the fallback reason it recorded."""
    trace, bus, geometry = cell
    config, costs = cell_config(bus, geometry)
    if entry != GEOMETRY_FAMILY:
        run = Machine(protocol, config, costs).run(TRACES[trace], order=order)
        return {run.engine}, None
    before, _ = fallback_counters()
    family = run_geometry_family(
        protocol,
        TRACES[trace],
        (CACHE_BYTES,),
        block_bytes=config.block_bytes,
        associativity=config.associativity,
        costs=costs,
        order=order,
        bus_discipline=config.bus_discipline,
        bus_arbitration_cycles=config.bus_arbitration_cycles,
    )
    after, reason = fallback_counters()
    return {run.engine for run in family.values()}, (
        reason if after > before else None
    )


def check_cell(engine, protocol, cell, order):
    trace, bus, geometry = cell
    config, costs = cell_config(bus, geometry)
    discipline = config.bus_discipline
    bus_args = (
        costs if costs is not None else CostTable.bus(),
        discipline,
        config.bus_arbitration_cycles,
    )
    reason = engine.gate(protocol_class(protocol), *bus_args)
    if engine.reference is None:
        # The label runs the reference loops the other cells diff
        # against.
        assert reason is None
        assert machine_engine(
            engine.label, protocol_class(protocol), *bus_args
        ) is engine
    elif reason is None:
        if order == "trace" and deferred_grants(engine, discipline):
            with pytest.raises(ValueError, match="order='trace'"):
                engine_divergence(
                    engine, protocol, TRACES[trace], config, order, costs
                )
            return
        _, message = engine_divergence(
            engine, protocol, TRACES[trace], config, order, costs,
            sizes=EXTRA_SIZES,
        )
        assert message is None, f"{order}: {message}"
    else:
        assert REASON.fullmatch(reason), reason
        check_refusal(engine, protocol, cell, order, bus_args)


def check_refusal(engine, protocol, cell, order, bus_args):
    """A refused cell runs under the label routing names instead."""
    # What a default Machine.run of the cell runs as: a refused
    # Machine.run label's stand-in, and a sweep fallback's per-config
    # label.
    default = machine_engine(
        COLUMNAR.label, protocol_class(protocol), *bus_args
    )
    if engine.entry == GEOMETRY_FAMILY:
        costs = cell_config(*cell[1:])[1]
        route, reason = family_support(protocol, costs, *bus_args[1:])
        assert route != engine.label
        if route != FALLBACK:
            return  # the cell of the engine it routes to runs it
    else:
        route, reason = default.label, None
        assert route != engine.label
    if order == "trace" and deferred_grants(default, bus_args[1]):
        with pytest.raises(ValueError, match="order='trace'"):
            default_run(engine.entry, protocol, cell, order)
        return
    assert default_run(engine.entry, protocol, cell, order) == (
        {default.label},
        reason,
    ), order


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("label", ENGINES)
def test_conforms(label, protocol, cell):
    for order in ("time", "trace"):
        check_cell(ENGINES[label], protocol, cell, order)


@pytest.mark.parametrize("protocol", ["dragon", "swflush"])
def test_cpu_restriction(protocol):
    """``cpus=`` restricts the trace before any engine runs."""
    trace = TRACES["contended"]
    config = SimulationConfig(cache_bytes=CACHE_BYTES)
    reference = Machine(protocol, config).run(
        trace.restricted_to(2), engine="legacy"
    )
    machine = Machine(protocol, config).run(trace, cpus=2)
    family = run_geometry_family(protocol, trace, [CACHE_BYTES], cpus=2)
    assert (
        signature(machine)
        == signature(family[CACHE_BYTES])
        == signature(reference)
    )
