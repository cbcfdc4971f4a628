"""One conformance suite for every engine in the registry.

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
The same check runs every registry engine on arbitrary tiny traces
(Hypothesis).  The larger workloads — the seeded 4-CPU trace, fuzz
cases, four-size sweep families and the named steal regressions — are
cells of the same check, declared in ``test_equivalence.py``,
``test_onepass.py``, ``test_family.py`` and ``test_arbitration.py``.
"""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import CostTable, Operation, OperationCost
from repro.obs.metrics import fallback_counters
from repro.sim import (
    ONEPASS_PROTOCOLS,
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
    LEGACY,
    REF_DEFERRED,
    REF_LEGACY,
    REF_MACHINE,
    deferred_grants,
    family_support,
    machine_engine,
)
from repro.trace import TraceConfig, generate_trace
from repro.trace.records import Trace
from repro.verify.differential import engine_divergence, stats_signature
from repro.verify.fuzzer import generate_case


def signature(result):
    """Every statistic a run reports, exactly, plus the arbitration
    busy cycles (which ``stats_signature`` leaves out because the
    benchmark digest hashes it)."""
    return stats_signature(result) + (result.bus_arbitration_cycles,)


def reference(contract, protocol, trace, config, order="time", costs=None):
    """The result ``contract`` holds an engine to on one cell."""
    machine = Machine(protocol, config, costs)
    if contract == REF_MACHINE:
        return machine.run(trace, order=order)
    return machine._replay(
        trace, order, LEGACY, deferred=contract == REF_DEFERRED
    )


def assert_conforms(label, protocol, trace, config, order="time",
                    costs=None, sizes=()):
    """Engine ``label`` engages on the cell and matches its reference
    (a sweep at ``config.cache_bytes`` plus ``sizes``)."""
    _, message = engine_divergence(
        ENGINES[label], protocol, trace, config, order, costs, sizes
    )
    assert message is None, f"{protocol} {order} {config}: {message}"


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
        expected = reference(REF_MACHINE, protocol, trace, config, order)
        assert signature(family[size]) == signature(expected), (
            f"{protocol} {order} b{block_bytes} a{associativity} {size}"
        )


@functools.lru_cache(maxsize=None)
def workload(cpus, records_per_cpu, seed):
    """A seeded synthetic trace, generated once per session."""
    return generate_trace(
        TraceConfig(cpus=cpus, records_per_cpu=records_per_cpu, seed=seed)
    )


#: The fuzzer's case for a seed, generated once per session.
fuzz_case = functools.lru_cache(maxsize=None)(generate_case)


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


def _fractional_costs():
    costs = dict(CostTable.bus().items())
    costs[Operation.CLEAN_MISS_MEMORY] = OperationCost(
        cpu_cycles=19.5, channel_cycles=19.5
    )
    costs[Operation.WRITE_BROADCAST] = OperationCost(
        cpu_cycles=2.25, channel_cycles=1.25
    )
    return CostTable(costs, name="fractional")


#: Table 1 with non-integral miss and broadcast costs, which rule out
#: proven-hit spans and every sweep engine.
FRACTIONAL = _fractional_costs()


def contended_trace():
    """Four CPUs on 24 blocks: same-block runs (proven-hit spans),
    dirty victims in 256-byte caches, write broadcasts onto sharers
    (cycle steals), and flushes."""
    refs = random_refs(7, 4, 160, (0, 0, 1, 1, 2, 2, 3))
    runs = np.random.default_rng(8).integers(1, 4, len(refs))
    return edge_trace("contended", 4, np.repeat(refs, runs, axis=0))


#: The single-CPU and idle-CPU traces the edge cells share.
EDGE_TRACES = {
    "empty": edge_trace("empty", 2, []),
    "one-cpu": edge_trace("one-cpu", 1, random_refs(1, 1, 60, (0, 1, 2))),
    "idle-cpu": edge_trace("idle-cpu", 2, random_refs(2, 1, 60, (0, 1, 2))),
}

TRACES = {
    "contended": contended_trace(),
    # A synthetic workload: code, private data and shared sections with
    # section-exit flushes, as the paper's traces have.
    "workload": workload(4, 300, 7),
    **EDGE_TRACES,
}

#: bus -> (discipline, arbitration overhead, cost table or None).
BUSES = {
    "fcfs": ("fcfs", 0.0, None),
    "fcfs+2": ("fcfs", 2.0, None),
    "fcfs+2.5": ("fcfs", 2.5, None),
    "fractional": ("fcfs", 0.0, FRACTIONAL),
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
        for trace in EDGE_TRACES
        for bus in BUSES
        if bus not in ("fcfs+2.5", "fractional", "batched")
    ]
)

REASON = re.compile(r"(bus-discipline|protocol|costs):.+")


def cell_config(bus, geometry, cache_bytes=CACHE_BYTES):
    discipline, overhead, costs = BUSES[bus]
    associativity, block_bytes = GEOMETRIES[geometry]
    config = SimulationConfig(
        cache_bytes=cache_bytes,
        block_bytes=block_bytes,
        associativity=associativity,
        bus_discipline=discipline,
        bus_arbitration_cycles=overhead,
    )
    return config, costs


@functools.lru_cache(maxsize=None)
def family_route(protocol, trace, config, order, costs):
    """Labels of a one-size family on the cell, and the fallback reason
    it recorded."""
    before, _ = fallback_counters()
    family = run_geometry_family(
        protocol,
        trace,
        (config.cache_bytes,),
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


def machine_route(protocol, trace, config, order, costs):
    """The label of a default ``Machine.run`` of the cell."""
    return {reference(REF_MACHINE, protocol, trace, config, order,
                      costs).engine}, None


def check(engine, protocol, trace, config, order, costs=None,
          sizes=EXTRA_SIZES):
    """Hold ``engine`` to its contract on one cell: engaged and ``==``
    its reference where its gate admits the cell, else the cell runs
    under the label routing names."""
    bus = (
        costs if costs is not None else CostTable.bus(),
        config.bus_discipline,
        config.bus_arbitration_cycles,
    )
    reason = engine.gate(protocol_class(protocol), *bus)
    if engine.reference is None:
        # The label runs the reference loops the other cells diff
        # against.
        assert reason is None
        assert machine_engine(
            engine.label, protocol_class(protocol), *bus
        ) is engine
    elif reason is None:
        if order == "trace" and deferred_grants(engine, bus[1]):
            with pytest.raises(ValueError, match="order='trace'"):
                engine_divergence(
                    engine, protocol, trace, config, order, costs
                )
            return
        assert_conforms(
            engine.label, protocol, trace, config, order, costs, sizes
        )
    else:
        assert REASON.fullmatch(reason), reason
        check_refusal(engine, protocol, (trace, config, order, costs), bus)


def check_refusal(engine, protocol, cell, bus):
    """A refused cell runs under the label routing names instead."""
    # What a default Machine.run of the cell runs as: a refused
    # Machine.run label's stand-in, and a sweep fallback's per-config
    # label.
    default = machine_engine(COLUMNAR.label, protocol_class(protocol), *bus)
    if engine.entry == GEOMETRY_FAMILY:
        route, reason = family_support(protocol, cell[-1], *bus[1:])
        assert route != engine.label
        if route != FALLBACK:
            return  # the cell of the engine it routes to runs it
        route_of = family_route
    else:
        route, reason = default.label, None
        assert route != engine.label
        route_of = machine_route
    if cell[2] == "trace" and deferred_grants(default, bus[1]):
        with pytest.raises(ValueError, match="order='trace'"):
            route_of(protocol, *cell)
        return
    assert route_of(protocol, *cell) == ({default.label}, reason), cell[2]


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("label", ENGINES)
def test_conforms(label, protocol, cell):
    trace, bus, geometry = cell
    config, costs = cell_config(bus, geometry)
    for order in ("time", "trace"):
        check(ENGINES[label], protocol, TRACES[trace], config, order, costs)


@pytest.mark.parametrize("protocol", ["dragon", "swflush"])
def test_cpu_restriction(protocol):
    """``cpus=`` restricts the trace before any engine runs."""
    trace = TRACES["contended"]
    config = SimulationConfig(cache_bytes=CACHE_BYTES)
    expected = reference(
        REF_LEGACY, protocol, trace.restricted_to(2), config
    )
    machine = Machine(protocol, config).run(trace, cpus=2)
    family = run_geometry_family(protocol, trace, [CACHE_BYTES], cpus=2)
    assert (
        signature(machine)
        == signature(family[CACHE_BYTES])
        == signature(expected)
    )


# -- Hypothesis: every engine on arbitrary tiny traces ------------------

tiny_references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # cpu (of 3)
        st.integers(min_value=0, max_value=3),  # kind incl. FLUSH
        st.integers(min_value=0, max_value=23),  # block; 12..23 shared
    ),
    min_size=1,
    max_size=200,
)


def build_trace(refs):
    return edge_trace("hyp", 3, refs)


#: Tiny caches, so the 24-block working set overflows them and
#: contended blocks bounce between the three processors.
TINY_SIZES = (64, 128, 256, 512)


@settings(max_examples=40, deadline=None)
@given(
    tiny_references,
    st.sampled_from(sorted(PROTOCOLS)),
    st.sampled_from(("fcfs", "fcfs+2", "round-robin+2")),
    st.sampled_from(("a2b16", "a1b16")),
)
def test_tiny_traces_conform(refs, protocol, bus, geometry):
    trace = build_trace(refs)
    config, costs = cell_config(bus, geometry, TINY_SIZES[0])
    for order in ("time", "trace"):
        for engine in ENGINES.values():
            check(
                engine, protocol, trace, config, order, costs,
                TINY_SIZES[1:],
            )
    if protocol in ONEPASS_PROTOCOLS:
        # LRU inclusion: a larger cache's contents are a superset, so
        # misses are non-increasing in cache size.  Flush invalidations
        # remove a block from every geometry symmetrically, so
        # inclusion survives them.
        misses = [
            reference(
                REF_MACHINE, protocol, trace,
                cell_config(bus, geometry, size)[0],
            ).total_misses
            for size in TINY_SIZES
        ]
        assert misses == sorted(misses, reverse=True)
