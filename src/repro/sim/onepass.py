"""One-pass multi-geometry simulation for geometry-local protocols.

A cache-size sweep normally replays the trace once per cache size.
For the protocols whose hit outcomes are *geometry-local* — Base,
No-Cache, and Software-Flush, whose fast-path contract flags
(``read_hit_is_free``, ``store_hit_is_local``,
``remote_traffic_preserves_residency``, no cycle stealing) assert that
one CPU's cache contents evolve from that CPU's program-order stream
alone — the per-geometry work factors cleanly:

1. **Classify once** (:func:`repro.sim.segment.classify_lru`, the one
   LRU classifier of both sweep engines): a single traversal of each
   CPU's stream updates one LRU cache per geometry in the family and
   records, per geometry, only the events — misses (with their
   victim's dirtiness), uncached shared read/write-throughs
   (No-Cache), and flushes (Software-Flush).

2. **Merge per geometry** (:func:`repro.sim.family.merge_events`, the
   one sweep event merge, shared with the Dragon family): hits never
   touch the bus, never perturb another CPU's clock, and cost exactly
   their fetch cycles, so the full timing of a run is reconstructible
   from the event list alone.  Each opcode maps onto its operation's
   ``machine._op_info`` entry; the merge advances clocks over
   event-free spans with fetch prefix sums and merges events across
   CPUs in the exact ``(key, cpu)`` order of ``Machine``'s engines —
   the resulting :class:`~repro.sim.machine.SimulationResult`
   statistics are **bit-identical** to a per-config ``Machine.run``
   (``tests/sim/test_onepass.py`` enforces ``==`` on every counter and
   float).

Exactness requires integral operation costs (so batched clock
advances equal record-by-record ones in float arithmetic — the same
gate ``Machine``'s static hit analysis applies).  Dragon — whose
sharing traffic couples the CPUs' cache contents — takes the
epoch-partitioned family engine in :mod:`repro.sim.family` instead
(the same classifier and the same merge, with a resolver for the
coupled outcome labels).  Any remaining case — the other coupled
protocols (WTI, directory, the hybrids), non-integral cost tables,
non-fcfs buses — :func:`run_geometry_family` transparently falls back
to one exact ``Machine.run`` per configuration; :func:`family_support`
names the engine or the structured fallback reason.
"""

from __future__ import annotations

import time

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_family_fallback, note_replay
from repro.sim.family import (
    FAMILY_PROTOCOLS,
    family_views,
    merge_events,
    run_coupled_family,
)
from repro.sim.machine import (
    Machine,
    SimulationConfig,
    SimulationResult,
    _op_info,
)
from repro.sim.protocols import HYBRID_PROTOCOLS, Protocol, protocol_class
from repro.sim.segment import classify_lru
from repro.trace.derived import derived_columns
from repro.trace.records import Trace, validate_cpus

__all__ = [
    "ONEPASS_PROTOCOLS",
    "family_support",
    "run_geometry_family",
]

#: Protocols the one-pass engine handles.  Membership is by name on
#: purpose: beyond the contract flags, the engine maps each classifier
#: opcode onto one fixed operation (:data:`_EVENT_OPERATIONS`: a miss
#: from memory, a through, a flush), so satisfying the flags alone is
#: not sufficient.
ONEPASS_PROTOCOLS = ("base", "nocache", "swflush")

# Operation of each classifier opcode (``repro.sim.segment.CLEAN_MISS``
# through ``DIRTY_FLUSH``), in opcode order.
_EVENT_OPERATIONS = (
    Operation.CLEAN_MISS_MEMORY,
    Operation.DIRTY_MISS_MEMORY,
    Operation.READ_THROUGH,
    Operation.WRITE_THROUGH,
    Operation.CLEAN_FLUSH,
    Operation.DIRTY_FLUSH,
)


def _protocol_name(protocol: str | type[Protocol]) -> str:
    if isinstance(protocol, str):
        return protocol
    return protocol.name


def _integral_costs(table: CostTable) -> bool:
    return all(
        float(cost.cpu_cycles).is_integer()
        and float(cost.channel_cycles).is_integer()
        for _, cost in table.items()
    )


def family_support(
    protocol: str | type[Protocol],
    costs: CostTable | None = None,
    bus_discipline: str = "fcfs",
    bus_arbitration_cycles: float = 0.0,
) -> tuple[str, str | None]:
    """How :func:`run_geometry_family` will run this combination.

    Returns ``(engine, reason)``: ``("onepass", None)`` for the
    geometry-local fast path, ``("epoch", None)`` for Dragon's
    epoch-partitioned engine, or
    ``("fallback", reason)`` when only per-config replay is exact.
    Reasons are structured ``category:detail`` strings
    (``protocol:...``, ``costs:...``, ``bus-discipline:...``) recorded
    in the run manifest via ``repro.obs.metrics``.
    """
    name = _protocol_name(protocol)
    table = costs if costs is not None else CostTable.bus()
    if bus_discipline != "fcfs":
        # Every one-traversal engine assumes call-order FCFS grants;
        # any other discipline needs the deferred-grant arbitrated
        # engine, one exact Machine.run per configuration — loudly.
        return (
            "fallback",
            f"bus-discipline:{bus_discipline} needs the deferred-grant "
            "arbitrated engine",
        )
    if bus_arbitration_cycles != 0.0 and not float(
        bus_arbitration_cycles
    ).is_integer():
        # Integral fcfs overhead folds into every merge's service term
        # exactly as TimedBus applies it; a non-integral overhead
        # breaks the batched-advance float-exactness gate.
        return (
            "fallback",
            "bus-discipline:arbitration overhead "
            f"{bus_arbitration_cycles:g} cycles is non-integral and "
            "cannot be folded exactly into the one-pass merges",
        )
    if name in ONEPASS_PROTOCOLS:
        cls = protocol_class(name) if isinstance(protocol, str) else protocol
        if not (
            cls.read_hit_is_free
            and cls.store_hit_is_local
            and cls.remote_traffic_preserves_residency
            and not cls.may_steal_cycles
        ):
            return (
                "fallback",
                f"protocol:{name} breaks the geometry-local contract flags",
            )
        if not _integral_costs(table):
            return ("fallback", "costs:non-integral operation costs")
        return ("onepass", None)
    if name in FAMILY_PROTOCOLS:
        if not _integral_costs(table):
            return ("fallback", "costs:non-integral operation costs")
        return ("epoch", None)
    if name in HYBRID_PROTOCOLS:
        # A hybrid's update-or-invalidate decision depends on per-copy
        # pressure accumulated across the whole interleaving, so epoch
        # partitioning cannot factor its sharing traffic; sweeps take
        # one exact Machine.run per configuration, loudly.
        return (
            "fallback",
            f"protocol:{name} adapts per-copy update/invalidate "
            "pressure across epochs and has no epoch engine",
        )
    return (
        "fallback",
        f"protocol:{name} couples geometries and has no epoch engine",
    )


def run_geometry_family(
    protocol: str | type[Protocol],
    trace: Trace,
    cache_sizes,
    block_bytes: int = 16,
    associativity: int = 2,
    costs: CostTable | None = None,
    order: str = "time",
    cpus: int | None = None,
    bus_discipline: str = "fcfs",
    bus_arbitration_cycles: float = 0.0,
) -> dict[int, SimulationResult]:
    """Simulate one protocol at every cache size in a single pass.

    Args:
        protocol: protocol name or class (any registered protocol —
            geometry-coupled ones take the per-config fallback).
        trace: the reference stream.
        cache_sizes: iterable of per-processor cache sizes in bytes;
            together with ``block_bytes`` and ``associativity`` they
            define the geometry family.
        block_bytes: cache block size shared by the family.
        associativity: associativity shared by the family.
        costs: operation cost table (default: the paper's Table 1).
        order: ``"time"`` or ``"trace"``, as in ``Machine.run``.
        cpus: optional restriction to the first ``cpus`` processors.
        bus_discipline: bus arbitration discipline shared by the
            family.  Anything but ``fcfs`` takes the loud per-config
            fallback with a ``bus-discipline:...`` reason — the
            one-traversal engines assume call-order FCFS grants.
        bus_arbitration_cycles: per-arbitration overhead shared by
            the family.  Integral fcfs overhead is folded into every
            merge's service term exactly as ``TimedBus`` applies it;
            non-integral overhead takes the loud per-config fallback.

    Returns:
        ``{cache_bytes: SimulationResult}`` with statistics
        bit-identical to ``Machine(protocol, config, costs).run(trace,
        order=order)`` per configuration.  Fast-path results carry
        ``engine="onepass"`` and share the family's wall time; fallback
        results come straight from ``Machine.run``.  An empty
        ``cache_sizes`` returns ``{}`` for every protocol.
    """
    if order not in ("time", "trace"):
        raise ValueError(f"order must be 'time' or 'trace', got {order!r}")
    table = costs if costs is not None else CostTable.bus()
    configs = {
        size: SimulationConfig(
            cache_bytes=size,
            block_bytes=block_bytes,
            associativity=associativity,
            bus_discipline=bus_discipline,
            bus_arbitration_cycles=bus_arbitration_cycles,
        )
        for size in cache_sizes
    }
    if not configs:
        return {}

    if cpus is not None and validate_cpus(cpus, trace.cpus) != trace.cpus:
        trace = trace.restricted_to(cpus)

    engine, reason = family_support(
        protocol, table, bus_discipline, bus_arbitration_cycles
    )
    if engine == "fallback":
        note_family_fallback(reason)
        machines = {
            size: Machine(protocol, config, table)
            for size, config in configs.items()
        }
        return {
            size: machine.run(trace, order=order)
            for size, machine in machines.items()
        }

    if engine == "epoch":
        return run_coupled_family(trace, configs, table, order)

    name = _protocol_name(protocol)
    cls = protocol_class(name) if isinstance(protocol, str) else protocol
    started = time.perf_counter()
    block_shift = next(iter(configs.values())).geometry.block_shift
    derived = derived_columns(trace, block_shift)
    geometries = [configs[size].geometry for size in configs]
    events = classify_lru(
        derived, geometries, cls.handles_flush, cls.caches_shared_data
    )
    views = family_views(derived)
    results: dict[int, SimulationResult] = {}
    for (size, config), cpu_events in zip(configs.items(), events):
        # Fresh counters per configuration; every opcode maps onto one
        # operation, so an event's info tuple is shared, not rebuilt.
        op_info = _op_info(table)
        infos = [(op_info[op],) for op in _EVENT_OPERATIONS]
        result = SimulationResult(
            protocol=name,
            trace_name=trace.name,
            config=config,
            engine="onepass",
            records_replayed=len(trace),
        )
        results[size] = merge_events(
            result,
            order,
            derived,
            views,
            [positions for positions, _, _ in cpu_events],
            [
                [infos[code] for code in opcodes]
                for _, opcodes, _ in cpu_events
            ],
            op_info,
        )
    note_replay(len(trace), "onepass")
    wall = time.perf_counter() - started
    for result in results.values():
        result.run_wall_s = wall
    return results
