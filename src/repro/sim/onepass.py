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

2. **Merge per geometry** in ``Machine.run``'s replay loop
   (``machine._run_columnar``, the one event merge, through
   :func:`repro.sim.family.replay_events`): hits never touch the bus,
   never perturb another CPU's clock, and cost exactly their fetch
   cycles, so the full timing of a run is reconstructible from the
   event list alone.  Each opcode maps onto one shared
   :class:`~repro.sim.protocols.interface.AccessOutcome`; the loop
   advances clocks over event-free spans with the family's fetch
   prefix sums and merges events across CPUs in its exact ``(key,
   cpu)`` order — the resulting
   :class:`~repro.sim.machine.SimulationResult` statistics are
   **bit-identical** to a per-config ``Machine.run``
   (``tests/sim/test_conformance.py`` enforces ``==`` on every counter and
   float).

Dragon takes the epoch-partitioned family engine in
:mod:`repro.sim.family` instead (the same classifier and the same
loop, with a resolver for the coupled outcome labels).
:func:`run_geometry_family` routes by :func:`family_support`, whose
gates live in the engine registry (:mod:`repro.sim.engines`), and
falls back to one exact ``Machine.run`` per configuration wherever no
sweep engine is exact.
"""

from __future__ import annotations

import time

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_family_fallback, note_replay
from repro.sim.engines import (
    EPOCH,
    FALLBACK,
    ONEPASS,
    ONEPASS_PROTOCOLS,
    family_support,
)
from repro.sim.family import replay_events, run_coupled_family
from repro.sim.machine import (
    Machine,
    SimulationConfig,
    SimulationResult,
    _event_streams,
    _fetch_prefixes,
    _op_info,
)
from repro.sim.protocols import Protocol, protocol_class
from repro.sim.protocols.interface import AccessOutcome
from repro.sim.segment import classify_lru
from repro.trace.derived import derived_columns
from repro.trace.records import Trace, validate_cpus

__all__ = [
    "ONEPASS_PROTOCOLS",
    "family_support",
    "run_geometry_family",
]

# Outcome of each classifier opcode (``repro.sim.segment.CLEAN_MISS``
# through ``DIRTY_FLUSH``), in opcode order.
_EVENT_OUTCOMES = tuple(
    AccessOutcome((operation,))
    for operation in (
        Operation.CLEAN_MISS_MEMORY,
        Operation.DIRTY_MISS_MEMORY,
        Operation.READ_THROUGH,
        Operation.WRITE_THROUGH,
        Operation.CLEAN_FLUSH,
        Operation.DIRTY_FLUSH,
    )
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
            family.
        bus_arbitration_cycles: per-arbitration overhead shared by
            the family.

    Returns:
        ``{cache_bytes: SimulationResult}`` with statistics
        bit-identical to ``Machine(protocol, config, costs).run(trace,
        order=order)`` per configuration.  Sweep-engine results share
        the family's wall time; fallback results (the reason recorded
        via ``repro.obs.metrics``) come straight from ``Machine.run``.
        An empty ``cache_sizes`` returns ``{}`` for every protocol.
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
    if engine == FALLBACK:
        # Counted only once the runs succeed: a request Machine.run
        # rejects (order='trace' under a deferred-grant discipline)
        # raises before the first replay and leaves no fallback behind.
        results = {
            size: Machine(protocol, config, table).run(trace, order=order)
            for size, config in configs.items()
        }
        note_family_fallback(reason)
        return results

    if engine == EPOCH.label:
        return run_coupled_family(trace, configs, table, order)

    cls = protocol_class(protocol) if isinstance(protocol, str) else protocol
    started = time.perf_counter()
    block_shift = next(iter(configs.values())).geometry.block_shift
    derived = derived_columns(trace, block_shift)
    geometries = [configs[size].geometry for size in configs]
    events = classify_lru(
        derived, geometries, cls.handles_flush, cls.caches_shared_data
    )
    prefixes = _fetch_prefixes(derived)
    results: dict[int, SimulationResult] = {}
    for (size, config), cpu_events in zip(configs.items(), events):
        streams = _event_streams(
            derived,
            [positions for positions, _, _ in cpu_events],
            prefixes,
            None,
            order == "trace",
        )
        result = SimulationResult(
            protocol=cls.name,
            trace_name=trace.name,
            config=config,
            engine=ONEPASS.label,
            records_replayed=len(trace),
        )
        # Fresh counters per configuration; every opcode maps onto one
        # shared outcome.
        results[size] = replay_events(
            result,
            derived,
            streams,
            _op_info(table),
            [
                [_EVENT_OUTCOMES[code] for code in opcodes]
                for _, opcodes, _ in cpu_events
            ],
        )
    note_replay(len(trace), ONEPASS.label)
    wall = time.perf_counter() - started
    for result in results.values():
        result.run_wall_s = wall
    return results
