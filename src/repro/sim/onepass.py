"""One-pass multi-geometry simulation for geometry-local protocols.

A cache-size sweep normally replays the trace once per cache size.
For the protocols whose hit outcomes are *geometry-local* — Base,
No-Cache, and Software-Flush, whose fast-path contract flags
(``read_hit_is_free``, ``store_hit_is_local``,
``remote_traffic_preserves_residency``, no cycle stealing) assert that
one CPU's cache contents evolve from that CPU's program-order stream
alone — the per-geometry work factors cleanly:

1. **Classify once** (:func:`_classify`, the one classifier for the
   geometry-local protocols, at every associativity and with or
   without flush records): a single traversal of each CPU's stream
   updates one LRU cache *per geometry in the family* simultaneously
   and records, per geometry, only the *events*: the
   references that miss (with their victim's dirtiness), the uncached
   shared read/write-throughs (No-Cache), and the flushes
   (Software-Flush).  A vectorised *per-geometry* prefilter first
   removes the dominant case: a reference whose most recent same-set
   touch (at that geometry's own set mask) was the same block is a
   guaranteed hit that is already most-recently-used, so it never
   reaches the Python loop.  Provability is monotone in the mask —
   anything provable at a coarser mask stays provable at every finer
   one — so geometries are filtered coarsest-first and only the
   shrinking residue is re-tested per mask.  Victim dirtiness is
   resolved without simulating states: a line inserted at stream
   position ``i`` and evicted (or flushed) at position ``q`` is dirty
   iff the CPU issued a cachable store to that block in ``[i, q)``, a
   batch of interval queries answered after the loop with two
   ``searchsorted`` calls over the CPU's block-sorted store positions.

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
(same one-traversal cost structure and the same merge, different
factorisation, with the run-collapse kernel of :mod:`repro.sim.segment`
as its classifier).
Any remaining case — the other coupled protocols (WTI, directory, the
hybrids), non-integral cost tables, Dragon associativities outside the
run-collapse theorem — :func:`run_geometry_family` transparently falls
back to one exact ``Machine.run`` per configuration;
:func:`family_support` names the engine or the structured fallback
reason.
"""

from __future__ import annotations

import time

import numpy as np

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
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import Trace, validate_cpus

__all__ = [
    "ONEPASS_PROTOCOLS",
    "family_support",
    "run_geometry_family",
]

#: Protocols the one-pass engine handles.  Membership is by name on
#: purpose: beyond the contract flags, the classifier hard-codes each
#: protocol's outcome mapping (which operation a miss, through, or
#: flush emits), so satisfying the flags alone is not sufficient.
ONEPASS_PROTOCOLS = ("base", "nocache", "swflush")

# Event opcodes (classifier -> merge), indexing _EVENT_OPERATIONS.
_CLEAN_MISS = 0
_DIRTY_MISS = 1
_READ_THROUGH = 2
_WRITE_THROUGH = 3
_CLEAN_FLUSH = 4
_DIRTY_FLUSH = 5

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
    associativity: int = 2,
    bus_discipline: str = "fcfs",
    bus_arbitration_cycles: float = 0.0,
) -> tuple[str, str | None]:
    """How :func:`run_geometry_family` will run this combination.

    Returns ``(engine, reason)``: ``("onepass", None)`` for the
    geometry-local fast path, ``("epoch", None)`` for Dragon's
    epoch-partitioned engine, or
    ``("fallback", reason)`` when only per-config replay is exact.
    Reasons are structured ``category:detail`` strings
    (``protocol:...``, ``costs:...``, ``associativity:...``,
    ``bus-discipline:...``) recorded in the run manifest via
    ``repro.obs.metrics``.
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
        if associativity not in (1, 2):
            return (
                "fallback",
                f"associativity:{associativity} (the epoch engine's "
                "run-collapse classification covers 1 and 2)",
            )
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
    sizes = [int(size) for size in cache_sizes]
    configs = {
        size: SimulationConfig(
            cache_bytes=size,
            block_bytes=block_bytes,
            associativity=associativity,
            bus_discipline=bus_discipline,
            bus_arbitration_cycles=bus_arbitration_cycles,
        )
        for size in sizes
    }
    for config in configs.values():
        config.geometry  # validate the family eagerly
    if not configs:
        return {}

    if cpus is not None and validate_cpus(cpus, trace.cpus) != trace.cpus:
        trace = trace.restricted_to(cpus)

    engine, reason = family_support(
        protocol, table, associativity, bus_discipline, bus_arbitration_cycles
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
    started = time.perf_counter()
    block_shift = next(iter(configs.values())).geometry.block_shift
    derived = derived_columns(trace, block_shift)
    geometries = [configs[size].geometry for size in configs]
    events = _classify(name, derived, trace.cpus, geometries)
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
            [positions for positions, _ in cpu_events],
            [[infos[code] for code in opcodes] for _, opcodes in cpu_events],
            op_info,
        )
    note_replay(len(trace), "onepass")
    wall = time.perf_counter() - started
    for result in results.values():
        result.run_wall_s = wall
    return results


# -- classification (the single traversal) ------------------------------


def _classify(
    name: str,
    derived: DerivedColumns,
    n: int,
    geometries,
) -> list[list[tuple[list[int], list[int]]]]:
    """One traversal producing per-geometry, per-CPU event lists.

    Returns ``events[k][cpu] = (positions, opcodes)``: the stream
    positions (program order within the CPU) and event opcodes of
    every reference that does bus/protocol work under geometry ``k``.
    """
    kinds = derived.kinds_sorted
    blocks = derived.blocks_sorted
    counts = derived.counts
    offsets = derived.offsets
    total = len(kinds)
    handles_flush = name == "swflush"
    caches_shared = name != "nocache"

    # Which records touch the cache at all, and which are the
    # No-Cache scheme's uncached shared data references (events in
    # every geometry, transparent to cache contents).
    touches = np.ones(total, dtype=bool)
    uncached = None
    if not caches_shared:
        # Shared loads and stores only: flush records never reach the
        # protocol's access path (No-Cache does not handle flushes, so
        # the machine skips them entirely).
        uncached = ((kinds == 1) | (kinds == 2)) & derived.shared_sorted
        touches &= ~uncached
    if not handles_flush:
        touches &= kinds != 3

    # Per-geometry prefilter: the same-block rule of ``Machine``'s
    # static hit analysis, evaluated at each geometry's own set mask.
    # A reference whose most recent same-set touch was the same block
    # (and left it resident) finds the block resident and already
    # most-recently-used, so its LRU touch — pop and reinsert — is the
    # identity: the loop for that geometry can skip it outright.
    # Finer masks collide less, so bigger caches prove far more of the
    # stream; each geometry's loop only walks its own residue.  Stores
    # among the skipped records still dirty their lines, which the
    # vectorised interval query below observes without visiting them.
    # The rule is monotone in the mask: provable at a coarser mask
    # implies provable at every finer one (any provable record between
    # a reference and its residue predecessor must, by induction along
    # its own predecessor chain, carry that predecessor's block).  So
    # test geometries coarsest-first and re-test only the shrinking
    # residue — the expensive grouped sort runs once at full length.
    touch_idx = np.flatnonzero(touches)
    t_cpu = derived.cpus_sorted[touch_idx].astype(np.int64)
    t_block = blocks[touch_idx]
    t_leaves = kinds[touch_idx] != 3
    loop_masks: list[np.ndarray | None] = [None] * len(geometries)
    by_sets = sorted(
        range(len(geometries)), key=lambda k: geometries[k].sets
    )
    residue = np.arange(len(touch_idx))
    prev_sets = -1
    for k in by_sets:
        sets = geometries[k].sets
        if sets != prev_sets:
            prev_sets = sets
            mask = np.uint64(sets - 1)
            r_cpu = t_cpu[residue]
            r_block = t_block[residue]
            r_leaves = t_leaves[residue]
            group_key = r_cpu * sets
            group_key += (r_block & mask).astype(np.int64)
            key_order = np.argsort(group_key, kind="stable")
            keys_grouped = group_key[key_order]
            blocks_grouped = r_block[key_order]
            leaves_grouped = r_leaves[key_order]
            provable_grouped = np.zeros(len(residue), dtype=bool)
            provable_grouped[1:] = (
                (keys_grouped[1:] == keys_grouped[:-1])
                & (blocks_grouped[1:] == blocks_grouped[:-1])
                & leaves_grouped[:-1]
            )
            provable = np.zeros(len(residue), dtype=bool)
            provable[key_order] = provable_grouped
            provable &= r_leaves  # flushes always produce an event
            residue = residue[~provable]
        loop_mask = np.zeros(total, dtype=bool)
        loop_mask[touch_idx[residue]] = True
        loop_masks[k] = loop_mask

    # Cachable stores: dirtiness never alters LRU state, so the loops
    # record (victim, inserted, evicted) queries and a sorted
    # (block, position) interval count answers "was the line stored
    # into while resident" for all of them at once afterwards.
    dirtying = (kinds == 2) & touches

    k_count = len(geometries)
    events: list[list[tuple[list[int], list[int]]]] = [
        [] for _ in range(k_count)
    ]

    for cpu in range(n):
        start = offsets[cpu]
        stop = start + counts[cpu]
        span = int(counts[cpu])
        # Store stream for the dirtiness queries, sorted by block then
        # position (positions are already ascending; the stable sort
        # keeps them so within each block).
        s_idx = np.flatnonzero(dirtying[start:stop])
        s_blocks = blocks[start:stop][s_idx]
        s_order = np.argsort(s_blocks, kind="stable")
        store_blocks_sorted = s_blocks[s_order]
        store_pos_sorted = s_idx[s_order]
        # Lines whose block was never stored to are clean by
        # construction; only evictions of ever-stored blocks need an
        # interval query at all.
        stored_blocks = set(np.unique(s_blocks).tolist())
        # No-Cache's uncached shared references are transparent to
        # cache contents and identical in every geometry: build their
        # events vectorised, merge them in after the stateful loop.
        through_pos: np.ndarray | None = None
        through_ops: np.ndarray | None = None
        if uncached is not None:
            through_pos = np.flatnonzero(uncached[start:stop])
            through_ops = np.where(
                kinds[start:stop][through_pos] == 2,
                _WRITE_THROUGH,
                _READ_THROUGH,
            ).astype(np.int64)

        for k in range(k_count):
            geometry = geometries[k]
            mask = geometry.sets - 1
            assoc = geometry.associativity
            l_idx = np.flatnonzero(loop_masks[k][start:stop])
            l_blocks = blocks[start:stop][l_idx]
            # Fresh caches per CPU (streams are independent by the
            # geometry-local contract): insertion-ordered dicts mapping
            # block -> insertion stream position, preallocated for
            # exactly the sets this loop will visit.
            line_sets: dict[int, dict[int, int]] = {
                int(s): {}
                for s in np.unique(l_blocks & np.uint64(mask))
            }
            positions: list[int] = []
            opcodes: list[int] = []
            q_block: list[int] = []
            q_lo: list[int] = []
            q_hi: list[int] = []
            if handles_flush:
                l_codes = kinds[start:stop][l_idx]
                for pos, code, block in zip(
                    l_idx.tolist(), l_codes.tolist(), l_blocks.tolist()
                ):
                    cache_set = line_sets[block & mask]
                    inserted = cache_set.pop(block, -1)
                    if code == 3:
                        # FLUSH: invalidate; dirty iff stored into
                        # since insertion.  Always an event (a flush
                        # of a non-resident block still costs its
                        # cycle).
                        positions.append(pos)
                        opcodes.append(_CLEAN_FLUSH)
                        if inserted >= 0 and block in stored_blocks:
                            q_block.append(block)
                            q_lo.append(inserted)
                            q_hi.append(pos)
                    elif inserted >= 0:
                        # Hit: LRU touch, keep the insertion position.
                        cache_set[block] = inserted
                    else:
                        if len(cache_set) >= assoc:
                            victim = next(iter(cache_set))
                            victim_inserted = cache_set.pop(victim)
                            if victim in stored_blocks:
                                q_block.append(victim)
                                q_lo.append(victim_inserted)
                                q_hi.append(pos)
                        cache_set[block] = pos
                        positions.append(pos)
                        opcodes.append(_CLEAN_MISS)
            else:
                for pos, block in zip(
                    l_idx.tolist(), l_blocks.tolist()
                ):
                    cache_set = line_sets[block & mask]
                    inserted = cache_set.pop(block, -1)
                    if inserted >= 0:
                        cache_set[block] = inserted
                        continue
                    if len(cache_set) >= assoc:
                        victim = next(iter(cache_set))
                        victim_inserted = cache_set.pop(victim)
                        if victim in stored_blocks:
                            q_block.append(victim)
                            q_lo.append(victim_inserted)
                            q_hi.append(pos)
                    cache_set[block] = pos
                    positions.append(pos)
                    opcodes.append(_CLEAN_MISS)

            if q_block:
                # Dirty iff the CPU stored to the line's block while it
                # was resident: a store position in [inserted, now).
                # Count via one sorted composite key per block; the
                # dirty opcode is always clean + 1 for both pairs.
                # Each query's event is the one at stream position
                # ``q_hi`` — positions are strictly increasing, so a
                # binary search recovers the event index.
                opcode_array = np.asarray(opcodes, dtype=np.int64)
                query_blocks = np.asarray(q_block, dtype=np.uint64)
                uniq = np.unique(
                    np.concatenate([store_blocks_sorted, query_blocks])
                )
                store_ids = np.searchsorted(uniq, store_blocks_sorted)
                query_ids = np.searchsorted(uniq, query_blocks)
                stride = span + 1
                store_keys = store_ids * stride + store_pos_sorted
                high_pos = np.asarray(q_hi, dtype=np.int64)
                low = query_ids * stride + np.asarray(q_lo, dtype=np.int64)
                high = query_ids * stride + high_pos
                dirty = np.searchsorted(store_keys, high) > np.searchsorted(
                    store_keys, low
                )
                event_index = np.searchsorted(
                    np.asarray(positions, dtype=np.int64), high_pos
                )
                opcode_array[event_index[dirty]] += 1
                opcodes = opcode_array.tolist()

            if through_pos is not None and len(through_pos):
                all_pos = np.concatenate(
                    [np.asarray(positions, dtype=np.int64), through_pos]
                )
                all_ops = np.concatenate(
                    [np.asarray(opcodes, dtype=np.int64), through_ops]
                )
                merge = np.argsort(all_pos, kind="stable")
                positions = all_pos[merge].tolist()
                opcodes = all_ops[merge].tolist()

            events[k].append((positions, opcodes))
    return events
