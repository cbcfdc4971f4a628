"""Epoch-partitioned one-pass simulation for Dragon cache-size sweeps.

Dragon couples geometries through *sharing state*: what a miss or
store costs depends on which other caches hold the block, and
residency differs per cache size.  A cache-size sweep therefore
replayed the whole trace once per size.  This module lifts that
restriction by **epoch-partitioning** each CPU's stream at the
sharing-state-changing references and carrying only the sharer/owner
state of the *contended* blocks across epoch boundaries.

Dragon is write-update: remote traffic never evicts
(``remote_traffic_preserves_residency``), so residency and LRU order
are functions of each CPU's own stream — classified for the whole
family in one walk by :func:`repro.sim.segment.classify_lru`, the
classifier the geometry-local sweeps use too.  Only the *outcome
labels* are coupled: whether a miss is supplied from a cache and
whether a store hit broadcasts depend on the holders of the block,
and holders can change only at **epoch boundaries** — misses (fills
and evictions) and stores to contended blocks (broadcast state
transitions).  Blocks referenced by a single CPU can never have
remote holders, so their misses are pre-labelled vectorised; the
merge carries a per-CPU map of contended-block line states (the
sharer/owner columns) and resolves boundary events in the exact
legacy replay order, including Dragon's cycle-steal key-staleness
rules.

Within an epoch every geometry sees identical sharer sets, which is
what makes per-geometry replays collapsible into per-geometry event
merges over one shared classification pass.  That merge,
:func:`merge_events`, is the one sweep event merge: the geometry-local
one-pass engine (:mod:`repro.sim.onepass`) runs its events through it
too, with every event pre-labelled and no resolver.  Statistics —
including ``DragonStats`` and exact float clocks — are bit-identical
to per-config ``Machine.run`` (enforced by
``tests/sim/test_conformance.py``).

Its gate, shared in shape with the one-pass engine's, is declared in
:mod:`repro.sim.engines`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_replay
from repro.sim.engines import EPOCH, FAMILY_PROTOCOLS
from repro.sim.machine import (
    CpuStats,
    SimulationConfig,
    SimulationResult,
    _op_info,
    _write_back,
)
from repro.sim.protocols.dragon import DragonProtocol, DragonStats
from repro.sim.segment import DIRTY_MISS, classify_lru
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import Trace

__all__ = ["FAMILY_PROTOCOLS", "merge_events", "run_coupled_family"]

# Contended-block line states carried across epochs.  DIRTY and
# SHARED_DIRTY are odd so ``state & 1`` is the is-dirty/is-owner
# predicate.
_CLEAN = 0
_DIRTY = 1
_SHARED_CLEAN = 2
_SHARED_DIRTY = 3

_MISS_OP = {
    # (supplied_from_cache, dirty_victim) — mirror of dragon._MISS_OPERATION.
    (False, False): Operation.CLEAN_MISS_MEMORY,
    (False, True): Operation.DIRTY_MISS_MEMORY,
    (True, False): Operation.CLEAN_MISS_CACHE,
    (True, True): Operation.DIRTY_MISS_CACHE,
}


def run_coupled_family(
    trace: Trace,
    configs: dict[int, SimulationConfig],
    costs: CostTable,
    order: str,
) -> dict[int, SimulationResult]:
    """One-pass cache-size sweep for a geometry-coupled protocol.

    Callers (``repro.sim.onepass.run_geometry_family``) have already
    validated the protocol (one of :data:`FAMILY_PROTOCOLS`), order,
    cost integrality, and geometry family.
    """
    started = time.perf_counter()
    geometries = [config.geometry for config in configs.values()]
    derived = derived_columns(trace, geometries[0].block_shift)
    views = family_views(derived)
    events = classify_lru(
        derived,
        geometries,
        DragonProtocol.handles_flush,
        DragonProtocol.caches_shared_data,
    )
    # Contended blocks are those referenced by more than one CPU: only
    # they can ever have remote holders.  The mask is the derived
    # entry's cached single-owner proof, shared with ``Machine.run``.
    contended_sorted = ~derived.single_owner_sorted
    blocks = derived.blocks_sorted.astype(np.int64)
    contended = np.unique(blocks[contended_sorted])
    is_store = derived.kinds_sorted == 2
    contended_store = is_store & contended_sorted
    # Stores to private shared-region blocks are provably exclusive:
    # each dirties its line locally and, unless it misses, only bumps
    # the shared-write-hit counter — countable vectorised, never an
    # epoch boundary.
    private_shared_store = (
        is_store & ~contended_sorted & derived.shared_sorted
    )
    results = {
        size: _run_dragon(
            trace, config, costs, order, derived, views, cpu_events,
            blocks, contended_sorted, contended, contended_store,
            private_shared_store,
        )
        for (size, config), cpu_events in zip(configs.items(), events)
    }
    note_replay(len(trace), EPOCH.label)
    wall = time.perf_counter() - started
    for result in results.values():
        result.run_wall_s = wall
    return results


# -- Dragon --------------------------------------------------------------


def _run_dragon(
    trace: Trace,
    config: SimulationConfig,
    costs: CostTable,
    order: str,
    derived: DerivedColumns,
    views: FamilyViews,
    cpu_events: list[tuple[list[int], list[int], list[int]]],
    blocks: np.ndarray,
    contended_sorted: np.ndarray,
    contended: np.ndarray,
    contended_store: np.ndarray,
    private_shared_store: np.ndarray,
) -> SimulationResult:
    n = trace.cpus
    stats = DragonStats()
    stats.shared_write_hits = int(np.count_nonzero(private_shared_store))
    # Region-based, all kinds: DragonProtocol computes sharedness from
    # the block alone, so fetch misses on shared blocks count too.
    shared_sorted = derived.shared_sorted
    op_info = _op_info(costs)
    bcast = op_info[Operation.WRITE_BROADCAST]
    miss_info = {key: (op_info[op],) for key, op in _MISS_OP.items()}
    miss_bcast_info = {
        key: (op_info[op], bcast) for key, op in _MISS_OP.items()
    }
    bcast_info = (bcast,)

    # Epoch boundaries: every miss (fills/evictions change holder
    # sets) plus every store to a contended block (may broadcast).
    # Static pre-resolution: a miss on an untracked block with an
    # untracked victim can have no holders and touches no carried
    # state — its operations (and its shared-miss count) are fixed
    # before the merge, so the hot loop skips ``resolve`` for it.  A
    # private victim can only ever be CLEAN or DIRTY (a SHARED fill
    # needs holders), so the classifier's dirtiness is exact for it;
    # a contended victim takes its dirtiness from the carried state.
    epos: list[list[int]] = []
    eops: list[list] = []
    eblock: list[list[int]] = []
    emiss: list[list[bool]] = []
    etracked: list[list[bool]] = []
    evictim: list[list[int]] = []
    evictim_tracked: list[list[bool]] = []
    evictim_dirty: list[list[bool]] = []
    for start, count, (positions, opcodes, victims) in zip(
        derived.offsets, derived.counts, cpu_events
    ):
        miss_idx = np.asarray(positions, dtype=np.int64) + start
        idx = np.union1d(
            miss_idx,
            np.flatnonzero(contended_store[start : start + count]) + start,
        )
        slot = np.searchsorted(idx, miss_idx)
        miss = np.zeros(len(idx), dtype=bool)
        miss[slot] = True
        victim = np.full(len(idx), -1, dtype=np.int64)
        victim[slot] = victims
        victim_dirty = np.zeros(len(idx), dtype=bool)
        victim_dirty[slot] = np.asarray(opcodes) == DIRTY_MISS
        victim_tracked = np.isin(victim, contended)
        tracked = contended_sorted[idx]
        static = miss & ~tracked & ~victim_tracked
        stats.shared_misses += int(
            np.count_nonzero(static & shared_sorted[idx])
        )
        stats.shared_write_hits -= int(
            np.count_nonzero(private_shared_store[miss_idx])
        )
        epos.append((idx - start).tolist())
        dirty = victim_dirty.tolist()
        eops.append([
            miss_info[False, victim_was_dirty] if fixed else None
            for fixed, victim_was_dirty in zip(static.tolist(), dirty)
        ])
        eblock.append(blocks[idx].tolist())
        emiss.append(miss.tolist())
        etracked.append(tracked.tolist())
        evictim.append(victim.tolist())
        evictim_tracked.append(victim_tracked.tolist())
        evictim_dirty.append(dirty)

    # Sharer/owner state of contended blocks, per CPU, carried across
    # epoch boundaries.
    tstate: list[dict[int, int]] = [{} for _ in range(n)]
    cpu_range = range(n)

    # Hot-loop tuning: common outcome pairs are preallocated and
    # captured names are bound as default arguments (locals, not
    # closure cells).
    empty_ret = ((), ())
    miss_ret = {key: (info, ()) for key, info in miss_info.items()}

    def resolve(
        cpu: int,
        i: int,
        epos=epos,
        kinds=views.kinds,
        shared_flags=views.shared,
        eblock=eblock,
        emiss=emiss,
        etracked=etracked,
        evictim=evictim,
        evictim_tracked=evictim_tracked,
        evictim_dirty=evictim_dirty,
        tstate=tstate,
        stats=stats,
        cpu_range=cpu_range,
        miss_ret=miss_ret,
        miss_bcast_info=miss_bcast_info,
        bcast_info=bcast_info,
        empty_ret=empty_ret,
    ) -> tuple[tuple, tuple]:
        """Apply one epoch boundary's protocol actions (exact
        replica of ``DragonProtocol.access`` over the carried
        state)."""
        pos = epos[cpu][i]
        block = eblock[cpu][i]
        shared = shared_flags[cpu][pos]
        if emiss[cpu][i]:
            holders: list[int] = []
            supplied = False
            if etracked[cpu][i]:
                state = tstate
                holders = [
                    j for j in cpu_range if j != cpu and block in state[j]
                ]
                owner = False
                for j in holders:
                    if state[j][block] & 1:
                        owner = True
                        break
                if shared:
                    stats.shared_misses += 1
                    if owner:
                        stats.shared_misses_dirty_elsewhere += 1
                if holders:
                    supplied = owner
                    for j in holders:
                        holder_state = state[j][block]
                        if holder_state == _CLEAN:
                            state[j][block] = _SHARED_CLEAN
                        elif holder_state == _DIRTY:
                            state[j][block] = _SHARED_DIRTY
                    fill = _SHARED_CLEAN
                else:
                    fill = _CLEAN
            elif shared:
                stats.shared_misses += 1
            victim = evictim[cpu][i]
            if victim >= 0:
                if evictim_tracked[cpu][i]:
                    dirty_victim = bool(tstate[cpu].pop(victim) & 1)
                else:
                    dirty_victim = evictim_dirty[cpu][i]
            else:
                dirty_victim = False
            if etracked[cpu][i]:
                tstate[cpu][block] = fill
            if kinds[cpu][pos] == 2:
                if holders:
                    stats.broadcasts += 1
                    stats.broadcast_holders += len(holders)
                    tstate[cpu][block] = _SHARED_DIRTY
                    for j in holders:
                        tstate[j][block] = _SHARED_CLEAN
                    return (
                        miss_bcast_info[supplied, dirty_victim],
                        tuple(holders),
                    )
                if etracked[cpu][i]:
                    tstate[cpu][block] = _DIRTY
            return miss_ret[supplied, dirty_victim]
        # Store hit on a contended block.
        state = tstate[cpu][block]
        if state == _CLEAN or state == _DIRTY:
            if shared:
                stats.shared_write_hits += 1
            if state != _DIRTY:
                tstate[cpu][block] = _DIRTY
            return empty_ret
        holders = [
            j for j in cpu_range if j != cpu and block in tstate[j]
        ]
        if shared:
            stats.shared_write_hits += 1
            if holders:
                stats.shared_write_hits_present_elsewhere += 1
        if not holders:
            tstate[cpu][block] = _DIRTY
            return empty_ret
        stats.broadcasts += 1
        stats.broadcast_holders += len(holders)
        tstate[cpu][block] = _SHARED_DIRTY
        for j in holders:
            tstate[j][block] = _SHARED_CLEAN
        return (bcast_info, tuple(holders))

    result = SimulationResult(
        protocol="dragon",
        trace_name=trace.name,
        config=config,
        protocol_stats=stats,
        engine=EPOCH.label,
        records_replayed=len(trace),
    )
    return merge_events(
        result, order, derived, views, epos, eops, op_info, resolve=resolve
    )


# -- the sweep event merge -----------------------------------------------


class FamilyViews(NamedTuple):
    """Per-CPU views shared by every configuration of a family.

    ``prefixes[cpu][p]`` is the number of fetches among the CPU's first
    ``p`` records (the clock cost of an event-free span); ``kinds`` and
    ``shared`` are the CPU's record kinds and shared-region flags in
    program order.  Built once per family, not once per cache size.
    """

    prefixes: list[list[int]]
    kinds: list[list[int]]
    shared: list[list[bool]]


def family_views(derived: DerivedColumns) -> FamilyViews:
    prefixes = []
    kinds = []
    shared = []
    for start, count in zip(derived.offsets, derived.counts):
        prefix_slice = derived.fetch_prefix[start : start + count + 1]
        prefixes.append((prefix_slice - prefix_slice[0]).tolist())
        kinds.append(derived.kinds_sorted[start : start + count].tolist())
        shared.append(derived.shared_sorted[start : start + count].tolist())
    return FamilyViews(prefixes, kinds, shared)


def merge_events(
    result: SimulationResult,
    order: str,
    derived: DerivedColumns,
    views: FamilyViews,
    epos: list[list[int]],
    eops: list[list],
    op_info: dict,
    resolve=None,
) -> SimulationResult:
    """Replay one configuration's events in exact legacy ``(key, cpu)``
    order and write its statistics into ``result``.

    Every record that is not an event is free apart from its fetch
    cycle, so event-free spans are pure clock advances by fetch prefix
    sums, and merging only the events across CPUs on an inlined FCFS
    bus reproduces ``Machine``'s exact grant sequence, including the
    cycle-steal key-staleness rules of the columnar replay loop
    (``machine._run_columnar``).

    ``epos[cpu]`` holds the stream positions of the CPU's events in
    program order.  ``eops[cpu][i]`` is the event's tuple of ``op_info``
    entries, or None to route the event through ``resolve(cpu, i)``,
    which returns ``(info_tuple, stolen_from)`` built from the same
    ``op_info`` entries, so operation counting stays in one place.
    ``result`` arrives with its provenance set; the merge fills in the
    per-CPU and bus statistics.
    """
    counts = derived.counts
    n = len(counts)
    prefixes, kinds, shared = views
    arb = float(result.config.bus_arbitration_cycles)

    # TimedBus.transact inlined into the merge loops as three locals
    # (identical arithmetic).
    bus_free = 0.0
    bus_busy = 0.0
    bus_tx = 0
    clocks = [0.0] * n
    waits = [0.0] * n
    steals = [0] * n
    fetch_misses = 0
    data_misses = 0
    shared_data_misses = 0
    dirty_victims = 0

    if order == "trace" or n == 1:
        # Global trace order: map each event's stream position back to
        # its original trace index and process events in that order,
        # advancing each CPU's clock over the event-free span first.
        all_trace = np.concatenate([
            derived.order[start + np.asarray(row, dtype=np.int64)]
            for start, row in zip(derived.offsets, epos)
        ])
        all_cpu = np.repeat(np.arange(n), [len(row) for row in epos])
        merged_cpus = all_cpu[np.argsort(all_trace, kind="stable")].tolist()
        applied = [0] * n
        event_index = [0] * n
        for cpu in merged_cpus:
            i = event_index[cpu]
            event_index[cpu] = i + 1
            pos = epos[cpu][i]
            operations = eops[cpu][i]
            prefix = prefixes[cpu]
            clock = clocks[cpu]
            delta = prefix[pos] - prefix[applied[cpu]]
            if delta:
                clock += delta
            kind = kinds[cpu][pos]
            if kind == 0:
                clock += 1.0
            if operations is None:
                operations, stolen_from = resolve(cpu, i)
            else:
                stolen_from = ()
            for cpu_cycles, bus_cycles, is_miss, is_dirty, counter in (
                operations
            ):
                counter[0] += 1
                if bus_cycles > 0.0:
                    grant = bus_free if bus_free > clock else clock
                    if arb:
                        grant += arb
                    if grant > clock:
                        waits[cpu] += grant - clock
                    bus_free = grant + bus_cycles
                    bus_busy += bus_cycles
                    bus_tx += 1
                    clock = grant + cpu_cycles
                else:
                    clock += cpu_cycles
                if is_miss:
                    if kind == 0:
                        fetch_misses += 1
                    else:
                        data_misses += 1
                        if shared[cpu][pos]:
                            shared_data_misses += 1
                    if is_dirty:
                        dirty_victims += 1
            clocks[cpu] = clock
            for victim in stolen_from:
                clocks[victim] += 1.0
                steals[victim] += 1
            applied[cpu] = pos + 1
        for cpu in range(n):
            prefix = prefixes[cpu]
            delta = prefix[counts[cpu]] - prefix[applied[cpu]]
            if delta:
                clocks[cpu] += delta
    else:
        # Simulated-time merge in legacy lexicographic (key, cpu)
        # order: an event's key is the issuing CPU's clock after its
        # previous record, which across an event-free span is the
        # prefix-summed fetch count.  Steals land on the victim's true
        # clock immediately but enter its merge keys only from the
        # first record processed after the broadcast — the same
        # key-staleness reconstruction as machine._run_columnar,
        # simplified by the absence of deferred touches.
        positions = [0] * n
        event_index = [0] * n
        next_event = [0] * n
        keys = [0.0] * n
        frontier_keys = [0.0] * n
        infinity = float("inf")
        active = []
        for cpu in range(n):
            if not counts[cpu]:
                continue
            active.append(cpu)
            e = epos[cpu][0] if epos[cpu] else counts[cpu]
            next_event[cpu] = e
            keys[cpu] = float(prefixes[cpu][e])
        while active:
            best_key = infinity
            cpu = -1
            for candidate in active:
                key = keys[candidate]
                if key < best_key:
                    best_key = key
                    cpu = candidate
            prefix = prefixes[cpu]
            position = positions[cpu]
            e = next_event[cpu]
            clock = clocks[cpu]
            delta = prefix[e] - prefix[position]
            if delta:
                clock += delta
            if e == counts[cpu]:
                clocks[cpu] = clock
                frontier_keys[cpu] = infinity
                active.remove(cpu)
                continue
            i = event_index[cpu]
            operations = eops[cpu][i]
            kind = kinds[cpu][e]
            if kind == 0:
                clock += 1.0
            if operations is None:
                operations, stolen_from = resolve(cpu, i)
            else:
                stolen_from = ()
            for cpu_cycles, bus_cycles, is_miss, is_dirty, counter in (
                operations
            ):
                counter[0] += 1
                if bus_cycles > 0.0:
                    grant = bus_free if bus_free > clock else clock
                    if arb:
                        grant += arb
                    if grant > clock:
                        waits[cpu] += grant - clock
                    bus_free = grant + bus_cycles
                    bus_busy += bus_cycles
                    bus_tx += 1
                    clock = grant + cpu_cycles
                else:
                    clock += cpu_cycles
                if is_miss:
                    if kind == 0:
                        fetch_misses += 1
                    else:
                        data_misses += 1
                        if shared[cpu][e]:
                            shared_data_misses += 1
                    if is_dirty:
                        dirty_victims += 1
            clocks[cpu] = clock
            if stolen_from:
                for victim in stolen_from:
                    clocks[victim] += 1.0
                    steals[victim] += 1
                for victim in stolen_from:
                    fk = frontier_keys[victim]
                    if fk > best_key or (fk == best_key and victim > cpu):
                        # The victim's next record was still unpushed
                        # at the broadcast: the steal is in every key
                        # from that record onwards.
                        if positions[victim] < next_event[victim]:
                            keys[victim] += 1.0
                    else:
                        # Records up to the broadcast's merge position
                        # were already (virtually) processed with
                        # frozen keys; materialise them, then land the
                        # steal before the rest.  The new frontier is
                        # found by fetch count: epoch record m's key
                        # is the victim's pre-steal clock plus the
                        # fetch prefix from the old frontier, so the
                        # frontier is the first position whose prefix
                        # reaches the target fetch count.
                        v_prefix = prefixes[victim]
                        v_pos = positions[victim]
                        base = v_prefix[v_pos]
                        pre_clock = clocks[victim] - 1.0
                        target = int(best_key - pre_clock) + base
                        if victim < cpu:
                            target += 1
                        if target <= base:
                            frontier = v_pos + 1
                        else:
                            frontier = bisect_left(v_prefix, target)
                        advance = v_prefix[frontier] - base
                        if advance:
                            clocks[victim] += advance
                        positions[victim] = frontier
                        frontier_keys[victim] = pre_clock + advance
                        if frontier < next_event[victim]:
                            keys[victim] += 1.0
            position = e + 1
            positions[cpu] = position
            i += 1
            event_index[cpu] = i
            row = epos[cpu]
            e = row[i] if i < len(row) else counts[cpu]
            next_event[cpu] = e
            frontier_keys[cpu] = clock
            keys[cpu] = clock + (prefix[e] - prefix[position])

    result.cpus = [CpuStats() for _ in range(n)]
    _write_back(
        result, derived, clocks, waits, steals, op_info,
        (fetch_misses, data_misses, shared_data_misses, dirty_victims),
    )
    result.bus_busy_cycles = bus_busy
    result.bus_transactions = bus_tx
    result.bus_arbitration_cycles = arb * bus_tx
    return result
