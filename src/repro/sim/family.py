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
remote holders, so their misses are pre-labelled vectorised with
their :class:`~repro.sim.protocols.interface.AccessOutcome`; a resolver
carries a per-CPU map of contended-block line states (the
sharer/owner columns) and turns each remaining boundary event into
its outcome, steals in ``steal_from``.

Within an epoch every geometry sees identical sharer sets, which is
what makes per-geometry replays collapsible into per-geometry event
merges over one shared classification pass.  There is one event
merge: :func:`replay_events` runs each geometry's events through
``Machine.run``'s own replay loop (``machine._run_columnar``), which
merges them in the exact replay order, cycle-steal key-staleness
rules included.  The geometry-local one-pass engine
(:mod:`repro.sim.onepass`) replays its events the same way, with
every event pre-labelled and no resolver.  Statistics — including
``DragonStats`` and exact float clocks — are bit-identical to
per-config ``Machine.run`` (enforced by
``tests/sim/test_conformance.py``).

Its gate, shared in shape with the one-pass engine's, is declared in
:mod:`repro.sim.engines`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_replay
from repro.sim.bus import TimedBus
from repro.sim.engines import EPOCH, FAMILY_PROTOCOLS
from repro.sim.machine import (
    SimulationConfig,
    SimulationResult,
    _event_streams,
    _EventStreams,
    _fetch_prefixes,
    _op_info,
    _run_columnar,
)
from repro.sim.protocols.dragon import (
    _MISS_OPERATION,
    DragonProtocol,
    DragonStats,
)
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome
from repro.sim.segment import DIRTY_MISS, classify_lru
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import Trace

__all__ = ["FAMILY_PROTOCOLS", "run_coupled_family"]

# Contended-block line states carried across epochs.  DIRTY and
# SHARED_DIRTY are odd so ``state & 1`` is the is-dirty/is-owner
# predicate.
_CLEAN = 0
_DIRTY = 1
_SHARED_CLEAN = 2
_SHARED_DIRTY = 3

_MISS_OUTCOMES = {
    key: AccessOutcome((op,)) for key, op in _MISS_OPERATION.items()
}


def replay_events(
    result: SimulationResult,
    derived: DerivedColumns,
    streams: _EventStreams,
    op_info: dict,
    outcomes: list[list[AccessOutcome | None]],
    resolve=None,
) -> SimulationResult:
    """Run one configuration's sweep events through the replay loop
    (``machine._run_columnar``) over a fresh fcfs bus and return
    ``result`` with its statistics filled in."""
    bus = TimedBus(result.config.bus_arbitration_cycles)
    _run_columnar(
        derived, streams, op_info, bus, result,
        outcomes=outcomes, resolve=resolve,
    )
    result.bus_busy_cycles = bus.busy_cycles
    result.bus_transactions = bus.transactions
    result.bus_arbitration_cycles = bus.arbitration_busy_cycles
    return result


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
    prefixes = _fetch_prefixes(derived)
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
            trace, config, costs, order, derived, prefixes, cpu_events,
            contended_sorted, contended, contended_store,
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
    prefixes: list[list[int]],
    cpu_events: list[tuple[list[int], list[int], list[int]]],
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
    shared_low = derived.shared_low
    shared_high = derived.shared_high
    bcast = Operation.WRITE_BROADCAST
    # Outcome of a statically resolved miss into a clean or a dirty
    # victim; None routes the event through ``resolve``.
    static_outcomes = (
        _MISS_OUTCOMES[False, False], _MISS_OUTCOMES[False, True], None,
    )

    # Epoch boundaries: every miss (fills/evictions change holder
    # sets) plus every store to a contended block (may broadcast).
    # Static pre-resolution: a miss on an untracked block with an
    # untracked victim can have no holders and touches no carried
    # state — its outcome (and its shared-miss count) is fixed before
    # the merge, so the loop skips ``resolve`` for it.  A private
    # victim can only ever be CLEAN or DIRTY (a SHARED fill needs
    # holders), so the classifier's dirtiness is exact for it; a
    # contended victim takes its dirtiness from the carried state.
    epos: list[np.ndarray] = []
    outcomes: list[list[AccessOutcome | None]] = []
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
        epos.append(idx - start)
        outcomes.append([
            static_outcomes[code]
            for code in np.where(static, victim_dirty, 2).tolist()
        ])
        emiss.append(miss.tolist())
        etracked.append(tracked.tolist())
        evictim.append(victim.tolist())
        evictim_tracked.append(victim_tracked.tolist())
        evictim_dirty.append(victim_dirty.tolist())
    streams = _event_streams(derived, epos, prefixes, None, order == "trace")

    # Sharer/owner state of contended blocks, per CPU, carried across
    # epoch boundaries.
    tstate: list[dict[int, int]] = [{} for _ in range(n)]
    cpu_range = range(n)

    # Hot-loop tuning: captured names are bound as default arguments
    # (locals, not closure cells).
    def resolve(
        cpu: int,
        i: int,
        kinds=streams.kinds,
        eblock=streams.blocks,
        emiss=emiss,
        etracked=etracked,
        evictim=evictim,
        evictim_tracked=evictim_tracked,
        evictim_dirty=evictim_dirty,
        tstate=tstate,
        stats=stats,
        cpu_range=cpu_range,
        miss_outcomes=_MISS_OUTCOMES,
        miss_op=_MISS_OPERATION,
        bcast=bcast,
    ) -> AccessOutcome:
        """Apply one epoch boundary's protocol actions (exact
        replica of ``DragonProtocol.access`` over the carried
        state)."""
        block = eblock[cpu][i]
        shared = shared_low <= block < shared_high
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
            if kinds[cpu][i] == 2:
                if holders:
                    stats.broadcasts += 1
                    stats.broadcast_holders += len(holders)
                    tstate[cpu][block] = _SHARED_DIRTY
                    for j in holders:
                        tstate[j][block] = _SHARED_CLEAN
                    return AccessOutcome(
                        (miss_op[supplied, dirty_victim], bcast),
                        tuple(holders),
                    )
                if etracked[cpu][i]:
                    tstate[cpu][block] = _DIRTY
            return miss_outcomes[supplied, dirty_victim]
        # Store hit on a contended block.
        state = tstate[cpu][block]
        if state == _CLEAN or state == _DIRTY:
            if shared:
                stats.shared_write_hits += 1
            if state != _DIRTY:
                tstate[cpu][block] = _DIRTY
            return NO_ACTION
        holders = [
            j for j in cpu_range if j != cpu and block in tstate[j]
        ]
        if shared:
            stats.shared_write_hits += 1
            if holders:
                stats.shared_write_hits_present_elsewhere += 1
        if not holders:
            tstate[cpu][block] = _DIRTY
            return NO_ACTION
        stats.broadcasts += 1
        stats.broadcast_holders += len(holders)
        tstate[cpu][block] = _SHARED_DIRTY
        for j in holders:
            tstate[j][block] = _SHARED_CLEAN
        return AccessOutcome((bcast,), tuple(holders))

    result = SimulationResult(
        protocol="dragon",
        trace_name=trace.name,
        config=config,
        protocol_stats=stats,
        engine=EPOCH.label,
        records_replayed=len(trace),
    )
    return replay_events(
        result, derived, streams, _op_info(costs), outcomes, resolve
    )
