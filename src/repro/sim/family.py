"""Epoch-partitioned one-pass simulation for geometry-coupled protocols.

Dragon and WTI couple geometries through *sharing state*: what a miss
or store costs depends on which other caches hold the block, and
residency differs per cache size.  A cache-size sweep therefore
replayed the whole trace once per size.  This module lifts that
restriction by **epoch-partitioning** each CPU's stream at the
sharing-state-changing references and carrying only the sharer/owner
state of the *contended* blocks across epoch boundaries:

* **Dragon** (write-update): remote traffic never evicts
  (``remote_traffic_preserves_residency``), so residency and LRU
  order are functions of each CPU's own stream — classified per
  geometry by the :mod:`repro.sim.segment` kernel.  Only the
  *outcome labels* are coupled: whether a miss is supplied from a
  cache and whether a store hit broadcasts depend on the holders of
  the block, and holders can change only at **epoch boundaries** —
  misses (fills and evictions) and stores to contended blocks
  (broadcast state transitions).  Blocks referenced by a single CPU
  can never have remote holders, so their misses are pre-labelled
  vectorised; the merge carries a per-CPU map of contended-block
  line states (the sharer/owner columns) and resolves boundary
  events in the exact legacy replay order, including Dragon's
  cycle-steal key-staleness rules.
* **WTI** (write-through invalidate): invalidations remove lines,
  but only of contended blocks — so only the cache sets that ever
  hold a contended block in a CPU's own stream ("coupled sets") need
  simulating at the merge.  All other sets classify locally via the
  segment kernel; within coupled sets, references whose immediate
  same-set predecessor touched the same non-contended block are
  provable MRU-identity hits and skip the merge entirely.  Every
  store is an epoch boundary (each one posts a write-through).

Within an epoch every geometry sees identical sharer sets, which is
what makes per-geometry replays collapsible into per-geometry event
merges over one shared classification pass.  Statistics — including
``DragonStats``/``WtiStats`` and exact float clocks — are
bit-identical to per-config ``Machine.run`` (enforced by
``tests/sim/test_family.py``).

WTI's simulated-time merge is **folded** (:func:`_wti_epoch_merge`):
WTI never steals cycles, so no broadcast perturbs another CPU's merge
position.  Each outcome's operation list folds into one fcfs grant
update (``grant = max(ready, free) + arb``), events whose outcome is
known before the merge take a straight-line branch, and every counter
is a numpy reduction over the merged per-event outcomes.  Trace-order
and single-CPU runs share Dragon's event merge (``_merge_and_finish``).

Exactness has the same gates as the one-pass engine (integral costs,
and integral fcfs arbitration overhead — folded into every merge's
service term exactly as ``TimedBus`` does) plus the segment kernel's
associativity-1-or-2 bound; ``repro.sim.onepass.family_support``
routes anything else to the per-config fallback with a recorded
reason.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_replay
from repro.sim.machine import (
    _DIRTY_VICTIM_OPERATIONS,
    _MISS_OPERATIONS,
    CpuStats,
    SimulationConfig,
    SimulationResult,
)
from repro.sim.protocols.dragon import DragonStats
from repro.sim.protocols.wti import WtiStats
from repro.sim.segment import classify_lru, dirty_flags, stream_positions
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import Trace

__all__ = ["FAMILY_PROTOCOLS", "run_coupled_family"]

#: Geometry-coupled protocols the epoch engine handles.
FAMILY_PROTOCOLS = ("dragon", "wti")

# Contended-block line states carried across epochs (Dragon).  DIRTY
# and SHARED_DIRTY are odd so ``state & 1`` is the is-dirty/is-owner
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

_WTI_OPS = (
    (Operation.CLEAN_MISS_MEMORY,),                           # miss
    (Operation.CLEAN_MISS_MEMORY, Operation.WRITE_THROUGH),   # store miss
    (Operation.WRITE_THROUGH,),                               # store hit
)



def run_coupled_family(
    name: str,
    trace: Trace,
    configs: dict[int, SimulationConfig],
    costs: CostTable,
    order: str,
) -> dict[int, SimulationResult]:
    """One-pass cache-size sweep for a geometry-coupled protocol.

    Callers (``repro.sim.onepass.run_geometry_family``) have already
    validated the protocol, order, cost integrality, and geometry
    family.
    """
    started = time.perf_counter()
    block_shift = next(iter(configs.values())).geometry.block_shift
    derived = derived_columns(trace, block_shift)
    n = trace.cpus
    spos = stream_positions(derived)
    contended = _contended_blocks(derived, n)
    if len(contended):
        contended_sorted = np.isin(derived.blocks_sorted, contended)
    else:
        contended_sorted = np.zeros(len(derived.blocks_sorted), dtype=bool)
    if name == "dragon":
        results = {
            size: _run_dragon(
                trace, config, costs, order, derived, spos,
                contended, contended_sorted,
            )
            for size, config in configs.items()
        }
    else:
        results = {
            size: _run_wti(
                trace, config, costs, order, derived, spos,
                contended, contended_sorted,
            )
            for size, config in configs.items()
        }
    note_replay(len(trace), "epoch")
    wall = time.perf_counter() - started
    for result in results.values():
        result.run_wall_s = wall
    return results


def _contended_blocks(derived: DerivedColumns, n: int) -> np.ndarray:
    """Blocks referenced by more than one CPU (uint64, sorted unique).

    Only these can ever have remote holders; everything else is
    provably private to its single referencing CPU.
    """
    pair = derived.blocks_sorted * np.uint64(n)
    pair += derived.cpus_sorted.astype(np.uint64)
    pair_blocks = np.unique(pair) // np.uint64(n)
    return np.unique(pair_blocks[1:][pair_blocks[1:] == pair_blocks[:-1]])


def _cpu_prefixes(derived: DerivedColumns, n: int) -> list[list[int]]:
    """Per-CPU fetch prefix sums (clock cost of an event-free epoch)."""
    prefixes = []
    for cpu in range(n):
        start = derived.offsets[cpu]
        stop = start + derived.counts[cpu]
        prefix_slice = derived.fetch_prefix[start : stop + 1]
        prefixes.append((prefix_slice - prefix_slice[0]).tolist())
    return prefixes


def _gather(array: np.ndarray, idx: np.ndarray) -> list:
    return array[idx].tolist()


# -- Dragon --------------------------------------------------------------


def _run_dragon(
    trace: Trace,
    config: SimulationConfig,
    costs: CostTable,
    order: str,
    derived: DerivedColumns,
    spos: np.ndarray,
    contended: np.ndarray,
    contended_sorted: np.ndarray,
) -> SimulationResult:
    n = trace.cpus
    geometry = config.geometry
    kinds = derived.kinds_sorted
    total = len(kinds)
    touches = kinds != 3  # Dragon ignores flushes entirely
    cls = classify_lru(derived, geometry.sets, geometry.associativity, touches)
    miss = cls.miss
    is_store = kinds == 2
    # Region-based, all kinds: DragonProtocol computes sharedness from
    # the block alone, so fetch misses on shared blocks count too.
    shared_sorted = derived.shared_sorted

    # Epoch boundaries: every miss (fills/evictions change holder
    # sets) plus every store to a contended block (may broadcast).
    ev_mask = miss | (is_store & contended_sorted & touches)

    # Store hits on non-contended blocks are provably exclusive: they
    # dirty the line locally and only bump the shared-write-hit
    # counter — countable vectorised, never epoch boundaries.
    untracked_write_hits = int(
        np.count_nonzero(
            is_store & touches & ~miss & ~contended_sorted & shared_sorted
        )
    )

    # Victim dirtiness: contended victims carry merge state; private
    # victims are dirty iff stored into while resident (they can only
    # ever be CLEAN/DIRTY — a SHARED fill needs holders).
    victim_block = cls.victim_block
    victim_dirty = np.zeros(total, dtype=bool)
    victim_contended = np.zeros(total, dtype=bool)
    v_idx = np.flatnonzero(victim_block >= 0)
    if len(v_idx):
        v_is_contended = np.isin(
            victim_block[v_idx].astype(np.uint64), contended
        )
        victim_contended[v_idx] = v_is_contended
        private = v_idx[~v_is_contended]
        if len(private):
            victim_dirty[private] = dirty_flags(
                derived,
                touches,
                spos,
                derived.cpus_sorted[private],
                victim_block[private],
                cls.victim_pos[private],
                spos[private],
            )

    offsets = derived.offsets
    counts = derived.counts
    epos: list[list[int]] = []
    ekind: list[list[int]] = []
    eblock: list[list[int]] = []
    emiss: list[list[bool]] = []
    eshared: list[list[bool]] = []
    etracked: list[list[bool]] = []
    evictim: list[list[int]] = []
    evictim_tracked: list[list[bool]] = []
    evictim_dirty: list[list[bool]] = []
    blocks_i64 = derived.blocks_sorted.astype(np.int64)
    for cpu in range(n):
        start = offsets[cpu]
        idx = np.flatnonzero(ev_mask[start : start + counts[cpu]]) + start
        epos.append((idx - start).tolist())
        ekind.append(_gather(kinds, idx))
        eblock.append(_gather(blocks_i64, idx))
        emiss.append(_gather(miss, idx))
        eshared.append(_gather(shared_sorted, idx))
        etracked.append(_gather(contended_sorted, idx))
        evictim.append(_gather(victim_block, idx))
        evictim_tracked.append(_gather(victim_contended, idx))
        evictim_dirty.append(_gather(victim_dirty, idx))

    # Sharer/owner state of contended blocks, per CPU, carried across
    # epoch boundaries.
    tstate: list[dict[int, int]] = [{} for _ in range(n)]
    stats = DragonStats()
    stats.shared_write_hits = untracked_write_hits
    cpu_range = range(n)
    write_broadcast = Operation.WRITE_BROADCAST

    def make_resolver(op_info):
        bcast = op_info[write_broadcast]
        miss_info = {key: (op_info[op],) for key, op in _MISS_OP.items()}
        miss_bcast_info = {
            key: (op_info[op], bcast) for key, op in _MISS_OP.items()
        }
        bcast_info = (bcast,)

        # Static pre-resolution: a miss on an untracked block with an
        # untracked victim can have no holders and touches no carried
        # state — its operations (and its shared-miss count) are fixed
        # before the merge, so the hot loop skips ``resolve`` for it.
        static_shared = 0
        estatic: list[list] = []
        for c in range(n):
            missed = emiss[c]
            tracked = etracked[c]
            vtracked = evictim_tracked[c]
            vdirty = evictim_dirty[c]
            shared_flags = eshared[c]
            row = []
            for i in range(len(missed)):
                if missed[i] and not tracked[i] and not vtracked[i]:
                    row.append(miss_info[False, vdirty[i]])
                    if shared_flags[i]:
                        static_shared += 1
                else:
                    row.append(None)
            estatic.append(row)
        stats.shared_misses += static_shared

        # Hot-loop tuning: common outcome pairs are preallocated and
        # captured names are bound as default arguments (locals, not
        # closure cells).
        empty_ret = ((), ())
        miss_ret = {key: (info, ()) for key, info in miss_info.items()}

        def resolve(
            cpu: int,
            i: int,
            eblock=eblock,
            eshared=eshared,
            emiss=emiss,
            etracked=etracked,
            evictim=evictim,
            evictim_tracked=evictim_tracked,
            evictim_dirty=evictim_dirty,
            ekind=ekind,
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
            block = eblock[cpu][i]
            shared = eshared[cpu][i]
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
                if ekind[cpu][i] == 2:
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

        return estatic, resolve

    return _merge_and_finish(
        "dragon", trace, config, costs, order, derived,
        epos, ekind, eshared, make_resolver, stats,
    )


# -- WTI -----------------------------------------------------------------


def _run_wti(
    trace: Trace,
    config: SimulationConfig,
    costs: CostTable,
    order: str,
    derived: DerivedColumns,
    spos: np.ndarray,
    contended: np.ndarray,
    contended_sorted: np.ndarray,
) -> SimulationResult:
    del spos  # WTI lines are never dirty; no interval queries needed
    n = trace.cpus
    geometry = config.geometry
    sets = geometry.sets
    assoc = geometry.associativity
    kinds = derived.kinds_sorted
    total = len(kinds)
    touches = kinds != 3  # WTI ignores flushes entirely
    is_store = kinds == 2
    shared_ev = derived.shared_sorted

    set_idx = (derived.blocks_sorted & np.uint64(sets - 1)).astype(np.int64)
    # Coupled sets: (cpu, set) pairs that ever hold a contended block
    # in the CPU's own stream.  Only these can see invalidations, so
    # only these need merge-time simulation.
    pair_key = derived.cpus_sorted.astype(np.int64) * sets + set_idx
    coupled_keys = np.unique(pair_key[contended_sorted & touches])
    if len(coupled_keys):
        coupled = np.isin(pair_key, coupled_keys)
    else:
        coupled = np.zeros(total, dtype=bool)

    cls = classify_lru(derived, sets, assoc, touches)
    # Uncoupled sets classify exactly locally; their events are the
    # misses plus every store (each posts a write-through).
    unc = touches & ~coupled
    # Within coupled sets, a reference whose immediate same-set
    # predecessor touched the same non-contended block is a provable
    # MRU-identity hit (invalidations only ever remove *other*,
    # contended lines, which cannot evict or demote this block).
    provable = cls.prev_same & ~is_store & ~contended_sorted
    ev_mask = (unc & (cls.miss | is_store)) | (touches & coupled & ~provable)

    # Event codes: 0 = miss, 1 = store miss, 2 = store hit (all
    # pre-resolved in uncoupled sets), 3 = resolve against the
    # simulated coupled set at the merge.
    code = np.full(total, 3, dtype=np.int64)
    unc_miss = unc & cls.miss
    code[unc_miss & ~is_store] = 0
    code[unc_miss & is_store] = 1
    code[unc & ~cls.miss & is_store] = 2

    if order != "trace" and n > 1:
        return _wti_epoch_merge(
            trace, config, costs, derived, sets, ev_mask, code,
            set_idx, shared_ev, contended_sorted, cls.prev_same,
            coupled_keys, assoc == 2,
        )

    offsets = derived.offsets
    counts = derived.counts
    epos: list[list[int]] = []
    ekind: list[list[int]] = []
    eblock: list[list[int]] = []
    eshared: list[list[bool]] = []
    ecode: list[list[int]] = []
    eset: list[list[int]] = []
    econtended: list[list[bool]] = []
    blocks_i64 = derived.blocks_sorted.astype(np.int64)
    for cpu in range(n):
        start = offsets[cpu]
        idx = np.flatnonzero(ev_mask[start : start + counts[cpu]]) + start
        epos.append((idx - start).tolist())
        ekind.append(_gather(kinds, idx))
        eblock.append(_gather(blocks_i64, idx))
        eshared.append(_gather(shared_ev, idx))
        ecode.append(_gather(code, idx))
        eset.append(_gather(set_idx, idx))
        econtended.append(_gather(contended_sorted, idx))

    # Simulated coupled sets.  ``family_support`` gates the engine to
    # associativity 1 or 2, so a set is at most two lines — modelled
    # as a fixed ``[mru, lru]`` list (-1 = empty way) instead of an
    # insertion-ordered dict: same LRU discipline, far cheaper per
    # touch in the merge loop.
    sim_sets: list[dict[int, list[int]]] = [{} for _ in range(n)]
    stats = WtiStats()
    cpu_range = range(n)
    two_way = assoc == 2

    def make_resolver(op_info):
        wti_info = tuple(
            tuple(op_info[op] for op in ops) for ops in _WTI_OPS
        )
        # Uncoupled-set events (codes 0-2) are fully classified before
        # the merge; only coupled-set events reach ``resolve``.
        estatic = [
            [wti_info[c] if c < 3 else None for c in ecode[cpu]]
            for cpu in range(n)
        ]

        # Hot-loop tuning: the four possible outcomes are preallocated
        # (no per-call tuple builds) and every captured name is bound
        # as a default argument (locals, not closure cells).
        hit_ret = ((), ())
        miss_ret = (wti_info[0], ())
        store_miss_ret = (wti_info[1], ())
        store_hit_ret = (wti_info[2], ())

        def resolve(
            cpu: int,
            i: int,
            eblock=eblock,
            eset=eset,
            ekind=ekind,
            econtended=econtended,
            sim_sets=sim_sets,
            stats=stats,
            cpu_range=cpu_range,
            two_way=two_way,
            hit_ret=hit_ret,
            miss_ret=miss_ret,
            store_miss_ret=store_miss_ret,
            store_hit_ret=store_hit_ret,
        ) -> tuple[tuple, tuple]:
            block = eblock[cpu][i]
            sid = eset[cpu][i]
            sets_c = sim_sets[cpu]
            sim = sets_c.get(sid)
            if sim is None:
                sim = [-1, -1]
                sets_c[sid] = sim
            if ekind[cpu][i] != 2:
                if block == sim[0]:
                    return hit_ret
                if two_way:
                    if block == sim[1]:
                        sim[1] = sim[0]
                        sim[0] = block
                        return hit_ret
                    sim[1] = sim[0]
                sim[0] = block
                return miss_ret
            # Store: the bus write invalidates every remote copy of a
            # contended block (non-contended blocks provably have none).
            if econtended[cpu][i]:
                for j in cpu_range:
                    if j == cpu:
                        continue
                    other = sim_sets[j].get(sid)
                    if other is not None:
                        if other[0] == block:
                            other[0] = other[1]
                            other[1] = -1
                            stats.invalidations += 1
                        elif other[1] == block:
                            other[1] = -1
                            stats.invalidations += 1
            if block == sim[0]:
                return store_hit_ret
            if two_way:
                if block == sim[1]:
                    sim[1] = sim[0]
                    sim[0] = block
                    return store_hit_ret
                sim[1] = sim[0]
            sim[0] = block
            return store_miss_ret

        return estatic, resolve

    return _merge_and_finish(
        "wti", trace, config, costs, order, derived,
        epos, ekind, eshared, make_resolver, stats,
    )


# -- WTI folded merge ----------------------------------------------------


def _fold_outcome(op_rows: tuple, arb: float) -> tuple:
    """Fold one outcome's operation list into merge constants.

    All offsets are relative to the outcome's *first* bus grant ``G``
    (or to the event clock when no operation uses the bus): ``lead``
    is the cpu-only advance before the first bus operation,
    ``clock_adv``/``free_adv`` are the clock and bus-free offsets from
    ``G`` after every operation, and ``extra_wait`` is the wait the
    later (intra-outcome) bus operations accumulate.  An event's
    operations run back-to-back in the merge — no other CPU's event
    interleaves — so every later grant is a translation-invariant
    function of ``G`` and folds into constants exactly.
    """
    uses_bus = False
    lead = 0.0
    rel_clock = 0.0
    rel_free = 0.0
    extra_wait = 0.0
    busy = 0.0
    tx = 0
    for cpu_cycles, bus_cycles, _is_miss, _is_dirty, _cell in op_rows:
        if bus_cycles > 0.0:
            if uses_bus:
                grant = rel_free if rel_free > rel_clock else rel_clock
                grant += arb
                extra_wait += grant - rel_clock
                rel_free = grant + bus_cycles
                rel_clock = grant + cpu_cycles
            else:
                uses_bus = True
                rel_clock = cpu_cycles
                rel_free = bus_cycles
            busy += bus_cycles
            tx += 1
        elif uses_bus:
            rel_clock += cpu_cycles
        else:
            lead += cpu_cycles
    return uses_bus, lead, rel_clock, rel_free, extra_wait, busy, tx


def _wti_epoch_merge(
    trace: Trace,
    config: SimulationConfig,
    costs: CostTable,
    derived: DerivedColumns,
    sets: int,
    ev_mask: np.ndarray,
    code: np.ndarray,
    set_idx: np.ndarray,
    shared_sorted: np.ndarray,
    contended_sorted: np.ndarray,
    prev_same: np.ndarray,
    coupled_keys: np.ndarray,
    two_way: bool,
) -> SimulationResult:
    """WTI simulated-time merge: event columns, folded merge, reductions.

    WTI never steals, so an event's merge key is its CPU's clock —
    fetch prefix plus the outcome advances and bus waits of the CPU's
    earlier events.  The event columns and per-outcome constants are
    built vectorised, :func:`_wti_folded_merge` runs the greedy
    ``(key, cpu)`` merge that resolves the coupled-set touches and
    the fcfs bus grants, and every statistic is then a segmented
    reduction over the merged per-event outcomes.
    """
    n = trace.cpus
    arb = float(config.bus_arbitration_cycles)
    op_info = _operation_info(costs)
    wti_rows = tuple(
        tuple(op_info[op] for op in ops) for ops in _WTI_OPS
    )
    all_rows = wti_rows + ((),)

    kinds = derived.kinds_sorted
    offsets = np.asarray(derived.offsets, dtype=np.int64)
    counts = np.asarray(derived.counts, dtype=np.int64)
    fetch_prefix = derived.fetch_prefix
    ends = offsets + counts
    base = fetch_prefix[offsets]
    totals = (fetch_prefix[ends] - base).astype(np.float64)

    g_idx = np.flatnonzero(ev_mask)
    e_total = len(g_idx)

    stats = WtiStats()
    if not e_total:
        return _assemble(
            "wti", trace, config, derived, op_info, totals.tolist(),
            [0.0] * n, [0] * n, 0, 0, 0, 0, 0.0, 0, 0.0, stats,
        )

    # Per-outcome merge constants (0 = miss, 1 = store miss, 2 = store
    # hit, 3 = hit).
    folds = [_fold_outcome(rows, arb) for rows in all_rows]
    uses_bus = np.asarray([f[0] for f in folds], dtype=bool)
    lead = np.asarray([f[1] for f in folds])
    clock_adv = np.asarray([f[2] for f in folds])
    free_adv = np.asarray([f[3] for f in folds])
    extra_wait = np.asarray([f[4] for f in folds])
    busy_adv = np.asarray([f[5] for f in folds])
    tx_adv = np.asarray([f[6] for f in folds], dtype=np.int64)
    miss_ops = np.asarray(
        [sum(1 for row in rows if row[2]) for rows in all_rows],
        dtype=np.int64,
    )
    dirty_ops = np.asarray(
        [sum(1 for row in rows if row[2] and row[3]) for rows in all_rows],
        dtype=np.int64,
    )

    # Event columns, CPU-major (g_idx is sorted-record order).
    ev_cpu = derived.cpus_sorted[g_idx].astype(np.int64)
    ev_kind = kinds[g_idx]
    ev_block = derived.blocks_sorted[g_idx].astype(np.int64)
    ev_set = set_idx[g_idx]
    ev_shared = shared_sorted[g_idx]
    ev_cont = contended_sorted[g_idx]
    ev_store = ev_kind == 2
    ev_pre = (ev_kind == 0).astype(np.float64)
    coupled_ev = code[g_idx] == 3
    outcome = code[g_idx].copy()
    prev_same_ev = prev_same[g_idx]

    # Merge-side classification refinements (outcomes are provably
    # those of per-config replay, which the equivalence suites
    # enforce).
    #
    # Any associativity: a store in a coupled set whose immediate
    # same-set predecessor touched the same non-contended block is a
    # provable store hit — the predecessor left the block MRU,
    # invalidations only ever remove *other*, contended lines, its
    # write-through invalidates no remote copy, and re-marking an MRU
    # block changes no LRU state.  Pre-resolved, no sim participation.
    prov_store = coupled_ev & ev_store & prev_same_ev & ~ev_cont
    outcome = np.where(prov_store, 2, outcome)
    # Associativity 1 only: invalidations remove only contended
    # blocks and a one-way set is overwritten by every touch, so
    # every remaining non-contended event resolves locally — hit iff
    # its previous same-set touch was the same block, which
    # ``prov_store`` and the pre-excluded provable load hits already
    # cover; everything left is a miss.  Only the contended touches
    # still need the merge order; the locally-resolved misses merely
    # restate the set's single way (``state_upd``).
    if not two_way:
        noncont = coupled_ev & ~ev_cont & ~prov_store
        outcome = np.where(
            noncont, np.where(ev_store, 1, 0), outcome
        )
        state_upd = noncont
        resolve_ev = coupled_ev & ev_cont
    else:
        state_upd = np.zeros(e_total, dtype=bool)
        resolve_ev = coupled_ev & ~prov_store
    replay_ev = resolve_ev | state_upd

    ev_counts = np.bincount(ev_cpu, minlength=n)
    ev_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ev_counts, out=ev_offsets[1:])
    starts = ev_offsets[:-1]
    has_ev = ev_counts > 0
    last_of = ev_offsets[1:] - 1

    # Outgoing fetch-prefix gap per event (cost to the CPU's next
    # event, or to end-of-stream for its last), and the first key.
    nxt = np.empty(e_total, dtype=np.int64)
    nxt[:-1] = fetch_prefix[g_idx[1:]]
    nxt[last_of[has_ev]] = fetch_prefix[ends[has_ev]]
    gap = (nxt - fetch_prefix[g_idx + 1]).astype(np.float64)
    fk = np.zeros(n)
    fk[has_ev] = (
        fetch_prefix[g_idx[starts[has_ev]]] - base[has_ev]
    ).astype(np.float64)

    coupled_key_ints = coupled_keys.tolist()
    outcome, waits, clocks, invalidations = _wti_folded_merge(
        n, sets, arb, two_way, totals, outcome, resolve_ev, replay_ev,
        ev_cpu, ev_set, ev_block, ev_store, ev_cont, ev_pre, gap, fk,
        starts, ev_offsets, uses_bus, lead, clock_adv, free_adv,
        extra_wait, coupled_key_ints,
    )

    # Segmented reductions: the merged per-event outcomes are the
    # per-config replay's exact values, so every statistic is a sum
    # over them.
    counts_by_outcome = np.bincount(outcome, minlength=4)
    for oc, rows in enumerate(wti_rows):
        cnt = int(counts_by_outcome[oc])
        if cnt:
            for row in rows:
                row[4][0] += cnt
    bus_busy = float(np.dot(busy_adv, counts_by_outcome))
    bus_tx = int(np.dot(tx_adv, counts_by_outcome))
    mc = miss_ops[outcome]
    is_fetch_ev = ev_kind == 0
    fetch_misses = int(mc[is_fetch_ev].sum())
    data_misses = int(mc[~is_fetch_ev].sum())
    shared_data_misses = int(mc[~is_fetch_ev & ev_shared].sum())
    dirty_victims = int(dirty_ops[outcome].sum())
    stats.invalidations += invalidations
    return _assemble(
        "wti", trace, config, derived, op_info, clocks.tolist(),
        waits.tolist(), [0] * n, fetch_misses, data_misses,
        shared_data_misses, dirty_victims, bus_busy, bus_tx,
        arb * bus_tx, stats,
    )


def _wti_folded_merge(
    n: int,
    sets: int,
    arb: float,
    two_way: bool,
    totals: np.ndarray,
    scode: np.ndarray,
    resolve_ev: np.ndarray,
    replay_ev: np.ndarray,
    ev_cpu: np.ndarray,
    ev_set: np.ndarray,
    ev_block: np.ndarray,
    ev_store: np.ndarray,
    ev_cont: np.ndarray,
    ev_pre: np.ndarray,
    gap: np.ndarray,
    fk: np.ndarray,
    starts: np.ndarray,
    ev_offsets: np.ndarray,
    uses_bus: np.ndarray,
    lead: np.ndarray,
    clock_adv: np.ndarray,
    free_adv: np.ndarray,
    extra_wait: np.ndarray,
    coupled_key_ints: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Greedy folded merge of the WTI event columns.

    The next event is always the globally earliest ready CPU (lowest
    CPU on ties), exactly as per-config replay interleaves records, and
    unresolved touches are resolved at pick time against the shared
    coupled sets, so the result is bit-identical by construction.
    Three structural folds keep the loop short:

    - every outcome's operation list is pre-folded
      (:func:`_fold_outcome`) into one bus-grant update, and all
      counting, miss attribution, and static wait terms are hoisted
      into the caller's numpy reductions;
    - the winning CPU drains its own stream for as long as its key
      stays below the second-best CPU's, so the per-pick argmin runs
      once per interleaving rather than once per event;
    - events whose outcome the caller pre-resolved (uncoupled events,
      plus — for one-way sets — the non-contended coupled touches)
      take a straight-line branch that at most restates the set's
      single way.

    Event records are uniform six-tuples ``(flag, a, b, c, sim,
    block)``: flag 0 is a pre-resolved bus event (``a`` = ready
    offset, ``b`` = clock advance incl. outgoing gap, ``c`` = bus-free
    advance, ``sim`` truthy when the one-way set must be restated to
    ``block``); flag 3 is the same without a bus transaction; flags 1
    (load) and 2 (store, ``a`` = peer-set tuple for invalidation) are
    resolved at pick time and write their outcome at trace slot ``c``.
    Returns ``(outcome, waits, clocks, invalidations)``.
    """
    e_total = len(scode)
    scode_safe = np.where(scode == 3, 0, scode)
    flags = np.where(uses_bus[scode_safe], 0, 3)
    flags[resolve_ev & ~ev_store] = 1
    flags[resolve_ev & ev_store] = 2

    # Fold the fcfs arbitration overhead into the per-outcome clock
    # and bus-free advances of the bus events so the hot loop carries
    # no ``arb`` branch, and drop wait accounting from the loop
    # entirely: with integral costs every quantity is an exact
    # integer-valued float, so per-CPU waits telescope to the merged
    # clock minus the static no-wait clock (recovered vectorised
    # below).
    arb_term = np.where(flags == 0, arb, 0.0)
    a_col = np.where(resolve_ev, ev_pre, ev_pre + lead[scode_safe])
    b_col = np.where(resolve_ev, gap, clock_adv[scode_safe] + gap) + arb_term
    flag_l = flags.tolist()
    a_l = a_col.tolist()
    b_l = b_col.tolist()
    c_l = (free_adv[scode_safe] + arb_term).tolist()
    d_l: list = [0] * e_total
    e_l = np.where(replay_ev, ev_block, 0).tolist()

    # Shared coupled-set state, spliced into the replayed slots by
    # sorted rank (``coupled_key_ints`` is sorted-unique).
    sim_map = {key: [-1, -1] for key in coupled_key_ints}
    sims_by_rank = [sim_map[key] for key in coupled_key_ints]
    pos = np.flatnonzero(replay_ev)
    if len(pos):
        rank = np.searchsorted(
            np.asarray(coupled_key_ints, dtype=np.int64),
            ev_cpu[pos] * sets + ev_set[pos],
        )
        for p, r in zip(pos.tolist(), rank.tolist()):
            d_l[p] = sims_by_rank[r]
    resolve_pos = np.flatnonzero(resolve_ev).tolist()
    for p in resolve_pos:
        c_l[p] = p
    store_pos = np.flatnonzero(flags == 2)
    if len(store_pos):
        rem_cache: dict[int, tuple] = {}
        for p, cpu_p, sid, cont_p in zip(
            store_pos.tolist(),
            ev_cpu[store_pos].tolist(),
            ev_set[store_pos].tolist(),
            ev_cont[store_pos].tolist(),
        ):
            if not cont_p:
                a_l[p] = ()
                continue
            ck = cpu_p * sets + sid
            rem = rem_cache.get(ck)
            if rem is None:
                rem = tuple(
                    sim_map[other * sets + sid]
                    for other in range(n)
                    if other != cpu_p and other * sets + sid in sim_map
                )
                rem_cache[ck] = rem
            a_l[p] = rem

    ub0, ub1, ub2, _ = uses_bus.tolist()
    lead0, lead1, lead2, lead3 = lead.tolist()
    adv0, adv1, adv2, adv3 = clock_adv.tolist()
    fr0, fr1, fr2, _ = free_adv.tolist()
    hit_tot = lead3 + adv3
    adv0a = adv0 + arb
    adv1a = adv1 + arb
    adv2a = adv2 + arb
    fr0a = fr0 + arb
    fr1a = fr1 + arb
    fr2a = fr2 + arb

    clocks_l = totals.tolist()
    rows_by_cpu: list = [None] * n
    keys_l = [0.0] * n
    eidx = [0] * n
    nrows = [0] * n
    active: list[int] = []
    for cpu in range(n):
        s = int(starts[cpu])
        e = int(ev_offsets[cpu + 1])
        if s == e:
            continue
        rows_by_cpu[cpu] = list(
            zip(
                flag_l[s:e], a_l[s:e], b_l[s:e],
                c_l[s:e], d_l[s:e], e_l[s:e],
            )
        )
        nrows[cpu] = e - s
        keys_l[cpu] = float(fk[cpu])
        active.append(cpu)

    out_flat = scode.tolist()
    bus_free = 0.0
    invalidations = 0
    infinity = float("inf")
    while active:
        # Linear argmin with second-best tracking: n is tiny, and the
        # second-best key bounds how far the winner may drain its own
        # stream before any other CPU can interleave (strict ``<`` and
        # ascending scan reproduce the lowest-CPU tie-break).
        best = infinity
        second = infinity
        cpu = -1
        scpu = -1
        for cand in active:
            k = keys_l[cand]
            if k < best:
                second = best
                scpu = cpu
                best = k
                cpu = cand
            elif k < second:
                second = k
                scpu = cand
        row = rows_by_cpu[cpu]
        i = eidx[cpu]
        limit = nrows[cpu]
        key = best
        while True:
            flag, a_f, b_f, c_f, sim, block = row[i]
            if flag == 0:
                # Pre-resolved bus event: one folded grant (arb is
                # pre-added to the advances); restate the one-way set
                # when the caller resolved a coupled miss.
                ready = key + a_f
                grant = bus_free if bus_free > ready else ready
                bus_free = grant + c_f
                next_key = grant + b_f
                if sim:
                    sim[0] = block
            elif flag == 3:
                # Pre-resolved event with no bus transaction.
                next_key = key + a_f + b_f
                if sim:
                    sim[0] = block
            elif flag == 1:
                pre = a_f
                gap_out = b_f
                j = c_f
                if block == sim[0]:
                    outcome_id = 3
                elif two_way and block == sim[1]:
                    sim[1] = sim[0]
                    sim[0] = block
                    outcome_id = 3
                else:
                    if two_way:
                        sim[1] = sim[0]
                    sim[0] = block
                    outcome_id = 0
                out_flat[j] = outcome_id
                if outcome_id == 3:
                    next_key = key + pre + hit_tot + gap_out
                elif ub0:
                    ready = key + pre + lead0
                    grant = bus_free if bus_free > ready else ready
                    bus_free = grant + fr0a
                    next_key = grant + adv0a + gap_out
                else:
                    next_key = key + pre + lead0 + adv0 + gap_out
            else:
                rem = a_f
                gap_out = b_f
                j = c_f
                for other in rem:
                    if other[0] == block:
                        other[0] = other[1]
                        other[1] = -1
                        invalidations += 1
                    elif other[1] == block:
                        other[1] = -1
                        invalidations += 1
                if block == sim[0]:
                    outcome_id = 2
                elif two_way and block == sim[1]:
                    sim[1] = sim[0]
                    sim[0] = block
                    outcome_id = 2
                else:
                    if two_way:
                        sim[1] = sim[0]
                    sim[0] = block
                    outcome_id = 1
                out_flat[j] = outcome_id
                if outcome_id == 2:
                    if ub2:
                        ready = key + lead2
                        grant = bus_free if bus_free > ready else ready
                        bus_free = grant + fr2a
                        next_key = grant + adv2a + gap_out
                    else:
                        next_key = key + lead2 + adv2 + gap_out
                elif ub1:
                    ready = key + lead1
                    grant = bus_free if bus_free > ready else ready
                    bus_free = grant + fr1a
                    next_key = grant + adv1a + gap_out
                else:
                    next_key = key + lead1 + adv1 + gap_out
            i += 1
            if i == limit:
                clocks_l[cpu] = next_key
                active.remove(cpu)
                break
            if next_key < second or (next_key == second and cpu < scpu):
                key = next_key
                continue
            keys_l[cpu] = next_key
            eidx[cpu] = i
            break

    outcome = np.asarray(out_flat, dtype=np.int64)
    # Waits telescope: every event advances its CPU's key by its
    # static no-wait cost plus its (non-negative) bus wait, so the
    # per-CPU wait total is the merged final clock minus the static
    # no-wait clock.  Exact because the integral-cost gate makes all
    # terms integer-valued floats.
    static_adv = ev_pre + lead[outcome] + clock_adv[outcome] + gap
    nowait = totals.copy()
    hase = (ev_offsets[1:] - starts) > 0
    nowait[hase] = (
        fk[hase]
        + np.bincount(ev_cpu, weights=static_adv, minlength=n)[hase]
    )
    waits = (
        np.asarray(clocks_l)
        - nowait
        + np.bincount(ev_cpu, weights=extra_wait[outcome], minlength=n)
    )
    return outcome, waits, np.asarray(clocks_l), invalidations


# -- shared event merge + result assembly --------------------------------


def _operation_info(costs: CostTable) -> dict:
    """Per-operation hot-loop info tuples: ``(cpu_cycles, bus_cycles,
    is_miss, is_dirty_victim, count_cell)``.  The mutable count cell
    keeps operation counting in one place across static and resolved
    events."""
    return {
        op: (
            float(cost.cpu_cycles),
            float(cost.channel_cycles),
            op in _MISS_OPERATIONS,
            op in _DIRTY_VICTIM_OPERATIONS,
            [0],
        )
        for op, cost in costs.items()
    }


def _assemble(
    name: str,
    trace: Trace,
    config: SimulationConfig,
    derived: DerivedColumns,
    op_info: dict,
    clocks: list[float],
    waits: list[float],
    steals: list[int],
    fetch_misses: int,
    data_misses: int,
    shared_data_misses: int,
    dirty_victims: int,
    bus_busy: float,
    bus_tx: int,
    bus_arb: float,
    protocol_stats,
) -> SimulationResult:
    n = trace.cpus
    result = SimulationResult(
        protocol=name,
        trace_name=trace.name,
        config=config,
        cpus=[CpuStats() for _ in range(n)],
    )
    mix = derived.mix
    for cpu in range(n):
        stats = result.cpus[cpu]
        stats.instructions = int(mix[cpu, 0])
        stats.loads = int(mix[cpu, 1])
        stats.stores = int(mix[cpu, 2])
        stats.flushes = int(mix[cpu, 3])
        stats.clock = clocks[cpu]
        stats.wait_cycles = waits[cpu]
        stats.stolen_cycles = steals[cpu]
    result.operation_counts = Counter(
        {op: info[4][0] for op, info in op_info.items() if info[4][0]}
    )
    result.fetch_misses = fetch_misses
    result.data_misses = data_misses
    result.shared_data_misses = shared_data_misses
    result.dirty_victim_misses = dirty_victims
    result.shared_loads = derived.shared_loads
    result.shared_stores = derived.shared_stores
    result.bus_busy_cycles = bus_busy
    result.bus_transactions = bus_tx
    result.bus_arbitration_cycles = bus_arb
    result.protocol_stats = protocol_stats
    result.engine = "epoch"
    result.records_replayed = len(trace)
    return result


def _merge_and_finish(
    name: str,
    trace: Trace,
    config: SimulationConfig,
    costs: CostTable,
    order: str,
    derived: DerivedColumns,
    epos: list[list[int]],
    ekind: list[list[int]],
    eshared: list[list[bool]],
    make_resolver,
    protocol_stats,
) -> SimulationResult:
    """Replay epoch boundaries in exact legacy ``(key, cpu)`` order.

    The structure mirrors ``onepass._account`` (event-free epochs
    advance clocks via fetch prefix sums) extended with per-event
    resolution and — for Dragon — the cycle-steal key-staleness rules
    of ``Machine._run_columnar``'s event-driven merge, minus the
    deferred LRU touches (every epoch record here is free apart from
    its fetch cycle, so epochs are pure clock advances).

    ``make_resolver(op_info)`` returns ``(estatic, resolve)``:
    ``estatic[cpu][i]`` is the event's pre-resolved cost-info tuple
    when its operations are independent of the carried sharing state
    (the hot loop consumes it directly), or None to route the event
    through ``resolve`` — which returns ``(info_tuple, stolen_from)``
    built from the same ``op_info`` entries, so operation counting
    stays in one place.

    WTI's steal-free simulated-time merge does not come through here
    (``_run_wti`` hands it to :func:`_wti_epoch_merge`), so the time
    branch below always carries the steal machinery.
    """
    n = trace.cpus
    counts = derived.counts
    prefixes = _cpu_prefixes(derived, n)
    op_info = _operation_info(costs)
    arb = float(config.bus_arbitration_cycles)
    estatic, resolve = make_resolver(op_info)

    # One tuple per event — a single list index in the hot loop
    # instead of four parallel-column lookups.
    def pack_events():
        return [
            list(zip(epos[c], ekind[c], eshared[c], estatic[c]))
            for c in range(n)
        ]

    # TimedBus.transact inlined into the merge loops as three locals
    # (identical arithmetic; the result assembly rebuilds the totals).
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
        events = pack_events()
        order_np = derived.order
        offsets = derived.offsets
        ev_trace = []
        ev_cpu = []
        for cpu in range(n):
            pos_np = np.asarray(epos[cpu], dtype=np.int64)
            ev_trace.append(order_np[offsets[cpu] + pos_np])
            ev_cpu.append(np.full(len(pos_np), cpu, dtype=np.int64))
        if ev_trace:
            all_trace = np.concatenate(ev_trace)
            all_cpu = np.concatenate(ev_cpu)
            merged_cpus = all_cpu[np.argsort(all_trace, kind="stable")].tolist()
        else:
            merged_cpus = []
        applied = [0] * n
        event_index = [0] * n
        for cpu in merged_cpus:
            i = event_index[cpu]
            pos, kind, shared, operations = events[cpu][i]
            event_index[cpu] = i + 1
            prefix = prefixes[cpu]
            clock = clocks[cpu]
            delta = prefix[pos] - prefix[applied[cpu]]
            if delta:
                clock += delta
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
                        if shared:
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
        # order.  Steals land on the victim's true clock immediately
        # but enter its merge keys only from the first record
        # processed after the broadcast — the same key-staleness
        # reconstruction as Machine._run_columnar, simplified by the
        # absence of deferred touches.
        events = pack_events()
        cpu_fetch_pos = []
        is_fetch = derived.is_fetch_sorted
        offset = 0
        for count in counts:
            cpu_fetch_pos.append(
                np.flatnonzero(is_fetch[offset : offset + count]).tolist()
            )
            offset += count
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
            row = events[cpu]
            e = row[0][0] if row else counts[cpu]
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
            _, kind, shared, operations = events[cpu][i]
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
                        if shared:
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
                        # fetch prefix from the old frontier.
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
                            frontier = cpu_fetch_pos[victim][target - 1] + 1
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
            row = events[cpu]
            e = row[i][0] if i < len(row) else counts[cpu]
            next_event[cpu] = e
            frontier_keys[cpu] = clock
            keys[cpu] = clock + (prefix[e] - prefix[position])

    return _assemble(
        name, trace, config, derived, op_info, clocks, waits, steals,
        fetch_misses, data_misses, shared_data_misses, dirty_victims,
        bus_busy, bus_tx, arb * bus_tx, protocol_stats,
    )
