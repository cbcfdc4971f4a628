"""The one LRU classifier of the cache-size sweep engines, and the one
same-block rule of every static hit analysis: ``machine._proven_hits``
applies :func:`cache_touches` and :func:`same_block_hits` at the
machine's set mask, :func:`classify_lru`'s prefilter at each geometry's.

Both sweep engines ask the same per-CPU question of every geometry in
a family: *which references miss, and which block do they evict?*
The geometry-local one-pass engine (:mod:`repro.sim.onepass`: Base,
No-Cache, Software-Flush) and Dragon's epoch-partitioned family
(:mod:`repro.sim.family`) both hold
``remote_traffic_preserves_residency``, so each CPU's cache contents
evolve from its own program-order stream and :func:`classify_lru`
answers for the whole family in one walk:

* One traversal of each CPU's stream updates one LRU cache *per
  geometry* and records only the *events*: misses (with the victim's
  block and dirtiness), uncached shared read/write-throughs and
  flushes.  The protocol's declared flags (``handles_flush``,
  ``caches_shared_data``) select which records touch the cache.
* A vectorised per-geometry prefilter first drops every reference
  :func:`same_block_hits` proves: a guaranteed, already-MRU hit.
* A victim inserted at stream position ``i`` and evicted (or flushed)
  at ``q`` is dirty iff the CPU stored to its block in ``[i, q)``: a
  batch of interval queries answered after the loop with two
  ``searchsorted`` calls.

This module is a leaf: it must not import :mod:`repro.sim.machine`,
:mod:`repro.sim.onepass` or :mod:`repro.sim.family`.
"""

from __future__ import annotations

import numpy as np

from repro.trace.derived import DerivedColumns

__all__ = [
    "CLEAN_FLUSH",
    "CLEAN_MISS",
    "DIRTY_FLUSH",
    "DIRTY_MISS",
    "READ_THROUGH",
    "WRITE_THROUGH",
    "cache_touches",
    "classify_lru",
    "same_block_hits",
]

# Event opcodes.  Each dirty opcode is its clean one + 1.
CLEAN_MISS = 0
DIRTY_MISS = 1
READ_THROUGH = 2
WRITE_THROUGH = 3
CLEAN_FLUSH = 4
DIRTY_FLUSH = 5


def cache_touches(
    derived: DerivedColumns, handles_flush: bool, caches_shared: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Which records (in ``derived.order``) touch their CPU's cache.

    Returns ``(touches, uncached)``: without ``caches_shared``,
    ``uncached`` marks the shared loads and stores, which are
    transparent to cache contents; else it is ``None``.  Flushes touch
    iff ``handles_flush``, shared or not (no registered protocol
    handles flushes without caching shared data).
    """
    kinds = derived.kinds_sorted
    touches = np.ones(len(kinds), dtype=bool)
    uncached = None
    if not caches_shared:
        uncached = ((kinds == 1) | (kinds == 2)) & derived.shared_sorted
        touches &= ~uncached
    if not handles_flush:
        touches &= kinds != 3
    return touches, uncached


def same_block_hits(
    cpus: np.ndarray, blocks: np.ndarray, leaves: np.ndarray, sets: int
) -> np.ndarray:
    """The same-block rule, over cache-touching records in per-CPU
    program order, for caches of ``sets`` sets.

    A record that leaves its block resident (``leaves``: not a flush)
    must hit when its CPU's most recent touch of the same set was to
    the same block and left it resident.  The block is then already
    most-recently-used: that predecessor touched it last, and state
    updates assign in place, never reordering a set, so even the LRU
    touch is a no-op.  Holds at every associativity, for any cache
    whose contents only its own CPU's records evict.
    """
    group_key = cpus.astype(np.int64) * sets
    group_key += (blocks & np.uint64(sets - 1)).astype(np.int64)
    # The stable sort keeps program order within each (cpu, set) group.
    key_order = np.argsort(group_key, kind="stable")
    keys_grouped = group_key[key_order]
    blocks_grouped = blocks[key_order]
    leaves_grouped = leaves[key_order]
    hits_grouped = np.zeros(len(key_order), dtype=bool)
    hits_grouped[1:] = (
        (keys_grouped[1:] == keys_grouped[:-1])
        & (blocks_grouped[1:] == blocks_grouped[:-1])
        & leaves_grouped[:-1]
    )
    hits = np.empty(len(key_order), dtype=bool)
    hits[key_order] = hits_grouped
    return hits & leaves


def classify_lru(
    derived: DerivedColumns,
    geometries,
    handles_flush: bool,
    caches_shared: bool,
) -> list[list[tuple[list[int], list[int], list[int]]]]:
    """One traversal producing per-geometry, per-CPU event lists.

    Exact at every associativity for promote-on-every-touch,
    insert-on-miss LRU caches whose contents evolve from each CPU's
    own stream.  With ``handles_flush`` a flush invalidates and is an
    event; otherwise flushes never reach the cache.  Without
    ``caches_shared`` shared loads and stores are read/write-through
    events, transparent to cache contents.

    Returns ``events[k][cpu] = (positions, opcodes, victims)``: the
    stream positions (program order within the CPU) and opcodes of
    every reference that does bus/protocol work under
    ``geometries[k]``, and the block each evicts (``-1`` for a miss
    into a free way and for every event that is not a miss).
    """
    kinds = derived.kinds_sorted
    blocks = derived.blocks_sorted
    counts = derived.counts
    offsets = derived.offsets
    total = len(kinds)

    touches, uncached = cache_touches(derived, handles_flush, caches_shared)

    # Per-geometry prefilter: the same-block rule, evaluated at each
    # geometry's own set mask.  A reference it proves finds its block
    # resident and already most-recently-used, so its LRU touch — pop
    # and reinsert — is the identity: the loop for that geometry can
    # skip it outright.  Finer masks collide less, so bigger caches
    # prove far more of the stream; each geometry's loop only walks its
    # own residue.  Stores among the skipped records still dirty their
    # lines, which the vectorised interval query below observes without
    # visiting them.  The rule is monotone in the mask: provable at a
    # coarser mask implies provable at every finer one (any provable
    # record between a reference and its residue predecessor must, by
    # induction along its own predecessor chain, carry that
    # predecessor's block).  So test geometries coarsest-first and
    # re-test only the shrinking residue — the expensive grouped sort
    # runs once at full length.
    touch_idx = np.flatnonzero(touches)
    t_cpu = derived.cpus_sorted[touch_idx]
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
            residue = residue[
                ~same_block_hits(
                    t_cpu[residue], t_block[residue], t_leaves[residue], sets
                )
            ]
        loop_mask = np.zeros(total, dtype=bool)
        loop_mask[touch_idx[residue]] = True
        loop_masks[k] = loop_mask

    # Cachable stores: dirtiness never alters LRU state, so the loops
    # record (victim, inserted, evicted) queries and a sorted
    # (block, position) interval count answers "was the line stored
    # into while resident" for all of them at once afterwards.
    dirtying = (kinds == 2) & touches

    k_count = len(geometries)
    events: list[list[tuple[list[int], list[int], list[int]]]] = [
        [] for _ in range(k_count)
    ]

    for cpu in range(len(counts)):
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
        # Uncached shared references are transparent to cache contents
        # and identical in every geometry: build their events
        # vectorised, merge them in after the stateful loop.
        through_pos: np.ndarray | None = None
        through_ops: np.ndarray | None = None
        if uncached is not None:
            through_pos = np.flatnonzero(uncached[start:stop])
            through_ops = np.where(
                kinds[start:stop][through_pos] == 2,
                WRITE_THROUGH,
                READ_THROUGH,
            ).astype(np.int64)

        for k in range(k_count):
            geometry = geometries[k]
            mask = geometry.sets - 1
            assoc = geometry.associativity
            l_idx = np.flatnonzero(loop_masks[k][start:stop])
            l_blocks = blocks[start:stop][l_idx]
            # Fresh caches per CPU (streams are independent): insertion-
            # ordered dicts mapping block -> insertion stream position,
            # preallocated for exactly the sets this loop will visit.
            line_sets: dict[int, dict[int, int]] = {
                int(s): {}
                for s in np.unique(l_blocks & np.uint64(mask))
            }
            positions: list[int] = []
            opcodes: list[int] = []
            victims: list[int] = []
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
                        opcodes.append(CLEAN_FLUSH)
                        victims.append(-1)
                        if inserted >= 0 and block in stored_blocks:
                            q_block.append(block)
                            q_lo.append(inserted)
                            q_hi.append(pos)
                    elif inserted >= 0:
                        # Hit: LRU touch, keep the insertion position.
                        cache_set[block] = inserted
                    else:
                        victim = -1
                        if len(cache_set) >= assoc:
                            victim = next(iter(cache_set))
                            victim_inserted = cache_set.pop(victim)
                            if victim in stored_blocks:
                                q_block.append(victim)
                                q_lo.append(victim_inserted)
                                q_hi.append(pos)
                        cache_set[block] = pos
                        positions.append(pos)
                        opcodes.append(CLEAN_MISS)
                        victims.append(victim)
            else:
                for pos, block in zip(
                    l_idx.tolist(), l_blocks.tolist()
                ):
                    cache_set = line_sets[block & mask]
                    inserted = cache_set.pop(block, -1)
                    if inserted >= 0:
                        cache_set[block] = inserted
                        continue
                    victim = -1
                    if len(cache_set) >= assoc:
                        victim = next(iter(cache_set))
                        victim_inserted = cache_set.pop(victim)
                        if victim in stored_blocks:
                            q_block.append(victim)
                            q_lo.append(victim_inserted)
                            q_hi.append(pos)
                    cache_set[block] = pos
                    positions.append(pos)
                    opcodes.append(CLEAN_MISS)
                    victims.append(victim)

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
                all_victims = np.concatenate([
                    np.asarray(victims, dtype=np.int64),
                    np.full(len(through_pos), -1, dtype=np.int64),
                ])
                merge = np.argsort(all_pos, kind="stable")
                positions = all_pos[merge].tolist()
                opcodes = all_ops[merge].tolist()
                victims = all_victims[merge].tolist()

            events[k].append((positions, opcodes, victims))
    return events
