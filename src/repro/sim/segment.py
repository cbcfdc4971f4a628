"""Run-collapse LRU classification: the kernel of the Dragon family.

The Dragon epoch family engine (:mod:`repro.sim.family`) classifies
every geometry of a sweep here, without a per-record Python loop:
Dragon's remote traffic never evicts, so each CPU's cache contents
evolve from its own stream.  The question is *which references miss,
and which block do they evict?*  For caches of associativity one or
two it has a closed form over **runs** (maximal sequences of
consecutive same-block touches within one ``(cpu, set)`` segment), so
the whole classification collapses to array passes:

* Partition each CPU's touch stream by set (one stable grouped sort),
  then collapse consecutive same-block touches into runs.  Within a
  run every touch after the first is trivially a hit.
* **Associativity 1**: every run *start* misses (the previous run's
  block occupies the single way) and its victim is exactly the
  previous run's block in the segment.
* **Associativity 2**: immediately before run ``r`` starts, the set
  holds exactly the blocks of runs ``r-1`` and ``r-2`` (LRU order:
  ``r-2`` then ``r-1``).  So run ``r`` hits iff its block equals run
  ``r-2``'s, and a missing run's victim is run ``r-2``'s block.
* A block's **true insertion position** (needed for victim-dirtiness
  interval queries) chains through hits: run ``r`` continues the
  residency begun at the most recent run of the same block at stride
  2.  Chains are resolved with one segmented ``maximum.accumulate``
  over runs sorted by ``(segment, block)``.

Victim dirtiness then reduces to "did this CPU issue a cachable store
to the victim's block while it was resident", a batch of interval
queries over composite ``((block, cpu), position)`` keys answered
with two ``searchsorted`` calls (:func:`dirty_flags`) — no state
machine at all.

The geometry-local protocols (Base, No-Cache, Software-Flush) do not
use this kernel: their one classifier is the family walk
:func:`repro.sim.onepass._classify`, which also handles flush records
and every associativity.

This module is a leaf: it must not import :mod:`repro.sim.machine`,
:mod:`repro.sim.onepass` or :mod:`repro.sim.family`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.derived import DerivedColumns

__all__ = [
    "LruClassification",
    "classify_lru",
    "dirty_flags",
    "stream_positions",
]


def stream_positions(derived: DerivedColumns) -> np.ndarray:
    """Program-order position within its CPU's stream, per sorted record."""
    counts = np.asarray(derived.counts, dtype=np.int64)
    offsets = np.asarray(derived.offsets, dtype=np.int64)
    total = int(counts.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


@dataclass(frozen=True)
class LruClassification:
    """Hit/miss/victim facts for one geometry, in sorted-record space.

    Attributes:
        miss: True where a touching reference misses its set.
        victim_block: block evicted by each miss (``-1`` when the set
            still had a free way), as int64 block numbers.
        victim_pos: the victim's true insertion position (program
            order within its CPU's stream), carried through the hits
            between insertion and eviction; ``-1`` when no victim.
    """

    miss: np.ndarray
    victim_block: np.ndarray
    victim_pos: np.ndarray


def classify_lru(
    derived: DerivedColumns,
    sets: int,
    associativity: int,
    touches: np.ndarray,
) -> LruClassification:
    """Classify every touching reference against an LRU cache family.

    Exact for promote-on-every-touch, insert-on-miss LRU sets of
    associativity 1 or 2 whose membership evolves from the CPU's own
    stream alone (no invalidations among ``touches`` — callers gate).
    """
    if associativity not in (1, 2):
        raise ValueError(
            f"segment classification needs associativity 1 or 2, "
            f"got {associativity}"
        )
    total = len(derived.kinds_sorted)
    miss = np.zeros(total, dtype=bool)
    victim_block = np.full(total, -1, dtype=np.int64)
    victim_pos = np.full(total, -1, dtype=np.int64)
    t_idx = np.flatnonzero(touches)
    if not len(t_idx):
        return LruClassification(miss, victim_block, victim_pos)

    t_cpu = derived.cpus_sorted[t_idx].astype(np.int64)
    t_block = derived.blocks_sorted[t_idx]
    segment = t_cpu * sets
    segment += (t_block & np.uint64(sets - 1)).astype(np.int64)
    g_order = np.argsort(segment, kind="stable")
    g_seg = segment[g_order]
    g_block = t_block[g_order]
    g_idx = t_idx[g_order]
    m = len(g_idx)

    same = np.zeros(m, dtype=bool)
    same[1:] = (g_seg[1:] == g_seg[:-1]) & (g_block[1:] == g_block[:-1])

    # Collapse to runs of consecutive same-block touches per segment.
    run_start = np.flatnonzero(~same)
    runs = len(run_start)
    run_seg = g_seg[run_start]
    run_block = g_block[run_start]
    run_start_idx = g_idx[run_start]
    spos = stream_positions(derived)
    run_start_pos = spos[run_start_idx]

    if associativity == 1:
        # Every run start misses; the victim is the previous run's
        # block, inserted at that run's own start (every run begins
        # with a miss, so insertion never chains).
        run_hit = np.zeros(runs, dtype=bool)
        has_victim = np.zeros(runs, dtype=bool)
        has_victim[1:] = run_seg[1:] == run_seg[:-1]
        stride = 1
        insert_run = np.arange(runs, dtype=np.int64)
    else:
        # Before run r the set holds exactly the blocks of runs r-1
        # and r-2: hit iff block == run r-2's, victim = run r-2's
        # block on a miss.
        pp_same = np.zeros(runs, dtype=bool)
        pp_same[2:] = run_seg[2:] == run_seg[:-2]
        run_hit = np.zeros(runs, dtype=bool)
        run_hit[2:] = pp_same[2:] & (run_block[2:] == run_block[:-2])
        has_victim = pp_same & ~run_hit
        stride = 2
        # True insertion chains through stride-2 hit runs of the same
        # (segment, block): anchor each chain at its first (missing)
        # run with a segmented running maximum.
        pair_order = np.lexsort((run_block, run_seg))
        chained = np.zeros(runs, dtype=bool)
        if runs > 1:
            a, b = pair_order[1:], pair_order[:-1]
            chained[1:] = (
                (run_seg[a] == run_seg[b])
                & (run_block[a] == run_block[b])
                & (a - b == 2)
            )
        anchor = np.where(~chained, np.arange(runs, dtype=np.int64), 0)
        np.maximum.accumulate(anchor, out=anchor)
        insert_run = np.empty(runs, dtype=np.int64)
        insert_run[pair_order] = pair_order[anchor]

    miss[run_start_idx[~run_hit]] = True
    wv = np.flatnonzero(has_victim)
    if len(wv):
        v_runs = wv - stride
        v_idx = run_start_idx[wv]
        victim_block[v_idx] = run_block[v_runs].astype(np.int64)
        victim_pos[v_idx] = run_start_pos[insert_run[v_runs]]
    return LruClassification(miss, victim_block, victim_pos)


def dirty_flags(
    derived: DerivedColumns,
    touches: np.ndarray,
    spos: np.ndarray,
    query_cpu: np.ndarray,
    query_block: np.ndarray,
    query_lo: np.ndarray,
    query_hi: np.ndarray,
) -> np.ndarray:
    """Was a cachable store issued to each queried line while resident?

    Each query asks whether ``query_cpu`` stored to ``query_block`` at
    a stream position in ``[query_lo, query_hi)`` — the interval from
    the line's insertion to its eviction.  Cachable stores are the
    store records among ``touches``.
    """
    if not len(query_cpu):
        return np.zeros(0, dtype=bool)
    store_idx = np.flatnonzero((derived.kinds_sorted == 2) & touches)
    if not len(store_idx):
        return np.zeros(len(query_cpu), dtype=bool)
    n = np.uint64(len(derived.counts))
    s_pair = derived.blocks_sorted[store_idx] * n
    s_pair += derived.cpus_sorted[store_idx].astype(np.uint64)
    q_pair = query_block.astype(np.uint64) * n
    q_pair += query_cpu.astype(np.uint64)
    uniq = np.unique(np.concatenate([s_pair, q_pair]))
    stride = max(derived.counts) + 1
    s_keys = np.sort(
        np.searchsorted(uniq, s_pair) * stride + spos[store_idx]
    )
    q_ids = np.searchsorted(uniq, q_pair) * stride
    lo = q_ids + query_lo
    hi = q_ids + query_hi
    return np.searchsorted(s_keys, hi) > np.searchsorted(s_keys, lo)
