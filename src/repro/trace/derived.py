"""Memoized derived column arrays shared across simulation runs.

Every trace replay — whichever engine, protocol, or cache geometry —
starts from the same preprocessing of the raw trace columns: block
indices at a block size, the shared-block mask, the stable per-CPU
sort that splits the interleaved stream into program-order streams,
the per-(CPU, kind) reference mix, and the fetch prefix sums the
event-driven merges advance clocks with.  None of that depends on the
cache size, the protocol, or the replay order, so a geometry sweep
re-deriving it per cell is pure waste.

:func:`derived_columns` computes the bundle once per
``(trace content, block size)`` and memoizes it in a bounded LRU
cache.  The key is a **content digest** of the trace (columns plus
CPU count and shared region), not the object identity: a trace that
is mutated in place or rebuilt with different records hashes
differently and gets fresh columns, while two distinct ``Trace``
objects with identical content share one entry.  The digest is
recomputed on every call — hashing ~11 bytes per record is orders of
magnitude cheaper than the argsort it guards.

The cache is bounded two ways, and eviction (LRU order) runs until
both bounds hold — though the most recent entry always survives, so
one oversized trace still memoizes:

* **entries** (:func:`set_derived_cache_size`, default
  :data:`CACHE_ENTRIES`), and
* **payload bytes** (:func:`set_derived_cache_bytes`, default
  :data:`CACHE_BYTES`) — the sum of the
  entries' numpy array footprints, so multi-geometry sweeps over
  large traces are bounded by what the columns actually weigh, not
  by how many block sizes they touch.

All derived arrays are treated as immutable by convention; callers
must not write to them.  One array is lazy: the single-owner mask
(:attr:`DerivedColumns.single_owner_sorted`) is computed on first use
and then kept with its entry, so traces whose replays never need it
pay nothing.  It is one byte per record and is not counted against
the payload bound.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.trace.records import Trace

__all__ = [
    "DerivedColumns",
    "derived_cache_info",
    "derived_columns",
    "clear_derived_cache",
    "set_derived_cache_bytes",
    "set_derived_cache_size",
    "trace_digest",
]


@dataclass(frozen=True)
class DerivedColumns:
    """Preprocessing of one trace at one block size.

    Trace-order arrays (aligned with the raw columns):

    Attributes:
        digest: content digest of the source trace.
        block_shift: log2 of the block size the columns were derived at.
        shared_low: first shared block number.
        shared_high: one past the last shared block number.
        blocks: block index of every record (``address >> block_shift``).
        shared: whether each record's block lies in the shared region.
        order: stable argsort of the ``cpu`` column — the permutation
            that groups records into per-CPU program-order streams.
        cpus_sorted: ``cpu`` column under ``order``.
        kinds_sorted: ``kind`` column under ``order``.
        blocks_sorted: ``blocks`` under ``order``.
        shared_sorted: ``shared`` under ``order``.
        counts: records issued by each CPU (stream lengths).
        offsets: start of each CPU's stream in the sorted arrays.
        mix: per-(CPU, kind) reference histogram, shape ``(cpus, 4)``.
        shared_loads: loads whose block is shared, whole trace.
        shared_stores: stores whose block is shared, whole trace.
        is_fetch_sorted: ``kinds_sorted == INST_FETCH``.
        fetch_prefix: length ``total + 1`` prefix sums of
            ``is_fetch_sorted`` (``fetch_prefix[i]`` = fetches among
            the first ``i`` sorted records).
    """

    digest: str
    block_shift: int
    shared_low: int
    shared_high: int
    blocks: np.ndarray
    shared: np.ndarray
    order: np.ndarray
    cpus_sorted: np.ndarray
    kinds_sorted: np.ndarray
    blocks_sorted: np.ndarray
    shared_sorted: np.ndarray
    counts: tuple[int, ...]
    offsets: tuple[int, ...]
    mix: np.ndarray
    shared_loads: int
    shared_stores: int
    is_fetch_sorted: np.ndarray
    fetch_prefix: np.ndarray

    @cached_property
    def single_owner_sorted(self) -> np.ndarray:
        """Whether each sorted record's block is *single-owner*:
        referenced by exactly one CPU anywhere in the trace.

        One ``np.unique`` over the (block, cpu) pairs, computed on
        first use and kept with the entry.
        """
        n = np.uint64(max(len(self.counts), 1))
        pair = self.blocks_sorted * n
        pair += self.cpus_sorted.astype(np.uint64)
        pairs, inverse = np.unique(pair, return_inverse=True)
        pair_blocks = pairs // n
        same = pair_blocks[1:] == pair_blocks[:-1]
        multi_cpu = np.zeros(len(pairs), dtype=bool)
        multi_cpu[1:] = same
        multi_cpu[:-1] |= same
        return ~multi_cpu[inverse]


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: columns + CPU count + shared region.

    Two traces with equal digests produce identical derived columns at
    every block size; a mutated or rebuilt trace digests differently.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(
        f"{trace.cpus}:{trace.shared_region.start}:"
        f"{trace.shared_region.stop}:".encode()
    )
    hasher.update(np.ascontiguousarray(trace.cpu).tobytes())
    hasher.update(np.ascontiguousarray(trace.kind).tobytes())
    hasher.update(np.ascontiguousarray(trace.address).tobytes())
    return hasher.hexdigest()


def _derive(trace: Trace, block_shift: int, digest: str) -> DerivedColumns:
    block_bytes = 1 << block_shift
    shared_low = trace.shared_region.start >> block_shift
    shared_high = (
        trace.shared_region.stop + block_bytes - 1
    ) >> block_shift

    n = trace.cpus
    kind_np = trace.kind
    blocks = trace.block_index(block_shift)
    shared = (blocks >= shared_low) & (blocks < shared_high)

    # The engine-equivalence suite pins these numbers against the
    # legacy replay loop's per-record counts, so keep the arithmetic
    # bit-for-bit.
    mix = np.bincount(
        trace.cpu.astype(np.int64) * 4 + kind_np, minlength=4 * n
    ).reshape(n, 4)
    shared_loads = int(np.count_nonzero(shared & (kind_np == 1)))
    shared_stores = int(np.count_nonzero(shared & (kind_np == 2)))

    order = trace.cpu.argsort(kind="stable")
    cpus_sorted = trace.cpu[order]
    kinds_sorted = kind_np[order]
    blocks_sorted = blocks[order]
    shared_sorted = shared[order]
    counts = tuple(int(c) for c in mix.sum(axis=1))
    offsets = []
    offset = 0
    for count in counts:
        offsets.append(offset)
        offset += count
    is_fetch_sorted = kinds_sorted == 0
    total = len(trace)
    fetch_prefix = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(is_fetch_sorted, out=fetch_prefix[1:])

    return DerivedColumns(
        digest=digest,
        block_shift=block_shift,
        shared_low=shared_low,
        shared_high=shared_high,
        blocks=blocks,
        shared=shared,
        order=order,
        cpus_sorted=cpus_sorted,
        kinds_sorted=kinds_sorted,
        blocks_sorted=blocks_sorted,
        shared_sorted=shared_sorted,
        counts=counts,
        offsets=tuple(offsets),
        mix=mix,
        shared_loads=shared_loads,
        shared_stores=shared_stores,
        is_fetch_sorted=is_fetch_sorted,
        fetch_prefix=fetch_prefix,
    )


def _entry_nbytes(derived: DerivedColumns) -> int:
    """Payload footprint of one entry: the sum of its array fields'
    bytes (the lazy single-owner mask excluded, so the figure does not
    change while the entry is cached)."""
    return sum(
        value.nbytes
        for value in (getattr(derived, f.name) for f in fields(derived))
        if isinstance(value, np.ndarray)
    )


#: Default bounds of the memo: entries, and payload bytes (1 GiB).
CACHE_ENTRIES = 8
CACHE_BYTES = 1 << 30

#: Bounded LRU memo: ``(digest, block_shift) -> DerivedColumns``.
_cache: OrderedDict[tuple[str, int], DerivedColumns] = OrderedDict()
_maxsize = CACHE_ENTRIES
_max_bytes = CACHE_BYTES
_bytes = 0
_hits = 0
_misses = 0


def _evict_overflow() -> None:
    """Evict LRU entries until both bounds hold (keeping the newest)."""
    global _bytes
    while len(_cache) > 1 and (
        len(_cache) > _maxsize or _bytes > _max_bytes
    ):
        _, evicted = _cache.popitem(last=False)
        _bytes -= _entry_nbytes(evicted)


def derived_columns(trace: Trace, block_shift: int) -> DerivedColumns:
    """The memoized preprocessing of ``trace`` at ``block_shift``.

    Keyed on trace *content* (see :func:`trace_digest`), so in-place
    mutation or rebuilding the trace never serves stale columns.
    """
    global _hits, _misses, _bytes
    digest = trace_digest(trace)
    key = (digest, block_shift)
    cached = _cache.get(key)
    if cached is not None:
        _cache.move_to_end(key)
        _hits += 1
        return cached
    _misses += 1
    derived = _derive(trace, block_shift, digest)
    _cache[key] = derived
    _bytes += _entry_nbytes(derived)
    _evict_overflow()
    return derived


def derived_cache_info() -> dict:
    """Cache observability: hit/miss counters and both bounds."""
    return {
        "hits": _hits,
        "misses": _misses,
        "size": len(_cache),
        "maxsize": _maxsize,
        "bytes": _bytes,
        "max_bytes": _max_bytes,
    }


def clear_derived_cache() -> None:
    """Drop every memoized entry and reset the hit/miss counters."""
    global _hits, _misses, _bytes
    _cache.clear()
    _bytes = 0
    _hits = 0
    _misses = 0


def set_derived_cache_size(maxsize: int) -> None:
    """Bound the memo at ``maxsize`` entries (evicting LRU overflow)."""
    global _maxsize
    if maxsize < 1:
        raise ValueError(f"maxsize must be >= 1, got {maxsize}")
    _maxsize = maxsize
    _evict_overflow()


def set_derived_cache_bytes(max_bytes: int) -> None:
    """Bound the memo's payload footprint at ``max_bytes``.

    Eviction is LRU and runs until the bound holds, except that the
    most recently used entry always survives — a single trace larger
    than the bound still memoizes (the alternative, thrashing on every
    call, is strictly worse).
    """
    global _max_bytes
    if max_bytes < 1:
        raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
    _max_bytes = max_bytes
    _evict_overflow()
