"""Set-associative write-back cache with LRU replacement.

The cache tracks only block residency and coherence state — no data
values, since a trace-driven timing simulation never needs them.  Each
set is an insertion-ordered dict from block number to state; touching a
block reinserts it, so the first key is always the least recently used
line.  This gives O(1) lookup, insert, and LRU eviction.

States are shared across protocols (:class:`LineState`); each protocol
uses the subset it needs (the Base scheme only ``CLEAN``/``DIRTY``,
Dragon all five).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Cache", "CacheGeometry", "LineState"]


class LineState(enum.IntEnum):
    """Coherence state of one cache line.

    ``CLEAN``/``DIRTY`` serve the non-snooping protocols.  Dragon uses
    the four classic states: ``CLEAN`` doubles as Valid-Exclusive,
    ``DIRTY`` as Dirty (sole modified copy), plus the two shared
    states.
    """

    INVALID = 0
    CLEAN = 1
    DIRTY = 2
    SHARED_CLEAN = 3
    SHARED_DIRTY = 4

    @property
    def is_dirty(self) -> bool:
        """True if evicting this line requires a write-back."""
        return self in (LineState.DIRTY, LineState.SHARED_DIRTY)

    @property
    def is_owner(self) -> bool:
        """True if this copy is responsible for supplying the block."""
        return self in (LineState.DIRTY, LineState.SHARED_DIRTY)


@dataclass(frozen=True)
class CacheGeometry:
    """Size, block size, and associativity of a cache.

    The paper simulates 16K/64K/256K-byte caches with 16-byte blocks;
    associativity defaults to direct-mapped.
    """

    size_bytes: int = 65536
    block_bytes: int = 16
    associativity: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("cache size", self.size_bytes),
            ("block size", self.block_bytes),
            ("associativity", self.associativity),
        ):
            # A float or bool would otherwise pass the range checks
            # below (or fail inside them with a TypeError) and reach
            # the bit arithmetic of every engine.
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError(
                f"block_bytes must be a positive power of two, got {self.block_bytes}"
            )
        if self.associativity < 1:
            raise ValueError(
                f"associativity must be >= 1, got {self.associativity}"
            )
        if self.size_bytes < self.block_bytes * self.associativity:
            raise ValueError(
                "cache must hold at least one set: size_bytes="
                f"{self.size_bytes}, block_bytes={self.block_bytes}, "
                f"associativity={self.associativity}"
            )
        if self.size_bytes % (self.block_bytes * self.associativity):
            raise ValueError(
                "size_bytes must be a multiple of block_bytes * associativity"
            )
        if self.sets & (self.sets - 1):
            raise ValueError(
                f"number of sets must be a power of two, got {self.sets}"
            )

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.block_bytes * self.associativity)

    @property
    def block_shift(self) -> int:
        """log2 of the block size."""
        return self.block_bytes.bit_length() - 1

    @property
    def blocks(self) -> int:
        """Total lines in the cache."""
        return self.sets * self.associativity

    def block_of(self, address: int) -> int:
        """Block number containing a byte address."""
        return address >> self.block_shift

    def set_of(self, block: int) -> int:
        """Set index of a block number."""
        return block & (self.sets - 1)


class Cache:
    """One processor's cache.

    All methods take *block numbers* (``geometry.block_of(address)``),
    never byte addresses; the machine converts once per reference.
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        # ``line_sets`` and ``set_mask`` are public: the machine's
        # columnar replay engine inlines the hit path (an LRU touch
        # equivalent to :meth:`lookup`) directly over them.
        self.set_mask = geometry.sets - 1
        self.line_sets: list[dict[int, LineState]] = [
            {} for _ in range(geometry.sets)
        ]

    def lookup(self, block: int) -> LineState:
        """State of ``block``, touching it for LRU; INVALID if absent."""
        cache_set = self.line_sets[block & self.set_mask]
        # pop+reinsert moves a resident block to the most-recently-used
        # position in two hash probes.
        state = cache_set.pop(block, LineState.INVALID)
        if state is not LineState.INVALID:
            cache_set[block] = state
        return state

    def peek(self, block: int) -> LineState:
        """State of ``block`` without disturbing LRU (snoop view)."""
        return self.line_sets[block & self.set_mask].get(block, LineState.INVALID)

    def set_state(self, block: int, state: LineState) -> None:
        """Change the state of a resident block (snoop update).

        Raises:
            KeyError: if the block is not resident.
        """
        cache_set = self.line_sets[block & self.set_mask]
        if block not in cache_set:
            raise KeyError(f"block {block:#x} is not resident")
        if state is LineState.INVALID:
            del cache_set[block]
        else:
            cache_set[block] = state

    def insert(
        self, block: int, state: LineState
    ) -> tuple[int, LineState] | None:
        """Insert ``block`` in ``state``, evicting the LRU line if full.

        Returns:
            The evicted ``(block, state)`` pair, or None if no eviction
            was needed.  Re-inserting a resident block just updates its
            state and LRU position.
        """
        if state is LineState.INVALID:
            raise ValueError("cannot insert a line in INVALID state")
        cache_set = self.line_sets[block & self.set_mask]
        if block in cache_set:
            del cache_set[block]
            cache_set[block] = state
            return None
        victim = None
        if len(cache_set) >= self.geometry.associativity:
            victim_block = next(iter(cache_set))
            victim = (victim_block, cache_set.pop(victim_block))
        cache_set[block] = state
        return victim

    def invalidate(self, block: int) -> LineState:
        """Remove ``block``; returns its prior state (INVALID if absent)."""
        cache_set = self.line_sets[block & self.set_mask]
        return cache_set.pop(block, LineState.INVALID)

    def resident_blocks(self) -> Iterator[tuple[int, LineState]]:
        """All resident ``(block, state)`` pairs (test/debug view)."""
        for cache_set in self.line_sets:
            yield from cache_set.items()

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(cache_set) for cache_set in self.line_sets)

    def __contains__(self, block: int) -> bool:
        return block in self.line_sets[block & self.set_mask]
