"""Extension: write-through-invalidate snoopy protocol.

Simulator counterpart of
:mod:`repro.core.snoopy_variants`.  Every store posts a write-through
on the bus; snooping caches invalidate their copy of the written block
(the write itself is the invalidation signal — no extra bus traffic).
Caches are write-through, so no line is ever dirty and every miss is
clean.

Store misses write-allocate: the block is fetched (clean miss) and the
store still goes through to memory, matching the analytical model's
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operations import Operation
from repro.sim.cache import LineState
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome, Protocol
from repro.trace.records import AccessType

__all__ = ["WriteThroughInvalidateProtocol", "WtiStats"]

_CLEAN_MISS = AccessOutcome((Operation.CLEAN_MISS_MEMORY,))
_WRITE_THROUGH = AccessOutcome((Operation.WRITE_THROUGH,))
_MISS_AND_WRITE = AccessOutcome(
    (Operation.CLEAN_MISS_MEMORY, Operation.WRITE_THROUGH)
)


@dataclass
class WtiStats:
    """Invalidation side-effects of the write-through traffic."""

    invalidations: int = 0


class WriteThroughInvalidateProtocol(Protocol):
    """The earliest snoopy design: write through, invalidate on write."""

    name = "wti"
    read_hit_is_free = True
    private_blocks_are_local = True

    def __init__(self, caches, is_shared_block):
        super().__init__(caches, is_shared_block)
        self.stats = WtiStats()

    def access(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        state = cache.lookup(block)
        if kind is not AccessType.STORE:
            if state is not LineState.INVALID:
                return NO_ACTION
            cache.insert(block, LineState.CLEAN)
            return _CLEAN_MISS

        # Stores: the bus write invalidates every remote copy.
        for holder in self.holders(block, excluding=cpu):
            self.caches[holder].invalidate(block)
            self.stats.invalidations += 1
        if state is not LineState.INVALID:
            return _WRITE_THROUGH
        cache.insert(block, LineState.CLEAN)
        return _MISS_AND_WRITE
