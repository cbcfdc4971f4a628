"""Extension: write-invalidate full-map directory protocol.

Not one of the paper's simulated schemes; the counterpart of
:mod:`repro.core.directory` for the trace-driven simulator.  A full-map
directory at memory knows every holder of every block (in the
simulator, that knowledge is simply the other caches' state), so:

* a load miss is served by memory; if some cache holds the block
  dirty, that owner is downgraded to CLEAN (its data written back as
  part of the transfer) before memory supplies it;
* a store to a block with other holders sends one invalidation round
  that removes every other copy;
* stores therefore leave exactly one copy, in state DIRTY.

Invariant (property-tested): a block DIRTY in one cache is resident
nowhere else.

The protocol keeps counters for the invalidation traffic and the
coherence misses it causes, so update-versus-invalidate behaviour can
be compared against Dragon on identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operations import Operation
from repro.sim.cache import LineState
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome, Protocol
from repro.trace.records import AccessType

__all__ = ["DirectoryProtocol", "DirectoryStats"]

_CLEAN_MISS = AccessOutcome((Operation.CLEAN_MISS_MEMORY,))
_DIRTY_MISS = AccessOutcome((Operation.DIRTY_MISS_MEMORY,))
_INVALIDATE = AccessOutcome((Operation.INVALIDATE,))


@dataclass
class DirectoryStats:
    """Counters for invalidation traffic and its consequences.

    Attributes:
        invalidation_rounds: directory invalidation transactions sent.
        copies_invalidated: total cache lines killed by them.
        coherence_misses: misses to blocks this protocol previously
            invalidated out of the missing cache (re-fetch cost of
            invalidation, the analogue of Software-Flush's re-fetch).
    """

    invalidation_rounds: int = 0
    copies_invalidated: int = 0
    coherence_misses: int = 0

    @property
    def copies_per_round(self) -> float:
        """Mean copies killed per invalidation round (0 if none)."""
        if self.invalidation_rounds == 0:
            return 0.0
        return self.copies_invalidated / self.invalidation_rounds


class DirectoryProtocol(Protocol):
    """Full-map write-invalidate directory coherence (extension)."""

    name = "directory"
    read_hit_is_free = True
    private_blocks_are_local = True
    private_store_hit_is_local = True

    def __init__(self, caches, is_shared_block):
        super().__init__(caches, is_shared_block)
        self.stats = DirectoryStats()
        # (cpu, block) pairs whose copy was killed by an invalidation,
        # to attribute later misses to coherence.
        self._invalidated: set[tuple[int, int]] = set()

    def access(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        state = cache.lookup(block)
        if state is not LineState.INVALID:
            if kind is not AccessType.STORE:
                return NO_ACTION
            return self._write_hit(cpu, block, state)
        return self._miss(cpu, kind, block)

    def _write_hit(
        self, cpu: int, block: int, state: LineState
    ) -> AccessOutcome:
        holders = self.holders(block, excluding=cpu)
        if not holders:
            if state is not LineState.DIRTY:
                self.caches[cpu].set_state(block, LineState.DIRTY)
            return NO_ACTION
        self._invalidate(cpu, block, holders)
        self.caches[cpu].set_state(block, LineState.DIRTY)
        return _INVALIDATE

    def _invalidate(self, cpu: int, block: int, holders: list[int]) -> None:
        self.stats.invalidation_rounds += 1
        for holder in holders:
            # A dirty victim of an invalidation is written back as part
            # of the round (its cost is folded into the INVALIDATE
            # operation, as in the analytical model).
            self.caches[holder].invalidate(block)
            self.stats.copies_invalidated += 1
            self._invalidated.add((holder, block))

    def _miss(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        if (cpu, block) in self._invalidated:
            self._invalidated.remove((cpu, block))
            self.stats.coherence_misses += 1
        holders = self.holders(block, excluding=cpu)
        owner = next(
            (
                holder
                for holder in holders
                if self.caches[holder].peek(block).is_owner
            ),
            None,
        )
        if owner is not None:
            # Owner writes back; its copy survives as CLEAN (a shared
            # read copy) and memory supplies the requester.
            self.caches[owner].set_state(block, LineState.CLEAN)

        if kind is AccessType.STORE:
            if holders:
                self._invalidate(cpu, block, holders)
            fill_state = LineState.DIRTY
            extra = (Operation.INVALIDATE,) if holders else ()
        else:
            fill_state = LineState.CLEAN
            extra = ()

        victim = cache.insert(block, fill_state)
        miss = (
            Operation.DIRTY_MISS_MEMORY
            if victim is not None and victim[1].is_dirty
            else Operation.CLEAN_MISS_MEMORY
        )
        return AccessOutcome((miss,) + extra)
