"""The protocol interface shared by all coherence engines."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple, Sequence

from repro.core.operations import Operation
from repro.sim.cache import Cache
from repro.trace.records import AccessType

__all__ = ["AccessOutcome", "Protocol"]


class AccessOutcome(NamedTuple):
    """What one memory reference triggered.

    Attributes:
        operations: hardware operations charged to the issuing
            processor, in order (each may occupy the bus).
        steal_from: CPUs that lose one cycle to a snoop update
            (Dragon write-broadcast recipients).
    """

    operations: tuple[Operation, ...]
    steal_from: tuple[int, ...] = ()


#: Shared instance for the common case: a cache hit with no bus work.
NO_ACTION = AccessOutcome(())


class Protocol(ABC):
    """A coherence engine operating over all processors' caches.

    Subclasses implement :meth:`access` (loads, stores, instruction
    fetches) and optionally :meth:`flush`.  They mutate cache state
    and return the triggered operations; all timing is the machine's
    job.

    Args:
        caches: one :class:`~repro.sim.cache.Cache` per processor.
        is_shared_block: predicate on *block numbers* marking the
            shared-data region (used by software schemes and by the
            measurement counters).
    """

    #: Canonical protocol name (registry key).
    name: str = "abstract"

    #: Whether FLUSH trace records are meaningful to this protocol.
    #: Protocols that don't handle flushes skip those records for free,
    #: as if the program had been compiled without them.
    handles_flush: bool = False

    #: Fast-path contract for the machine's columnar replay engine.
    #: True asserts that for a *resident* block, a non-STORE access is
    #: exactly a ``Cache.lookup`` LRU touch returning :data:`NO_ACTION`
    #: — no state change, no operations, no per-access counters.  The
    #: engine then handles such references inline without calling
    #: :meth:`access`.  Every bundled protocol satisfies this (verified
    #: by the columnar-vs-legacy equivalence tests); a protocol that
    #: charges work on read hits must leave it False so the engine
    #: calls :meth:`access` for every reference.
    read_hit_is_free: bool = False

    #: False asserts data references to shared blocks never touch the
    #: cache (they can't be resident), so the engine must route every
    #: shared load through :meth:`access` instead of probing.  Only the
    #: No-Cache scheme clears this.
    caches_shared_data: bool = True

    #: True asserts that no protocol action triggered by one CPU ever
    #: *removes* a line from another CPU's cache (state changes and
    #: word updates are fine; invalidations are not).  Together with
    #: :attr:`read_hit_is_free` this lets the columnar engine prove
    #: some fetches are hits statically — a fetch to the same block as
    #: the immediately preceding reference of the same CPU must hit,
    #: because nothing between the two can evict the line — and batch
    #: them as pure clock advances.  True for Base, Dragon (write
    #: broadcasts update in place), No-Cache, and Software-Flush
    #: (flushes are local); False for the invalidation protocols
    #: (WTI, directory) and the hybrids.  Those still preserve the
    #: residency of *single-owner* blocks, see
    #: :attr:`private_blocks_are_local`.
    remote_traffic_preserves_residency: bool = False

    #: Per-block form of :attr:`remote_traffic_preserves_residency`
    #: and :attr:`read_hit_is_free`, for blocks that only one CPU
    #: references in the whole trace ("single-owner" blocks).  True
    #: asserts two things.  An access or flush by one CPU to block
    #: ``b`` changes other caches only on their lines of ``b``: it
    #: never inserts a line there and never reorders a set, so remote
    #: traffic never touches a single-owner block.  And a non-STORE
    #: hit on a block no other CPU references returns
    #: :data:`NO_ACTION` and changes no counter and no
    #: :meth:`snapshot` state.  ("No other CPU references", not "no
    #: other cache holds": a reset-on-use hybrid copy keeps its
    #: pressure after the writer evicts the block, and a read hit
    #: then clears it.)  The columnar engine then proves hits on
    #: single-owner blocks statically even for invalidating
    #: protocols.  True for WTI, directory and the hybrids.  It must
    #: default to False: the oracle shadow relies on "every flag
    #: False => every record calls :meth:`access`".
    private_blocks_are_local: bool = False

    #: True asserts a store that hits a resident block does nothing
    #: but set that line's state to DIRTY (with the usual LRU touch)
    #: and return :data:`NO_ACTION` — no bus work, no counters, no
    #: effect on other caches.  The columnar engine then applies
    #: statically-proven store hits inline.  True for Base,
    #: Software-Flush, and No-Cache (whose uncached shared stores are
    #: never "hits"); False for the snooping protocols, whose store
    #: hits may broadcast or invalidate.
    store_hit_is_local: bool = False

    #: Weaker form of :attr:`store_hit_is_local`: it holds provided
    #: the block is outside the shared region AND no other CPU ever
    #: references it in the whole trace (so the line is provably in an
    #: exclusive state and no snoop interaction can trigger).  Dragon
    #: and the hybrids satisfy this — an exclusive-state write hit
    #: just dirties the line — even though a store hit on a shared
    #: line broadcasts; so does the directory, whose write hit with
    #: no other holders just dirties the line.
    private_store_hit_is_local: bool = False

    #: True if any access can return a non-empty ``steal_from`` (snoop
    #: updates stealing processor cycles).  Steals mutate a victim's
    #: clock while its time-merge key stays frozen, and the legacy
    #: engine folds a mid-run steal into the victim's key at its next
    #: per-record re-push — so the columnar engine may batch-consume
    #: runs of proven hits between merge-order checks only when this
    #: is False, and must otherwise step records singly.
    may_steal_cycles: bool = False

    def __init__(
        self,
        caches: Sequence[Cache],
        is_shared_block: Callable[[int], bool],
    ):
        self.caches = list(caches)
        self.is_shared_block = is_shared_block

    @abstractmethod
    def access(
        self, cpu: int, kind: AccessType, block: int
    ) -> AccessOutcome:
        """Handle a load, store, or instruction fetch.

        Args:
            cpu: issuing processor index.
            kind: LOAD, STORE, or INST_FETCH (never FLUSH).
            block: referenced block number.

        Returns:
            The triggered hardware operations.
        """

    def flush(self, cpu: int, block: int) -> AccessOutcome:
        """Handle an explicit FLUSH instruction.

        The default ignores it (protocols without flush support).
        """
        del cpu, block
        return NO_ACTION

    def snapshot(self):
        """Transition-relevant protocol state *beyond* the caches.

        The exhaustive explorer reconstructs machine states from
        ``(cache contents, oracle version model)``; a protocol whose
        future behaviour depends on anything else (e.g. the hybrid
        family's per-copy pressure counters) must expose that state
        here as a hashable canonical value and accept it back in
        :meth:`restore`.  ``None`` (the default) declares the protocol
        stateless: a fresh instance over reconstructed caches resumes
        any state exactly.  Statistics counters are *not* transition
        state and must not be included.
        """
        return None

    def restore(self, snapshot) -> None:
        """Adopt a state previously returned by :meth:`snapshot`."""
        del snapshot

    def holders(self, block: int, excluding: int) -> list[int]:
        """CPUs other than ``excluding`` whose cache holds ``block``.

        Hot path for the snooping protocols (called on every store and
        miss), so the residency probe is inlined rather than going
        through :meth:`Cache.peek`: caches never store INVALID, so a
        non-empty ``get`` means resident.
        """
        found = []
        for cpu, cache in enumerate(self.caches):
            if cpu != excluding and cache.line_sets[
                block & cache.set_mask
            ].get(block):
                found.append(cpu)
        return found
