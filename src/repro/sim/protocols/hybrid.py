"""Extension: hybrid update/invalidate snoopy protocols.

The paper evaluates the two pure snooping disciplines — Dragon updates
every remote copy on every store, WTI kills every remote copy on the
first store — but never the space between them.  The hybrid family
(after "Hybrid Update/Invalidate Schemes for Cache Coherence
Protocols", arXiv:1502.00101) adapts per line: a store *updates* remote
copies like Dragon until a copy has absorbed ``k`` broadcasts without
its own processor touching the line, at which point the copy is
*invalidated* like WTI — the line has revealed itself as write-mostly
from that cache's point of view, so further updates would be wasted bus
work and stolen cycles.

Mechanically the family is Dragon plus one counter per resident remote
copy ("pressure"): how many write broadcasts the copy has received
since the local processor last proved it still wants the line.

* ``hybrid-2`` / ``hybrid-4``  (``resets_on_use=True``): any local
  access to the line resets its pressure; a copy dies only after ``k``
  *consecutive* remote writes with no local use in between.  ``k`` is
  the paper's write-run-length threshold.
* ``hybrid-limit``  (``resets_on_use=False``): pressure counts every
  broadcast absorbed since the fill, local uses notwithstanding — the
  competitive variant bounding total update spend per caching of a
  line to ``k - 1`` broadcasts.

As in WTI, the broadcast that invalidates needs no extra bus
transaction (the write on the bus *is* the signal), so a store with any
remote holders always costs exactly one ``WRITE_BROADCAST``; only the
surviving (updated) holders lose a stolen cycle.  At ``k = 1`` the
reset variant degenerates to WTI's residency behaviour (every store
kills every remote copy) and as ``k → ∞`` every variant degenerates to
Dragon exactly — both limits are property-tested.

States, misses, evictions, and the measurement counters behind
``oclean``/``opres``/``nshd`` are Dragon's; invalidation adds the
re-fetch misses the analytical models in
:mod:`repro.core.snoopy_variants` account for.

Unlike the stateless protocols, a hybrid carries transition-relevant
state outside the caches (the pressure counters), exposed to the
exhaustive explorer through :meth:`Protocol.snapshot` /
:meth:`Protocol.restore`.  Pressure values are bounded by ``k - 1``
(a counter reaching ``k`` dies with its copy), so the explorer's state
space stays finite and closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operations import Operation
from repro.sim.cache import LineState
from repro.sim.protocols.dragon import _MISS_OPERATION
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome, Protocol
from repro.trace.records import AccessType

__all__ = [
    "Hybrid2Protocol",
    "Hybrid4Protocol",
    "HybridLimitProtocol",
    "HybridProtocol",
    "HybridStats",
]


@dataclass
class HybridStats:
    """Dragon's sharing counters plus the update/invalidate split.

    Attributes:
        shared_misses: misses to blocks in the shared region.
        shared_misses_dirty_elsewhere: of those, how many found the
            block dirty in another cache (``1 - oclean``).
        shared_write_hits: stores that hit a shared-region block.
        shared_write_hits_present_elsewhere: of those, how many found
            the block in another cache (``opres``).
        broadcasts: write-broadcast transactions issued.
        broadcast_holders: total holder caches snooping a broadcast
            (``nshd`` is the mean per broadcast).
        updates: holder copies updated in place (pressure below ``k``).
        invalidations: holder copies killed (pressure reached ``k``).
    """

    shared_misses: int = 0
    shared_misses_dirty_elsewhere: int = 0
    shared_write_hits: int = 0
    shared_write_hits_present_elsewhere: int = 0
    broadcasts: int = 0
    broadcast_holders: int = 0
    updates: int = 0
    invalidations: int = 0

    @property
    def oclean(self) -> float:
        """P(block not dirty elsewhere | shared miss); 1.0 if no misses."""
        if self.shared_misses == 0:
            return 1.0
        return 1.0 - self.shared_misses_dirty_elsewhere / self.shared_misses

    @property
    def opres(self) -> float:
        """P(present elsewhere | shared write hit); 0.0 if no writes."""
        if self.shared_write_hits == 0:
            return 0.0
        return (
            self.shared_write_hits_present_elsewhere / self.shared_write_hits
        )

    @property
    def nshd(self) -> float:
        """Mean holder caches snooping per broadcast; 1.0 if none."""
        if self.broadcasts == 0:
            return 1.0
        return self.broadcast_holders / self.broadcasts

    @property
    def invalidation_fraction(self) -> float:
        """Fraction of snooped broadcasts that killed the copy."""
        if self.broadcast_holders == 0:
            return 0.0
        return self.invalidations / self.broadcast_holders


class HybridProtocol(Protocol):
    """Dragon with per-copy update pressure and a kill threshold.

    Subclasses pin ``name``, ``k``, and ``resets_on_use``; the engine
    itself is shared.  Pressure is a dict ``(cpu, block) -> count``
    holding only resident copies with count >= 1, so an empty dict is
    the canonical "no history" state and snapshots stay small.
    """

    #: Broadcasts a copy may absorb before the next one kills it.
    k: int = 4
    #: Whether a local access resets the copy's pressure to zero.
    resets_on_use: bool = True

    remote_traffic_preserves_residency = False
    # Pressure only builds on copies a remote store reaches, so a
    # block no other CPU references never carries any.
    private_blocks_are_local = True
    private_store_hit_is_local = True
    may_steal_cycles = True

    def __init__(self, caches, is_shared_block):
        super().__init__(caches, is_shared_block)
        self.stats = HybridStats()
        self._pressure: dict[tuple[int, int], int] = {}

    # -- explorer state hooks ------------------------------------------

    def snapshot(self):
        return tuple(sorted(self._pressure.items()))

    def restore(self, snapshot) -> None:
        self._pressure = dict(snapshot)

    # -- the engine ----------------------------------------------------

    def access(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        state = cache.lookup(block)
        if state is not LineState.INVALID:
            if kind is not AccessType.STORE:
                if self.resets_on_use:
                    self._pressure.pop((cpu, block), None)
                return NO_ACTION
            return self._write_hit(cpu, block, state)
        return self._miss(cpu, kind, block)

    def _write_hit(
        self, cpu: int, block: int, state: LineState
    ) -> AccessOutcome:
        cache = self.caches[cpu]
        if self.resets_on_use:
            self._pressure.pop((cpu, block), None)
        if state is LineState.DIRTY or state is LineState.CLEAN:
            # Exclusive states are provably sole copies (any remote
            # fill would have demoted this line when snooped), so the
            # holder scan is skipped — same fast path as Dragon.
            if self.is_shared_block(block):
                self.stats.shared_write_hits += 1
            if state is not LineState.DIRTY:
                cache.set_state(block, LineState.DIRTY)
            return NO_ACTION
        holders = self.holders(block, excluding=cpu)
        if self.is_shared_block(block):
            self.stats.shared_write_hits += 1
            if holders:
                self.stats.shared_write_hits_present_elsewhere += 1
        if not holders:
            # Sole copy: a shared-state line with no actual other
            # holders silently collapses to DIRTY, like Dragon.
            if state is not LineState.DIRTY:
                cache.set_state(block, LineState.DIRTY)
            return NO_ACTION
        return self._broadcast(cpu, block, holders)

    def _broadcast(
        self, cpu: int, block: int, holders: list[int]
    ) -> AccessOutcome:
        """One bus write; each holder updates or dies by its pressure."""
        self.stats.broadcasts += 1
        self.stats.broadcast_holders += len(holders)
        survivors = []
        for holder in holders:
            key = (holder, block)
            count = self._pressure.get(key, 0) + 1
            if count >= self.k:
                self.caches[holder].invalidate(block)
                self._pressure.pop(key, None)
                self.stats.invalidations += 1
            else:
                self.caches[holder].set_state(block, LineState.SHARED_CLEAN)
                self._pressure[key] = count
                self.stats.updates += 1
                survivors.append(holder)
        self.caches[cpu].set_state(
            block,
            LineState.SHARED_DIRTY if survivors else LineState.DIRTY,
        )
        return AccessOutcome(
            (Operation.WRITE_BROADCAST,), steal_from=tuple(survivors)
        )

    def _miss(self, cpu: int, kind: AccessType, block: int) -> AccessOutcome:
        cache = self.caches[cpu]
        holders = self.holders(block, excluding=cpu)
        owner = self._owner(block, holders)
        if self.is_shared_block(block):
            self.stats.shared_misses += 1
            if owner is not None:
                self.stats.shared_misses_dirty_elsewhere += 1

        if holders:
            supplied_from_cache = owner is not None
            fill_state = LineState.SHARED_CLEAN
            for holder in holders:
                holder_cache = self.caches[holder]
                holder_state = holder_cache.peek(block)
                if holder_state is LineState.CLEAN:
                    holder_cache.set_state(block, LineState.SHARED_CLEAN)
                elif holder_state is LineState.DIRTY:
                    holder_cache.set_state(block, LineState.SHARED_DIRTY)
        else:
            supplied_from_cache = False
            fill_state = LineState.CLEAN

        victim = cache.insert(block, fill_state)
        if victim is not None:
            self._pressure.pop((cpu, victim[0]), None)
        # A fresh fill starts with zero pressure (the entry cannot
        # survive the copy's own eviction/invalidation, but keep the
        # invariant locally enforced).
        self._pressure.pop((cpu, block), None)
        dirty_victim = victim is not None and victim[1].is_dirty
        operations = [_MISS_OPERATION[supplied_from_cache, dirty_victim]]

        if kind is AccessType.STORE:
            if holders:
                follow_up = self._broadcast(cpu, block, holders)
                operations.extend(follow_up.operations)
                return AccessOutcome(
                    tuple(operations), steal_from=follow_up.steal_from
                )
            cache.set_state(block, LineState.DIRTY)
        return AccessOutcome(tuple(operations))

    def _owner(self, block: int, holders: list[int]) -> int | None:
        """The cache holding ``block`` dirty, if any."""
        for holder in holders:
            if self.caches[holder].peek(block).is_owner:
                return holder
        return None


class Hybrid2Protocol(HybridProtocol):
    """Kill a copy on the 2nd consecutive unread remote write."""

    name = "hybrid-2"
    k = 2
    resets_on_use = True
    # Local reads reset pressure, so read hits are protocol-visible.
    read_hit_is_free = False


class Hybrid4Protocol(HybridProtocol):
    """Kill a copy on the 4th consecutive unread remote write."""

    name = "hybrid-4"
    k = 4
    resets_on_use = True
    read_hit_is_free = False


class HybridLimitProtocol(HybridProtocol):
    """Competitive variant: at most ``k - 1`` updates per caching.

    Pressure never resets — each fill of a line buys a fixed budget of
    absorbed broadcasts, bounding the total update spend regardless of
    the local reference pattern.  Read hits touch nothing, so the
    columnar fast path stays available.
    """

    name = "hybrid-limit"
    k = 3
    resets_on_use = False
    read_hit_is_free = True
