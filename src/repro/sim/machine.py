"""The multiprocessor machine: caches + bus + protocol + trace replay.

Timing model: each processor has a private clock.  An instruction
fetch costs one execution cycle; cache operations add the CPU cycles
of their :class:`~repro.core.operations.Operation` from the machine's
cost table.  Operations with bus time wait for the bus (adding
contention cycles) and then hold it for the operation's bus cycles.
Snoop updates steal one cycle from each holding processor.

References are replayed in trace order, so processor clocks can drift
relative to one another — the same approximation the paper's simulator
makes ("the order of references from different processors may be
slightly distorted"), which it verified to be benign.

Replay engines
--------------

``Machine.run`` has three engine labels.  Each fast engine is held
``==`` (every counter and float clock) to one reference loop:

* ``engine="columnar"`` (default) consumes the trace's numpy columns
  directly: block indices and shared-block flags are vectorised up
  front, per-operation costs live in a single pre-folded dict of
  ``(cpu_cycles, bus_cycles, is_miss, is_dirty_victim, counter)``
  tuples, per-CPU counters are plain local lists, and — for protocols
  declaring ``read_hit_is_free`` — the dominant case (a resident
  instruction fetch or unshared load) is handled inline as a two-probe
  LRU touch with no per-record tuple allocation and no protocol call.
  A vectorised static analysis additionally *proves* most references
  hit before replay begins (same-block runs, re-references within the
  window the associativity guarantees): every reference under the
  protocols whose remote traffic never evicts (base, nocache,
  swflush, dragon), and references to *single-owner* blocks, which
  only one CPU ever touches, under the invalidating ones (wti,
  directory, the hybrids).  Time-ordered replay then becomes an
  *event-driven* merge: only the records that can interact across
  processors (potential misses, stores, handled flushes) are scheduled
  in exact legacy heap order, while the proven hits between them are
  applied as whole spans via prefix-summed clock advances and deferred
  LRU touches.  With an fcfs arbitration overhead the result is
  labelled ``columnar+arb``.  Reference: ``engine="legacy"``
  (``tests/sim/test_equivalence.py``).
* ``engine="arbitrated"`` replays through the deferred-grant
  :class:`~repro.sim.bus.ArbitratedBus`, so a non-``fcfs`` discipline
  can reorder grants; every non-``fcfs`` configuration runs it.  It is
  the same columnar machinery (inline hits, proven-hit spans) driven
  by bursts: a processor runs until its key passes the runner-up's or
  the next arbitration instant, or it parks on a bus request
  (:func:`repro.sim.arbitrated.run_arbitrated`).  Reference: the
  generator-driven deferred-grant loop
  (:func:`repro.sim.arbitrated.run_deferred_reference`), which
  ``engine="legacy"`` runs under a non-``fcfs`` discipline
  (``tests/sim/test_arbitration.py``, ``swcc fuzz``).
* ``engine="legacy"`` is the original straightforward record loop
  under ``fcfs`` — the executable specification of the replay
  semantics — and the generator-driven deferred-grant loop under any
  other discipline.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.core.operations import CostTable, Operation
from repro.obs.metrics import note_replay
from repro.sim.bus import (
    ArbitratedBus,
    TimedBus,
    checked_utilization,
    validate_arbitration_cycles,
    validate_discipline,
)
from repro.sim.cache import Cache, CacheGeometry, LineState
from repro.sim.protocols import Protocol, protocol_class
from repro.sim.protocols.interface import NO_ACTION
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import KIND_MEMBERS, AccessType, Trace

__all__ = ["CpuStats", "Machine", "SimulationConfig", "SimulationResult"]

_MISS_OPERATIONS = frozenset(
    {
        Operation.CLEAN_MISS_MEMORY,
        Operation.DIRTY_MISS_MEMORY,
        Operation.CLEAN_MISS_CACHE,
        Operation.DIRTY_MISS_CACHE,
    }
)
_DIRTY_VICTIM_OPERATIONS = frozenset(
    {Operation.DIRTY_MISS_MEMORY, Operation.DIRTY_MISS_CACHE}
)


def _op_info(costs: CostTable) -> dict:
    """Per-operation info, folded into one dict probe per operation:
    ``(cpu_cycles, bus_cycles, is_miss, is_dirty_victim, counter)``.
    The counter is a one-element list mutated in place."""
    return {
        op: (
            cost.cpu_cycles,
            cost.channel_cycles,
            op in _MISS_OPERATIONS,
            op in _DIRTY_VICTIM_OPERATIONS,
            [0],
        )
        for op, cost in costs.items()
    }


class _ProvenHits(NamedTuple):
    """Statically-proven hits, as disjoint masks over the records in
    per-CPU stream order (``derived.order``).

    Attributes:
        guaranteed: pure hits: a fetch costs one cycle, a load is
            free, no cache touch (batchable).
        local_store: store hits: dirty the line, MRU touch.
        near_fetch: fetch hits: one cycle plus an MRU touch.
        near_load: load hits: MRU touch only.
    """

    guaranteed: np.ndarray
    local_store: np.ndarray
    near_fetch: np.ndarray
    near_load: np.ndarray


def _proven_hits(
    protocol: Protocol,
    derived: DerivedColumns,
    op_info: dict,
    arbitration_cycles: float,
    set_mask: int,
    associativity: int,
) -> _ProvenHits | None:
    """Classify the records that must hit, before replay begins.

    Shared by the columnar engine and the arbitrated engine.  Returns
    ``None`` when the protocol's contract flags or non-integral costs
    rule the classification out.  The classes are properties of each
    CPU's own stream, so they hold under every replay order and every
    bus discipline.

    Statically-proven fetch hits ("guaranteed hits"): a fetch to the
    same block as the immediately preceding reference of the same CPU
    must hit, provided that reference left the block resident (it was
    not a flush, nor an uncached shared data reference under
    No-Cache) and no other CPU's traffic can evict the line.  Such a
    fetch is exactly ``clock += 1.0``: the predecessor touched the
    block last and snoop state updates never reorder a set, so it is
    already most-recently-used and even the LRU touch is a no-op.
    Sequential instruction fetches make these the majority of all
    records.  Batching is gated on integral operation costs so clocks
    stay exact-integer floats and a batched ``clock += k`` is
    bit-identical to ``k`` single-cycle advances.

    Which records may be proven is a per-record mask.  A protocol
    that is ``read_hit_is_free`` and
    ``remote_traffic_preserves_residency`` allows every record: no
    remote traffic evicts anything.  A ``private_blocks_are_local``
    protocol allows only records whose block is single-owner
    (:attr:`~repro.trace.derived.DerivedColumns.single_owner_sorted`):
    remote traffic touches only lines of the block it names, never
    one of those, and a read hit on one is free.  Invalidations of
    *other* blocks in the same set only free ways, so the window
    proofs below still hold.
    """
    total = len(derived.order)
    n = len(derived.counts)
    if (
        protocol.read_hit_is_free
        and protocol.remote_traffic_preserves_residency
    ):
        allowed = None
    elif protocol.private_blocks_are_local:
        allowed = derived.single_owner_sorted
    else:
        return None
    if not (
        # Arbitration overhead lands on processor clocks via bus
        # grants; it must be integral too for batched clock
        # advances to stay bit-identical to single steps.
        float(arbitration_cycles).is_integer()
        and all(
            float(info[0]).is_integer() and float(info[1]).is_integer()
            for info in op_info.values()
        )
    ):
        return None
    handles_flush = protocol.handles_flush
    kinds_sorted_np = derived.kinds_sorted
    blocks_sorted_np = derived.blocks_sorted
    cpus_sorted_np = derived.cpus_sorted
    sets_sorted_np = (blocks_sorted_np & np.uint64(set_mask)).astype(
        np.int64
    )
    is_fetch = derived.is_fetch_sorted
    # Records eligible to be proven pure hits ("class A"):
    # fetches (a hit costs exactly the one instruction cycle)
    # and loads (a hit is free) — under No-Cache not shared
    # loads (uncached).
    eligible_a = is_fetch | (kinds_sorted_np == 1)
    # Which records touch their cache set at all, and which
    # leave their block resident (and MRU of its set):
    # everything except flushes — and, under No-Cache, except
    # uncached shared data references, which are transparent.
    touches = np.ones(total, dtype=bool)
    shared_sorted_np = None
    if not protocol.caches_shared_data:
        shared_sorted_np = derived.shared_sorted
        uncached = (kinds_sorted_np != 0) & shared_sorted_np
        touches &= ~uncached
        eligible_a &= ~(uncached & (kinds_sorted_np == 1))
    if handles_flush:
        leaves_resident = touches & (kinds_sorted_np != 3)
    else:
        # Unhandled flushes are complete no-ops: transparent.
        touches &= kinds_sorted_np != 3
        leaves_resident = touches
    # Stores eligible to be proven *local* hits ("class B"):
    # when the protocol declares a store hit purely local, a
    # statically-proven store hit reduces to dirtying the line
    # with an MRU touch — no protocol call, no bus, no clock.
    if protocol.store_hit_is_local:
        eligible_b = (kinds_sorted_np == 2) & touches
    elif protocol.private_store_hit_is_local:
        # Restricted form (Dragon, the hybrids, directory): only
        # stores to single-owner blocks outside the shared region —
        # the line is then provably in an exclusive state, so the
        # hit cannot broadcast or invalidate and touches no sharing
        # counters.
        if shared_sorted_np is None:
            shared_sorted_np = derived.shared_sorted
        eligible_b = (
            (kinds_sorted_np == 2)
            & ~shared_sorted_np
            & derived.single_owner_sorted
        )
    else:
        eligible_b = np.zeros(total, dtype=bool)
    if allowed is not None:
        eligible_a &= allowed
        eligible_b &= allowed
    eligible = eligible_a | eligible_b
    # Group records by (cpu, set): eviction is strictly
    # per-set and remote traffic cannot evict, so each set's
    # contents evolve deterministically from its own group's
    # records alone.  Non-touching records get unique keys so
    # they are transparent; the stable sort keeps per-stream
    # program order within each group.
    sets_count = set_mask + 1
    group_key = cpus_sorted_np.astype(np.int64) * sets_count
    group_key += sets_sorted_np
    untouched = ~touches
    group_key[untouched] = n * sets_count + np.flatnonzero(untouched)
    key_order = np.argsort(group_key, kind="stable")
    keys_grouped = group_key[key_order]
    blocks_grouped = blocks_sorted_np[key_order]
    leaves_grouped = leaves_resident[key_order]
    same_group = np.zeros(total, dtype=bool)
    same_group[1:] = keys_grouped[1:] == keys_grouped[:-1]
    # Same-block rule: a reference whose group predecessor (the
    # most recent same-set touch of the same stream) was to the
    # same block and left it resident must hit, and the block
    # is already most-recently-used in its set (the
    # predecessor touched it last; state updates assign in
    # place and never reorder a set), so even the LRU touch is
    # a no-op.  Valid for any associativity.
    prev_same_block = np.zeros(total, dtype=bool)
    prev_same_block[1:] = same_group[1:] & (
        blocks_grouped[1:] == blocks_grouped[:-1]
    )
    prev_leaves = np.zeros(total, dtype=bool)
    prev_leaves[1:] = leaves_grouped[:-1]
    provable_grouped = prev_same_block & prev_leaves
    # Previous-run rule (associativity >= 2 only): compress
    # each group into runs of equal blocks.  A reference whose
    # block matches the *previous* run in its group also hits:
    # at the end of that run its block X was resident and MRU,
    # and the single intervening run's block Y can evict only
    # the LRU way — never X (a mid-run flush of Y frees a way,
    # so re-inserting Y still cannot evict X).  X is no longer
    # MRU, so these hits keep the LRU touch (pop + reinsert)
    # instead of skipping it.  Direct-mapped caches lose X the
    # moment Y is inserted, hence the associativity gate.
    if associativity >= 2:
        new_run = ~prev_same_block
        run_id = np.cumsum(new_run) - 1
        run_starts = np.flatnonzero(new_run)
        run_block = blocks_grouped[run_starts]
        run_group = keys_grouped[run_starts]
        run_last = np.empty(len(run_starts), dtype=np.int64)
        run_last[:-1] = run_starts[1:] - 1
        run_last[-1] = total - 1
        run_last_leaves = leaves_grouped[run_last]
        prev_run_ok = np.zeros(len(run_starts), dtype=bool)
        prev_run_ok[1:] = (
            (run_group[1:] == run_group[:-1]) & run_last_leaves[:-1]
        )
        prev_run_block = np.zeros_like(run_block)
        prev_run_block[1:] = run_block[:-1]
        near_grouped = prev_run_ok[run_id] & (
            blocks_grouped == prev_run_block[run_id]
        )
        near = np.zeros(total, dtype=bool)
        near[key_order] = near_grouped
        near &= eligible
    else:
        near = np.zeros(total, dtype=bool)
    provable = np.zeros(total, dtype=bool)
    provable[key_order] = provable_grouped
    provable &= eligible
    near &= ~provable
    # Final classes (all masks disjoint, in stream order):
    #   guaranteed   — pure hits: fetch costs one cycle, load
    #                  is free, no cache touch (batchable).
    #   local_store  — store hits: dirty the line, MRU touch.
    #   near_fetch   — fetch hits: one cycle plus MRU touch.
    #   near_load    — load hits: MRU touch only.
    guaranteed = provable & eligible_a
    local_store = (provable | near) & eligible_b
    near_fetch = near & is_fetch
    near_load = near & eligible_a & ~is_fetch
    return _ProvenHits(guaranteed, local_store, near_fetch, near_load)


class _EventStreams(NamedTuple):
    """Per-CPU record streams of an event-driven time-ordered replay.

    Only *event* records are scheduled one by one; the proven hits
    between two events form a span applied lazily (a fetch-count clock
    advance plus deferred MRU touches).  Without proven hits every
    record is an event.  One list per CPU, positions relative to that
    CPU's stream.

    Attributes:
        events: stream positions of the event records.
        kinds: kind code of each event record.
        blocks: block of each event record.
        prefix: fetch prefix sums over the stream (``count + 1``
            entries), or ``None`` when every record is an event.
        touches: deferred MRU touches of the proven hits,
            ``(position, code, block)``; code 4 dirties the line (a
            local store hit), 5 and 6 only touch it.  ``None`` when
            every record is an event.
        fetch_pos: stream positions of the fetches, which locate a
            cycle steal's frontier by fetch count; ``None`` unless the
            protocol may steal cycles and spans exist.
    """

    events: list
    kinds: list[list[int]]
    blocks: list[list[int]]
    prefix: list[list[int]] | None
    touches: list[list[tuple[int, int, int]]] | None
    fetch_pos: list[list[int]] | None


def _event_streams(
    derived: DerivedColumns, hits: _ProvenHits | None, protocol: Protocol
) -> _EventStreams:
    """Split the sorted columns into per-CPU event streams."""
    counts = derived.counts
    kinds_sorted_np = derived.kinds_sorted
    blocks_sorted_np = derived.blocks_sorted
    if hits is None:
        kinds_sorted = kinds_sorted_np.tolist()
        blocks_sorted = blocks_sorted_np.tolist()
        kinds, blocks = [], []
        offset = 0
        for count in counts:
            kinds.append(kinds_sorted[offset:offset + count])
            blocks.append(blocks_sorted[offset:offset + count])
            offset += count
        return _EventStreams(
            [range(count) for count in counts], kinds, blocks,
            None, None, None,
        )
    event_mask = ~(
        hits.guaranteed | hits.local_store | hits.near_fetch | hits.near_load
    )
    if not protocol.handles_flush:
        # Unhandled flushes are complete no-ops; leaving them out of
        # the event set lets the spans run through them.
        event_mask &= kinds_sorted_np != 3
    sent_codes = np.zeros(len(event_mask), dtype=np.int64)
    sent_codes[hits.local_store] = 4
    sent_codes[hits.near_fetch] = 5
    sent_codes[hits.near_load] = 6
    fetch_prefix_np = derived.fetch_prefix
    is_fetch = derived.is_fetch_sorted
    may_steal = protocol.may_steal_cycles
    streams = _EventStreams(
        [], [], [], [], [], [] if may_steal else None
    )
    offset = 0
    for count in counts:
        stop = offset + count
        idx = np.flatnonzero(event_mask[offset:stop])
        k_slice = kinds_sorted_np[offset:stop]
        b_slice = blocks_sorted_np[offset:stop]
        streams.events.append(idx.tolist())
        streams.kinds.append(k_slice[idx].tolist())
        streams.blocks.append(b_slice[idx].tolist())
        codes = sent_codes[offset:stop]
        sidx = np.flatnonzero(codes)
        streams.touches.append(
            list(
                zip(
                    sidx.tolist(),
                    codes[sidx].tolist(),
                    b_slice[sidx].tolist(),
                )
            )
        )
        prefix_slice = fetch_prefix_np[offset:stop + 1]
        streams.prefix.append((prefix_slice - prefix_slice[0]).tolist())
        if may_steal:
            streams.fetch_pos.append(
                np.flatnonzero(is_fetch[offset:stop]).tolist()
            )
        offset = stop
    return streams


def _write_back(
    result: SimulationResult,
    derived: DerivedColumns,
    clocks: list[float],
    waits: list[float],
    steals: list[int],
    op_info: dict,
    misses: tuple[int, int, int, int],
) -> None:
    """Write a columnar loop's accumulators into ``result``.

    ``misses`` is ``(fetch, data, shared data, dirty victim)``; the
    reference mix comes from the derived columns.
    """
    mix = derived.mix
    for index, cpu_stats in enumerate(result.cpus):
        cpu_stats.instructions = int(mix[index, 0])
        cpu_stats.loads = int(mix[index, 1])
        cpu_stats.stores = int(mix[index, 2])
        cpu_stats.flushes = int(mix[index, 3])
        cpu_stats.clock = clocks[index]
        cpu_stats.wait_cycles = waits[index]
        cpu_stats.stolen_cycles = steals[index]
    result.operation_counts = Counter(
        {op: info[4][0] for op, info in op_info.items() if info[4][0]}
    )
    (
        result.fetch_misses,
        result.data_misses,
        result.shared_data_misses,
        result.dirty_victim_misses,
    ) = misses
    result.shared_loads = derived.shared_loads
    result.shared_stores = derived.shared_stores


@dataclass(frozen=True)
class SimulationConfig:
    """Machine configuration for one simulation run.

    Attributes:
        cache_bytes: per-processor cache size (paper: 16K/64K/256K).
        block_bytes: cache block and bus transfer size (paper: 16).
        associativity: cache associativity.  Two-way by default: with
            the synthetic traces' separate code/data/shared regions, a
            direct-mapped cache suffers conflict misses well above the
            paper's observed miss-rate range, and the paper does not
            pin the traced machine's associativity.
        bus_discipline: bus arbitration discipline, one of
            :data:`repro.sim.bus.DISCIPLINES`.  ``fcfs`` (the default)
            reproduces the pre-discipline simulator; any other value
            routes ``Machine.run`` to the ``arbitrated`` engine (or,
            with ``engine="legacy"``, to its deferred-grant
            reference).
        bus_arbitration_cycles: fixed overhead per arbitration (per
            grant, or per grant window under ``batched``).
    """

    cache_bytes: int = 65536
    block_bytes: int = 16
    associativity: int = 2
    bus_discipline: str = "fcfs"
    bus_arbitration_cycles: float = 0.0

    def __post_init__(self) -> None:
        validate_discipline(self.bus_discipline)
        validate_arbitration_cycles(self.bus_arbitration_cycles)

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            size_bytes=self.cache_bytes,
            block_bytes=self.block_bytes,
            associativity=self.associativity,
        )


@dataclass
class CpuStats:
    """Per-processor counters accumulated during a run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    flushes: int = 0
    clock: float = 0.0
    wait_cycles: float = 0.0
    stolen_cycles: int = 0

    @property
    def utilization(self) -> float:
        """Productive fraction: one cycle per instruction over elapsed."""
        if self.clock == 0.0:
            return 0.0
        return self.instructions / self.clock


@dataclass
class SimulationResult:
    """Everything a run produced.

    The derived properties mirror the statistics the paper's simulator
    reports: miss rates, contention, utilisation, processing power.
    """

    protocol: str
    trace_name: str
    config: SimulationConfig
    cpus: list[CpuStats] = field(default_factory=list)
    operation_counts: Counter = field(default_factory=Counter)
    fetch_misses: int = 0
    data_misses: int = 0
    dirty_victim_misses: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    shared_data_misses: int = 0
    bus_busy_cycles: float = 0.0
    bus_transactions: int = 0
    bus_arbitration_cycles: float = 0.0
    protocol_stats: object | None = None
    # Run provenance (not statistics): which engine replayed the trace,
    # how many records it consumed, and the host wall time it took.
    # Excluded from ``repro.verify.differential.stats_signature`` so
    # engine-equivalence checks compare simulation outcomes only.
    engine: str = ""
    records_replayed: int = 0
    run_wall_s: float = 0.0

    # -- reference mix -----------------------------------------------------

    @property
    def instructions(self) -> int:
        return sum(cpu.instructions for cpu in self.cpus)

    @property
    def data_references(self) -> int:
        return sum(cpu.loads + cpu.stores for cpu in self.cpus)

    @property
    def shared_references(self) -> int:
        return self.shared_loads + self.shared_stores

    # -- miss rates ---------------------------------------------------------

    @property
    def total_misses(self) -> int:
        return self.fetch_misses + self.data_misses

    @property
    def instruction_miss_rate(self) -> float:
        """``mains``: instruction misses per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.fetch_misses / self.instructions

    @property
    def data_miss_rate(self) -> float:
        """``msdat``: data misses per data reference.

        For the No-Cache protocol shared references bypass the cache,
        so this is per *cachable* data reference.
        """
        cachable = self.data_references
        if self.protocol == "nocache":
            cachable -= self.shared_references
        if cachable <= 0:
            return 0.0
        return self.data_misses / cachable

    @property
    def dirty_victim_fraction(self) -> float:
        """``md``: fraction of misses replacing a dirty block."""
        if self.total_misses == 0:
            return 0.0
        return self.dirty_victim_misses / self.total_misses

    # -- time ---------------------------------------------------------------

    @property
    def elapsed_cycles(self) -> float:
        return max((cpu.clock for cpu in self.cpus), default=0.0)

    @property
    def wait_cycles(self) -> float:
        return sum(cpu.wait_cycles for cpu in self.cpus)

    @property
    def wait_cycles_per_instruction(self) -> float:
        """Measured counterpart of the model's ``w``."""
        if self.instructions == 0:
            return 0.0
        return self.wait_cycles / self.instructions

    @property
    def cycles_per_instruction(self) -> float:
        """Measured counterpart of the model's ``c + w`` (per CPU mean)."""
        if self.instructions == 0:
            return 0.0
        return sum(cpu.clock for cpu in self.cpus) / self.instructions

    @property
    def utilization(self) -> float:
        """Mean per-processor utilisation."""
        if not self.cpus:
            return 0.0
        return sum(cpu.utilization for cpu in self.cpus) / len(self.cpus)

    @property
    def processing_power(self) -> float:
        """Sum of per-processor utilisations (the paper's metric)."""
        return sum(cpu.utilization for cpu in self.cpus)

    @property
    def bus_utilization(self) -> float:
        """Fraction of elapsed cycles the bus was held for service.

        Raises:
            ValueError: if busy cycles exceed elapsed cycles beyond
                float epsilon — the bus cannot be held for longer than
                the run lasted, so a ratio above 1.0 means bus cycles
                were double-counted (previously clamped silently).
        """
        return checked_utilization(self.bus_busy_cycles, self.elapsed_cycles)


class Machine:
    """A simulated shared-bus multiprocessor.

    Args:
        protocol: protocol name (``base``, ``dragon``, ``nocache``,
            ``swflush``) or a :class:`Protocol` subclass.
        config: cache configuration.
        costs: operation cost table; defaults to the paper's Table 1.
    """

    def __init__(
        self,
        protocol: str | type[Protocol] = "base",
        config: SimulationConfig | None = None,
        costs: CostTable | None = None,
    ):
        if isinstance(protocol, str):
            self.protocol_class = protocol_class(protocol)
        else:
            self.protocol_class = protocol
        self.config = config if config is not None else SimulationConfig()
        self.costs = costs if costs is not None else CostTable.bus()

    def run(
        self,
        trace: Trace,
        cpus: int | None = None,
        order: str = "time",
        engine: str = "columnar",
    ) -> SimulationResult:
        """Replay a trace and return the accumulated statistics.

        Args:
            trace: the reference stream to replay.
            cpus: if given, restrict the trace to its first ``cpus``
                processors (the validation sweeps use this).
            order: ``"time"`` (default) merges the per-CPU streams by
                simulated clock, so bus grants happen in simulated-time
                order; ``"trace"`` replays records exactly in trace
                order, which lets drifted-ahead processors capture the
                bus "from the future" (the distortion the paper
                discusses in Section 3).  Per-CPU program order is
                preserved either way.
            engine: ``"columnar"`` (default) runs the fast
                array-consuming replay loop; ``"legacy"`` runs the
                original record loop; ``"arbitrated"`` runs the
                columnar deferred-grant loop honouring the configured
                bus discipline.  A non-``fcfs``
                ``config.bus_discipline`` needs deferred grants, which
                the synchronous loops cannot express: ``"columnar"``
                and ``"arbitrated"`` then both run the deferred-grant
                loop (result ``engine`` ``"arbitrated"``), and
                ``"legacy"`` runs the generator-driven deferred-grant
                reference that loop is tested against (result
                ``engine`` ``"legacy"``).  Under ``fcfs`` the
                columnar and legacy engines produce identical
                statistics.
        """
        if order not in ("time", "trace"):
            raise ValueError(f"order must be 'time' or 'trace', got {order!r}")
        if engine not in ("columnar", "legacy", "arbitrated"):
            raise ValueError(
                "engine must be 'columnar', 'legacy', or 'arbitrated', "
                f"got {engine!r}"
            )
        if cpus is not None and cpus != trace.cpus:
            trace = trace.restricted_to(cpus)
        deferred = (
            engine == "arbitrated" or self.config.bus_discipline != "fcfs"
        )
        if deferred and order == "trace":
            raise ValueError(
                "order='trace' cannot be honoured by the arbitrated "
                "engine: a processor parked on a bus grant would "
                "reorder its later records around other CPUs; "
                "use order='time'"
            )
        if deferred and engine != "legacy":
            engine = "arbitrated"
        return self._replay(trace, order, engine, deferred)

    def _replay(
        self, trace: Trace, order: str, engine: str, deferred: bool
    ) -> SimulationResult:
        """Run one replay loop: ``engine`` names the loop, ``deferred``
        selects the deferred-grant bus (``"legacy"`` with ``deferred``
        is the generator-driven reference, whatever the discipline)."""
        geometry = self.config.geometry
        caches = [Cache(geometry) for _ in range(trace.cpus)]
        block_shift = geometry.block_shift
        shared_low = trace.shared_region.start >> block_shift
        shared_high = (
            trace.shared_region.stop + geometry.block_bytes - 1
        ) >> block_shift

        def is_shared_block(block: int) -> bool:
            return shared_low <= block < shared_high

        protocol = self.protocol_class(caches, is_shared_block)
        if deferred:
            bus: TimedBus | ArbitratedBus = ArbitratedBus(
                trace.cpus,
                self.config.bus_discipline,
                self.config.bus_arbitration_cycles,
            )
        else:
            bus = TimedBus(self.config.bus_arbitration_cycles)
        result = SimulationResult(
            protocol=protocol.name,
            trace_name=trace.name,
            config=self.config,
            cpus=[CpuStats() for _ in range(trace.cpus)],
        )
        started = time.perf_counter()
        if deferred:
            # Loaded on first use: the paper's fcfs artefacts never
            # need deferred grants, so their imports skip it.
            from repro.sim import arbitrated

            if engine == "legacy":
                arbitrated.run_deferred_reference(
                    trace, self.costs, protocol, bus, result, block_shift,
                    is_shared_block,
                )
            else:
                arbitrated.run_arbitrated(
                    trace, self.costs, self.config.bus_arbitration_cycles,
                    caches, protocol, bus, result,
                    block_shift, shared_low, shared_high,
                )
        elif engine == "legacy":
            self._run_legacy(
                trace, order, protocol, bus, result,
                block_shift, is_shared_block,
            )
        else:
            self._run_columnar(
                trace, order, caches, protocol, bus, result,
                block_shift, shared_low, shared_high,
            )
        result.bus_busy_cycles = bus.busy_cycles
        result.bus_transactions = bus.transactions
        result.bus_arbitration_cycles = bus.arbitration_busy_cycles
        result.protocol_stats = getattr(protocol, "stats", None)
        if engine == "columnar" and self.config.bus_arbitration_cycles:
            # fcfs arbitration overhead is folded into the synchronous
            # TimedBus grants; label the provenance distinctly.
            engine = "columnar+arb"
        result.engine = engine
        result.records_replayed = len(trace)
        result.run_wall_s = time.perf_counter() - started
        note_replay(len(trace), engine)
        return result

    # -- columnar engine (default) --------------------------------------

    def _run_columnar(
        self,
        trace: Trace,
        order: str,
        caches: list[Cache],
        protocol: Protocol,
        bus: TimedBus,
        result: SimulationResult,
        block_shift: int,
        shared_low: int,
        shared_high: int,
    ) -> None:
        """Array-consuming replay loop.

        Works on plain python lists derived from the trace columns:
        block indices and shared-block flags are computed vectorised
        over the whole trace, then the per-record loop touches only
        list indexing, dict probes, and float adds.  Statistics are
        byte-identical to :meth:`_run_legacy` (same arithmetic on the
        same values in the same sequence).
        """
        total = len(trace)
        n = trace.cpus
        if total == 0:
            return

        # Vectorised preprocessing, memoized per (trace content, block
        # size) in repro.trace.derived: block indices, shared mask,
        # per-CPU stable sort, reference mix, fetch prefix sums.  A
        # geometry sweep holding the block size constant (or any two
        # runs over the same trace — other protocols, the other
        # engine's cross-check, the fuzz harness) reuses one entry.
        derived = derived_columns(trace, block_shift)
        kind_np = trace.kind
        blocks_np = derived.blocks

        op_info = _op_info(self.costs)

        # Replay-dependent accumulators as plain lists/ints (no
        # attribute access in the loop); written back at the end.
        clocks = [0.0] * n
        waits = [0.0] * n
        steals = [0] * n
        fetch_misses = 0
        data_misses = 0
        shared_data_misses = 0
        dirty_victims = 0

        handles_flush = protocol.handles_flush
        fast_hits = protocol.read_hit_is_free
        # Shared loads may use the inline probe only when the protocol
        # caches shared data (all bundled schemes except No-Cache).
        fast_shared_loads = fast_hits and protocol.caches_shared_data
        protocol_access = protocol.access
        protocol_flush = protocol.flush
        transact = bus.transact
        kind_members = KIND_MEMBERS
        line_sets = [cache.line_sets for cache in caches]
        set_mask = caches[0].set_mask if caches else 0
        dirty_state = LineState.DIRTY

        order_np = derived.order
        hits = _proven_hits(
            protocol, derived, op_info, self.config.bus_arbitration_cycles,
            set_mask, caches[0].geometry.associativity,
        )

        # The event-driven time-merge needs to know which CPUs each
        # broadcast stole from (to maintain their merge keys); when it
        # is active it binds ``stolen`` to a list and ``slow`` records
        # the victims there.
        stolen = None

        def slow(
            cpu: int, kind_code: int, block: int, shared: bool, clock: float
        ) -> float:
            """Full protocol path for references the inline fast path
            does not cover (misses, stores, shared loads, flushes).

            Takes and returns the issuing CPU's clock so callers can
            keep it in a local; ``steal_from`` victims are always other
            CPUs, whose clocks live in ``clocks``.
            """
            nonlocal fetch_misses, data_misses, shared_data_misses
            nonlocal dirty_victims
            if kind_code == 3:
                outcome = protocol_flush(cpu, block)
            else:
                outcome = protocol_access(cpu, kind_members[kind_code], block)
            if outcome is NO_ACTION:
                return clock
            for operation in outcome.operations:
                cpu_cycles, bus_cycles, is_miss, is_dirty, counter = op_info[
                    operation
                ]
                counter[0] += 1
                if bus_cycles > 0.0:
                    grant, wait = transact(clock, bus_cycles)
                    clock = grant + cpu_cycles
                    waits[cpu] += wait
                else:
                    clock += cpu_cycles
                if is_miss:
                    if kind_code == 0:
                        fetch_misses += 1
                    else:
                        data_misses += 1
                        if shared:
                            shared_data_misses += 1
                    if is_dirty:
                        dirty_victims += 1
            for victim_cpu in outcome.steal_from:
                clocks[victim_cpu] += 1.0
                steals[victim_cpu] += 1
                if stolen is not None:
                    stolen.append(victim_cpu)
            return clock

        if order == "trace" or n == 1:
            # NOTE: this record body is duplicated in the time-ordered
            # loop below; keep the two in sync (the equivalence tests
            # exercise both).  The shared flag is only needed on the
            # slow path, so it is computed there (fetch misses, flushes
            # never consult it).
            if hits is not None:
                # Scatter the flags back to trace order (the hit
                # guarantee is a property of each CPU's stream, so it
                # holds under either replay order): 1 = pure fetch hit
                # (one instruction cycle), 2 = pure load hit (free),
                # 3 = local store hit (dirty the line, MRU touch),
                # 4 = fetch hit with MRU touch, 5 = load hit with MRU
                # touch, 0 = full record body.
                is_fetch = derived.is_fetch_sorted
                codes_sorted = np.zeros(total, dtype=np.int64)
                codes_sorted[hits.guaranteed & is_fetch] = 1
                codes_sorted[hits.guaranteed & ~is_fetch] = 2
                codes_sorted[hits.local_store] = 3
                codes_sorted[hits.near_fetch] = 4
                codes_sorted[hits.near_load] = 5
                codes_trace = np.empty(total, dtype=np.int64)
                codes_trace[order_np] = codes_sorted
                skips = codes_trace.tolist()
            else:
                skips = repeat(0)
            for cpu, kind_code, block, skip in zip(
                trace.cpu.tolist(),
                kind_np.tolist(),
                blocks_np.tolist(),
                skips,
            ):
                if skip:
                    if skip == 1:
                        clocks[cpu] += 1.0
                    elif skip == 3:
                        cache_set = line_sets[cpu][block & set_mask]
                        cache_set.pop(block)
                        cache_set[block] = dirty_state
                    elif skip == 4:
                        clocks[cpu] += 1.0
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block)
                        cache_set[block] = state
                    elif skip == 5:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block)
                        cache_set[block] = state
                    continue
                if kind_code == 0:
                    clocks[cpu] += 1.0
                    if fast_hits:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                    clocks[cpu] = slow(cpu, 0, block, False, clocks[cpu])
                elif kind_code == 1:
                    if fast_shared_loads:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                        clocks[cpu] = slow(
                            cpu, 1, block,
                            shared_low <= block < shared_high, clocks[cpu],
                        )
                    elif shared_low <= block < shared_high:
                        clocks[cpu] = slow(cpu, 1, block, True, clocks[cpu])
                    elif fast_hits:
                        cache_set = line_sets[cpu][block & set_mask]
                        state = cache_set.pop(block, 0)
                        if state:
                            cache_set[block] = state
                            continue
                        clocks[cpu] = slow(cpu, 1, block, False, clocks[cpu])
                    else:
                        clocks[cpu] = slow(cpu, 1, block, False, clocks[cpu])
                elif kind_code == 2:
                    clocks[cpu] = slow(
                        cpu, 2, block,
                        shared_low <= block < shared_high, clocks[cpu],
                    )
                else:
                    if handles_flush:
                        clocks[cpu] = slow(cpu, 3, block, False, clocks[cpu])
        else:
            # Time-ordered merge: split the columns into per-CPU
            # streams (stable argsort keeps program order), then merge
            # by processor clock, processing records in the exact
            # lexicographic ``(key, cpu)`` order the legacy engine's
            # heap pops them, where a record's key is the issuing
            # CPU's clock after its previous record.
            counts = derived.counts
            streams = _event_streams(derived, hits, protocol)
            if hits is not None:
                # Event-driven merge.  Statically-proven hits commute
                # with every other CPU's records: they never touch the
                # bus, never steal cycles, and never change anything a
                # remote snoop can observe (line membership and states
                # are preserved; only LRU order moves, and LRU order
                # is invisible across caches).  Only the remaining
                # "event" records -- potential misses, stores, handled
                # flushes, uncached shared references -- interact
                # across CPUs, so the merge schedules just those and
                # applies each event's preceding span of proven hits
                # lazily: the span's clock cost is its fetch count
                # (from a prefix-sum table) and its deferred MRU
                # touches are walked off a per-CPU list.  An event's
                # legacy key is the clock after the record before it,
                # which across a span of proven hits is exactly that
                # prefix-sum -- no record-by-record replay needed.
                may_steal = protocol.may_steal_cycles
                cpu_prefix = streams.prefix
                cpu_events = streams.events
                cpu_event_kinds = streams.kinds
                cpu_event_blocks = streams.blocks
                cpu_touches = streams.touches
                cpu_fetch_pos = streams.fetch_pos
                # Per-CPU merge state.  ``positions[cpu]`` is the
                # first stream record not yet applied; ``clocks[cpu]``
                # is the true clock (applied costs plus every steal
                # landed so far); ``keys[cpu]`` is the pending event's
                # legacy key; ``frontier_keys[cpu]`` is the frozen key
                # of record ``positions[cpu]`` -- the key it was
                # (virtually) pushed with, which excludes steals
                # landed since.
                positions = [0] * n
                event_index = [0] * n
                touch_index = [0] * n
                next_event = [0] * n
                keys = [0.0] * n
                frontier_keys = [0.0] * n
                infinity = float("inf")
                active = []
                for cpu in range(n):
                    if not counts[cpu]:
                        continue
                    active.append(cpu)
                    events = cpu_events[cpu]
                    e = events[0] if events else counts[cpu]
                    next_event[cpu] = e
                    keys[cpu] = float(cpu_prefix[cpu][e])
                if may_steal:
                    stolen = []
                while active:
                    best_key = infinity
                    cpu = -1
                    for candidate in active:
                        key = keys[candidate]
                        if key < best_key:
                            best_key = key
                            cpu = candidate
                    prefix = cpu_prefix[cpu]
                    position = positions[cpu]
                    e = next_event[cpu]
                    clock = clocks[cpu]
                    cpu_sets = line_sets[cpu]
                    if e > position:
                        # Apply the span of proven hits before the
                        # event: fetch hits cost one cycle each (loads
                        # and local store hits are free), and the
                        # deferred MRU touches replay in program
                        # order.
                        delta = prefix[e] - prefix[position]
                        if delta:
                            clock += delta
                        touches_list = cpu_touches[cpu]
                        tp = touch_index[cpu]
                        tl = len(touches_list)
                        while tp < tl and touches_list[tp][0] < e:
                            _, code, block = touches_list[tp]
                            tp += 1
                            cache_set = cpu_sets[block & set_mask]
                            if code == 4:
                                cache_set.pop(block)
                                cache_set[block] = dirty_state
                            else:
                                state = cache_set.pop(block)
                                cache_set[block] = state
                        touch_index[cpu] = tp
                    if e == counts[cpu]:
                        clocks[cpu] = clock
                        frontier_keys[cpu] = infinity
                        active.remove(cpu)
                        continue
                    ev = event_index[cpu]
                    kind_code = cpu_event_kinds[cpu][ev]
                    block = cpu_event_blocks[cpu][ev]
                    # Same record body as the trace-order loop above.
                    if kind_code == 0:
                        clock += 1.0
                        if fast_hits:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(cpu, 0, block, False, clock)
                        else:
                            clock = slow(cpu, 0, block, False, clock)
                    elif kind_code == 1:
                        if fast_shared_loads:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(
                                    cpu, 1, block,
                                    shared_low <= block < shared_high, clock,
                                )
                        elif shared_low <= block < shared_high:
                            clock = slow(cpu, 1, block, True, clock)
                        elif fast_hits:
                            cache_set = cpu_sets[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                clock = slow(cpu, 1, block, False, clock)
                        else:
                            clock = slow(cpu, 1, block, False, clock)
                    elif kind_code == 2:
                        clock = slow(
                            cpu, 2, block,
                            shared_low <= block < shared_high, clock,
                        )
                    else:
                        if handles_flush:
                            clock = slow(cpu, 3, block, False, clock)
                    clocks[cpu] = clock
                    if may_steal and stolen:
                        # Replicate the legacy heap's key staleness
                        # exactly.  A steal lands on the victim's true
                        # clock immediately, but enters its merge keys
                        # only from the first record processed after
                        # the broadcast: keys already pushed stay
                        # frozen.  The broadcast's merge position is
                        # this event's key (``best_key``, tie-broken
                        # by CPU id).
                        for victim in stolen:
                            fk = frontier_keys[victim]
                            if fk > best_key or (
                                fk == best_key and victim > cpu
                            ):
                                # The victim's next record had not yet
                                # been processed when the broadcast
                                # ran, so the steal is in every key
                                # from the following record onwards --
                                # including the pending event's, if
                                # any span records remain before it.
                                if positions[victim] < next_event[victim]:
                                    keys[victim] += 1.0
                            else:
                                # Span records up to the broadcast's
                                # merge position were already
                                # (virtually) processed by the legacy
                                # engine; materialise them, then land
                                # the steal before the rest.  The new
                                # frontier is found by fetch count:
                                # span record ``m``'s key is the
                                # victim's pre-steal clock plus the
                                # fetch prefix from the old frontier.
                                v_prefix = cpu_prefix[victim]
                                v_pos = positions[victim]
                                base = v_prefix[v_pos]
                                pre_clock = clocks[victim] - 1.0
                                target = int(best_key - pre_clock) + base
                                if victim < cpu:
                                    target += 1
                                if target <= base:
                                    frontier = v_pos + 1
                                else:
                                    frontier = (
                                        cpu_fetch_pos[victim][target - 1] + 1
                                    )
                                advance = v_prefix[frontier] - base
                                if advance:
                                    clocks[victim] += advance
                                touches_list = cpu_touches[victim]
                                tp = touch_index[victim]
                                tl = len(touches_list)
                                victim_sets = line_sets[victim]
                                while (
                                    tp < tl
                                    and touches_list[tp][0] < frontier
                                ):
                                    _, code, t_block = touches_list[tp]
                                    tp += 1
                                    cache_set = victim_sets[
                                        t_block & set_mask
                                    ]
                                    if code == 4:
                                        cache_set.pop(t_block)
                                        cache_set[t_block] = dirty_state
                                    else:
                                        state = cache_set.pop(t_block)
                                        cache_set[t_block] = state
                                touch_index[victim] = tp
                                positions[victim] = frontier
                                frontier_keys[victim] = pre_clock + advance
                                if frontier < next_event[victim]:
                                    keys[victim] += 1.0
                        del stolen[:]
                    position = e + 1
                    positions[cpu] = position
                    ev += 1
                    event_index[cpu] = ev
                    events = cpu_events[cpu]
                    e = events[ev] if ev < len(events) else counts[cpu]
                    next_event[cpu] = e
                    frontier_keys[cpu] = clock
                    keys[cpu] = clock + (prefix[e] - prefix[position])
            else:
                # Per-record merge when nothing is proven: costs or
                # arbitration overhead are non-integral, or the
                # protocol declares no static-hit contract (the
                # oracle shadow).
                # With a handful of CPUs a linear argmin over the same
                # frozen keys beats heapq -- no tuple allocation, no
                # sift -- and pops in the identical lexicographic
                # order.  Each scan also yields the runner-up key,
                # which bounds how long the chosen CPU may keep
                # running: keys never change during a burst, so the
                # current CPU continues while its clock stays at or
                # below that bound.
                cpu_kinds = streams.kinds
                cpu_blocks = streams.blocks
                positions = [0] * n
                infinity = float("inf")
                keys = [0.0] * n
                active = [cpu for cpu in range(n) if counts[cpu]]
                cpu = active[0]
                if len(active) > 1:
                    top_clock, top_cpu = 0.0, active[1]
                else:
                    top_clock, top_cpu = infinity, -1
                while True:
                    # One burst of the current CPU.
                    stream_kinds = cpu_kinds[cpu]
                    stream_blocks = cpu_blocks[cpu]
                    cpu_sets = line_sets[cpu]
                    length = counts[cpu]
                    position = positions[cpu]
                    clock = clocks[cpu]
                    exhausted = False
                    while True:
                        kind_code = stream_kinds[position]
                        block = stream_blocks[position]
                        position += 1
                        # Same record body as the trace-order loop
                        # above.
                        if kind_code == 0:
                            clock += 1.0
                            if fast_hits:
                                cache_set = cpu_sets[block & set_mask]
                                state = cache_set.pop(block, 0)
                                if state:
                                    cache_set[block] = state
                                else:
                                    clock = slow(cpu, 0, block, False, clock)
                            else:
                                clock = slow(cpu, 0, block, False, clock)
                        elif kind_code == 1:
                            if fast_shared_loads:
                                cache_set = cpu_sets[block & set_mask]
                                state = cache_set.pop(block, 0)
                                if state:
                                    cache_set[block] = state
                                else:
                                    clock = slow(
                                        cpu, 1, block,
                                        shared_low <= block < shared_high,
                                        clock,
                                    )
                            elif shared_low <= block < shared_high:
                                clock = slow(cpu, 1, block, True, clock)
                            elif fast_hits:
                                cache_set = cpu_sets[block & set_mask]
                                state = cache_set.pop(block, 0)
                                if state:
                                    cache_set[block] = state
                                else:
                                    clock = slow(cpu, 1, block, False, clock)
                            else:
                                clock = slow(cpu, 1, block, False, clock)
                        elif kind_code == 2:
                            clock = slow(
                                cpu, 2, block,
                                shared_low <= block < shared_high, clock,
                            )
                        else:
                            if handles_flush:
                                clock = slow(cpu, 3, block, False, clock)
                        if position == length:
                            exhausted = True
                            break
                        if top_clock < clock or (
                            top_clock == clock and top_cpu < cpu
                        ):
                            break
                    positions[cpu] = position
                    clocks[cpu] = clock
                    if exhausted:
                        active.remove(cpu)
                        if not active:
                            break
                    else:
                        keys[cpu] = clock
                    # Re-select: argmin of (key, cpu) plus the
                    # runner-up.  ``active`` stays sorted, so strict
                    # ``<`` comparisons resolve ties toward the lower
                    # CPU id, matching the heap's tuple ordering.
                    best_key = infinity
                    best_cpu = -1
                    top_clock = infinity
                    top_cpu = -1
                    for candidate in active:
                        key = keys[candidate]
                        if key < best_key:
                            top_clock = best_key
                            top_cpu = best_cpu
                            best_key = key
                            best_cpu = candidate
                        elif key < top_clock:
                            top_clock = key
                            top_cpu = candidate
                    cpu = best_cpu

        _write_back(
            result, derived, clocks, waits, steals, op_info,
            (fetch_misses, data_misses, shared_data_misses, dirty_victims),
        )

    # -- legacy engine (reference implementation) ------------------------

    def _run_legacy(
        self,
        trace: Trace,
        order: str,
        protocol: Protocol,
        bus: TimedBus,
        result: SimulationResult,
        block_shift: int,
        is_shared_block,
    ) -> None:
        """The original per-record replay loop.

        Kept as the executable specification of the replay semantics;
        ``tests/sim/test_equivalence.py`` asserts the columnar engine
        matches it exactly for every protocol and both orders.
        """
        cpu_cost = {op: cost.cpu_cycles for op, cost in self.costs.items()}
        bus_cost = {op: cost.channel_cycles for op, cost in self.costs.items()}
        stats = result.cpus
        op_counts = result.operation_counts
        handles_flush = protocol.handles_flush
        fetch = AccessType.INST_FETCH
        store = AccessType.STORE
        flush = AccessType.FLUSH

        def process(cpu: int, kind: AccessType, address: int) -> None:
            cpu_stats = stats[cpu]
            block = address >> block_shift
            if kind is flush:
                cpu_stats.flushes += 1
                if not handles_flush:
                    return
                outcome = protocol.flush(cpu, block)
            else:
                if kind is fetch:
                    cpu_stats.instructions += 1
                    cpu_stats.clock += 1.0
                else:
                    shared = is_shared_block(block)
                    if kind is store:
                        cpu_stats.stores += 1
                        if shared:
                            result.shared_stores += 1
                    else:
                        cpu_stats.loads += 1
                        if shared:
                            result.shared_loads += 1
                outcome = protocol.access(cpu, kind, block)

            for operation in outcome.operations:
                hold = bus_cost[operation]
                if hold > 0.0:
                    grant, wait = bus.transact(cpu_stats.clock, hold)
                    cpu_stats.clock = grant + cpu_cost[operation]
                    cpu_stats.wait_cycles += wait
                else:
                    cpu_stats.clock += cpu_cost[operation]
                op_counts[operation] += 1
                if operation in _MISS_OPERATIONS:
                    if kind is fetch:
                        result.fetch_misses += 1
                    else:
                        result.data_misses += 1
                        if is_shared_block(block):
                            result.shared_data_misses += 1
                    if operation in _DIRTY_VICTIM_OPERATIONS:
                        result.dirty_victim_misses += 1

            for victim_cpu in outcome.steal_from:
                stats[victim_cpu].clock += 1.0
                stats[victim_cpu].stolen_cycles += 1

        if order == "trace" or trace.cpus == 1:
            for cpu, kind, address in trace.records:
                process(cpu, kind, address)
        else:
            self._replay_time_ordered(trace, stats, process)

    @staticmethod
    def _replay_time_ordered(trace: Trace, stats, process) -> None:
        """Feed records to ``process`` in simulated-time order.

        The per-CPU record streams are merged by each processor's
        current clock (a heap of ``(clock, cpu)``), so the next record
        handled always belongs to the processor that is earliest in
        simulated time.  Per-CPU program order is untouched.
        """
        streams: list[list] = [[] for _ in range(trace.cpus)]
        for record in trace.records:
            streams[record.cpu].append(record)
        positions = [0] * trace.cpus
        heap = [
            (0.0, cpu) for cpu in range(trace.cpus) if streams[cpu]
        ]
        heapq.heapify(heap)
        while heap:
            _, cpu = heapq.heappop(heap)
            _, kind, address = streams[cpu][positions[cpu]]
            positions[cpu] += 1
            process(cpu, kind, address)
            if positions[cpu] < len(streams[cpu]):
                heapq.heappush(heap, (stats[cpu].clock, cpu))
