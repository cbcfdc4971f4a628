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

``Machine.run`` has one fast replay loop and one reference loop, and
each runs over either bus.  The fast loop is held ``==`` (every
counter and float clock) to the reference over the same bus.  The
labels, their gates and their reference contracts are declared once,
in :mod:`repro.sim.engines`.  The fast loop, :func:`_run_columnar`, is
also the one event merge of the cache-size sweeps
(:mod:`repro.sim.onepass`, :mod:`repro.sim.family`), which hand it
each event's outcome instead of a protocol to step.

* The columnar loop (``engine="columnar"``, the default, and
  ``engine="arbitrated"``) consumes the trace's numpy columns
  directly: block indices and shared-block flags are vectorised up
  front, per-operation costs live in a single pre-folded dict of
  ``(cpu_cycles, bus_cycles, is_miss, is_dirty_victim, counter)``
  tuples, per-CPU counters are plain local lists, and — for protocols
  declaring ``read_hit_is_free`` — the dominant case (a resident
  instruction fetch or unshared load) is handled inline as a two-probe
  LRU touch with no per-record tuple allocation and no protocol call.
  A vectorised static analysis additionally *proves* most references
  hit before replay begins (same-block re-references, by the one
  same-block rule of :mod:`repro.sim.segment`): every reference under
  the protocols whose remote traffic never evicts (base, nocache,
  swflush, dragon), and references to *single-owner* blocks, which
  only one CPU ever touches, under the invalidating ones (wti,
  directory, the hybrids).  Only the records that can interact across
  processors (potential misses, stores, handled flushes) are
  scheduled one by one, in the reference's exact ``(key, cpu)``
  order; the proven hits between them are applied as whole spans via
  prefix-summed clock advances and deferred dirty marks.  A processor
  runs in *bursts*, until its key passes the runner-up's.
* Buses differ only in how a bus operation is served.  A
  :class:`~repro.sim.bus.TimedBus` (``fcfs``) grants inside the
  record, in call order.  An :class:`~repro.sim.bus.ArbitratedBus`
  parks the processor on a posted request until the discipline grants
  it, once every processor keyed at or before the arbitration instant
  has run.
* Under ``order="trace"`` (``TimedBus`` only) a pending event's merge
  key is its trace position, so records run in trace order and a
  cycle steal lands only on the victim's clock.
* The reference, :func:`_run_reference`, is the executable
  specification of the replay semantics: one generator per processor
  steps the protocol a record at a time, and the two buses differ
  only in how it is granted.  ``tests/sim/test_conformance.py`` and
  ``swcc fuzz`` hold the fast loop to it over both buses.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.operations import (
    DIRTY_VICTIM_OPERATIONS,
    MISS_OPERATIONS,
    CostTable,
)
from repro.obs.metrics import note_replay
from repro.sim.bus import (
    ArbitratedBus,
    TimedBus,
    checked_utilization,
    validate_arbitration_cycles,
    validate_discipline,
)
from repro.sim.cache import Cache, CacheGeometry, LineState
from repro.sim.engines import Engine, deferred_grants, machine_engine
from repro.sim.protocols import Protocol, protocol_class
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome
from repro.sim.segment import cache_touches, same_block_hits
from repro.trace.derived import DerivedColumns, derived_columns
from repro.trace.records import KIND_MEMBERS, AccessType, Trace, validate_cpus

__all__ = ["CpuStats", "Machine", "SimulationConfig", "SimulationResult"]


def _op_info(costs: CostTable) -> dict:
    """Per-operation info, folded into one dict probe per operation:
    ``(cpu_cycles, bus_cycles, is_miss, is_dirty_victim, counter)``.
    The counter is a one-element list mutated in place."""
    return {
        op: (
            cost.cpu_cycles,
            cost.channel_cycles,
            op in MISS_OPERATIONS,
            op in DIRTY_VICTIM_OPERATIONS,
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
        local_store: store hits: dirty the line, already MRU.
    """

    guaranteed: np.ndarray
    local_store: np.ndarray


def _proven_hits(
    protocol: Protocol,
    derived: DerivedColumns,
    op_info: dict,
    arbitration_cycles: float,
    set_mask: int,
) -> _ProvenHits | None:
    """Classify the records that must hit, before replay begins.

    Called by the columnar replay loop over either bus.  Returns
    ``None`` when the protocol's contract flags or non-integral costs
    rule the classification out.  The classes are properties of each
    CPU's own stream, so they hold under every replay order and every
    bus discipline.

    The proof is :func:`~repro.sim.segment.same_block_hits` at the
    machine's set mask: a reference to the same block as the same
    CPU's most recent touch of its set must hit, provided that touch
    left the block resident and no other CPU's traffic can evict the
    line, and the block is already most-recently-used.  A proven fetch
    is exactly ``clock += 1.0``, a proven load is free, and a proven
    store hit of a protocol whose store hits are local only dirties
    the line.  Sequential instruction fetches make these the majority
    of all records.  Batching is gated on integral operation costs so
    clocks stay exact-integer floats and a batched ``clock += k`` is
    bit-identical to ``k`` single-cycle advances.

    Which records may be proven is a per-record mask.  A protocol
    that is ``read_hit_is_free`` and
    ``remote_traffic_preserves_residency`` allows every record: no
    remote traffic evicts anything.  A ``private_blocks_are_local``
    protocol allows only records whose block is single-owner
    (:attr:`~repro.trace.derived.DerivedColumns.single_owner_sorted`):
    remote traffic touches only lines of the block it names, never
    one of those, and a read hit on one is free.  Invalidations of
    *other* blocks in the same set only free ways and never reorder
    the set, so the same-block proof still holds.
    """
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
    kinds = derived.kinds_sorted
    touches, _ = cache_touches(
        derived, protocol.handles_flush, protocol.caches_shared_data
    )
    touch_idx = np.flatnonzero(touches)
    provable = np.zeros(len(kinds), dtype=bool)
    provable[touch_idx] = same_block_hits(
        derived.cpus_sorted[touch_idx],
        derived.blocks_sorted[touch_idx],
        kinds[touch_idx] != 3,
        set_mask + 1,
    )
    if allowed is not None:
        provable &= allowed
    # Pure hits: fetches (a hit costs exactly the one instruction
    # cycle) and loads (a hit is free).  Uncached shared references
    # never touch the cache, so they are never proven.
    eligible_pure = derived.is_fetch_sorted | (kinds == 1)
    # Stores eligible to be proven *local* hits: when the protocol
    # declares a store hit purely local, a statically-proven store hit
    # reduces to dirtying the line — no protocol call, no bus, no
    # clock.
    if protocol.store_hit_is_local:
        eligible_store = kinds == 2
    elif protocol.private_store_hit_is_local:
        # Restricted form (Dragon, the hybrids, directory): only
        # stores to single-owner blocks outside the shared region —
        # the line is then provably in an exclusive state, so the
        # hit cannot broadcast or invalidate and touches no sharing
        # counters.
        eligible_store = (
            (kinds == 2)
            & ~derived.shared_sorted
            & derived.single_owner_sorted
        )
    else:
        eligible_store = np.zeros(len(kinds), dtype=bool)
    return _ProvenHits(provable & eligible_pure, provable & eligible_store)


class _EventStreams(NamedTuple):
    """Per-CPU record streams of the columnar replay loop.

    Only *event* records are scheduled one by one; the records between
    two events form a span applied lazily (a fetch-count clock advance
    plus deferred dirty marks).  ``Machine.run`` makes its events the
    records not proven to hit (every record without proven hits); a
    sweep makes them one geometry's classifier events.  One list per
    CPU, positions relative to that CPU's stream.

    Attributes:
        events: stream positions of the event records.
        kinds: kind code of each event record.
        blocks: block of each event record.
        prefix: fetch prefix sums over the stream (``count + 1``
            entries), or ``None`` when every record is an event.
        touches: deferred dirty marks of the proven local store
            hits, ``(position, block)``; each line is already MRU, so
            a mark only sets its state.  ``None`` when no span record
            touches a cache.
        trace_keys: trace position of each event record, plus the
            trace length as the key of the stream's end; ``None``
            unless the replay runs in trace order.
    """

    events: list
    kinds: list[list[int]]
    blocks: list[list[int]]
    prefix: list[list[int]] | None
    touches: list[list[tuple[int, int]]] | None
    trace_keys: list[list[int]] | None


def _fetch_prefixes(derived: DerivedColumns) -> list[list[int]]:
    """Per-CPU fetch prefix sums, ``count + 1`` entries each: the clock
    cost of any span of hits."""
    prefixes = []
    for start, count in zip(derived.offsets, derived.counts):
        prefix = derived.fetch_prefix[start : start + count + 1]
        prefixes.append((prefix - prefix[0]).tolist())
    return prefixes


def _event_streams(
    derived: DerivedColumns,
    events: list[np.ndarray] | None,
    prefix: list[list[int]] | None,
    touches: list[list[tuple[int, int]]] | None,
    by_trace: bool,
) -> _EventStreams:
    """Gather the event records of each CPU's stream.

    ``events[cpu]`` holds the CPU's event positions, as a list or an
    int64 array; ``None`` makes every record an event.
    """
    streams = _EventStreams(
        [], [], [], prefix, touches, [] if by_trace else None
    )
    total = len(derived.order)
    for cpu, (start, count) in enumerate(zip(derived.offsets, derived.counts)):
        if events is None:
            rows = slice(start, start + count)
            streams.events.append(range(count))
        else:
            positions = events[cpu]
            rows = np.asarray(positions, dtype=np.int64) + start
            if not isinstance(positions, list):
                positions = positions.tolist()
            streams.events.append(positions)
        streams.kinds.append(derived.kinds_sorted[rows].tolist())
        streams.blocks.append(derived.blocks_sorted[rows].tolist())
        if by_trace:
            keys = derived.order[rows].tolist()
            keys.append(total)
            streams.trace_keys.append(keys)
    return streams


def _replay_streams(
    derived: DerivedColumns,
    hits: _ProvenHits | None,
    protocol: Protocol,
    by_trace: bool,
) -> _EventStreams:
    """``Machine.run``'s event streams: every record not proven to hit
    is an event, and the proven hits become spans and dirty marks."""
    if hits is None:
        return _event_streams(derived, None, None, None, by_trace)
    kinds_sorted_np = derived.kinds_sorted
    event_mask = ~(hits.guaranteed | hits.local_store)
    if not protocol.handles_flush:
        # Unhandled flushes are complete no-ops; leaving them out of
        # the event set lets the spans run through them.
        event_mask &= kinds_sorted_np != 3
    events = []
    touches = []
    for start, count in zip(derived.offsets, derived.counts):
        stop = start + count
        events.append(np.flatnonzero(event_mask[start:stop]))
        sidx = np.flatnonzero(hits.local_store[start:stop])
        touches.append(
            list(
                zip(
                    sidx.tolist(),
                    derived.blocks_sorted[start:stop][sidx].tolist(),
                )
            )
        )
    return _event_streams(
        derived, events, _fetch_prefixes(derived), touches, by_trace
    )


def _run_reference(
    trace: Trace,
    order: str,
    costs: CostTable,
    protocol: Protocol,
    bus: TimedBus | ArbitratedBus,
    result: SimulationResult,
    block_shift: int,
    is_shared_block,
) -> None:
    """The replay reference: the executable specification of the replay
    semantics over either bus, which :func:`_run_columnar` is held
    ``==`` to.  Accumulates into ``result`` and ``bus``.

    Each processor is a generator that steps the protocol once per
    record and yields ``None`` at every record boundary.  Buses differ
    only in how a bus operation is served: a :class:`TimedBus` grants
    it inside the record, in call order; under an
    :class:`ArbitratedBus` the processor posts the request and parks
    (``yield "bus"``) until the discipline grants it.  A cycle steal
    lands on the victim's clock at once, or, while the victim is
    parked, when its grant arrives.

    ``order="trace"`` (``TimedBus`` only) runs the records as the trace
    lists them.  In time order the runnable processor with the least
    ``(key, cpu)`` runs one record, where its key is its clock at its
    last record boundary (steals land on the clock, not the key).
    Every processor keyed at or before the arbitration instant runs
    before the discipline grants, so the pending pool holds everyone
    present at the decision.
    """
    cpu_cost = {op: cost.cpu_cycles for op, cost in costs.items()}
    bus_cost = {op: cost.channel_cycles for op, cost in costs.items()}
    stats = result.cpus
    op_counts = result.operation_counts
    handles_flush = protocol.handles_flush
    timed = isinstance(bus, TimedBus)
    fetch = AccessType.INST_FETCH
    store = AccessType.STORE
    flush = AccessType.FLUSH
    n = trace.cpus

    streams: list[list] = [[] for _ in range(n)]
    for record in trace.records:
        streams[record.cpu].append(record)
    parked = [False] * n
    deferred_steals = [0] * n

    def stream(cpu: int):
        cpu_stats = stats[cpu]
        for _, kind, address in streams[cpu]:
            block = address >> block_shift
            if kind is flush:
                cpu_stats.flushes += 1
                if not handles_flush:
                    yield None
                    continue
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
                    ready = cpu_stats.clock
                    if timed:
                        start, wait = bus.transact(ready, hold)
                    else:
                        bus.request(cpu, ready, hold)
                        parked[cpu] = True
                        start = yield "bus"
                        parked[cpu] = False
                        wait = start - ready
                    cpu_stats.wait_cycles += wait
                    cpu_stats.clock = start + cpu_cost[operation]
                    if deferred_steals[cpu]:
                        cpu_stats.clock += float(deferred_steals[cpu])
                        deferred_steals[cpu] = 0
                else:
                    cpu_stats.clock += cpu_cost[operation]
                op_counts[operation] += 1
                if operation in MISS_OPERATIONS:
                    if kind is fetch:
                        result.fetch_misses += 1
                    else:
                        result.data_misses += 1
                        if is_shared_block(block):
                            result.shared_data_misses += 1
                    if operation in DIRTY_VICTIM_OPERATIONS:
                        result.dirty_victim_misses += 1
            for victim in outcome.steal_from:
                if parked[victim]:
                    deferred_steals[victim] += 1
                else:
                    stats[victim].clock += 1.0
                stats[victim].stolen_cycles += 1
            yield None

    generators = [stream(cpu) for cpu in range(n)]
    if order == "trace":
        for cpu in trace.cpu.tolist():
            next(generators[cpu])
        return
    # Ascending CPU ids at equal keys: already a heap.
    runnable = [(0.0, cpu) for cpu in range(n) if streams[cpu]]
    waiting = 0  # CPUs parked on a posted request
    while True:
        if waiting and (
            not runnable or runnable[0][0] > bus.next_grant_at()
        ):
            cpu, start, _ = bus.grant_next()
            waiting -= 1
            token = generators[cpu].send(start)
        elif runnable:
            _, cpu = heapq.heappop(runnable)
            token = next(generators[cpu], "done")
        else:
            break
        if token is None:
            heapq.heappush(runnable, (stats[cpu].clock, cpu))
        elif token == "bus":
            waiting += 1


def _run_columnar(
    derived: DerivedColumns,
    streams: _EventStreams,
    op_info: dict,
    bus: TimedBus | ArbitratedBus,
    result: SimulationResult,
    protocol: Protocol | None = None,
    caches: list[Cache] | None = None,
    outcomes: list[list[AccessOutcome | None]] | None = None,
    resolve=None,
) -> None:
    """The one event merge: the columnar replay loop, over either bus
    and in either order, and the merge of every sweep engine.

    Makes the decisions of :func:`_run_reference` over the same bus in
    the same order with the same float arithmetic (``==`` statistics,
    test-pinned).  Writes the per-CPU statistics into
    ``result`` (whose ``cpus`` it fills) and the bus statistics into
    ``bus``.

    * Each event is stepped through ``protocol`` over ``caches``
      (``Machine.run``) or, for a sweep, taken from ``outcomes``:
      ``outcomes[cpu][i]`` is the :class:`AccessOutcome` of the CPU's
      event ``i``, or ``None`` to ask ``resolve(cpu, i)``.
    * The runnable processor with the least ``(key, cpu)`` runs next.
      In time order its key is its clock at its last record boundary
      (steals land on the clock, not the key); in trace order
      (``TimedBus`` only) it is the trace position of its pending
      event.  The chosen processor runs a *burst*: it keeps going
      while its key stays below the runner-up's and, with an
      ``ArbitratedBus``, at or before the next arbitration instant,
      which is cached and recomputed only when a request is posted or
      a grant served.
    * A ``TimedBus`` grants a bus operation inside the record; its
      state lives in locals until the loop ends.  Under an
      ``ArbitratedBus`` a processor whose operation needs the bus
      posts the request and *parks* on its suspended record: the
      operations left, the steals, and the ready clock.  Once no
      runnable key is at or before the arbitration instant, the
      discipline grants and the winner resumes its burst mid-record.
      Steals landing on a parked processor are applied when its grant
      arrives.
    * Read hits of ``read_hit_is_free`` protocols use an inline LRU
      probe, with no protocol call.
    * With spans (``streams.prefix``) only event records are
      scheduled; each span before an event is applied lazily.  In
      time order a cycle steal moves the victim's frontier past the
      span records that ran before the broadcast's merge position;
      their deferred dirty marks replay before the victim's next
      event.
      A broadcast at the end of a granted record sits after every
      record keyed at or before that grant's arbitration instant: the
      reference ran all of those before granting, and no later
      request can move the instant below a key already run.
    """
    counts = derived.counts
    n = len(counts)
    spans = streams.prefix is not None
    by_trace = streams.trace_keys is not None
    # Only a time-ordered merge keys span records by clock, so only it
    # moves a steal victim's frontier.
    moves_frontier = spans and not by_trace
    cpu_events = streams.events
    cpu_prefix = streams.prefix
    shared_low = derived.shared_low
    shared_high = derived.shared_high

    clocks = [0.0] * n
    waits = [0.0] * n
    steals = [0] * n
    fetch_misses = 0
    data_misses = 0
    shared_data_misses = 0
    dirty_victims = 0

    # ``cpu_steps[cpu]`` decides the CPU's events: its outcomes (a
    # sweep) or its cache sets, probed and stepped (``Machine.run``).
    presolved = outcomes is not None
    if presolved:
        cpu_steps = outcomes
    else:
        handles_flush = protocol.handles_flush
        fast_hits = protocol.read_hit_is_free
        fast_shared_loads = fast_hits and protocol.caches_shared_data
        protocol_access = protocol.access
        protocol_flush = protocol.flush
        fetch, load, store = KIND_MEMBERS[:3]
        set_mask = caches[0].set_mask
        dirty_state = LineState.DIRTY
        cpu_steps = [cache.line_sets for cache in caches]
    timed = isinstance(bus, TimedBus)
    if timed:
        arbitration = bus.arbitration_cycles
        bus_free = bus.free_at
        bus_busy = bus.busy_cycles
        bus_arbitration = bus.arbitration_busy_cycles
        bus_transactions = bus.transactions
    else:
        request = bus.request
        next_grant_at = bus.next_grant_at
        grant_next = bus.grant_next
    infinity = float("inf")

    # Per-CPU state.  ``positions[cpu]`` is the first stream record
    # not yet applied and ``next_event[cpu]`` the pending event's
    # stream position (the stream length once none is left);
    # ``frontier_keys[cpu]`` is the frozen key of record
    # ``positions[cpu]``, which excludes steals landed since.
    # ``parked[cpu]`` holds a parked CPU's suspended record.  The
    # heap ``runnable`` holds ``(key, cpu)`` of every CPU neither
    # parked nor finished, keyed by its pending event's merge key;
    # tuple order breaks key ties toward the lower CPU id.
    positions = [0] * n
    event_index = [0] * n
    touch_index = [0] * n
    next_event = [0] * n
    frontier_keys = [infinity] * n
    parked: list[tuple | None] = [None] * n
    deferred_steals = [0] * n
    runnable = []
    for cpu in range(n):
        if counts[cpu]:
            events = cpu_events[cpu]
            e = events[0] if events else counts[cpu]
            next_event[cpu] = e
            frontier_keys[cpu] = 0.0
            if by_trace:
                key = streams.trace_keys[cpu][0]
            elif spans:
                key = float(cpu_prefix[cpu][e])
            else:
                key = 0.0
            runnable.append((key, cpu))
    heapq.heapify(runnable)
    cpu_static = [
        (
            cpu_events[cpu], len(cpu_events[cpu]), streams.kinds[cpu],
            streams.blocks[cpu], counts[cpu], cpu_steps[cpu],
            cpu_prefix[cpu] if spans else None,
            streams.touches[cpu] if streams.touches else None,
            streams.trace_keys[cpu] if by_trace else None,
        )
        for cpu in range(n)
    ]
    heappush = heapq.heappush
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop

    def broadcast(victims, at_key: float, at_cpu: int) -> None:
        """Land one stolen cycle on each victim; the broadcast sits
        at merge position ``(at_key, at_cpu)``."""
        for victim in victims:
            steals[victim] += 1
            if parked[victim] is not None:
                deferred_steals[victim] += 1
                continue
            pre_clock = clocks[victim]
            clocks[victim] = pre_clock + 1.0
            if not moves_frontier:
                continue
            fk = frontier_keys[victim]
            if fk > at_key or (fk == at_key and victim > at_cpu):
                # The victim's frontier record had not run yet, so
                # the steal is in every key from it onwards.
                if positions[victim] >= next_event[victim]:
                    continue
            else:
                # Span records up to the merge position already ran:
                # advance the frontier past them, then land the steal
                # before the rest.  Span record ``m``'s key is the
                # pre-steal clock plus the fetch prefix from the old
                # frontier, so the new frontier follows the fetch that
                # reaches the merge position.  Their deferred dirty
                # marks stay pending: the victim's burst replays
                # every mark before its next event, even when the
                # frontier lands on that event and leaves it an empty
                # span.
                prefix = cpu_prefix[victim]
                position = positions[victim]
                base = prefix[position]
                target = int(at_key - pre_clock) + base
                if victim < at_cpu:
                    target += 1
                if target <= base:
                    frontier = position + 1
                else:
                    frontier = bisect_left(prefix, target)
                advance = prefix[frontier] - base
                if advance:
                    clocks[victim] += advance
                positions[victim] = frontier
                frontier_keys[victim] = pre_clock + advance
                if frontier >= next_event[victim]:
                    continue
            # A span record is pending, so the steal is in the
            # victim's merge key: move it one cycle later.
            for index, (key, candidate) in enumerate(runnable):
                if candidate == victim:
                    runnable[index] = (key + 1.0, victim)
                    heapq.heapify(runnable)
                    break

    waiting = 0  # CPUs parked on a posted request
    decision = infinity  # next arbitration instant, if any pending
    granted = -1.0  # service start of the grant being resumed
    handoff = False  # the last burst's exchange already chose ``cpu``
    while True:
        if not handoff and (
            not runnable or (waiting and runnable[0][0] > decision)
        ):
            if not waiting:
                break
            # Everyone keyed at or before the arbitration instant
            # has run: the discipline picks among the posted, and the
            # winner resumes its parked record, whose broadcast sits
            # at merge position ``(instant, n)``.
            key = decision
            at_cpu = n
            cpu, granted, _ = grant_next()
            operations, steal_from, clock = parked[cpu]
            outcome = (operations, steal_from)
            parked[cpu] = None
            waiting -= 1
            decision = next_grant_at() if waiting else infinity
        else:
            if not handoff:
                key, cpu = heappop(runnable)
            handoff = False
            at_cpu = cpu
            outcome = None
            clock = clocks[cpu]
        top_key, top_cpu = runnable[0] if runnable else (infinity, n)

        # One burst of ``cpu``: it runs while its key stays at or
        # before the arbitration instant and below the runner-up's.
        # Steals only ever delay other keys, so the runner-up read
        # here can end a burst early, never late.
        (
            events, event_count, stream_kinds, stream_blocks, count,
            steps, prefix, touches, trace_keys,
        ) = cpu_static[cpu]
        ev = event_index[cpu]
        e = next_event[cpu]
        position = positions[cpu]
        while True:
            if outcome is None:
                if spans:
                    # The span before the event: fetch hits cost one
                    # cycle each (loads and local store hits are
                    # free); the deferred dirty marks replay, each
                    # on a line already MRU.  A steal may have
                    # advanced the frontier onto the event itself, so
                    # the marks still pending from before it replay
                    # even when the span left is empty.
                    if e > position:
                        delta = prefix[e] - prefix[position]
                        if delta:
                            clock += delta
                    if touches:
                        tp = touch_index[cpu]
                        while tp < len(touches) and touches[tp][0] < e:
                            t_block = touches[tp][1]
                            tp += 1
                            steps[t_block & set_mask][t_block] = dirty_state
                        touch_index[cpu] = tp
                if e == count:
                    clocks[cpu] = clock
                    positions[cpu] = count
                    frontier_keys[cpu] = infinity
                    break
                kind_code = stream_kinds[ev]
                if presolved:
                    if kind_code == 0:
                        clock += 1.0
                    outcome = steps[ev]
                    if outcome is None:
                        outcome = resolve(cpu, ev)
                else:
                    block = stream_blocks[ev]
                    outcome = NO_ACTION
                    if kind_code == 0:
                        clock += 1.0
                        if fast_hits:
                            cache_set = steps[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                outcome = protocol_access(cpu, fetch, block)
                        else:
                            outcome = protocol_access(cpu, fetch, block)
                    elif kind_code == 1:
                        if fast_shared_loads or (
                            fast_hits
                            and not shared_low <= block < shared_high
                        ):
                            cache_set = steps[block & set_mask]
                            state = cache_set.pop(block, 0)
                            if state:
                                cache_set[block] = state
                            else:
                                outcome = protocol_access(cpu, load, block)
                        else:
                            outcome = protocol_access(cpu, load, block)
                    elif kind_code == 2:
                        outcome = protocol_access(cpu, store, block)
                    elif handles_flush:
                        outcome = protocol_flush(cpu, block)
            else:
                kind_code = stream_kinds[ev]
            if outcome is not NO_ACTION:
                operations, steal_from = outcome
                for operation in operations:
                    cpu_cycles, bus_cycles, is_miss, is_dirty, counter = (
                        op_info[operation]
                    )
                    if bus_cycles > 0.0:
                        if timed:
                            grant = bus_free if bus_free > clock else clock
                            if arbitration:
                                grant += arbitration
                                bus_arbitration += arbitration
                            bus_free = grant + bus_cycles
                            bus_busy += bus_cycles
                            bus_transactions += 1
                            if grant > clock:
                                waits[cpu] += grant - clock
                            clock = grant + cpu_cycles
                        elif granted < 0.0:
                            # Park on the operations left, this one
                            # first: every bus operation before it was
                            # served, so it is the first occurrence of
                            # its operation among ``operations``.
                            request(cpu, clock, bus_cycles)
                            parked[cpu] = (
                                operations[operations.index(operation):],
                                steal_from,
                                clock,
                            )
                            break
                        else:
                            # The resumed record's first operation,
                            # served by the grant.
                            waits[cpu] += granted - clock
                            clock = granted + cpu_cycles
                            granted = -1.0
                            operations = operations[1:]
                            if deferred_steals[cpu]:
                                clock += float(deferred_steals[cpu])
                                deferred_steals[cpu] = 0
                    else:
                        clock += cpu_cycles
                    counter[0] += 1
                    if is_miss:
                        if kind_code == 0:
                            fetch_misses += 1
                        else:
                            data_misses += 1
                            if shared_low <= stream_blocks[ev] < shared_high:
                                shared_data_misses += 1
                        if is_dirty:
                            dirty_victims += 1
                if not timed and parked[cpu] is not None:
                    positions[cpu] = e
                    event_index[cpu] = ev
                    next_event[cpu] = e
                    waiting += 1
                    decision = next_grant_at()
                    break
                if steal_from:
                    broadcast(steal_from, key, at_cpu)
                at_cpu = cpu
            outcome = None
            position = e + 1
            ev += 1
            e = events[ev] if ev < event_count else count
            if by_trace:
                key = trace_keys[ev]
            elif e > position:
                key = clock + (prefix[e] - prefix[position])
            else:
                key = clock
            if key > top_key or (
                key == top_key and cpu > top_cpu
            ) or key > decision:
                positions[cpu] = position
                event_index[cpu] = ev
                next_event[cpu] = e
                clocks[cpu] = clock
                frontier_keys[cpu] = clock
                if waiting:
                    heappush(runnable, (key, cpu))
                else:
                    # Nothing waits on a grant, so the least key runs
                    # next: exchange in one heap operation.
                    key, cpu = heappushpop(runnable, (key, cpu))
                    handoff = True
                break

    if timed:
        bus.free_at = bus_free
        bus.busy_cycles = bus_busy
        bus.arbitration_busy_cycles = bus_arbitration
        bus.transactions = bus_transactions
    mix = derived.mix
    result.cpus = [
        CpuStats(
            instructions=int(mix[cpu, 0]),
            loads=int(mix[cpu, 1]),
            stores=int(mix[cpu, 2]),
            flushes=int(mix[cpu, 3]),
            clock=clocks[cpu],
            wait_cycles=waits[cpu],
            stolen_cycles=steals[cpu],
        )
        for cpu in range(n)
    ]
    result.operation_counts = Counter(
        {op: info[4][0] for op, info in op_info.items() if info[4][0]}
    )
    result.fetch_misses = fetch_misses
    result.data_misses = data_misses
    result.shared_data_misses = shared_data_misses
    result.dirty_victim_misses = dirty_victims
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
            needs deferred grants (see :func:`Machine.run`).
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
        self.geometry  # validate the geometry eagerly

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
            engine: the loop to run, resolved through the engine
                registry (:func:`repro.sim.engines.machine_engine`),
                which declares each label's gate and reference
                contract.  ``"columnar"`` (default) runs the fast
                array-consuming loop over the synchronous fcfs bus
                (label ``columnar``, or ``columnar+arb`` with an
                arbitration overhead) or, under a non-``fcfs``
                discipline the synchronous bus cannot express, over
                the deferred-grant bus (label ``arbitrated``);
                ``"arbitrated"`` always runs it over the deferred-grant
                bus.  ``"legacy"`` runs the reference loop over the
                bus the discipline needs: the synchronous bus under
                ``fcfs``, the deferred-grant bus otherwise.
        """
        if order not in ("time", "trace"):
            raise ValueError(f"order must be 'time' or 'trace', got {order!r}")
        config = self.config
        entry = machine_engine(
            engine,
            self.protocol_class,
            self.costs,
            config.bus_discipline,
            config.bus_arbitration_cycles,
        )
        if cpus is not None and validate_cpus(cpus, trace.cpus) != trace.cpus:
            trace = trace.restricted_to(cpus)
        deferred = deferred_grants(entry, config.bus_discipline)
        if deferred and order == "trace":
            raise ValueError(
                "order='trace' cannot be honoured by the arbitrated "
                "engine: a processor parked on a bus grant would "
                "reorder its later records around other CPUs; "
                "use order='time'"
            )
        return self._replay(trace, order, entry, deferred)

    def _replay(
        self, trace: Trace, order: str, engine: Engine, deferred: bool
    ) -> SimulationResult:
        """Run one replay loop under ``engine``'s label: the columnar
        loop for an entry held to a reference, else the reference loop
        itself; ``deferred`` selects the deferred-grant bus."""
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
        if engine.reference is not None:
            derived = derived_columns(trace, block_shift)
            op_info = _op_info(self.costs)
            hits = _proven_hits(
                protocol, derived, op_info, bus.arbitration_cycles,
                caches[0].set_mask,
            )
            _run_columnar(
                derived,
                _replay_streams(derived, hits, protocol, order == "trace"),
                op_info, bus, result, protocol, caches,
            )
        else:
            _run_reference(
                trace, order, self.costs, protocol, bus, result,
                block_shift, is_shared_block,
            )
        result.bus_busy_cycles = bus.busy_cycles
        result.bus_transactions = bus.transactions
        result.bus_arbitration_cycles = bus.arbitration_busy_cycles
        result.protocol_stats = getattr(protocol, "stats", None)
        result.engine = engine.label
        result.records_replayed = len(trace)
        result.run_wall_s = time.perf_counter() - started
        note_replay(len(trace), engine.label)
        return result
