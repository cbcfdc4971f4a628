"""Deferred-grant replay: the ``arbitrated`` engine and its reference.

A non-``fcfs`` bus discipline needs deferred grants: a processor posts
its bus request to the :class:`~repro.sim.bus.ArbitratedBus` and parks
until the discipline grants it, so requests pending together compete.
``Machine.run`` replays such configurations (and any explicit
``engine="arbitrated"`` run) with :func:`run_arbitrated`, a columnar
loop sharing the columnar engine's inputs, inline hits and proven-hit
spans.  :func:`run_deferred_reference`, one generator per processor
pumped a record at a time, is the executable specification it is held
``==`` to; ``engine="legacy"`` runs it under a non-``fcfs`` bus.

``Machine.run`` imports this module on first use: the paper's fcfs
artefacts never need it.
"""

from __future__ import annotations

import heapq
from bisect import insort

from repro.core.operations import CostTable
from repro.sim.bus import ArbitratedBus
from repro.sim.cache import Cache, LineState
from repro.sim.machine import (
    _DIRTY_VICTIM_OPERATIONS,
    _MISS_OPERATIONS,
    SimulationResult,
    _event_streams,
    _op_info,
    _proven_hits,
    _write_back,
)
from repro.sim.protocols import Protocol
from repro.sim.protocols.interface import NO_ACTION
from repro.trace.derived import derived_columns
from repro.trace.records import KIND_MEMBERS, AccessType, Trace

__all__ = ["run_arbitrated", "run_deferred_reference"]


def run_arbitrated(
    trace: Trace,
    costs: CostTable,
    arbitration_cycles: float,
    caches: list[Cache],
    protocol: Protocol,
    bus: ArbitratedBus,
    result: SimulationResult,
    block_shift: int,
    shared_low: int,
    shared_high: int,
) -> None:
    """Columnar deferred-grant replay honouring the bus discipline.

    Makes the decisions of :func:`run_deferred_reference` in the
    same order with the same float arithmetic (``==`` statistics,
    test-pinned), without a generator per processor:

    * A processor whose operation needs the bus posts the request
      and *parks* on its suspended record ``(kind, block, outcome,
      operation index, ready clock)``; the grant resumes it
      mid-record.  Steals landing on a parked processor are
      applied when its grant arrives.
    * The runnable processor with the least ``(key, cpu)`` runs
      next, its key being its clock at its last record boundary
      (steals land on the clock, not the key).  While a request
      is pending and that key is past the next arbitration
      instant, the bus grants instead.  The chosen processor runs
      a *burst*: it keeps going while its key stays below the
      runner-up's and at or before the arbitration instant, which
      is cached and recomputed only when a request is posted or a
      grant served.
    * Read hits of ``read_hit_is_free`` protocols use the inline
      LRU probe, as in the columnar engine.
    * With proven hits (:func:`repro.sim.machine._proven_hits`)
      only event records are scheduled; each span of proven hits
      before an event is applied lazily, as in the columnar event
      merge.  A cycle steal moves the victim's frontier past the
      span records that ran before the broadcast's merge position;
      their deferred touches replay before the victim's next event.
      A broadcast at the end of a granted record sits after every
      record keyed at or before that grant's arbitration instant:
      the reference ran all of those before granting, and no later
      request can move the instant below a key already run.
    """
    total = len(trace)
    n = trace.cpus
    if total == 0:
        return
    derived = derived_columns(trace, block_shift)
    op_info = _op_info(costs)
    set_mask = caches[0].set_mask
    hits = _proven_hits(
        protocol, derived, op_info, arbitration_cycles, set_mask,
        caches[0].geometry.associativity,
    )
    spans = hits is not None
    streams = _event_streams(derived, hits, protocol)
    counts = derived.counts
    cpu_events = streams.events
    cpu_prefix = streams.prefix
    cpu_touches = streams.touches
    cpu_fetch_pos = streams.fetch_pos

    clocks = [0.0] * n
    waits = [0.0] * n
    steals = [0] * n
    fetch_misses = 0
    data_misses = 0
    shared_data_misses = 0
    dirty_victims = 0

    handles_flush = protocol.handles_flush
    fast_hits = protocol.read_hit_is_free
    fast_shared_loads = fast_hits and protocol.caches_shared_data
    protocol_access = protocol.access
    protocol_flush = protocol.flush
    request = bus.request
    next_grant_at = bus.next_grant_at
    grant_next = bus.grant_next
    fetch, load, store = KIND_MEMBERS[:3]
    line_sets = [cache.line_sets for cache in caches]
    dirty_state = LineState.DIRTY
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
            runnable.append(
                (float(cpu_prefix[cpu][e]) if spans else 0.0, cpu)
            )
    heapq.heapify(runnable)
    cpu_static = [
        (
            cpu_events[cpu], len(cpu_events[cpu]), streams.kinds[cpu],
            streams.blocks[cpu], counts[cpu], line_sets[cpu],
            cpu_prefix[cpu] if spans else None,
            cpu_touches[cpu] if spans else None,
        )
        for cpu in range(n)
    ]
    heappush = heapq.heappush
    heappop = heapq.heappop

    def resume(
        cpu: int,
        kind_code: int,
        block: int,
        outcome,
        index: int,
        clock: float,
        granted: float,
    ) -> float:
        """Run ``outcome``'s operations from ``index`` on ``clock``.

        ``granted`` is the service start of the grant that serves
        operation ``index`` (negative if none).  Returns the clock
        at the end of the record, or -1.0 once an operation parks
        on a posted request.
        """
        nonlocal fetch_misses, data_misses, shared_data_misses
        nonlocal dirty_victims
        operations = outcome.operations
        while index < len(operations):
            cpu_cycles, bus_cycles, is_miss, is_dirty, counter = op_info[
                operations[index]
            ]
            if bus_cycles > 0.0:
                if granted < 0.0:
                    request(cpu, clock, bus_cycles)
                    parked[cpu] = (kind_code, block, outcome, index, clock)
                    return -1.0
                waits[cpu] += granted - clock
                clock = granted + cpu_cycles
                granted = -1.0
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
                    if shared_low <= block < shared_high:
                        shared_data_misses += 1
                if is_dirty:
                    dirty_victims += 1
            index += 1
        return clock

    def delay(cpu: int) -> None:
        """Move runnable ``cpu``'s merge key one cycle later."""
        for index, (key, candidate) in enumerate(runnable):
            if candidate == cpu:
                runnable[index] = (key + 1.0, cpu)
                heapq.heapify(runnable)
                return

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
            if not spans:
                continue
            fk = frontier_keys[victim]
            if fk > at_key or (fk == at_key and victim > at_cpu):
                # The victim's frontier record had not run yet, so
                # the steal is in every key from it onwards.
                if positions[victim] < next_event[victim]:
                    delay(victim)
                continue
            # Span records up to the merge position already ran:
            # advance the frontier past them, then land the steal
            # before the rest.  Span record ``m``'s key is the
            # pre-steal clock plus the fetch prefix from the old
            # frontier.  Their deferred MRU touches stay pending: the
            # victim's burst replays every touch before its next
            # event, even when the frontier lands on that event and
            # leaves it an empty span.
            prefix = cpu_prefix[victim]
            position = positions[victim]
            base = prefix[position]
            target = int(at_key - pre_clock) + base
            if victim < at_cpu:
                target += 1
            if target <= base:
                frontier = position + 1
            else:
                frontier = cpu_fetch_pos[victim][target - 1] + 1
            advance = prefix[frontier] - base
            if advance:
                clocks[victim] += advance
            positions[victim] = frontier
            frontier_keys[victim] = pre_clock + advance
            if frontier < next_event[victim]:
                delay(victim)

    def settle(cpu: int, clock: float) -> float:
        """Close ``cpu``'s record at ``next_event[cpu]``, which ended
        at ``clock``; return the key of its next event."""
        position = next_event[cpu] + 1
        ev = event_index[cpu] + 1
        events = cpu_events[cpu]
        e = events[ev] if ev < len(events) else counts[cpu]
        positions[cpu] = position
        event_index[cpu] = ev
        next_event[cpu] = e
        clocks[cpu] = clock
        frontier_keys[cpu] = clock
        if e > position:
            prefix = cpu_prefix[cpu]
            return clock + (prefix[e] - prefix[position])
        return clock

    waiting = 0  # CPUs parked on a posted request
    decision = infinity  # next arbitration instant, if any pending
    while True:
        if not runnable or runnable[0][0] > decision:
            if not waiting:
                break
            # Everyone keyed at or before the arbitration instant
            # has run: the discipline picks among the posted.
            granted_at = decision
            winner, start, _ = grant_next()
            kind_code, block, outcome, index, ready = parked[winner]
            parked[winner] = None
            clock = resume(
                winner, kind_code, block, outcome, index, ready, start
            )
            if clock >= 0.0:
                waiting -= 1
                if outcome.steal_from:
                    broadcast(outcome.steal_from, granted_at, n)
                heappush(runnable, (settle(winner, clock), winner))
            decision = next_grant_at() if waiting else infinity
            continue
        key, cpu = heappop(runnable)
        top_key, top_cpu = runnable[0] if runnable else (infinity, n)

        # One burst of ``cpu``: it runs while its key stays at or
        # before the arbitration instant and below the runner-up's.
        # Steals only ever delay other keys, so the runner-up read
        # here can end a burst early, never late.
        (
            events, event_count, stream_kinds, stream_blocks, count,
            cpu_sets, prefix, touches,
        ) = cpu_static[cpu]
        ev = event_index[cpu]
        e = next_event[cpu]
        position = positions[cpu]
        clock = clocks[cpu]
        while True:
            if spans:
                # The span of proven hits before the event: fetch
                # hits cost one cycle each (loads and local store
                # hits are free); the deferred MRU touches replay
                # in program order.  A steal may have advanced the
                # frontier onto the event itself, so the touches
                # still pending from before it replay even when the
                # span left is empty.
                if e > position:
                    delta = prefix[e] - prefix[position]
                    if delta:
                        clock += delta
                tp = touch_index[cpu]
                while tp < len(touches) and touches[tp][0] < e:
                    _, code, t_block = touches[tp]
                    tp += 1
                    cache_set = cpu_sets[t_block & set_mask]
                    if code == 4:
                        cache_set.pop(t_block)
                        cache_set[t_block] = dirty_state
                    else:
                        state = cache_set.pop(t_block)
                        cache_set[t_block] = state
                touch_index[cpu] = tp
            if e == count:
                clocks[cpu] = clock
                positions[cpu] = count
                frontier_keys[cpu] = infinity
                break
            kind_code = stream_kinds[ev]
            block = stream_blocks[ev]
            outcome = NO_ACTION
            if kind_code == 0:
                clock += 1.0
                if fast_hits:
                    cache_set = cpu_sets[block & set_mask]
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
                    cache_set = cpu_sets[block & set_mask]
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
            if outcome is not NO_ACTION:
                clock = resume(cpu, kind_code, block, outcome, 0, clock, -1.0)
                if clock < 0.0:
                    positions[cpu] = e
                    event_index[cpu] = ev
                    next_event[cpu] = e
                    waiting += 1
                    decision = next_grant_at()
                    break
                if outcome.steal_from:
                    broadcast(outcome.steal_from, key, cpu)
            position = e + 1
            ev += 1
            e = events[ev] if ev < event_count else count
            key = (
                clock + (prefix[e] - prefix[position])
                if e > position
                else clock
            )
            if key > decision or key > top_key or (
                key == top_key and cpu > top_cpu
            ):
                positions[cpu] = position
                event_index[cpu] = ev
                next_event[cpu] = e
                clocks[cpu] = clock
                frontier_keys[cpu] = clock
                heappush(runnable, (key, cpu))
                break

    _write_back(
        result, derived, clocks, waits, steals, op_info,
        (fetch_misses, data_misses, shared_data_misses, dirty_victims),
    )


def run_deferred_reference(
    trace: Trace,
    costs: CostTable,
    protocol: Protocol,
    bus: ArbitratedBus,
    result: SimulationResult,
    block_shift: int,
    is_shared_block,
) -> None:
    """Deferred-grant replay honouring the configured discipline: the
    executable specification :func:`run_arbitrated` is held ``==`` to.

    Each processor runs as a generator that parks (``yield "bus"``)
    when one of its operations needs the bus and resumes when the
    bus grants it; the scheduling loop advances runnable processors
    in the legacy merge order (lexicographic
    ``(clock-at-last-boundary, cpu)``) and, before every arbitration
    decision, advances every processor that can reach its next
    reference by the decision instant — so the pending pool really
    contains everyone present when the discipline picks a winner.

    Under ``fcfs`` with zero arbitration overhead this reproduces
    the legacy engine exactly for geometry-local protocols (one bus
    operation per record, no cycle steals — test-pinned).  For
    stealing protocols the engines can diverge on ties: a steal
    landing while the victim is parked is applied when it resumes,
    whereas the legacy loop applies it to the victim's clock
    immediately.  All engines satisfy the verifier's conservation
    invariants exactly.
    """
    cpu_cost = {op: cost.cpu_cycles for op, cost in costs.items()}
    bus_cost = {op: cost.channel_cycles for op, cost in costs.items()}
    stats = result.cpus
    op_counts = result.operation_counts
    handles_flush = protocol.handles_flush
    fetch = AccessType.INST_FETCH
    store = AccessType.STORE
    flush = AccessType.FLUSH
    n = trace.cpus

    streams: list[list] = [[] for _ in range(n)]
    for record in trace.records:
        streams[record.cpu].append(record)

    parked = [False] * n
    # Steals that landed while the victim was parked on a grant;
    # applied to its clock when the grant arrives.
    deferred_steals = [0] * n

    def stream(cpu: int):
        """One processor's replay as a coroutine.

        Yields ``"bus"`` to park on a posted bus request (the
        scheduling loop sends back the grant's service-start cycle)
        and ``None`` at every record boundary (where the scheduling
        loop refreezes the merge key).
        """
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
                    bus.request(cpu, ready, hold)
                    start = yield "bus"
                    cpu_stats.wait_cycles += start - ready
                    cpu_stats.clock = start + cpu_cost[operation]
                    if deferred_steals[cpu]:
                        cpu_stats.clock += float(deferred_steals[cpu])
                        deferred_steals[cpu] = 0
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
                if parked[victim_cpu]:
                    deferred_steals[victim_cpu] += 1
                else:
                    stats[victim_cpu].clock += 1.0
                stats[victim_cpu].stolen_cycles += 1
            yield None

    generators = [stream(cpu) for cpu in range(n)]
    # Merge keys: the clock frozen at each CPU's last record
    # boundary (steals land on the clock but not the frozen key —
    # the legacy heap's staleness).  ``runnable`` stays sorted so
    # strict ``<`` comparisons tie-break toward the lower CPU id.
    keys = [0.0] * n
    runnable = [cpu for cpu in range(n) if streams[cpu]]
    infinity = float("inf")

    def earliest() -> int:
        best_key = infinity
        best_cpu = -1
        for candidate in runnable:
            key = keys[candidate]
            if key < best_key:
                best_key = key
                best_cpu = candidate
        return best_cpu

    def pump(cpu: int, value=None) -> None:
        """Advance ``cpu`` to its next yield and update run state."""
        try:
            token = generators[cpu].send(value)
        except StopIteration:
            token = "done"
        was_parked = parked[cpu]
        if token == "bus":
            parked[cpu] = True
            if not was_parked:
                runnable.remove(cpu)
        elif token == "done":
            parked[cpu] = False
            if not was_parked:
                runnable.remove(cpu)
        else:
            parked[cpu] = False
            keys[cpu] = stats[cpu].clock
            if was_parked:
                insort(runnable, cpu)

    while runnable or bus.has_pending:
        if bus.has_pending:
            decision = bus.next_grant_at()
            # Everyone who reaches their next reference by the
            # arbitration instant gets to post first; new requests
            # can only move the decision earlier, so recompute.
            while runnable:
                cpu = earliest()
                if keys[cpu] > decision:
                    break
                pump(cpu)
                decision = bus.next_grant_at()
            winner, start, _ = bus.grant_next()
            pump(winner, start)
        else:
            pump(earliest())
