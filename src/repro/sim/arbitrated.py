"""Deferred-grant replay reference.

A non-``fcfs`` bus discipline needs deferred grants: a processor posts
its bus request to the :class:`~repro.sim.bus.ArbitratedBus` and parks
until the discipline grants it, so requests pending together compete.
``Machine.run`` replays such configurations (and any explicit
``engine="arbitrated"`` run) with its columnar loop over an
``ArbitratedBus``.  :func:`run_deferred_reference`, one generator per
processor pumped a record at a time, is the executable specification
that loop is held ``==`` to; ``engine="legacy"`` runs it under a
non-``fcfs`` bus.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING

from repro.core.operations import (
    DIRTY_VICTIM_OPERATIONS,
    MISS_OPERATIONS,
    CostTable,
)
from repro.sim.bus import ArbitratedBus
from repro.sim.protocols import Protocol
from repro.trace.records import AccessType, Trace

if TYPE_CHECKING:
    from repro.sim.machine import SimulationResult

__all__ = ["run_deferred_reference"]


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
    executable specification the columnar loop is held ``==`` to.

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
                if operation in MISS_OPERATIONS:
                    if kind is fetch:
                        result.fetch_misses += 1
                    else:
                        result.data_misses += 1
                        if is_shared_block(block):
                            result.shared_data_misses += 1
                    if operation in DIRTY_VICTIM_OPERATIONS:
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
