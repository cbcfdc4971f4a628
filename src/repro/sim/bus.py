"""Shared-bus timing with parameterized arbitration disciplines.

The simulated bus is a single shared resource: a transaction occupies
it for a fixed number of cycles (from the machine's cost table, the
paper's Table 1), and a processor whose transaction finds the bus busy
waits until it frees.

Two bus classes implement two service models:

* :class:`TimedBus` — the original synchronous bus.  ``transact``
  grants immediately, in *call order* (the order the replay engine
  presents transactions), which approximates the arbitration of the
  traced machine.  This is the ``fcfs`` discipline and stays
  byte-identical to the pre-discipline simulator (test-pinned).
* :class:`ArbitratedBus` — a deferred-grant bus for the parameterized
  disciplines.  Requests are *posted* with :meth:`ArbitratedBus.request`
  and served later by :meth:`ArbitratedBus.grant_next`, so requesters
  that are simultaneously pending genuinely compete and the discipline
  decides who wins.  Used by ``Machine.run``'s ``arbitrated`` engine.

Registered disciplines (:data:`DISCIPLINES`):

``fcfs``
    Grants in request order — the oldest posted request wins.  With
    zero arbitration overhead this reproduces :class:`TimedBus`.
``round-robin``
    A rotating pointer over CPU ids: among the requests pending at the
    arbitration instant, the first CPU at or after the pointer wins,
    and the pointer advances past the winner.
``fixed-priority``
    The lowest CPU id pending at the arbitration instant wins —
    deliberately starvation-prone, as a bound on unfair arbitration.
``batched``
    Gated grant windows (the discipline of arXiv:1004.3560): when the
    bus arbitrates, the pending pool is frozen into one batch (served
    in CPU-id order) and later arrivals wait for the next window.  One
    arbitration overhead is paid per *window*, amortizing
    re-arbitration across the batch.

Accounting invariants (loud, not clamped):

* ``busy_cycles`` counts *service* cycles only, so the verifier's bus
  conservation law (``busy_cycles == cost-weighted bus operations``)
  holds under every discipline; arbitration overhead accrues
  separately in ``arbitration_busy_cycles``.
* Utilization above 1.0 (beyond float epsilon) means bus cycles were
  double-counted and raises ``ValueError`` instead of silently
  clamping — the same loud-failure rule as the NaN guard in
  :mod:`repro.sim.measure`.
"""

from __future__ import annotations

__all__ = [
    "DISCIPLINES",
    "ArbitratedBus",
    "TimedBus",
    "checked_utilization",
    "validate_arbitration_cycles",
    "validate_discipline",
]

#: Registered bus arbitration disciplines.  This tuple is the single
#: source of truth: ``SimulationConfig`` validation, the CLI choices,
#: the fuzz differential, and the queueing-model counterpart
#: (``repro.queueing.disciplines.SERVICE_DISCIPLINES``) all track it,
#: pinned by ``tests/test_registry_drift.py``.
DISCIPLINES = ("fcfs", "round-robin", "fixed-priority", "batched")

#: Relative slack for the utilization-over-1.0 guard: a busy total one
#: rounding step above ``elapsed`` is float noise, anything more is a
#: double-counting bug.
UTILIZATION_TOLERANCE = 1e-9

_INFINITY = float("inf")


def validate_discipline(discipline: str) -> str:
    """Return ``discipline`` if registered, else raise ``ValueError``."""
    if discipline not in DISCIPLINES:
        raise ValueError(
            f"unknown bus discipline {discipline!r}; choose from "
            f"{', '.join(DISCIPLINES)}"
        )
    return discipline


def validate_arbitration_cycles(arbitration_cycles: float) -> float:
    """Validate a per-arbitration overhead (non-negative, finite)."""
    if not 0.0 <= arbitration_cycles < _INFINITY:
        raise ValueError(
            f"arbitration_cycles must be >= 0 and finite, "
            f"got {arbitration_cycles!r}"
        )
    return arbitration_cycles


def checked_utilization(busy_cycles: float, elapsed_cycles: float) -> float:
    """``busy / elapsed``, raising loudly when it exceeds 1.0.

    A shared bus cannot be held for more cycles than elapsed; a ratio
    above 1.0 (beyond float epsilon) means bus cycles were
    double-counted somewhere upstream.  The old code clamped that to
    1.0, silently masking the bug.
    """
    if elapsed_cycles <= 0.0:
        return 0.0
    utilization = busy_cycles / elapsed_cycles
    if utilization > 1.0 + UTILIZATION_TOLERANCE:
        raise ValueError(
            f"bus utilization {utilization!r} exceeds 1.0: busy cycles "
            f"{busy_cycles!r} > elapsed cycles {elapsed_cycles!r} "
            "(double-counted bus cycles)"
        )
    return min(utilization, 1.0)


class TimedBus:
    """Cycle bookkeeping for the shared bus (synchronous, call order).

    Args:
        arbitration_cycles: fixed overhead added to every grant (the
            re-arbitration cost of the ``fcfs`` discipline).  The
            default 0.0 keeps the grant arithmetic byte-identical to
            the pre-discipline bus.

    Attributes:
        free_at: earliest cycle at which the bus is idle.
        busy_cycles: total cycles the bus was held for *service*.
        arbitration_busy_cycles: total cycles spent arbitrating.
        transactions: number of transactions granted.
    """

    def __init__(self, arbitration_cycles: float = 0.0) -> None:
        validate_arbitration_cycles(arbitration_cycles)
        self.arbitration_cycles: float = arbitration_cycles
        self.free_at: float = 0.0
        self.busy_cycles: float = 0.0
        self.arbitration_busy_cycles: float = 0.0
        self.transactions: int = 0

    def transact(self, ready_at: float, hold_cycles: float) -> tuple[float, float]:
        """Acquire the bus at or after ``ready_at`` for ``hold_cycles``.

        Args:
            ready_at: cycle at which the requesting processor is ready
                (non-negative and finite — an out-of-range value means
                the caller's clock arithmetic already went wrong, and
                accepting it would reorder grants invisibly).
            hold_cycles: bus service time of the transaction, ``> 0``.

        Returns:
            ``(grant_cycle, wait_cycles)`` — when the transaction
            started and how long the processor waited for the grant.
            Grants are monotonic: the bus frees only forward in time,
            so a later call never starts before an earlier grant.
        """
        if not 0.0 <= ready_at < _INFINITY:
            raise ValueError(
                f"ready_at must be a non-negative finite cycle, "
                f"got {ready_at!r}"
            )
        if hold_cycles <= 0.0:
            raise ValueError(f"hold_cycles must be > 0, got {hold_cycles}")
        grant = self.free_at if self.free_at > ready_at else ready_at
        if self.arbitration_cycles:
            grant += self.arbitration_cycles
            self.arbitration_busy_cycles += self.arbitration_cycles
        self.free_at = grant + hold_cycles
        self.busy_cycles += hold_cycles
        self.transactions += 1
        return grant, grant - ready_at

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of ``elapsed_cycles`` the bus was held.

        Raises:
            ValueError: if busy cycles exceed elapsed cycles beyond
                float epsilon (double-counted bus cycles).
        """
        return checked_utilization(self.busy_cycles, elapsed_cycles)


class ArbitratedBus:
    """Deferred-grant shared bus with a pluggable arbitration discipline.

    The replay engine posts one outstanding request per CPU with
    :meth:`request`, asks :meth:`next_grant_at` when the next
    arbitration decision falls in simulated time, and lets
    :meth:`grant_next` pick the winner.  Splitting request from grant
    is what makes the disciplines meaningful: every CPU whose request
    is posted by the arbitration instant is *simultaneously pending*
    and competes under the discipline's rule, instead of being served
    in the incidental order a synchronous ``transact`` would impose.

    Args:
        cpus: number of processors that may request (fixes the
            round-robin rotation order).
        discipline: one of :data:`DISCIPLINES`.
        arbitration_cycles: overhead per arbitration — charged per
            grant, except under ``batched`` where one charge covers
            the whole grant window.
    """

    def __init__(
        self,
        cpus: int,
        discipline: str = "fcfs",
        arbitration_cycles: float = 0.0,
    ) -> None:
        if cpus < 1:
            raise ValueError(f"cpus must be >= 1, got {cpus}")
        validate_discipline(discipline)
        validate_arbitration_cycles(arbitration_cycles)
        self.cpus = cpus
        self.discipline = discipline
        self.arbitration_cycles = arbitration_cycles
        self.free_at: float = 0.0
        self.busy_cycles: float = 0.0
        self.arbitration_busy_cycles: float = 0.0
        self.transactions: int = 0
        #: Grants per CPU — the fairness ledger the discipline tests
        #: (starvation under fixed-priority, rotation under
        #: round-robin) read.
        self.grants_by_cpu = [0] * cpus
        # cpu -> (ready_at, seq, hold_cycles); one outstanding request
        # per CPU (a processor blocks on its transaction).
        self._pending: dict[int, tuple[float, int, float]] = {}
        self._seq = 0
        self._rotation = 0  # round-robin: first CPU considered next
        self._batch: list[int] = []  # frozen grant window, head first

    def request(self, cpu: int, ready_at: float, hold_cycles: float) -> None:
        """Post ``cpu``'s transaction; it is granted later.

        Validation mirrors :meth:`TimedBus.transact` (non-negative
        finite ``ready_at``, positive ``hold_cycles``); additionally a
        CPU cannot post twice — it is blocked on its first request.
        """
        if not 0 <= cpu < self.cpus:
            raise ValueError(f"cpu must be in [0, {self.cpus}), got {cpu}")
        if not 0.0 <= ready_at < _INFINITY:
            raise ValueError(
                f"ready_at must be a non-negative finite cycle, "
                f"got {ready_at!r}"
            )
        if hold_cycles <= 0.0:
            raise ValueError(f"hold_cycles must be > 0, got {hold_cycles}")
        if cpu in self._pending:
            raise ValueError(
                f"cpu {cpu} already has a pending bus request "
                "(one outstanding transaction per processor)"
            )
        self._pending[cpu] = (ready_at, self._seq, hold_cycles)
        self._seq += 1

    def next_grant_at(self) -> float:
        """Simulated time of the next arbitration decision.

        The replay engine must advance every processor that can reach
        its next reference at or before this instant *before* calling
        :meth:`grant_next`, so the pending pool really contains
        everyone present at the decision.
        """
        if self._batch:
            # An open batched window serves its members back-to-back;
            # later arrivals wait for the next window.
            ready = self._pending[self._batch[0]][0]
        elif not self._pending:
            raise ValueError("no pending bus requests")
        elif self.discipline == "fcfs":
            # Request order: the oldest posted request is always next,
            # and ``_pending`` iterates in posting order.
            ready = next(iter(self._pending.values()))[0]
        else:
            # Entries order by ready cycle first.
            ready = min(self._pending.values())[0]
        return self.free_at if self.free_at > ready else ready

    def grant_next(self) -> tuple[int, float, float]:
        """Arbitrate once and serve the winner.

        Returns:
            ``(cpu, service_start, wait_cycles)`` — the winning CPU,
            the cycle its transaction starts occupying the bus, and
            how long it waited since its ``ready_at``.
        """
        now = self.next_grant_at()
        overhead = self.arbitration_cycles
        if self._batch:
            # Continuing an open window: arbitration already paid.
            cpu = self._batch.pop(0)
            overhead = 0.0
        else:
            pool = [
                cpu
                for cpu, (ready, _, _) in self._pending.items()
                if ready <= now
            ]
            if self.discipline == "fcfs":
                # The oldest request is ready by ``now`` and first in
                # posting order.
                cpu = pool[0]
            elif self.discipline == "fixed-priority":
                cpu = min(pool)
            elif self.discipline == "round-robin":
                # The first pending CPU at or after the pointer, else
                # the first overall (the search wraps around).
                rotation = self._rotation
                later = [c for c in pool if c >= rotation]
                cpu = min(later) if later else min(pool)
                self._rotation = (cpu + 1) % self.cpus
            else:  # batched: freeze the pool into one grant window
                self._batch = sorted(pool)
                cpu = self._batch.pop(0)
        ready, _, hold = self._pending.pop(cpu)
        start = now + overhead
        self.arbitration_busy_cycles += overhead
        self.free_at = start + hold
        self.busy_cycles += hold
        self.transactions += 1
        self.grants_by_cpu[cpu] += 1
        return cpu, start, start - ready

    def utilization(self, elapsed_cycles: float) -> float:
        """Service fraction of ``elapsed_cycles`` (arbitration excluded).

        Raises:
            ValueError: if busy cycles exceed elapsed cycles beyond
                float epsilon (double-counted bus cycles).
        """
        return checked_utilization(self.busy_cycles, elapsed_cycles)
