"""Batched queueing kernels: whole grids of (Z, S) pairs at once.

The scalar solvers in :mod:`repro.queueing.mva` and
:mod:`repro.queueing.delta` evaluate one workload point per call,
which makes a dense model surface (every figure and table in the paper
is one) cost one Python-level solve per cell.  The kernels here run
the *same recursions* with numpy arrays so a whole parameter grid
moves through each iteration in lock-step:

* :func:`solve_machine_repairman_grid` — exact MVA over arrays of
  think times ``Z`` and service times ``S``, solving **all
  populations 1..n in one pass** (the recursion visits them anyway,
  so a processor-count sweep is free);
* :func:`solve_machine_repairman_general_grid` — the residual-life
  AMVA extension for general service, same clamps as the scalar path;
* :func:`stage_rates_grid` / :func:`accepted_rate_grid` — Patel's
  delta-network recursion over offered-load arrays;
* :func:`closed_loop_thinking_grid` — the Section 6.2 closed-loop
  fixed point, bisected for every grid cell in lock-step.

Exactness contract
------------------

Each kernel performs, per grid cell, float operations identical in
kind *and order* to its scalar counterpart, and freezes each cell the
moment the scalar loop would have ``break``-ed.  IEEE-754 arithmetic
is deterministic, so the results are not merely close — they are
**bit-for-bit equal** to the scalar solvers, including saturation
cells (``Z == 0``), degenerate servers (``S == 0``), zero and
infinite request rates, and degenerate (0-stage) networks.  The
contract is enforced by ``tests/test_vectorized_equivalence.py`` and
``tests/queueing/test_batch.py``, and on arbitrary workloads by
``tests/properties/test_batch_properties.py`` — all with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queueing.delta import (
    _DEFAULT_TOLERANCE,
    _MAX_BISECTION_STEPS,
    _integer_power,
)

__all__ = [
    "MvaGridSolution",
    "accepted_rate_grid",
    "closed_loop_thinking_grid",
    "solve_machine_repairman_general_grid",
    "solve_machine_repairman_grid",
    "stage_rates_grid",
]


@dataclass(frozen=True)
class MvaGridSolution:
    """MVA solution for every population ``0..n`` over a (Z, S) grid.

    Attributes:
        population: the largest population solved, ``n``.
        think_time: broadcast ``Z`` array, shape ``grid``.
        service_time: broadcast ``S`` array, shape ``grid``.
        response_time: ``R(k)`` for ``k = 0..n``; shape
            ``(n + 1,) + grid``.
        throughput: ``X(k)``, same shape.
        queue_length: ``Q(k)``, same shape.
    """

    population: int
    think_time: np.ndarray
    service_time: np.ndarray
    response_time: np.ndarray
    throughput: np.ndarray
    queue_length: np.ndarray

    def waiting_time(self, population: int | None = None) -> np.ndarray:
        """Mean contention time ``max(R(k) - S, 0)`` at one population.

        The clamp mirrors :attr:`repro.queueing.mva.MvaResult.waiting_time`.
        """
        k = self.population if population is None else population
        return np.maximum(self.response_time[k] - self.service_time, 0.0)

    def server_utilization(self, population: int | None = None) -> np.ndarray:
        """``X(k) * S`` at one population."""
        k = self.population if population is None else population
        return self.throughput[k] * self.service_time


def _validated_grid(
    think_time: np.ndarray, service_time: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    think = np.asarray(think_time, dtype=float)
    service = np.asarray(service_time, dtype=float)
    if np.any(think < 0.0):
        raise ValueError("think_time must be >= 0 everywhere")
    if np.any(service < 0.0):
        raise ValueError("service_time must be >= 0 everywhere")
    think, service = np.broadcast_arrays(think, service)
    return think, service


def _fix_degenerate_server(
    think: np.ndarray,
    service: np.ndarray,
    population: int,
    response: list[np.ndarray],
    throughput: list[np.ndarray],
    queue: list[np.ndarray],
) -> None:
    """Apply the scalar solvers' ``S == 0`` branch to matching cells.

    The scalar path short-circuits a zero service time (requests
    complete instantly): ``R = 0``, ``Q = 0``, and
    ``X = k / Z`` (``inf`` at ``Z == 0``).  The generic recursion
    already produces ``R = 0`` for those cells but can emit ``nan``
    queue lengths when ``Z == 0`` too, so the branch is replayed here.
    """
    degenerate = service == 0.0
    if not np.any(degenerate):
        return
    with np.errstate(divide="ignore"):
        for k in range(1, population + 1):
            rate = np.where(think > 0.0, k / np.where(think > 0.0, think, 1.0),
                            np.inf)
            throughput[k] = np.where(degenerate, rate, throughput[k])
            response[k] = np.where(degenerate, 0.0, response[k])
            queue[k] = np.where(degenerate, 0.0, queue[k])


def solve_machine_repairman_grid(
    population: int,
    think_time: np.ndarray,
    service_time: np.ndarray,
) -> MvaGridSolution:
    """Exact MVA over a grid of (Z, S) pairs, all populations at once.

    Per cell, every float operation matches
    :func:`repro.queueing.mva.solve_machine_repairman` — the result at
    population ``k`` is bit-identical to a scalar solve with
    ``population=k``, because exact MVA at population ``k`` is a
    prefix of the recursion at any larger population.

    Args:
        population: largest population to solve, ``>= 0``.
        think_time: array of think times ``Z >= 0``.
        service_time: array of service times ``S >= 0``;
            broadcastable against ``think_time``.
    """
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    think, service = _validated_grid(think_time, service_time)
    shape = think.shape

    zeros = np.zeros(shape)
    response = [zeros.copy() for _ in range(population + 1)]
    throughput = [zeros.copy() for _ in range(population + 1)]
    queue = [zeros.copy() for _ in range(population + 1)]

    queue_k = np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, population + 1):
            response_k = service * (1.0 + queue_k)
            throughput_k = k / (think + response_k)
            queue_k = throughput_k * response_k
            response[k] = response_k
            throughput[k] = throughput_k
            queue[k] = queue_k
    _fix_degenerate_server(
        think, service, population, response, throughput, queue
    )
    return MvaGridSolution(
        population=population,
        think_time=think,
        service_time=service,
        response_time=np.stack(response),
        throughput=np.stack(throughput),
        queue_length=np.stack(queue),
    )


def solve_machine_repairman_general_grid(
    population: int,
    think_time: np.ndarray,
    service_time: np.ndarray,
    service_cv2: np.ndarray = 1.0,
) -> MvaGridSolution:
    """Residual-life AMVA over a grid, mirroring the scalar solver.

    Per cell this matches
    :func:`repro.queueing.mva.solve_machine_repairman_general`
    bit-for-bit, including the saturation clamp
    ``R(k) >= k * S - Z`` and the utilisation cap at 1.  Cells with
    ``S == 0`` take the exact-solver degenerate branch, exactly as the
    scalar code delegates them.

    Args:
        service_cv2: squared coefficient of variation of service,
            ``>= 0`` everywhere; scalar or array.
    """
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population}")
    cv2 = np.asarray(service_cv2, dtype=float)
    if np.any(cv2 < 0.0):
        raise ValueError("service_cv2 must be >= 0 everywhere")
    think, service = _validated_grid(think_time, service_time)
    think, service, cv2 = np.broadcast_arrays(think, service, cv2)
    shape = think.shape

    zeros = np.zeros(shape)
    response = [zeros.copy() for _ in range(population + 1)]
    throughput = [zeros.copy() for _ in range(population + 1)]
    queue = [zeros.copy() for _ in range(population + 1)]

    residual = service * (1.0 + cv2) / 2.0
    queue_k = np.zeros(shape)
    utilization = np.zeros(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, population + 1):
            waiting_for_queued = (
                np.maximum(queue_k - utilization, 0.0) * service
            )
            response_k = service + utilization * residual + waiting_for_queued
            response_k = np.maximum(response_k, k * service - think)
            throughput_k = k / (think + response_k)
            queue_k = throughput_k * response_k
            utilization = np.minimum(throughput_k * service, 1.0)
            response[k] = response_k
            throughput[k] = throughput_k
            queue[k] = queue_k
    _fix_degenerate_server(
        think, service, population, response, throughput, queue
    )
    return MvaGridSolution(
        population=population,
        think_time=think,
        service_time=service,
        response_time=np.stack(response),
        throughput=np.stack(throughput),
        queue_length=np.stack(queue),
    )


def stage_rates_grid(
    offered: np.ndarray, stages: int, switch_size: int = 2
) -> np.ndarray:
    """Patel's recursion over an offered-load array.

    Returns the per-stage rates ``[m_0 .. m_n]`` stacked along a new
    leading axis, shape ``(stages + 1,) + offered.shape``.  Matches
    :func:`repro.queueing.delta.stage_rates` elementwise.
    """
    offered = np.asarray(offered, dtype=float)
    if np.any((offered < 0.0) | (offered > 1.0)):
        raise ValueError("offered rate must be in [0, 1] everywhere")
    if stages < 0:
        raise ValueError(f"stages must be >= 0, got {stages}")
    if switch_size < 2:
        raise ValueError(f"switch_size must be >= 2, got {switch_size}")
    rates = [offered]
    rate = offered
    for _ in range(stages):
        rate = 1.0 - _integer_power(1.0 - rate / switch_size, switch_size)
        rates.append(rate)
    return np.stack(rates)


def accepted_rate_grid(
    offered: np.ndarray, stages: int, switch_size: int = 2
) -> np.ndarray:
    """The memory-side rate ``m_n`` for an offered-load array."""
    return stage_rates_grid(offered, stages, switch_size)[-1]


def closed_loop_thinking_grid(
    request_rate: np.ndarray,
    stages: int,
    switch_size: int = 2,
    tolerance: float = _DEFAULT_TOLERANCE,
) -> np.ndarray:
    """The Section 6.2 fixed point ``U`` for a grid of request rates.

    All cells bisect in lock-step; a cell freezes the moment the
    scalar loop in :func:`repro.queueing.delta.closed_loop_utilization`
    would have ``break``-ed (interval within tolerance, or the
    midpoint no longer separating), so the result is bit-identical to
    the scalar solver per cell — including ``r == 0`` (``U = 1``),
    ``r == inf`` (driven to the saturated boundary), and the 0-stage
    degenerate network (analytic ``U = 1 / (1 + r)``).

    Args:
        request_rate: array of unit-request rates ``r >= 0``.
        stages: number of switch stages, ``>= 0``.
        switch_size: crossbar dimension ``k >= 2``.
        tolerance: absolute bisection tolerance on ``U``, ``> 0``.
    """
    rate = np.asarray(request_rate, dtype=float)
    if np.any(rate < 0.0):
        raise ValueError("request_rate must be >= 0 everywhere")
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if stages < 0:
        raise ValueError(f"stages must be >= 0, got {stages}")
    if switch_size < 2:
        raise ValueError(f"switch_size must be >= 2, got {switch_size}")

    if stages == 0:
        # Mirrors the scalar fast path: m_n == m_0, so U is analytic.
        # 1 / (1 + 0) == 1.0 exactly, covering the r == 0 cells too.
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 + rate)

    shape = rate.shape
    low = np.zeros(shape)
    high = np.ones(shape)
    active = rate > 0.0
    with np.errstate(invalid="ignore"):
        for _ in range(_MAX_BISECTION_STEPS):
            if not np.any(active):
                break
            mid = 0.5 * (low + high)
            # Cells whose interval no longer separates break *before*
            # updating, exactly like the scalar guard.
            active = active & (mid > low) & (mid < high)
            accepted = 1.0 - mid
            for _ in range(stages):
                accepted = 1.0 - _integer_power(
                    1.0 - accepted / switch_size, switch_size
                )
            surplus = accepted - mid * rate
            go_low = active & (surplus > 0.0)
            go_high = active & ~(surplus > 0.0)
            low = np.where(go_low, mid, low)
            high = np.where(go_high, mid, high)
            active = active & ((high - low) > tolerance)

    thinking = np.clip(0.5 * (low + high), 0.0, 1.0)
    return np.where(rate > 0.0, thinking, 1.0)
