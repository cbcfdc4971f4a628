"""Bus contention model and end-to-end bus evaluation (Section 2.3).

An ``n``-processor bus system is a closed queueing network with a
single server (the bus) and ``n`` customers (the processors): each
processor thinks for ``c - b`` cycles between transactions and each
transaction holds the bus for ``b`` cycles on average.  Exact MVA
(see :mod:`repro.queueing.mva`) gives the contention cycles per
instruction ``w``; then::

    U = 1 / (c + w)                 (eq. 3)
    processing power = n * U
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

from repro.core.model import instruction_cost, transaction_moments
from repro.core.operations import CostTable
from repro.core.params import WorkloadParams
from repro.core.prediction import BusPrediction
from repro.core.schemes import CoherenceScheme
from repro.queueing.disciplines import (
    SERVICE_DISCIPLINES,
    solve_bus_discipline,
)
from repro.queueing.mva import (
    solve_machine_repairman,
    solve_machine_repairman_general,
)

__all__ = ["BusSystem", "validate_processors"]

_SERVICE_MODELS = ("exponential", "measured")


def validate_processors(processors) -> int:
    """Return ``processors`` as an ``int`` if it is a bus machine size
    (at least one processor).

    A float or bool count is rejected even when it equals an integer:
    the model would otherwise evaluate a truncated machine.
    """
    if isinstance(processors, bool) or not isinstance(
        processors, numbers.Integral
    ):
        raise ValueError(f"processors must be an integer, got {processors!r}")
    if processors < 1:
        raise ValueError(f"processors must be >= 1, got {processors}")
    return int(processors)


class BusSystem:
    """A shared-bus multiprocessor under the paper's analytical model.

    Args:
        costs: the machine's operation cost table; defaults to the
            paper's Table 1 (4-word blocks, 2-cycle memory).
        service_model: how the bus queueing model treats service
            times.  ``"exponential"`` is the paper's model (one
            transaction per instruction, exponential service of mean
            ``b``).  ``"measured"`` is an extension: transactions are
            modelled at their real granularity (one per miss/through/
            broadcast) with the service-time variance implied by the
            workload's operation mix, via residual-life AMVA.  The
            paper blames its contention overestimate on exactly this
            exponential assumption; the ``ablation-service-model``
            experiment compares the two against the simulator.
        bus_discipline: bus arbitration discipline, one of
            :data:`repro.queueing.disciplines.SERVICE_DISCIPLINES`
            (matching the simulator's registry).  The default
            ``fcfs`` with zero overhead takes exactly the original
            solver path.
        arbitration_cycles: fixed arbitration overhead per bus grant
            (per grant window under ``batched``).
    """

    def __init__(
        self,
        costs: CostTable | None = None,
        service_model: str = "exponential",
        bus_discipline: str = "fcfs",
        arbitration_cycles: float = 0.0,
    ):
        if service_model not in _SERVICE_MODELS:
            raise ValueError(
                f"service_model must be one of {_SERVICE_MODELS}, "
                f"got {service_model!r}"
            )
        if bus_discipline not in SERVICE_DISCIPLINES:
            raise ValueError(
                f"bus_discipline must be one of {SERVICE_DISCIPLINES}, "
                f"got {bus_discipline!r}"
            )
        if not 0.0 <= arbitration_cycles < float("inf"):
            raise ValueError(
                f"arbitration_cycles must be >= 0 and finite, "
                f"got {arbitration_cycles!r}"
            )
        self.costs = costs if costs is not None else CostTable.bus()
        self.service_model = service_model
        self.bus_discipline = bus_discipline
        self.arbitration_cycles = arbitration_cycles

    def evaluate(
        self,
        scheme: CoherenceScheme,
        params: WorkloadParams,
        processors: int,
    ) -> BusPrediction:
        """Predict utilisation and processing power for one system.

        Args:
            scheme: coherence scheme to model.
            params: workload parameters.
            processors: number of processors on the bus, ``>= 1``.

        Returns:
            The full :class:`~repro.core.prediction.BusPrediction`.
        """
        validate_processors(processors)
        cost = instruction_cost(scheme, params, self.costs)
        waiting = self._waiting_per_instruction(
            scheme, params, cost, processors
        )
        utilization = 1.0 / (cost.cpu_cycles + waiting)
        return BusPrediction(
            scheme=scheme.name,
            params=params,
            processors=processors,
            cost=cost,
            waiting_cycles=waiting,
            utilization=utilization,
            processing_power=processors * utilization,
            # All n processors issue b bus cycles per c+w wall cycles.
            bus_utilization=min(
                processors * cost.channel_cycles
                / (cost.cpu_cycles + waiting),
                1.0,
            ),
        )

    def _waiting_per_instruction(
        self,
        scheme: CoherenceScheme,
        params: WorkloadParams,
        cost,
        processors: int,
    ) -> float:
        """Mean bus-contention cycles per instruction, ``w``."""
        if cost.channel_cycles == 0.0:
            return 0.0
        default_arbiter = (
            self.bus_discipline == "fcfs" and self.arbitration_cycles == 0.0
        )
        if self.service_model == "exponential":
            if default_arbiter:
                # The paper's model: one transaction of mean b per
                # instruction, exponential service.
                solution = solve_machine_repairman(
                    population=processors,
                    think_time=cost.think_time,
                    service_time=cost.channel_cycles,
                )
                return solution.waiting_time
            corrected = solve_bus_discipline(
                self.bus_discipline,
                population=processors,
                think_time=cost.think_time,
                service_time=cost.channel_cycles,
                service_cv2=1.0,
                arbitration_cycles=self.arbitration_cycles,
            )
            return corrected.waiting_time
        # "measured": transactions at their real granularity with the
        # variance of the operation mix (extension).
        moments = transaction_moments(scheme, params, self.costs)
        if default_arbiter:
            solution = solve_machine_repairman_general(
                population=processors,
                think_time=cost.think_time / moments.rate,
                service_time=moments.mean_service,
                service_cv2=moments.cv2,
            )
            return solution.waiting_time * moments.rate
        corrected = solve_bus_discipline(
            self.bus_discipline,
            population=processors,
            think_time=cost.think_time / moments.rate,
            service_time=moments.mean_service,
            service_cv2=moments.cv2,
            arbitration_cycles=self.arbitration_cycles,
        )
        return corrected.waiting_time * moments.rate

    def sweep(
        self,
        scheme: CoherenceScheme,
        params: WorkloadParams,
        processor_counts: Iterable[int],
    ) -> list[BusPrediction]:
        """Evaluate one scheme at each processor count."""
        return [
            self.evaluate(scheme, params, processors)
            for processors in processor_counts
        ]

    def compare(
        self,
        schemes: Sequence[CoherenceScheme],
        params: WorkloadParams,
        processors: int,
    ) -> dict[str, BusPrediction]:
        """Evaluate several schemes on the same workload and machine."""
        return {
            scheme.name: self.evaluate(scheme, params, processors)
            for scheme in schemes
        }

    def saturation_processing_power(
        self, scheme: CoherenceScheme, params: WorkloadParams
    ) -> float:
        """Asymptotic processing power as processors are added.

        At saturation the bus completes ``1 / b`` transactions (hence
        instructions) per cycle, each representing one cycle of
        productive work, so processing power tends to ``1 / b`` — with
        per-grant arbitration overhead ``a``, ``1 / (b + a)``.  Under
        ``batched`` arbitration the grant windows grow without bound
        as the queue saturates, amortizing the overhead away again.
        Infinite if the scheme generates no bus traffic.
        """
        cost = instruction_cost(scheme, params, self.costs)
        if cost.channel_cycles == 0.0:
            return float("inf")
        overhead = self.arbitration_cycles
        if self.bus_discipline == "batched":
            overhead = 0.0
        return 1.0 / (cost.channel_cycles + overhead)
