"""Multistage-network performance models (Section 6).

:class:`NetworkSystem` implements the paper's model: an unbuffered,
circuit-switched delta network of 2x2 crossbars, one-word-wide paths,
coupled to the processors through Patel's unit-request approximation
and the closed-loop fixed point of Section 6.2 (solved in
:mod:`repro.queueing.delta`).

:class:`BufferedNetworkSystem` is an **extension beyond the paper**
(its Section 6.3 notes "use of packet-switching would be more favorable
to No-Cache"): a buffered packet-switched delta network where each
switch stage is approximated as an M/M/1 queue.  It exists to support
the packet-switching ablation benchmark and is not used by any paper
figure.
"""

from __future__ import annotations

import numbers
from typing import Iterable

from repro.core.model import InstructionCost, instruction_cost
from repro.core.operations import CostTable, derive_network_costs
from repro.core.params import WorkloadParams
from repro.core.prediction import NetworkPrediction
from repro.core.schemes import CoherenceScheme
from repro.queueing.delta import DeltaNetwork, closed_loop_utilization

__all__ = [
    "BufferedNetworkSystem",
    "NetworkSystem",
    "UnsupportedSchemeError",
    "validate_stages",
]


def validate_stages(stages) -> int:
    """Return ``stages`` as an ``int`` if it is a network stage count
    (at least one stage); a float or bool count is rejected, as by
    :func:`repro.core.bus.validate_processors`."""
    if isinstance(stages, bool) or not isinstance(stages, numbers.Integral):
        raise ValueError(f"stages must be an integer, got {stages!r}")
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    return int(stages)


class UnsupportedSchemeError(ValueError):
    """Raised when a scheme cannot run on the requested interconnect.

    Snoopy schemes (Dragon) need a broadcast medium; a multistage
    network has none.
    """


class NetworkSystem:
    """A multiprocessor on a circuit-switched multistage network.

    Args:
        stages: number of switch stages ``n``; the machine has
            ``2**n`` processors and memories.
        costs: operation cost table; defaults to the paper's Table 9
            for this stage count.
    """

    def __init__(self, stages: int, costs: CostTable | None = None):
        self.stages = stages = validate_stages(stages)
        self.network = DeltaNetwork(stages=stages)
        self.costs = costs if costs is not None else derive_network_costs(stages)

    @property
    def processors(self) -> int:
        """Number of processor ports, ``2**stages``."""
        return self.network.ports

    def _check_scheme(self, scheme: CoherenceScheme) -> None:
        if scheme.requires_broadcast:
            raise UnsupportedSchemeError(
                f"{scheme.name} requires a broadcast medium and cannot run "
                f"on a multistage network"
            )

    def evaluate(
        self, scheme: CoherenceScheme, params: WorkloadParams
    ) -> NetworkPrediction:
        """Predict utilisation and processing power on this network.

        Raises:
            UnsupportedSchemeError: for snoopy (broadcast) schemes.
        """
        self._check_scheme(scheme)
        cost = instruction_cost(scheme, params, self.costs)
        return self._predict(scheme.name, params, cost)

    def _predict(
        self, scheme_name: str, params: WorkloadParams, cost: InstructionCost
    ) -> NetworkPrediction:
        think = cost.think_time
        demand = cost.channel_cycles
        if demand == 0.0:
            # No network traffic at all: the processor never stalls.
            return NetworkPrediction(
                scheme=scheme_name,
                params=params,
                stages=self.stages,
                processors=self.processors,
                cost=cost,
                request_rate=0.0,
                thinking_fraction=1.0,
                offered_rate=0.0,
                accepted_rate=0.0,
                time_per_instruction=cost.cpu_cycles,
                utilization=cost.uncontended_utilization,
                processing_power=self.processors * cost.uncontended_utilization,
            )

        if think == 0.0:
            # Saturation: the instruction mix is pure channel demand
            # (c == b), so the processor never thinks and never makes
            # forward progress.  Mirrors the transaction_rate == 0.0
            # convention in repro.core.model for the same cells.
            return NetworkPrediction(
                scheme=scheme_name,
                params=params,
                stages=self.stages,
                processors=self.processors,
                cost=cost,
                request_rate=float("inf"),
                thinking_fraction=0.0,
                offered_rate=1.0,
                accepted_rate=self.network.accepted_rate(1.0),
                time_per_instruction=float("inf"),
                utilization=0.0,
                processing_power=0.0,
            )

        # Unit-request approximation: m = 1/(c-b) transactions per busy
        # cycle of size t = b, i.e. r = m*t unit requests per thinking
        # cycle.
        request_rate = demand / think
        fixed_point = closed_loop_utilization(self.network, request_rate)
        thinking = fixed_point.thinking_fraction
        time_per_instruction = think / thinking
        utilization = 1.0 / time_per_instruction
        return NetworkPrediction(
            scheme=scheme_name,
            params=params,
            stages=self.stages,
            processors=self.processors,
            cost=cost,
            request_rate=request_rate,
            thinking_fraction=thinking,
            offered_rate=fixed_point.offered_rate,
            accepted_rate=fixed_point.accepted_rate,
            time_per_instruction=time_per_instruction,
            utilization=utilization,
            processing_power=self.processors * utilization,
        )

    def evaluate_message_load(
        self, message_words: float, transaction_rate: float
    ) -> NetworkPrediction:
        """Evaluate an abstract (rate, message size) load point.

        Used for Figure 11, which sweeps request rate for several
        message sizes rather than deriving them from a workload.  The
        network time per transaction is ``message_words + 2 * stages``
        (path setup and return), and the processor thinks for
        ``1 / transaction_rate`` cycles between transactions.

        Args:
            message_words: the paper's "message size" (network service
                time minus ``2n``), ``> 0``.
            transaction_rate: transactions per thinking cycle, ``> 0``.
        """
        if message_words <= 0.0:
            raise ValueError(f"message_words must be > 0, got {message_words}")
        if transaction_rate <= 0.0:
            raise ValueError(
                f"transaction_rate must be > 0, got {transaction_rate}"
            )
        think = 1.0 / transaction_rate
        demand = message_words + 2.0 * self.stages
        cost = InstructionCost(
            cpu_cycles=think + demand, channel_cycles=demand
        )
        params = WorkloadParams.middle()  # placeholder; load is abstract
        return self._predict(
            f"load(size={message_words:g})", params, cost
        )

    def sweep_schemes(
        self,
        schemes: Iterable[CoherenceScheme],
        params: WorkloadParams,
    ) -> dict[str, NetworkPrediction]:
        """Evaluate several schemes on the same network and workload."""
        return {
            scheme.name: self.evaluate(scheme, params) for scheme in schemes
        }


class BufferedNetworkSystem:
    """Extension: a buffered packet-switched delta network.

    Not part of the paper's model.  Each transaction is a packet; each
    of the ``2n`` switch stages on the round trip is approximated as an
    M/M/1 queue with one-word service, per-direction link load
    ``rho = message_words / (2 * T)`` where ``T`` is the wall-clock
    time per instruction.  The fixed point on ``T`` is solved by
    bisection (the right-hand side is decreasing in ``T``).

    Compared to circuit switching, there is no end-to-end path setup:
    long messages pipeline through the stages, which favours schemes
    with many small messages (No-Cache) exactly as the paper's
    Section 6.3 anticipates.
    """

    def __init__(self, stages: int, costs: CostTable | None = None):
        self.stages = stages = validate_stages(stages)
        self.costs = costs if costs is not None else derive_network_costs(stages)

    @property
    def processors(self) -> int:
        return 2**self.stages

    def evaluate(
        self, scheme: CoherenceScheme, params: WorkloadParams
    ) -> NetworkPrediction:
        """Predict performance under the buffered packet-switched model."""
        if scheme.requires_broadcast:
            raise UnsupportedSchemeError(
                f"{scheme.name} requires a broadcast medium and cannot run "
                f"on a multistage network"
            )
        cost = instruction_cost(scheme, params, self.costs)
        think = cost.think_time
        message_words = max(cost.channel_cycles - 2.0 * self.stages, 0.0)
        if message_words == 0.0:
            time_per_instruction = cost.cpu_cycles
        else:
            time_per_instruction = self._solve_time(think, message_words)

        utilization = 1.0 / time_per_instruction
        return NetworkPrediction(
            scheme=scheme.name,
            params=params,
            stages=self.stages,
            processors=self.processors,
            cost=cost,
            request_rate=message_words / think if think > 0 else float("inf"),
            thinking_fraction=think / time_per_instruction,
            offered_rate=message_words / (2.0 * time_per_instruction),
            accepted_rate=message_words / (2.0 * time_per_instruction),
            time_per_instruction=time_per_instruction,
            utilization=utilization,
            processing_power=self.processors * utilization,
        )

    def _solve_time(self, think: float, message_words: float) -> float:
        """Fixed point ``T = think + latency(rho(T))`` by bisection."""
        hops = 2.0 * self.stages

        def latency(time_per_instruction: float) -> float:
            load = message_words / (2.0 * time_per_instruction)
            if load >= 1.0:
                return float("inf")
            per_stage_wait = load / (1.0 - load)
            return hops * (1.0 + per_stage_wait) + message_words

        floor = think + hops + message_words
        low = floor
        high = floor
        while latency(high) + think > high:
            high *= 2.0
            if high > 1e12:
                break
        for _ in range(200):
            mid = 0.5 * (low + high)
            if latency(mid) + think > mid:
                low = mid
            else:
                high = mid
            if high - low <= 1e-9 * high:
                break
        return 0.5 * (low + high)
