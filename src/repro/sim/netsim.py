"""Discrete-time simulator of an unbuffered delta (omega) network.

The paper leans on Patel's probabilistic network model and notes "We
are not aware of any validation of this model against multiprocessor
traces".  This simulator provides the missing check at the level the
model operates on: synthetic processors alternate between thinking and
pushing words through an actual n-stage omega network of 2x2 switches,
with real per-switch collisions and source retransmission — the
behaviour Patel's recursion and the paper's Section 6.2 fixed point
abstract.

Topology: the classic omega network.  Between stages a perfect shuffle
permutes positions; inside a stage, positions ``2k`` and ``2k+1`` form
a switch whose output is selected by the current destination bit (MSB
first).  Two requests mapped to the same output collide; a uniformly
random winner proceeds, the loser is dropped and retried by its source
on the next cycle.

Two service disciplines:

* ``"unit"`` — every word of a transaction is an independent
  single-cycle request with a fresh uniform destination: exactly the
  premise of Patel's unit-request approximation.
* ``"circuit"`` — a transaction first wins a path (setup request),
  then *holds* that path's switch outputs for its full duration:
  closer to the circuit-switched machine the paper describes.

Comparing the measured thinking fraction against
:func:`repro.queueing.delta.closed_loop_utilization` for both
disciplines is the ``extension-network-validation`` experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.network import validate_stages
from repro.queueing.delta import DeltaNetwork, closed_loop_utilization

__all__ = ["NetworkSimResult", "OmegaNetworkSimulator"]

_MODES = ("unit", "circuit")


@dataclass(frozen=True)
class NetworkSimResult:
    """Measurements from one network simulation run.

    Attributes:
        stages: network stages simulated.
        processors: number of processors (``2**stages``).
        cycles: simulated cycles.
        mode: ``"unit"`` or ``"circuit"``.
        thinking_cycles: total processor-cycles spent thinking.
        requesting_cycles: total processor-cycles spent issuing or
            retrying requests (or holding a circuit).
        offered_requests: total requests submitted to stage 0.
        accepted_requests: total requests that reached memory.
    """

    stages: int
    processors: int
    cycles: int
    mode: str
    thinking_cycles: int
    requesting_cycles: int
    offered_requests: int
    accepted_requests: int

    @property
    def thinking_fraction(self) -> float:
        """Measured counterpart of the paper's network ``U``."""
        total = self.thinking_cycles + self.requesting_cycles
        if total == 0:
            return 1.0
        return self.thinking_cycles / total

    @property
    def offered_rate(self) -> float:
        """Requests per processor per cycle offered to the network."""
        if self.cycles == 0:
            return 0.0
        return self.offered_requests / (self.processors * self.cycles)

    @property
    def accepted_rate(self) -> float:
        """Requests per processor per cycle accepted by memory."""
        if self.cycles == 0:
            return 0.0
        return self.accepted_requests / (self.processors * self.cycles)

    @property
    def acceptance_probability(self) -> float:
        if self.offered_requests == 0:
            return 1.0
        return self.accepted_requests / self.offered_requests


class OmegaNetworkSimulator:
    """Synthetic-workload simulator for one omega network.

    Args:
        stages: number of switch stages (``2**stages`` processors).
        seed: RNG seed; runs are deterministic given the seed.
    """

    def __init__(self, stages: int, seed: int = 0):
        self.stages = stages = validate_stages(stages)
        self.processors = 2**stages
        self.seed = seed

    def predicted(self, think_mean: float, message_words: int):
        """The paper's fixed point for this workload (for comparison)."""
        request_rate = message_words / think_mean
        return closed_loop_utilization(
            DeltaNetwork(stages=self.stages), request_rate
        )

    def run(
        self,
        think_mean: float,
        message_words: int,
        cycles: int,
        mode: str = "unit",
    ) -> NetworkSimResult:
        """Simulate ``cycles`` network cycles.

        Args:
            think_mean: mean thinking cycles between transactions
                (geometric), ``> 0``.
            message_words: words per transaction, ``>= 1``.
            cycles: simulated cycles, ``>= 1``.
            mode: ``"unit"`` or ``"circuit"`` (see module docstring).
        """
        if think_mean <= 0.0:
            raise ValueError(f"think_mean must be > 0, got {think_mean}")
        if message_words < 1:
            raise ValueError(
                f"message_words must be >= 1, got {message_words}"
            )
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")

        rng = random.Random((self.seed << 8) ^ 0x0E3A)
        n = self.processors
        think_probability = 1.0 / think_mean

        # Per-processor state: words left in the current transaction
        # (0 = thinking), current destination, and (circuit mode) how
        # long an established path is still held.
        words_left = [0] * n
        destination = [0] * n
        hold_left = [0] * n
        held_outputs: list[dict[int, int]] = [
            {} for _ in range(self.stages)
        ]  # stage -> {output position: release cycle}

        thinking_cycles = 0
        requesting_cycles = 0
        offered = 0
        accepted = 0

        for now in range(cycles):
            # Release expired circuits.
            if mode == "circuit":
                for stage_holds in held_outputs:
                    expired = [
                        position
                        for position, release in stage_holds.items()
                        if release <= now
                    ]
                    for position in expired:
                        del stage_holds[position]

            requesters = []
            for proc in range(n):
                if words_left[proc] == 0:
                    # Thinking: finish with geometric probability and
                    # start a transaction next cycle.
                    thinking_cycles += 1
                    if rng.random() < think_probability:
                        words_left[proc] = message_words
                        destination[proc] = rng.randrange(n)
                    continue
                requesting_cycles += 1
                if mode == "circuit" and hold_left[proc] > 0:
                    # Transferring on an established path.
                    hold_left[proc] -= 1
                    accepted += 1
                    words_left[proc] -= 1
                    continue
                if mode == "unit":
                    # Fresh destination per word: Patel's premise.
                    destination[proc] = rng.randrange(n)
                requesters.append(proc)
                offered += 1

            winners = self._route(
                requesters, destination, rng, held_outputs, mode
            )

            for proc, path in winners:
                accepted += 1
                words_left[proc] -= 1
                if mode == "circuit":
                    # Path established: it delivers the first word now
                    # and holds its switch outputs for the remaining
                    # words, one per cycle.
                    remaining = words_left[proc]
                    hold_left[proc] = remaining
                    if remaining > 0:
                        release = now + remaining
                        for stage, output in enumerate(path):
                            held_outputs[stage][output] = release

        return NetworkSimResult(
            stages=self.stages,
            processors=n,
            cycles=cycles,
            mode=mode,
            thinking_cycles=thinking_cycles,
            requesting_cycles=requesting_cycles,
            offered_requests=offered,
            accepted_requests=accepted,
        )

    def _route(
        self,
        requesters: list[int],
        destination: list[int],
        rng: random.Random,
        held_outputs: list[dict[int, int]],
        mode: str,
    ) -> list[tuple[int, list[int]]]:
        """One synchronous routing pass.

        Returns:
            ``(processor, path)`` pairs for requests that reached
            memory, where ``path`` lists the switch output position
            won at each stage (used by circuit mode to reserve links).
        """
        mask = self.processors - 1
        shift = self.stages - 1
        survivors = [(proc, proc) for proc in requesters]
        paths: dict[int, list[int]] = {proc: [] for proc in requesters}

        for stage in range(self.stages):
            contenders: dict[int, list[tuple[int, int]]] = {}
            stage_holds = held_outputs[stage]
            for proc, position in survivors:
                shuffled = ((position << 1) | (position >> shift)) & mask
                bit = (destination[proc] >> (shift - stage)) & 1
                output = (shuffled & ~1) | bit
                if mode == "circuit" and output in stage_holds:
                    continue  # blocked by an established circuit
                contenders.setdefault(output, []).append((proc, output))
            survivors = []
            for output, rivals in contenders.items():
                winner = rivals[0] if len(rivals) == 1 else rng.choice(rivals)
                survivors.append(winner)
                paths[winner[0]].append(output)

        return [(proc, paths[proc]) for proc, _ in survivors]
