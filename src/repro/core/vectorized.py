"""Vectorised analytical-model kernels (equations 1-3 over arrays).

The scalar model layer (:mod:`repro.core.model`, :class:`BusSystem`,
:class:`NetworkSystem`) evaluates one ``(scheme, workload, machine)``
cell per call.  Every figure and table in the paper is a *sweep* of
that model, so this module evaluates the same three model layers with
numpy arrays:

* workload model — the scheme frequency formulas (Tables 3-6) are
  plain arithmetic and run unmodified on arrays via duck typing;
* system model — equations 1-2 accumulate ``(c, b)`` arrays in the
  same operation order as :func:`repro.core.model.instruction_cost`;
* contention model — the batched MVA and delta-network kernels in
  :mod:`repro.queueing.batch` solve every grid cell in lock-step.

Exactness contract
------------------

The scalar path stays the reference; the kernels reproduce it
**bit-for-bit** per cell (same float operations, same order — IEEE-754
arithmetic is deterministic), including saturation cells where
``c == b`` and cells with no channel traffic at all.  Enforced by
``tests/test_vectorized_equivalence.py``.

:class:`ParameterGrid` carries the workload-parameter arrays;
:func:`bus_surface_arrays` / :func:`network_surface_arrays` are the
full end-to-end kernels that the ``sweep_grid`` experiment API
(:mod:`repro.experiments.surface`) drives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.core.bus import validate_processors
from repro.core.operations import CostTable, derive_network_costs
from repro.core.params import WorkloadParams, validate_parameter
from repro.core.schemes import CoherenceScheme
from repro.queueing.batch import (
    closed_loop_thinking_grid,
    solve_machine_repairman_general_grid,
    solve_machine_repairman_grid,
    stage_rates_grid,
)

__all__ = [
    "BusSurfaceArrays",
    "InstructionCostArrays",
    "NetworkSurfaceArrays",
    "ParameterGrid",
    "TransactionMomentArrays",
    "bus_surface_arrays",
    "instruction_cost_arrays",
    "network_surface_arrays",
    "transaction_moment_arrays",
]


@dataclass(frozen=True)
class ParameterGrid:
    """Workload parameters as (broadcastable) numpy arrays.

    Field names mirror :class:`~repro.core.params.WorkloadParams`;
    each may be a scalar or an array, and they are broadcast together.
    Use :meth:`from_params` to spread a validated base point and
    override the swept axes: it checks every axis against the same
    rule as ``WorkloadParams`` (one vectorised pass per axis).
    """

    ls: np.ndarray
    msdat: np.ndarray
    mains: np.ndarray
    md: np.ndarray
    shd: np.ndarray
    wr: np.ndarray
    apl: np.ndarray
    mdshd: np.ndarray
    oclean: np.ndarray
    opres: np.ndarray
    nshd: np.ndarray

    @classmethod
    def from_params(cls, base: WorkloadParams, **axes) -> "ParameterGrid":
        """A grid anchored at ``base`` with some fields replaced.

        Args:
            base: the validated point supplying un-swept parameters.
            axes: ``name=array`` pairs for the swept parameters; all
                arrays must be mutually broadcastable.
        """
        unknown = set(axes) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        values = {}
        for field in fields(cls):
            if field.name in axes:
                values[field.name] = np.asarray(axes[field.name], dtype=float)
                validate_parameter(field.name, values[field.name])
            else:
                values[field.name] = np.asarray(
                    getattr(base, field.name), dtype=float
                )
        return cls(**values)

    @classmethod
    def outer(
        cls, base: WorkloadParams, **axes: Sequence[float]
    ) -> "ParameterGrid":
        """An outer-product grid: one broadcast dimension per axis.

        Axes appear in keyword order; axis ``i`` of the resulting grid
        shape corresponds to the ``i``-th keyword.
        """
        oriented = {}
        count = len(axes)
        for position, (name, values) in enumerate(axes.items()):
            array = np.asarray(values, dtype=float)
            if array.ndim != 1:
                raise ValueError(
                    f"axis {name!r} must be one-dimensional, "
                    f"got shape {array.shape}"
                )
            shape = [1] * count
            shape[position] = array.size
            oriented[name] = array.reshape(shape)
        return cls.from_params(base, **oriented)

    @property
    def shape(self) -> tuple[int, ...]:
        """The broadcast shape of all fields."""
        return np.broadcast_shapes(
            *(np.shape(getattr(self, field.name)) for field in fields(self))
        )

    def at(self, index: tuple[int, ...] | int) -> WorkloadParams:
        """The (validated) scalar workload at one grid index."""
        values = {
            field.name: float(
                np.broadcast_to(getattr(self, field.name), self.shape)[index]
            )
            for field in fields(self)
        }
        return WorkloadParams(**values)


@dataclass(frozen=True)
class InstructionCostArrays:
    """Equations 1-2 over a grid: ``c`` and ``b`` arrays.

    Mirrors :class:`repro.core.model.InstructionCost`, including the
    ``transaction_rate == 0.0`` convention for saturation cells.
    """

    cpu_cycles: np.ndarray
    channel_cycles: np.ndarray

    @property
    def think_time(self) -> np.ndarray:
        """``c - b`` per cell."""
        return self.cpu_cycles - self.channel_cycles

    @property
    def transaction_rate(self) -> np.ndarray:
        """``1 / (c - b)``, 0.0 in saturation cells (``c == b``)."""
        think = self.think_time
        with np.errstate(divide="ignore"):
            return np.where(think == 0.0, 0.0, 1.0 / think)

    @property
    def uncontended_utilization(self) -> np.ndarray:
        """``1 / c`` per cell."""
        return 1.0 / self.cpu_cycles


@dataclass(frozen=True)
class TransactionMomentArrays:
    """First two channel-transaction moments over a grid.

    Mirrors :class:`repro.core.model.TransactionMoments` elementwise.
    """

    rate: np.ndarray
    mean_service: np.ndarray
    second_moment: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        return np.maximum(self.second_moment - self.mean_service**2, 0.0)

    @property
    def cv2(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.mean_service == 0.0,
                0.0,
                self.variance / np.where(
                    self.mean_service == 0.0, 1.0, self.mean_service
                ) ** 2,
            )


def instruction_cost_arrays(
    scheme: CoherenceScheme,
    grid: ParameterGrid,
    costs: CostTable | None = None,
) -> InstructionCostArrays:
    """Equations 1-2 elementwise over a parameter grid.

    Accumulates per-operation terms in the same order as the scalar
    :func:`repro.core.model.instruction_cost`, so each cell's ``(c, b)``
    is bit-identical to a scalar evaluation at that cell's workload.

    Raises:
        KeyError: if the cost table lacks an operation the scheme uses
            with non-zero frequency anywhere on the grid.
        ValueError: if any cell violates the scalar invariants
            (``c > 0``, ``0 <= b <= c``), naming the scheme.
    """
    costs = costs if costs is not None else CostTable.bus()
    shape = grid.shape
    cpu_cycles = np.zeros(shape)
    channel_cycles = np.zeros(shape)
    for operation, frequency in scheme.operation_frequencies(grid).items():
        frequency = np.asarray(frequency, dtype=float)
        if not np.any(frequency != 0.0):
            # The scalar path skips zero-frequency operations before
            # touching the cost table; an all-zero frequency array must
            # not raise KeyError either.
            continue
        cost = costs[operation]
        frequency = np.broadcast_to(frequency, shape)
        cpu_cycles = cpu_cycles + frequency * cost.cpu_cycles
        channel_cycles = channel_cycles + frequency * cost.channel_cycles
    if np.any(cpu_cycles <= 0.0):
        raise ValueError(
            f"cpu_cycles must be > 0 in every cell for scheme "
            f"{scheme.name!r} ({int(np.sum(cpu_cycles <= 0.0))} cells fail)"
        )
    if np.any((channel_cycles < 0.0) | (channel_cycles > cpu_cycles)):
        bad = int(np.sum((channel_cycles < 0.0)
                         | (channel_cycles > cpu_cycles)))
        raise ValueError(
            f"channel_cycles must be in [0, cpu_cycles] in every cell for "
            f"scheme {scheme.name!r} ({bad} cells fail)"
        )
    return InstructionCostArrays(
        cpu_cycles=cpu_cycles, channel_cycles=channel_cycles
    )


def transaction_moment_arrays(
    scheme: CoherenceScheme,
    grid: ParameterGrid,
    costs: CostTable | None = None,
) -> TransactionMomentArrays:
    """Channel-transaction moments elementwise over a parameter grid.

    Matches :func:`repro.core.model.transaction_moments` bit-for-bit:
    same operations accumulated in the same order, cells with no
    channel traffic yield all-zero moments.
    """
    costs = costs if costs is not None else CostTable.bus()
    shape = grid.shape
    rate = np.zeros(shape)
    weighted_service = np.zeros(shape)
    weighted_square = np.zeros(shape)
    for operation, frequency in scheme.operation_frequencies(grid).items():
        frequency = np.asarray(frequency, dtype=float)
        if not np.any(frequency != 0.0):
            continue
        channel = costs[operation].channel_cycles
        if channel <= 0.0:
            continue
        frequency = np.broadcast_to(frequency, shape)
        rate = rate + frequency
        weighted_service = weighted_service + frequency * channel
        weighted_square = weighted_square + frequency * channel * channel
    quiet = rate == 0.0
    safe_rate = np.where(quiet, 1.0, rate)
    return TransactionMomentArrays(
        rate=rate,
        mean_service=np.where(quiet, 0.0, weighted_service / safe_rate),
        second_moment=np.where(quiet, 0.0, weighted_square / safe_rate),
    )


@dataclass(frozen=True)
class BusSurfaceArrays:
    """Bus-model outputs over ``processor_counts x grid``.

    Every array has shape ``(len(processor_counts),) + grid.shape``;
    row ``i`` matches ``BusSystem.evaluate(scheme, cell,
    processor_counts[i])`` bit-for-bit in every cell.
    """

    scheme: str
    processor_counts: tuple[int, ...]
    cost: InstructionCostArrays
    waiting_cycles: np.ndarray
    utilization: np.ndarray
    processing_power: np.ndarray
    bus_utilization: np.ndarray


def bus_surface_arrays(
    scheme: CoherenceScheme,
    grid: ParameterGrid,
    processor_counts: Sequence[int],
    costs: CostTable | None = None,
    service_model: str = "exponential",
) -> BusSurfaceArrays:
    """The full bus model (eq. 1-3) over ``processor_counts x grid``.

    One batched MVA pass solves populations ``1..max(counts)`` for the
    whole grid, so a processor-count sweep costs the same as its
    largest point.

    Args:
        scheme: coherence scheme (workload model).
        grid: parameter grid.
        processor_counts: processor counts to slice out, each ``>= 1``.
        costs: machine cost table (default: the paper's Table 1).
        service_model: ``"exponential"`` (the paper's bus model) or
            ``"measured"`` (residual-life AMVA over the operation
            mix), as in :class:`repro.core.bus.BusSystem`.
    """
    if service_model not in ("exponential", "measured"):
        raise ValueError(
            f"service_model must be 'exponential' or 'measured', "
            f"got {service_model!r}"
        )
    counts = tuple(validate_processors(count) for count in processor_counts)
    if not counts:
        raise ValueError("processor_counts must be non-empty")
    costs = costs if costs is not None else CostTable.bus()
    cost = instruction_cost_arrays(scheme, grid, costs)
    service = cost.channel_cycles
    think = cost.think_time
    quiet = service == 0.0
    top = max(counts)

    if service_model == "exponential":
        solution = solve_machine_repairman_grid(top, think, service)
        waiting_rows = [solution.waiting_time(count) for count in counts]
    else:
        moments = transaction_moment_arrays(scheme, grid, costs)
        # Per-transaction think time Z = (c - b) / rate; rate == 0
        # exactly when b == 0, and those cells are masked to zero
        # waiting below, as in the scalar early return.
        safe_rate = np.where(quiet, 1.0, moments.rate)
        solution = solve_machine_repairman_general_grid(
            top,
            think / safe_rate,
            moments.mean_service,
            moments.cv2,
        )
        waiting_rows = [
            solution.waiting_time(count) * moments.rate for count in counts
        ]

    waiting = np.stack(
        [np.where(quiet, 0.0, row) for row in waiting_rows]
    )
    denominator = cost.cpu_cycles + waiting
    utilization = 1.0 / denominator
    counts_column = np.array(counts, dtype=float).reshape(
        (len(counts),) + (1,) * len(grid.shape)
    )
    processing_power = counts_column * utilization
    bus_utilization = np.minimum(
        counts_column * cost.channel_cycles / denominator, 1.0
    )
    return BusSurfaceArrays(
        scheme=scheme.name,
        processor_counts=counts,
        cost=cost,
        waiting_cycles=waiting,
        utilization=utilization,
        processing_power=processing_power,
        bus_utilization=bus_utilization,
    )


@dataclass(frozen=True)
class NetworkSurfaceArrays:
    """Network-model outputs over one stage count and a grid.

    Every array has shape ``grid.shape`` and matches
    ``NetworkSystem(stages).evaluate(scheme, cell)`` bit-for-bit,
    including quiet cells (no traffic: ``U = 1/c``) and saturated
    cells (``c == b``: utilisation 0, infinite time per instruction).
    """

    scheme: str
    stages: int
    processors: int
    cost: InstructionCostArrays
    request_rate: np.ndarray
    thinking_fraction: np.ndarray
    offered_rate: np.ndarray
    accepted_rate: np.ndarray
    time_per_instruction: np.ndarray
    utilization: np.ndarray
    processing_power: np.ndarray


def network_surface_arrays(
    scheme: CoherenceScheme,
    grid: ParameterGrid,
    stages: int,
    costs: CostTable | None = None,
) -> NetworkSurfaceArrays:
    """The Section 6 network model over a parameter grid.

    Raises:
        UnsupportedSchemeError: for snoopy (broadcast) schemes, as the
            scalar path does.
    """
    from repro.core.network import UnsupportedSchemeError, validate_stages

    if scheme.requires_broadcast:
        raise UnsupportedSchemeError(
            f"{scheme.name} requires a broadcast medium and cannot run "
            f"on a multistage network"
        )
    stages = validate_stages(stages)
    costs = costs if costs is not None else derive_network_costs(stages)
    cost = instruction_cost_arrays(scheme, grid, costs)
    think = cost.think_time
    demand = cost.channel_cycles
    quiet = demand == 0.0
    saturated = (~quiet) & (think == 0.0)
    busy = (~quiet) & (~saturated)

    with np.errstate(divide="ignore", invalid="ignore"):
        request_rate = np.where(
            busy, demand / np.where(busy, think, 1.0), 0.0
        )
    request_rate = np.where(saturated, np.inf, request_rate)

    thinking = closed_loop_thinking_grid(
        np.where(busy, request_rate, 0.0), stages
    )
    thinking = np.where(quiet, 1.0, thinking)
    thinking = np.where(saturated, 0.0, thinking)

    offered = np.where(saturated, 1.0, 1.0 - thinking)
    offered = np.where(quiet, 0.0, offered)
    accepted = stage_rates_grid(offered, stages)[-1]
    accepted = np.where(quiet, 0.0, accepted)

    with np.errstate(divide="ignore", invalid="ignore"):
        time_busy = np.where(
            busy, think / np.where(busy, thinking, 1.0), 0.0
        )
    time_per_instruction = np.where(quiet, cost.cpu_cycles, time_busy)
    time_per_instruction = np.where(
        saturated, np.inf, time_per_instruction
    )
    with np.errstate(divide="ignore"):
        utilization = np.where(
            saturated, 0.0, 1.0 / np.where(saturated, 1.0,
                                           time_per_instruction)
        )
    processors = 2**stages
    return NetworkSurfaceArrays(
        scheme=scheme.name,
        stages=stages,
        processors=processors,
        cost=cost,
        request_rate=request_rate,
        thinking_fraction=thinking,
        offered_rate=offered,
        accepted_rate=accepted,
        time_per_instruction=time_per_instruction,
        utilization=utilization,
        processing_power=processors * utilization,
    )
