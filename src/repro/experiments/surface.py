"""``sweep_grid``: batch-evaluate the analytical model over a grid.

Every figure and table in the paper is a sweep of the analytical
model; this module is the experiment-facing API over the vectorised
kernels (:mod:`repro.core.vectorized`).  One call maps a whole
parameter grid — workload axes as an outer product, plus the machine
axis (processor counts on a bus, stage counts on a network) — and
returns a :class:`ModelSurface` whose arrays are **bit-identical** to
looping ``BusSystem.evaluate`` / ``NetworkSystem.evaluate`` over the
same cells (the scalar path stays the reference implementation and
the equivalence is test-enforced).

Typical use::

    from repro.experiments.surface import sweep_grid

    surface = sweep_grid(
        SOFTWARE_FLUSH,
        GridSpec.of(WorkloadParams.middle(), apl=(1, 2, 4, 8, 25)),
        processors=range(1, 17),
    )
    surface.power[processors_index, apl_index]   # processing power
    surface.series("apl", processors=16)         # (x, y) for plotting

The machine axis always comes first in the result arrays, followed by
the workload axes in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.bus import validate_processors
from repro.core.network import validate_stages
from repro.core.operations import CostTable
from repro.core.params import WorkloadParams
from repro.core.schemes import CoherenceScheme
from repro.core.vectorized import (
    ParameterGrid,
    bus_surface_arrays,
    network_surface_arrays,
)

__all__ = ["GridSpec", "ModelSurface", "sweep_grid"]


@dataclass(frozen=True)
class GridSpec:
    """A workload-parameter grid: a base point plus swept axes.

    The axes form an outer product, one result dimension per axis in
    declaration order.  ``axes`` maps parameter name to the swept
    values; parameters not listed stay at the ``base`` value.
    """

    base: WorkloadParams
    axes: tuple[tuple[str, tuple[float, ...]], ...] = ()

    @classmethod
    def of(
        cls, base: WorkloadParams, **axes: Iterable[float]
    ) -> "GridSpec":
        """Build a spec from keyword axes (order preserved)."""
        return cls(
            base=base,
            axes=tuple(
                (name, tuple(float(value) for value in values))
                for name, values in axes.items()
            ),
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def parameter_grid(self) -> ParameterGrid:
        """The spec as broadcast-oriented arrays."""
        return ParameterGrid.outer(
            self.base, **{name: values for name, values in self.axes}
        )

    def workload_at(self, index: tuple[int, ...]) -> WorkloadParams:
        """The validated scalar workload at one grid index."""
        overrides = {
            name: values[position]
            for (name, values), position in zip(self.axes, index)
        }
        return self.base.replace(**overrides)


@dataclass(frozen=True)
class ModelSurface:
    """The analytical model mapped over ``machine axis x grid``.

    Attributes:
        scheme: scheme name.
        machine: ``"bus"`` or ``"network"``.
        machine_axis: the swept machine sizes — processor counts on a
            bus, stage counts on a network.
        spec: the workload grid that was swept.
        power: processing power, shape
            ``(len(machine_axis),) + spec.shape``.
        utilization: processor utilisation, same shape.
        extras: further model outputs by name (e.g. bus
            ``waiting_cycles``/``bus_utilization``, network
            ``thinking_fraction``/``processors``), same shape.
    """

    scheme: str
    machine: str
    machine_axis: tuple[int, ...]
    spec: GridSpec
    power: np.ndarray
    utilization: np.ndarray
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.power.shape

    @property
    def axis_names(self) -> tuple[str, ...]:
        """All axis names, machine axis first."""
        machine_name = "processors" if self.machine == "bus" else "stages"
        return (machine_name,) + self.spec.axis_names

    def axis_values(self, name: str) -> tuple[float, ...]:
        """The swept values along one named axis."""
        if name == self.axis_names[0]:
            return tuple(float(value) for value in self.machine_axis)
        for axis_name, values in self.spec.axes:
            if axis_name == name:
                return values
        raise KeyError(
            f"unknown axis {name!r}; surface axes: {self.axis_names}"
        )

    def _index_for(self, **coordinates) -> tuple:
        """Build an array index pinning every axis except the free ones."""
        index: list = []
        for axis in self.axis_names:
            if axis in coordinates:
                values = self.axis_values(axis)
                target = float(coordinates.pop(axis))
                try:
                    index.append(values.index(target))
                except ValueError:
                    raise KeyError(
                        f"{target:g} is not on axis {axis!r} "
                        f"(values: {values})"
                    ) from None
            else:
                index.append(slice(None))
        if coordinates:
            raise KeyError(
                f"unknown axes {sorted(coordinates)}; "
                f"surface axes: {self.axis_names}"
            )
        return tuple(index)

    def power_at(self, **coordinates) -> float | np.ndarray:
        """Processing power with axes pinned by value (not index)."""
        selected = self.power[self._index_for(**coordinates)]
        return float(selected) if np.ndim(selected) == 0 else selected

    def series(self, axis: str, **pinned) -> tuple[tuple[float, ...],
                                                   tuple[float, ...]]:
        """An ``(x, y)`` power curve along ``axis``, other axes pinned.

        Every axis other than ``axis`` must be pinned by value in
        ``pinned`` (axes of length 1 pin themselves).
        """
        free = [
            name for name in self.axis_names
            if name != axis and name not in pinned
        ]
        for name in list(free):
            values = self.axis_values(name)
            if len(values) == 1:
                pinned[name] = values[0]
                free.remove(name)
        if free:
            raise KeyError(f"axes {free} must be pinned for a 1-D series")
        y = self.power_at(**pinned)
        x = self.axis_values(axis)
        return x, tuple(float(value) for value in np.asarray(y).ravel())


def sweep_grid(
    scheme: CoherenceScheme,
    grid: GridSpec | WorkloadParams,
    *,
    machine: str = "bus",
    processors: Iterable[int] = (16,),
    stages: Iterable[int] = (8,),
    costs: CostTable | None = None,
    service_model: str = "exponential",
) -> ModelSurface:
    """Evaluate one scheme over a whole grid in a few numpy passes.

    Args:
        scheme: the coherence scheme (workload model).
        grid: a :class:`GridSpec`, or a bare :class:`WorkloadParams`
            for a machine-axis-only sweep.
        machine: ``"bus"`` (processor-count axis, one batched MVA
            pass solves every count at once) or ``"network"`` (stage
            axis; each stage count is one vectorised fixed point, as
            its cost table depends on the stage count).
        processors: bus machine sizes to sweep (machine="bus").
        stages: network stage counts to sweep (machine="network").
        costs: cost-table override.  For networks this pins one table
            across all stage counts; by default each stage count
            derives its own Table 9.
        service_model: bus queueing discipline, as in
            :class:`repro.core.bus.BusSystem`.

    Returns:
        A :class:`ModelSurface`; cell values are bit-identical to the
        scalar ``evaluate`` loop over the same cells.
    """
    spec = grid if isinstance(grid, GridSpec) else GridSpec(base=grid)
    parameter_grid = spec.parameter_grid()

    if machine == "bus":
        counts = tuple(validate_processors(count) for count in processors)
        surface = bus_surface_arrays(
            scheme,
            parameter_grid,
            counts,
            costs=costs,
            service_model=service_model,
        )
        return ModelSurface(
            scheme=scheme.name,
            machine="bus",
            machine_axis=counts,
            spec=spec,
            power=surface.processing_power,
            utilization=surface.utilization,
            extras={
                "waiting_cycles": surface.waiting_cycles,
                "bus_utilization": surface.bus_utilization,
                "cpu_cycles": np.broadcast_to(
                    surface.cost.cpu_cycles, spec.shape
                ),
                "channel_cycles": np.broadcast_to(
                    surface.cost.channel_cycles, spec.shape
                ),
            },
        )
    if machine == "network":
        stage_counts = tuple(validate_stages(count) for count in stages)
        rows = [
            network_surface_arrays(
                scheme, parameter_grid, count, costs=costs
            )
            for count in stage_counts
        ]
        grid_shape = spec.shape
        stack = {
            name: np.stack(
                [np.broadcast_to(getattr(row, name), grid_shape)
                 for row in rows]
            )
            for name in (
                "processing_power",
                "utilization",
                "thinking_fraction",
                "request_rate",
                "time_per_instruction",
            )
        }
        return ModelSurface(
            scheme=scheme.name,
            machine="network",
            machine_axis=stage_counts,
            spec=spec,
            power=stack["processing_power"],
            utilization=stack["utilization"],
            extras={
                "thinking_fraction": stack["thinking_fraction"],
                "request_rate": stack["request_rate"],
                "time_per_instruction": stack["time_per_instruction"],
                "processors": np.array(
                    [row.processors for row in rows], dtype=float
                ),
            },
        )
    raise ValueError(
        f"machine must be 'bus' or 'network', got {machine!r}"
    )
