"""The exactness contract: vectorized kernels == scalar model, bitwise.

Also the machine-size rule the grid kernels share with the scalar
model.

ISSUE 4's tentpole promises that every cell of a
:func:`repro.experiments.surface.sweep_grid` surface equals the scalar
``BusSystem.evaluate`` / ``NetworkSystem.evaluate`` result for the
same workload — not within a tolerance, but as the *same float*
(``==`` elementwise, NaN-aware; inf compares equal to inf).  These
tests enforce that contract for all four schemes on both machines,
both bus service models, and the degenerate regimes: saturation cells
(``c == b``, where utilisation/time go to 0/inf on a network) and
quiet cells (``b == 0``, no channel traffic at all).
"""

import math

import numpy as np
import pytest

from repro.core import (
    ALL_SCHEMES,
    BASE,
    HYBRID_2,
    HYBRID_4,
    HYBRID_LIMIT,
    BusSystem,
    CostTable,
    NetworkSystem,
    UnsupportedSchemeError,
    WorkloadParams,
)
from repro.core.operations import OperationCost, derive_bus_costs
from repro.core.vectorized import (
    ParameterGrid,
    bus_surface_arrays,
    instruction_cost_arrays,
    network_surface_arrays,
    transaction_moment_arrays,
)
from repro.core.model import instruction_cost, transaction_moments
from repro.experiments import GridSpec, sweep_grid

_PROCESSORS = tuple(range(1, 17))
_STAGES = (1, 3, 8)

#: The paper's four schemes plus the hybrid extensions: the grid
#: kernels promise bitwise equality for any scheme whose frequency
#: formulas are elementwise, and the hybrids' piecewise terms
#: (``q**k``, ``np.minimum``) are the ones most likely to regress.
_SCHEMES = ALL_SCHEMES + (HYBRID_2, HYBRID_4, HYBRID_LIMIT)

#: Sweep axes spanning the paper's Table 7 corners plus degenerate
#: rows (shd = 0 silences the sharing terms entirely).
_SHD = (0.0, 0.05, 0.25, 0.6, 1.0)
_APL = (1.0, 2.0, 7.7, 25.0, 100.0)


def _spec() -> GridSpec:
    return GridSpec.of(WorkloadParams.middle(), shd=_SHD, apl=_APL)


def _grid() -> ParameterGrid:
    return _spec().parameter_grid()


def _cells():
    base = WorkloadParams.middle()
    for i, shd in enumerate(_SHD):
        for j, apl in enumerate(_APL):
            yield (i, j), base.replace(shd=shd, apl=apl)


def _same(got, want) -> bool:
    got, want = float(got), float(want)
    return got == want or (math.isnan(got) and math.isnan(want))


def _saturated_costs() -> CostTable:
    """Every operation pure channel time: c == b, think time 0."""
    return CostTable(
        {
            op: OperationCost(cost.cpu_cycles, cost.cpu_cycles)
            for op, cost in derive_bus_costs().items()
        },
        name="saturated",
    )


def _quiet_costs() -> CostTable:
    """No channel usage at all: b == 0 everywhere."""
    return CostTable(
        {
            op: OperationCost(cost.cpu_cycles, 0.0)
            for op, cost in derive_bus_costs().items()
        },
        name="quiet",
    )


class TestInstructionCostArrays:
    @pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.name)
    def test_equations_1_2_bitwise(self, scheme):
        arrays = instruction_cost_arrays(scheme, _grid())
        for index, params in _cells():
            scalar = instruction_cost(scheme, params, CostTable.bus())
            assert _same(arrays.cpu_cycles[index], scalar.cpu_cycles)
            assert _same(arrays.channel_cycles[index], scalar.channel_cycles)
            assert _same(arrays.think_time[index], scalar.think_time)
            assert _same(
                arrays.transaction_rate[index], scalar.transaction_rate
            )

    @pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.name)
    def test_transaction_moments_bitwise(self, scheme):
        arrays = transaction_moment_arrays(scheme, _grid())
        for index, params in _cells():
            scalar = transaction_moments(scheme, params, CostTable.bus())
            assert _same(arrays.rate[index], scalar.rate)
            assert _same(arrays.mean_service[index], scalar.mean_service)
            assert _same(arrays.second_moment[index], scalar.second_moment)

    def test_saturated_rate_is_zero_not_inf(self):
        # Satellite 1's regression, on the array path: c == b cells get
        # transaction_rate 0.0 exactly, matching the scalar property.
        arrays = instruction_cost_arrays(
            ALL_SCHEMES[0], _grid(), _saturated_costs()
        )
        assert np.all(arrays.think_time == 0.0)
        assert np.all(arrays.transaction_rate == 0.0)


class TestBusEquivalence:
    @pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("service_model", ["exponential", "measured"])
    def test_surface_bitwise(self, scheme, service_model):
        surface = bus_surface_arrays(
            scheme, _grid(), _PROCESSORS, service_model=service_model
        )
        bus = BusSystem(service_model=service_model)
        for count_index, processors in enumerate(_PROCESSORS):
            for index, params in _cells():
                scalar = bus.evaluate(scheme, params, processors)
                cell = (count_index,) + index
                assert _same(
                    surface.processing_power[cell], scalar.processing_power
                )
                assert _same(surface.utilization[cell], scalar.utilization)
                assert _same(
                    surface.waiting_cycles[cell], scalar.waiting_cycles
                )
                assert _same(
                    surface.bus_utilization[cell], scalar.bus_utilization
                )

    @pytest.mark.parametrize(
        "costs", [_saturated_costs(), _quiet_costs()], ids=["c==b", "b==0"]
    )
    def test_degenerate_cost_tables_bitwise(self, costs):
        scheme = ALL_SCHEMES[0]
        surface = bus_surface_arrays(scheme, _grid(), (1, 8), costs=costs)
        bus = BusSystem(costs=costs)
        for count_index, processors in enumerate((1, 8)):
            for index, params in _cells():
                scalar = bus.evaluate(scheme, params, processors)
                cell = (count_index,) + index
                assert _same(
                    surface.processing_power[cell], scalar.processing_power
                )
                assert _same(
                    surface.waiting_cycles[cell], scalar.waiting_cycles
                )


class TestNetworkEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        [s for s in _SCHEMES if not s.requires_broadcast],
        ids=lambda s: s.name,
    )
    @pytest.mark.parametrize("stages", _STAGES)
    def test_surface_bitwise(self, scheme, stages):
        surface = network_surface_arrays(scheme, _grid(), stages)
        network = NetworkSystem(stages)
        for index, params in _cells():
            scalar = network.evaluate(scheme, params)
            assert _same(
                surface.processing_power[index], scalar.processing_power
            )
            assert _same(surface.utilization[index], scalar.utilization)
            assert _same(
                surface.thinking_fraction[index], scalar.thinking_fraction
            )
            assert _same(
                surface.time_per_instruction[index],
                scalar.time_per_instruction,
            )
            assert _same(surface.request_rate[index], scalar.request_rate)

    def test_saturation_cells_inf_and_zero_agree(self):
        # c == b on a network: time/instruction inf, utilisation 0 —
        # on both paths, in every cell.
        scheme = next(s for s in ALL_SCHEMES if not s.requires_broadcast)
        costs = _saturated_costs()
        surface = network_surface_arrays(scheme, _grid(), 3, costs=costs)
        network = NetworkSystem(3, costs=costs)
        for index, params in _cells():
            scalar = network.evaluate(scheme, params)
            assert scalar.time_per_instruction == float("inf")
            assert surface.time_per_instruction[index] == float("inf")
            assert scalar.utilization == 0.0
            assert surface.utilization[index] == 0.0
            assert _same(surface.request_rate[index], scalar.request_rate)

    def test_broadcast_scheme_rejected_like_scalar(self):
        dragon = next(s for s in ALL_SCHEMES if s.requires_broadcast)
        with pytest.raises(UnsupportedSchemeError):
            network_surface_arrays(dragon, _grid(), 3)
        with pytest.raises(UnsupportedSchemeError):
            NetworkSystem(3).evaluate(dragon, WorkloadParams.middle())


class TestSweepGridEquivalence:
    """The experiment-facing API inherits the kernels' exactness."""

    @pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.name)
    def test_bus_sweep_matches_scalar_sweep(self, scheme):
        surface = sweep_grid(scheme, _spec(), processors=_PROCESSORS)
        bus = BusSystem()
        for count_index, processors in enumerate(_PROCESSORS):
            for index, params in _cells():
                scalar = bus.evaluate(scheme, params, processors)
                assert _same(
                    surface.power[(count_index,) + index],
                    scalar.processing_power,
                )

    def test_network_sweep_matches_scalar_sweep(self):
        scheme = next(s for s in ALL_SCHEMES if not s.requires_broadcast)
        surface = sweep_grid(
            scheme, _spec(), machine="network", stages=_STAGES
        )
        for stage_index, stages in enumerate(_STAGES):
            network = NetworkSystem(stages)
            for index, params in _cells():
                scalar = network.evaluate(scheme, params)
                assert _same(
                    surface.power[(stage_index,) + index],
                    scalar.processing_power,
                )

    def test_workload_at_round_trips_each_cell(self):
        spec = _spec()
        for index, params in _cells():
            assert spec.workload_at(index) == params


MIDDLE = WorkloadParams.middle()


class TestMachineCounts:
    """One rule for machine sizes: an integer, at least one, never
    coerced (``int(2.7)`` would silently evaluate a 2-processor bus)."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"processors": (2.7,)},
                "processors must be an integer, got 2.7",
            ),
            (
                {"processors": (True,)},
                "processors must be an integer, got True",
            ),
            ({"processors": (0,)}, "processors must be >= 1, got 0"),
            (
                {"machine": "network", "stages": (3.9,)},
                "stages must be an integer, got 3.9",
            ),
            (
                {"machine": "network", "stages": (0,)},
                "stages must be >= 1, got 0",
            ),
        ],
    )
    def test_sweep_grid_rejects(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            sweep_grid(BASE, MIDDLE, **kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("processors", [2.7, True])
    def test_scalar_bus_rejects(self, processors):
        with pytest.raises(ValueError) as raised:
            BusSystem().evaluate(BASE, MIDDLE, processors)
        assert str(raised.value) == (
            f"processors must be an integer, got {processors!r}"
        )

    def test_scalar_network_rejects(self):
        with pytest.raises(ValueError) as raised:
            NetworkSystem(3.9)
        assert str(raised.value) == "stages must be an integer, got 3.9"
