"""Unit and equivalence tests for batch (grid) evaluation of the model.

The grid kernels live in :mod:`repro.core.vectorized`; these tests
drive them the way the examples do, one power array per scheme, and
hold them to the bitwise contract of
``tests/test_vectorized_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core import (
    ALL_SCHEMES,
    BASE,
    DIRECTORY,
    DRAGON,
    NO_CACHE,
    SOFTWARE_FLUSH,
    BusSystem,
    NetworkSystem,
    UnsupportedSchemeError,
    WorkloadParams,
)
from repro.core.vectorized import (
    ParameterGrid,
    bus_surface_arrays,
    instruction_cost_arrays,
    network_surface_arrays,
)
from tests.test_vectorized_equivalence import _same

MIDDLE = WorkloadParams.middle()


def bus_power_grid(scheme, grid, processors):
    return bus_surface_arrays(scheme, grid, (processors,)).processing_power[0]


def network_power_grid(scheme, grid, stages):
    return network_surface_arrays(scheme, grid, stages).processing_power


class TestParameterGrid:
    def test_from_params_scalar(self):
        grid = ParameterGrid.from_params(MIDDLE)
        assert grid.shape == ()
        assert float(grid.shd) == MIDDLE.shd

    def test_from_params_with_axes(self):
        grid = ParameterGrid.from_params(
            MIDDLE,
            shd=np.linspace(0.05, 0.42, 5),
            apl=np.linspace(1, 25, 4)[:, None],
        )
        assert grid.shape == (4, 5)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ParameterGrid.from_params(MIDDLE, cache_size=np.ones(3))


class TestScalarEquivalence:
    """The vectorised path is the scalar model's float, bit for bit."""

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    def test_instruction_cost_matches(self, scheme):
        from repro.core import CostTable, instruction_cost

        grid = ParameterGrid.from_params(MIDDLE)
        cost = instruction_cost_arrays(scheme, grid)
        scalar = instruction_cost(scheme, MIDDLE, CostTable.bus())
        assert _same(cost.cpu_cycles, scalar.cpu_cycles)
        assert _same(cost.channel_cycles, scalar.channel_cycles)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
    @pytest.mark.parametrize("processors", [1, 4, 16])
    def test_bus_power_matches_at_sample_points(self, scheme, processors):
        bus = BusSystem()
        shd_values = np.array([0.08, 0.25, 0.42])
        grid = ParameterGrid.from_params(MIDDLE, shd=shd_values)
        vectorised = bus_power_grid(scheme, grid, processors)
        for index, shd in enumerate(shd_values):
            scalar = bus.evaluate(
                scheme, MIDDLE.replace(shd=float(shd)), processors
            )
            assert _same(vectorised[index], scalar.processing_power)

    @pytest.mark.parametrize(
        "scheme", [BASE, NO_CACHE, SOFTWARE_FLUSH, DIRECTORY],
        ids=lambda s: s.name,
    )
    def test_network_power_matches(self, scheme):
        network = NetworkSystem(6)
        apl_values = np.array([1.0, 7.7, 25.0])
        grid = ParameterGrid.from_params(MIDDLE, apl=apl_values)
        vectorised = network_power_grid(scheme, grid, stages=6)
        for index, apl in enumerate(apl_values):
            scalar = network.evaluate(scheme, MIDDLE.replace(apl=float(apl)))
            assert _same(vectorised[index], scalar.processing_power)


class TestGridBehaviour:
    def test_two_dimensional_sweep(self):
        grid = ParameterGrid.from_params(
            MIDDLE,
            shd=np.linspace(0.02, 0.42, 12),
            apl=np.linspace(1, 50, 9)[:, None],
        )
        power = bus_power_grid(SOFTWARE_FLUSH, grid, processors=16)
        assert power.shape == (9, 12)
        # Monotone: more sharing hurts, more apl helps.
        assert np.all(np.diff(power, axis=1) <= 1e-9)
        assert np.all(np.diff(power, axis=0) >= -1e-9)

    def test_power_bounded_by_processors(self):
        grid = ParameterGrid.from_params(
            MIDDLE, shd=np.linspace(0.0, 1.0, 21)
        )
        for scheme in ALL_SCHEMES:
            power = bus_power_grid(scheme, grid, processors=8)
            assert np.all(power > 0.0)
            assert np.all(power <= 8.0 + 1e-9)

    def test_quiet_workload_on_network(self):
        quiet = WorkloadParams.middle(msdat=0.0, mains=0.0, shd=0.0)
        grid = ParameterGrid.from_params(quiet)
        power = network_power_grid(BASE, grid, stages=4)
        assert float(power) == pytest.approx(16.0)

    def test_network_rejects_dragon(self):
        grid = ParameterGrid.from_params(MIDDLE)
        with pytest.raises(UnsupportedSchemeError):
            network_power_grid(DRAGON, grid, stages=4)

    def test_bus_rejects_zero_processors(self):
        grid = ParameterGrid.from_params(MIDDLE)
        with pytest.raises(ValueError, match="processors must be >= 1"):
            bus_power_grid(BASE, grid, processors=0)

    def test_large_grid_is_fast(self):
        """A 100x100 grid through 16-population MVA stays subsecond."""
        import time

        grid = ParameterGrid.from_params(
            MIDDLE,
            shd=np.linspace(0.01, 0.42, 100),
            apl=np.linspace(1, 100, 100)[:, None],
        )
        start = time.perf_counter()
        power = bus_power_grid(SOFTWARE_FLUSH, grid, processors=16)
        elapsed = time.perf_counter() - start
        assert power.shape == (100, 100)
        assert elapsed < 1.0
