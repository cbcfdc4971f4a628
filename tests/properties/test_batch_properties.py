"""Property-based equivalence: vectorised evaluator vs scalar model,
bitwise, as ``tests/test_vectorized_equivalence.py`` holds the grids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALL_SCHEMES,
    BusSystem,
    NetworkSystem,
    WorkloadParams,
)
from repro.core.vectorized import (
    ParameterGrid,
    bus_surface_arrays,
    network_surface_arrays,
)
from tests.test_vectorized_equivalence import _same

probability = st.floats(min_value=0.0, max_value=1.0)

random_params = st.builds(
    WorkloadParams,
    ls=probability,
    msdat=st.floats(min_value=0.0, max_value=0.1),
    mains=st.floats(min_value=0.0, max_value=0.02),
    md=probability,
    shd=probability,
    wr=probability,
    apl=st.floats(min_value=1.0, max_value=200.0),
    mdshd=probability,
    oclean=probability,
    opres=probability,
    nshd=st.floats(min_value=0.0, max_value=15.0),
)


class TestBatchScalarEquivalence:
    @settings(max_examples=40)
    @given(random_params, st.integers(min_value=1, max_value=32))
    def test_bus_power_equivalence(self, params, processors):
        grid = ParameterGrid.from_params(params)
        bus = BusSystem()
        for scheme in ALL_SCHEMES:
            surface = bus_surface_arrays(scheme, grid, (processors,))
            vectorised = float(surface.processing_power[0])
            scalar = bus.evaluate(scheme, params, processors)
            assert _same(vectorised, scalar.processing_power), scheme.name

    @settings(max_examples=30)
    @given(random_params, st.integers(min_value=1, max_value=8))
    def test_network_power_equivalence(self, params, stages):
        grid = ParameterGrid.from_params(params)
        network = NetworkSystem(stages)
        for scheme in ALL_SCHEMES:
            if scheme.requires_broadcast:
                continue
            surface = network_surface_arrays(scheme, grid, stages)
            vectorised = float(surface.processing_power)
            scalar = network.evaluate(scheme, params)
            assert _same(vectorised, scalar.processing_power), scheme.name

    @settings(max_examples=20)
    @given(random_params)
    def test_grid_layout_independence(self, params):
        """A value computed inside a 2-D grid equals the same value
        computed alone."""
        shd_axis = np.array([0.1, params.shd, 0.9])
        apl_axis = np.array([[1.0], [params.apl]])
        grid = ParameterGrid.from_params(params, shd=shd_axis, apl=apl_axis)
        scheme = ALL_SCHEMES[2]
        power = bus_surface_arrays(scheme, grid, (4,)).processing_power[0]
        alone = float(
            bus_surface_arrays(
                scheme, ParameterGrid.from_params(params), (4,)
            ).processing_power[0]
        )
        assert _same(power[1, 1], alone)
