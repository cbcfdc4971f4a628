"""One-size families: the single-configuration entry to the classifier.

The Base and No-Cache sweeps classify hits and misses with one walk,
:func:`repro.sim.onepass._classify`, which replaced the ``segment``
replay engine.  A one-size :func:`repro.sim.run_geometry_family` must
be byte-identical to ``Machine.run`` in either replay order and on
fuzzed traces, and ``Machine.run`` has no ``segment`` engine label:
asking for one is refused loudly, whatever the cost table.  The
geometry, associativity and Software-Flush one-size checks live in
``test_onepass.py``; the ``classify_lru`` theorem in ``test_family.py``.
"""

import pytest

from repro.core.operations import CostTable, Operation, OperationCost
from repro.sim import Machine, SimulationConfig, family_support
from repro.trace import TraceConfig, generate_trace
from repro.verify.fuzzer import generate_case
from tests.sim.test_onepass import (
    REMOVED_ENGINE,
    assert_one_size_family_matches,
)


@pytest.fixture(scope="module")
def seeded_trace():
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


class TestSegmentMatchesColumnar:
    @pytest.mark.parametrize("protocol", ["base", "nocache"])
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_one_size_family_matches(
                seeded_trace, protocol, config, order=order
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzz_traces(self, seed):
        case = generate_case(seed, scale=0.3)
        for protocol in ("base", "nocache"):
            config = SimulationConfig(cache_bytes=16384)
            assert_one_size_family_matches(case.trace, protocol, config)


class TestSegmentGate:
    def test_refuses_non_integral_costs(self, seeded_trace):
        table = CostTable.bus()
        costs = dict(table.items())
        costs[Operation.CLEAN_MISS_MEMORY] = OperationCost(
            cpu_cycles=19.5, channel_cycles=19.5
        )
        fractional = CostTable(costs, name="fractional")
        assert family_support("base", fractional) == (
            "fallback",
            "costs:non-integral operation costs",
        )
        machine = Machine("base", SimulationConfig(), fractional)
        with pytest.raises(ValueError) as raised:
            machine.run(seeded_trace, engine=REMOVED_ENGINE)
        assert str(raised.value) == (
            "engine must be 'columnar', 'legacy', or 'arbitrated', "
            f"got {REMOVED_ENGINE!r}"
        )
