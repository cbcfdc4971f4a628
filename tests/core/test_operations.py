"""Unit tests for the system model cost tables (Tables 1 and 9)."""

import pytest

from repro.core import CostTable, Operation, OperationCost
from repro.core.operations import derive_bus_costs, derive_network_costs

#: Table 1 exactly as published.
PUBLISHED_TABLE1 = {
    Operation.INSTRUCTION: (1, 0),
    Operation.CLEAN_MISS_MEMORY: (10, 7),
    Operation.DIRTY_MISS_MEMORY: (14, 11),
    Operation.READ_THROUGH: (5, 4),
    Operation.WRITE_THROUGH: (2, 1),
    Operation.CLEAN_FLUSH: (1, 0),
    Operation.DIRTY_FLUSH: (6, 4),
    Operation.WRITE_BROADCAST: (2, 1),
    Operation.CLEAN_MISS_CACHE: (9, 6),
    Operation.DIRTY_MISS_CACHE: (13, 10),
    Operation.CYCLE_STEAL: (1, 0),
}


class TestOperationCost:
    def test_holds_values(self):
        cost = OperationCost(10, 7)
        assert cost.cpu_cycles == 10
        assert cost.channel_cycles == 7

    def test_channel_cannot_exceed_cpu(self):
        with pytest.raises(ValueError):
            OperationCost(cpu_cycles=3, channel_cycles=4)

    @pytest.mark.parametrize("cpu,channel", [(-1, 0), (1, -1)])
    def test_rejects_negative(self, cpu, channel):
        with pytest.raises(ValueError):
            OperationCost(cpu, channel)

    @pytest.mark.parametrize(
        "cpu,channel,field,value",
        [
            (float("nan"), 0.0, "cpu_cycles", "nan"),
            (float("inf"), 0.0, "cpu_cycles", "inf"),
            (float("inf"), float("inf"), "cpu_cycles", "inf"),
            (10.0, float("nan"), "channel_cycles", "nan"),
            (10.0, float("-inf"), "channel_cycles", "-inf"),
        ],
    )
    def test_rejects_non_finite(self, cpu, channel, field, value):
        # NaN passes every ordered comparison's negation, so without
        # the finiteness check it would reach the engines.
        with pytest.raises(
            ValueError, match=f"^{field} must be finite, got {value}$"
        ):
            OperationCost(cpu, channel)


class TestBusTable:
    @pytest.mark.parametrize("operation,expected", PUBLISHED_TABLE1.items())
    def test_matches_published_table1(self, operation, expected):
        costs = CostTable.bus()
        cpu, bus = expected
        assert costs[operation].cpu_cycles == cpu
        assert costs[operation].channel_cycles == bus

    def test_covers_all_operations(self):
        costs = CostTable.bus()
        assert costs.supports(list(Operation))

    def test_block_size_scales_miss_cost(self):
        eight_words = derive_bus_costs(block_words=8)
        assert eight_words[Operation.CLEAN_MISS_MEMORY].channel_cycles == 11
        assert eight_words[Operation.DIRTY_MISS_MEMORY].channel_cycles == 19

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            derive_bus_costs(block_words=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            derive_bus_costs(memory_latency=-1)


class TestNetworkTable:
    @pytest.mark.parametrize("stages", [1, 4, 8])
    def test_matches_published_formulas(self, stages):
        costs = derive_network_costs(stages)
        round_trip = 2 * stages
        expected = {
            Operation.INSTRUCTION: (1, 0),
            Operation.CLEAN_MISS_MEMORY: (9 + round_trip, 6 + round_trip),
            Operation.DIRTY_MISS_MEMORY: (12 + round_trip, 9 + round_trip),
            Operation.CLEAN_FLUSH: (1, 0),
            Operation.DIRTY_FLUSH: (7 + round_trip, 5 + round_trip),
            Operation.WRITE_THROUGH: (3 + round_trip, 2 + round_trip),
            Operation.READ_THROUGH: (4 + round_trip, 3 + round_trip),
        }
        for operation, (cpu, network) in expected.items():
            assert costs[operation].cpu_cycles == cpu, operation
            assert costs[operation].channel_cycles == network, operation

    def test_omits_snoop_operations(self):
        costs = derive_network_costs(4)
        assert Operation.WRITE_BROADCAST not in costs
        assert Operation.CYCLE_STEAL not in costs

    def test_missing_operation_raises_keyerror_with_name(self):
        costs = derive_network_costs(4)
        with pytest.raises(KeyError, match="write broadcast"):
            costs[Operation.WRITE_BROADCAST]

    def test_rejects_negative_stages(self):
        with pytest.raises(ValueError):
            derive_network_costs(-1)


class TestCostTable:
    def test_len_and_iter(self):
        costs = CostTable.bus()
        # Table 1's 11 operations plus the INVALIDATE extension.
        assert len(costs) == len(list(costs)) == 12

    def test_contains(self):
        costs = derive_network_costs(2)
        assert Operation.READ_THROUGH in costs
        assert Operation.CYCLE_STEAL not in costs

    def test_custom_table(self):
        table = CostTable(
            {Operation.INSTRUCTION: OperationCost(1, 0)}, name="toy"
        )
        assert table.name == "toy"
        assert not table.supports([Operation.CLEAN_FLUSH])

    def test_repr_mentions_name(self):
        assert "bus" in repr(CostTable.bus())

    def test_table_is_immutable(self):
        costs = CostTable.bus()
        with pytest.raises(TypeError):
            costs._costs[Operation.INSTRUCTION] = OperationCost(2, 0)
