"""System model: per-operation CPU and channel (bus/network) costs.

This module encodes the paper's Table 1 (bus machine) and Table 9
(multistage network machine).  Costs are expressed in processor cycles;
bus and CPU cycle times are assumed equal, as in the paper.

The published numbers are derived from a hypothetical RISC machine with
a combined instruction/data cache and four-word (16-byte) cache blocks:

* a clean miss from memory holds the bus for 7 cycles (1 to send the
  address, 2 for memory access, 4 to transfer the block), costs 3 more
  CPU cycles to detect and process the miss, for a CPU total of 10;
* a dirty miss additionally writes the 4-word victim back (+4 bus and
  CPU cycles);
* and so on for the other operations.

:func:`derive_bus_costs` and :func:`derive_network_costs` rebuild the
tables from these first principles so tests can confirm the published
numbers and experiments can explore other block sizes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "DIRTY_VICTIM_OPERATIONS",
    "MISS_OPERATIONS",
    "CostTable",
    "Operation",
    "OperationCost",
    "derive_bus_costs",
    "derive_network_costs",
]


class Operation(enum.Enum):
    """Hardware operations that appear in the workload models.

    The member values are the names used in the paper's tables.
    """

    INSTRUCTION = "instruction execution"
    CLEAN_MISS_MEMORY = "clean miss (mem)"
    DIRTY_MISS_MEMORY = "dirty miss (mem)"
    READ_THROUGH = "read through"
    WRITE_THROUGH = "write through"
    CLEAN_FLUSH = "clean flush"
    DIRTY_FLUSH = "dirty flush"
    WRITE_BROADCAST = "write broadcast"
    CLEAN_MISS_CACHE = "clean miss (cache)"
    DIRTY_MISS_CACHE = "dirty miss (cache)"
    CYCLE_STEAL = "cycle stealing"
    # Extension (not in the paper's tables): a directory-initiated
    # invalidation round, used by the directory coherence scheme.
    INVALIDATE = "invalidate"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==``; ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``) would cost a call per cost-table probe in
    # the replay loop.
    __hash__ = object.__hash__


#: The operations that service a cache miss, and those of them that
#: also write a dirty victim back.
MISS_OPERATIONS = frozenset(
    {
        Operation.CLEAN_MISS_MEMORY,
        Operation.DIRTY_MISS_MEMORY,
        Operation.CLEAN_MISS_CACHE,
        Operation.DIRTY_MISS_CACHE,
    }
)
DIRTY_VICTIM_OPERATIONS = frozenset(
    {Operation.DIRTY_MISS_MEMORY, Operation.DIRTY_MISS_CACHE}
)


@dataclass(frozen=True)
class OperationCost:
    """Cost of one hardware operation.

    Attributes:
        cpu_cycles: total processor cycles consumed by the operation in
            the absence of contention (includes the channel cycles).
        channel_cycles: cycles during which the shared channel (bus or
            network path) is held; always ``<= cpu_cycles``.
    """

    cpu_cycles: float
    channel_cycles: float

    def __post_init__(self) -> None:
        # NaN compares False against everything, so it would slip past
        # the sign checks below and poison every clock downstream.
        for field_name in ("cpu_cycles", "channel_cycles"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
        if self.cpu_cycles < 0.0:
            raise ValueError(f"cpu_cycles must be >= 0, got {self.cpu_cycles}")
        if self.channel_cycles < 0.0:
            raise ValueError(
                f"channel_cycles must be >= 0, got {self.channel_cycles}"
            )
        if self.channel_cycles > self.cpu_cycles:
            raise ValueError(
                "channel_cycles cannot exceed cpu_cycles: "
                f"{self.channel_cycles} > {self.cpu_cycles}"
            )


class CostTable:
    """Immutable mapping from :class:`Operation` to :class:`OperationCost`.

    Build one with :meth:`bus` (the paper's Table 1),
    :meth:`network` (Table 9 for a given stage count), or directly from
    a mapping for custom machines.
    """

    def __init__(self, costs: Mapping[Operation, OperationCost], name: str = "custom"):
        self._costs = MappingProxyType(dict(costs))
        self.name = name

    def __contains__(self, operation: Operation) -> bool:
        return operation in self._costs

    def __getitem__(self, operation: Operation) -> OperationCost:
        try:
            return self._costs[operation]
        except KeyError:
            raise KeyError(
                f"cost table {self.name!r} does not define operation "
                f"{operation.value!r}"
            ) from None

    def __iter__(self):
        return iter(self._costs)

    def __len__(self) -> int:
        return len(self._costs)

    def items(self):
        return self._costs.items()

    def supports(self, operations) -> bool:
        """True if every operation in ``operations`` has a cost here."""
        return all(operation in self._costs for operation in operations)

    def __repr__(self) -> str:
        return f"CostTable(name={self.name!r}, operations={len(self)})"

    @classmethod
    def bus(cls) -> "CostTable":
        """The paper's Table 1 (bus machine, 4-word blocks)."""
        return derive_bus_costs()

    @classmethod
    def network(cls, stages: int) -> "CostTable":
        """The paper's Table 9 for an ``stages``-stage network."""
        return derive_network_costs(stages)


def derive_bus_costs(
    block_words: int = 4,
    memory_latency: int = 2,
    miss_processing: int = 3,
) -> CostTable:
    """Rebuild the paper's Table 1 from machine primitives.

    Args:
        block_words: cache block size in (bus-width) words; 4 in the
            paper.
        memory_latency: cycles for a main-memory access after the
            address arrives; 2 in the paper.
        miss_processing: extra CPU cycles to detect and process a miss
            (not overlapped with the bus); 3 in the paper.

    Returns:
        A :class:`CostTable` equal to Table 1 for the default
        arguments.
    """
    if block_words < 1:
        raise ValueError(f"block_words must be >= 1, got {block_words}")
    if memory_latency < 0 or miss_processing < 0:
        raise ValueError("latencies must be >= 0")

    address = 1
    # A clean miss sends the address, waits on memory, and receives the
    # block.  A dirty miss also writes the victim block back, overlapped
    # with nothing on this simple bus.
    clean_miss_bus = address + memory_latency + block_words
    dirty_miss_bus = clean_miss_bus + block_words
    # Misses satisfied from another cache (Dragon) skip one cycle of the
    # memory access because the owning cache responds faster.
    cache_supply_saving = 1
    costs = {
        Operation.INSTRUCTION: OperationCost(1, 0),
        Operation.CLEAN_MISS_MEMORY: OperationCost(
            clean_miss_bus + miss_processing, clean_miss_bus
        ),
        Operation.DIRTY_MISS_MEMORY: OperationCost(
            dirty_miss_bus + miss_processing, dirty_miss_bus
        ),
        # A read-through fetches one word: address + memory + 1 word on
        # the bus, plus one CPU cycle to issue.
        Operation.READ_THROUGH: OperationCost(
            address + memory_latency + 1 + 1, address + memory_latency + 1
        ),
        # A write-through posts address+data in a single bus cycle; the
        # processor does not wait for memory.
        Operation.WRITE_THROUGH: OperationCost(2, 1),
        # A clean flush just invalidates the local line: one instruction
        # cycle, no bus traffic.
        Operation.CLEAN_FLUSH: OperationCost(1, 0),
        # A dirty flush writes the block back: the 4-word transfer holds
        # the bus; the instruction plus write-back control adds CPU time.
        Operation.DIRTY_FLUSH: OperationCost(block_words + 2, block_words),
        # A write-broadcast puts address+value on the bus for one cycle.
        Operation.WRITE_BROADCAST: OperationCost(2, 1),
        Operation.CLEAN_MISS_CACHE: OperationCost(
            clean_miss_bus - cache_supply_saving + miss_processing,
            clean_miss_bus - cache_supply_saving,
        ),
        Operation.DIRTY_MISS_CACHE: OperationCost(
            dirty_miss_bus - cache_supply_saving + miss_processing,
            dirty_miss_bus - cache_supply_saving,
        ),
        # A snooping cache updating its copy steals one cycle from its
        # processor; no extra bus time beyond the broadcast itself.
        Operation.CYCLE_STEAL: OperationCost(1, 0),
        # Extension: an invalidation round is address-only traffic,
        # priced like a write-broadcast.
        Operation.INVALIDATE: OperationCost(2, 1),
    }
    return CostTable(costs, name=f"bus(block_words={block_words})")


def derive_network_costs(stages: int, block_words: int = 4) -> CostTable:
    """Rebuild the paper's Table 9 for an ``stages``-stage network.

    The network is unbuffered and circuit-switched; paths are one word
    wide.  A clean fetch takes ``stages`` cycles to set up the path, 1
    to send the address, 2 for memory access, ``stages`` for the first
    returning word, and ``block_words - 1`` for the rest — network time
    ``6 + 2 * stages`` for the paper's 4-word blocks.  CPU time adds 3
    cycles of miss processing.

    Dragon's snoop operations have no network analogue (a multistage
    network offers no broadcast medium), so they are absent; evaluating
    Dragon against this table raises ``KeyError``.
    """
    if stages < 0:
        raise ValueError(f"stages must be >= 0, got {stages}")
    if block_words < 1:
        raise ValueError(f"block_words must be >= 1, got {block_words}")

    round_trip = 2 * stages
    address = 1
    memory = 2
    rest_of_block = block_words - 1
    clean_fetch_net = round_trip + address + memory + rest_of_block
    # The dirty fetch sends the victim block out while memory reads the
    # requested block (partially overlapped): +3 network cycles in the
    # paper's accounting.
    dirty_fetch_net = clean_fetch_net + rest_of_block
    # A dirty flush pushes the block to memory: path setup + address +
    # block transfer, with the return acknowledgement folded in.
    dirty_flush_net = round_trip + address + block_words
    miss_processing = 3

    costs = {
        Operation.INSTRUCTION: OperationCost(1, 0),
        Operation.CLEAN_MISS_MEMORY: OperationCost(
            clean_fetch_net + miss_processing, clean_fetch_net
        ),
        Operation.DIRTY_MISS_MEMORY: OperationCost(
            dirty_fetch_net + miss_processing, dirty_fetch_net
        ),
        Operation.CLEAN_FLUSH: OperationCost(1, 0),
        Operation.DIRTY_FLUSH: OperationCost(
            dirty_flush_net + 2, dirty_flush_net
        ),
        Operation.WRITE_THROUGH: OperationCost(
            round_trip + 2 + 1, round_trip + 2
        ),
        Operation.READ_THROUGH: OperationCost(
            round_trip + 3 + 1, round_trip + 3
        ),
        # Extension: a directory invalidation is a one-word request and
        # acknowledgement through the network.
        Operation.INVALIDATE: OperationCost(
            round_trip + 3, round_trip + 2
        ),
    }
    return CostTable(costs, name=f"network(stages={stages})")
