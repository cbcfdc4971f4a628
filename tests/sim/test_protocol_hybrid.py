"""Unit tests for the hybrid update/invalidate protocols and schemes."""

import pytest

from repro.core import (
    DRAGON,
    HYBRID_2,
    HYBRID_4,
    HYBRID_LIMIT,
    BusSystem,
    Operation,
    WorkloadParams,
    scheme_by_name,
)
from repro.core.snoopy_variants import HybridKScheme, HybridLimitScheme
from repro.sim import LineState, Machine, SimulationConfig
from repro.sim.protocols import PROTOCOLS, protocol_class
from repro.sim.protocols.hybrid import (
    Hybrid2Protocol,
    Hybrid4Protocol,
    HybridLimitProtocol,
    HybridProtocol,
)
from repro.trace.records import AccessType

from tests.sim.conftest import is_shared_block

L, S = AccessType.LOAD, AccessType.STORE

MIDDLE = WorkloadParams.middle()


@pytest.fixture()
def hybrid2(caches):
    return Hybrid2Protocol(caches, is_shared_block)


@pytest.fixture()
def limit(caches):
    return HybridLimitProtocol(caches, is_shared_block)


class TestHybridMissPath:
    """Misses are Dragon-exact; pressure only enters on stores."""

    def test_cold_load_miss(self, hybrid2, caches):
        outcome = hybrid2.access(0, L, 150)
        assert outcome.operations == (Operation.CLEAN_MISS_MEMORY,)
        assert caches[0].peek(150) is LineState.CLEAN

    def test_load_miss_with_clean_holder_shares(self, hybrid2, caches):
        hybrid2.access(1, L, 150)
        outcome = hybrid2.access(0, L, 150)
        assert outcome.operations == (Operation.CLEAN_MISS_MEMORY,)
        assert caches[0].peek(150) is LineState.SHARED_CLEAN
        assert caches[1].peek(150) is LineState.SHARED_CLEAN

    def test_load_miss_supplied_by_dirty_holder(self, hybrid2, caches):
        hybrid2.access(1, S, 150)
        outcome = hybrid2.access(0, L, 150)
        assert outcome.operations == (Operation.CLEAN_MISS_CACHE,)
        assert caches[1].peek(150) is LineState.SHARED_DIRTY
        assert hybrid2.stats.shared_misses_dirty_elsewhere == 1

    def test_store_miss_with_holders_folds_in_broadcast(
        self, hybrid2, caches
    ):
        hybrid2.access(1, L, 150)
        outcome = hybrid2.access(0, S, 150)
        assert outcome.operations == (
            Operation.CLEAN_MISS_MEMORY,
            Operation.WRITE_BROADCAST,
        )
        assert outcome.steal_from == (1,)
        assert caches[0].peek(150) is LineState.SHARED_DIRTY

    def test_store_miss_without_holders_fills_dirty(self, hybrid2, caches):
        outcome = hybrid2.access(0, S, 150)
        assert outcome.operations == (Operation.CLEAN_MISS_MEMORY,)
        assert caches[0].peek(150) is LineState.DIRTY


class TestHybridPressure:
    """The tentpole mechanism: update until k unread writes, then kill."""

    def test_first_store_updates_second_kills(self, hybrid2, caches):
        hybrid2.access(1, L, 150)
        first = hybrid2.access(0, S, 150)
        assert first.steal_from == (1,)
        assert caches[1].peek(150) is LineState.SHARED_CLEAN
        assert caches[0].peek(150) is LineState.SHARED_DIRTY
        second = hybrid2.access(0, S, 150)
        assert second.operations == (Operation.WRITE_BROADCAST,)
        assert second.steal_from == ()
        assert 150 not in caches[1]
        # With no survivors the writer's copy is exclusive again.
        assert caches[0].peek(150) is LineState.DIRTY
        assert hybrid2.stats.updates == 1
        assert hybrid2.stats.invalidations == 1

    def test_local_use_resets_pressure(self, hybrid2, caches):
        hybrid2.access(1, L, 150)
        hybrid2.access(0, S, 150)
        hybrid2.access(1, L, 150)  # holder proves it wants the line
        outcome = hybrid2.access(0, S, 150)
        assert outcome.steal_from == (1,)
        assert caches[1].peek(150) is LineState.SHARED_CLEAN

    def test_limit_variant_ignores_local_use(self, limit, caches):
        # k = 3 and no reset: the third broadcast kills even though the
        # holder read the line between every pair of writes.
        limit.access(1, L, 150)
        for expected_resident in (True, True, False):
            limit.access(0, S, 150)
            assert (150 in caches[1]) is expected_resident
            limit.access(1, L, 150) if expected_resident else None
        assert limit.stats.invalidations == 1
        assert limit.stats.updates == 2

    def test_invalidated_holder_refetches(self, hybrid2, caches):
        hybrid2.access(1, L, 150)
        hybrid2.access(0, S, 150)
        hybrid2.access(0, S, 150)  # kills cpu1's copy
        outcome = hybrid2.access(1, L, 150)
        # The re-fetch miss the analytical model charges: the block is
        # dirty in cpu0's cache, so it is supplied cache-to-cache.
        assert outcome.operations == (Operation.CLEAN_MISS_CACHE,)

    def test_per_holder_pressure_is_independent(self, caches):
        hybrid = Hybrid4Protocol(caches, is_shared_block)
        hybrid.access(1, L, 150)
        hybrid.access(2, L, 150)
        hybrid.access(0, S, 150)
        hybrid.access(1, L, 150)  # only cpu1 resets
        hybrid.access(0, S, 150)
        assert hybrid.snapshot() == (((1, 150), 1), ((2, 150), 2))

    def test_eviction_clears_pressure(self, hybrid2, caches):
        hybrid2.access(1, L, 100)
        hybrid2.access(0, S, 100)
        assert hybrid2.snapshot() == (((1, 100), 1),)
        # Blocks 100/108/116 share a set in the 8-set, 2-way fixture
        # caches; two more fills evict block 100 from cpu1.
        hybrid2.access(1, L, 108)
        hybrid2.access(1, L, 116)
        assert 100 not in caches[1]
        assert hybrid2.snapshot() == ()

    def test_exclusive_store_hit_stays_local(self, hybrid2, caches):
        hybrid2.access(0, L, 150)
        outcome = hybrid2.access(0, S, 150)
        assert outcome.operations == ()
        assert caches[0].peek(150) is LineState.DIRTY


class TestHybridSnapshot:
    def test_roundtrip(self, hybrid2):
        hybrid2.access(1, L, 150)
        hybrid2.access(0, S, 150)
        saved = hybrid2.snapshot()
        assert saved == (((1, 150), 1),)
        hybrid2.access(1, L, 150)  # resets the counter
        assert hybrid2.snapshot() == ()
        hybrid2.restore(saved)
        assert hybrid2.snapshot() == saved

    def test_empty_is_canonical(self, hybrid2):
        assert hybrid2.snapshot() == ()

    def test_stateless_protocols_snapshot_none(self, caches):
        dragon = protocol_class("dragon")(caches, is_shared_block)
        assert dragon.snapshot() is None
        dragon.restore(None)


class TestHybridRegistration:
    def test_all_variants_registered(self):
        for name, cls in (
            ("hybrid-2", Hybrid2Protocol),
            ("hybrid-4", Hybrid4Protocol),
            ("hybrid-limit", HybridLimitProtocol),
        ):
            assert PROTOCOLS[name] is cls
            assert protocol_class(name) is cls

    def test_aliases(self):
        assert protocol_class("hybrid") is Hybrid4Protocol
        assert protocol_class("competitive") is HybridLimitProtocol

    def test_contract_flags(self):
        for cls in (Hybrid2Protocol, Hybrid4Protocol, HybridLimitProtocol):
            assert not cls.remote_traffic_preserves_residency
            assert cls.may_steal_cycles
            assert cls.caches_shared_data
        # Reset variants observe read hits; the limit variant does not.
        assert not Hybrid2Protocol.read_hit_is_free
        assert not Hybrid4Protocol.read_hit_is_free
        assert HybridLimitProtocol.read_hit_is_free


class TestHybridSchemes:
    def test_lookup(self):
        assert scheme_by_name("hybrid-2") is HYBRID_2
        assert scheme_by_name("hybrid-4") is HYBRID_4
        assert scheme_by_name("hybrid") is HYBRID_4
        assert scheme_by_name("hybrid-limit") is HYBRID_LIMIT
        assert scheme_by_name("competitive") is HYBRID_LIMIT

    def test_infinite_k_recovers_dragon(self):
        class HybridInf(HybridKScheme):
            k = 600

        dragon = DRAGON.operation_frequencies(MIDDLE)
        hybrid = HybridInf().operation_frequencies(MIDDLE)
        assert set(hybrid) == set(dragon)
        for operation, frequency in dragon.items():
            assert hybrid[operation] == pytest.approx(frequency, rel=1e-9)

    def test_limit_scheme_infinite_k_recovers_dragon(self):
        # The renewal terms converge at O(1/k): deaths = W/k feed a
        # vanishing re-fetch term into every miss frequency.
        class LimitInf(HybridLimitScheme):
            k = 10**9

        dragon = DRAGON.operation_frequencies(MIDDLE)
        hybrid = LimitInf().operation_frequencies(MIDDLE)
        for operation, frequency in dragon.items():
            assert hybrid[operation] == pytest.approx(frequency, rel=1e-5)

    def test_broadcasts_never_exceed_dragon(self):
        dragon = DRAGON.operation_frequencies(MIDDLE)
        for scheme in (HYBRID_2, HYBRID_4, HYBRID_LIMIT):
            frequencies = scheme.operation_frequencies(MIDDLE)
            assert (
                frequencies[Operation.WRITE_BROADCAST]
                <= dragon[Operation.WRITE_BROADCAST] + 1e-12
            )

    def test_invalidation_adds_refetch_misses(self):
        dragon = DRAGON.miss_rate(MIDDLE)
        for scheme in (HYBRID_2, HYBRID_4, HYBRID_LIMIT):
            assert scheme.miss_rate(MIDDLE) > dragon

    def test_requires_broadcast(self):
        from repro.core import NetworkSystem, UnsupportedSchemeError

        for scheme in (HYBRID_2, HYBRID_4, HYBRID_LIMIT):
            assert scheme.requires_broadcast
            with pytest.raises(UnsupportedSchemeError):
                NetworkSystem(4).evaluate(scheme, MIDDLE)

    def test_smaller_k_kills_more(self):
        bus = BusSystem()
        # At long write runs the saturation ordering follows k: more
        # aggressive invalidation sheds more bus traffic.
        params = MIDDLE.replace(apl=64.0)
        power_2 = bus.saturation_processing_power(HYBRID_2, params)
        power_4 = bus.saturation_processing_power(HYBRID_4, params)
        dragon = bus.saturation_processing_power(DRAGON, params)
        assert power_2 > power_4 > dragon


class TestHybridMachineDegeneracy:
    """Whole-machine limits: k -> inf is Dragon, bit for bit."""

    def test_infinite_k_machine_identical_to_dragon(self, seeded_trace):
        from repro.verify.differential import stats_signature

        class HybridInfProtocol(HybridProtocol):
            name = "hybrid-inf"
            k = 10**9
            resets_on_use = True
            read_hit_is_free = False

        trace = seeded_trace
        config = SimulationConfig(
            cache_bytes=16384, block_bytes=16, associativity=2
        )
        dragon = Machine("dragon", config).run(trace)
        hybrid = Machine(HybridInfProtocol, config).run(trace)
        # Every statistic but the protocol's name and its own counters.
        assert stats_signature(hybrid)[1:-1] == stats_signature(dragon)[1:-1]
        assert hybrid.protocol_stats.invalidations == 0
