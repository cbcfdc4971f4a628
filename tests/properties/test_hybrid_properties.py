"""Property tests for the hybrid family's degenerate limits.

Two algebraic limits pin the hybrids between their parents:

* ``k -> inf`` (never enough pressure to kill): every access produces
  exactly Dragon's outcome — operations, stolen cycles, and final
  cache contents are identical on arbitrary access sequences.
* ``k = 1`` with resets: the first broadcast kills every remote copy,
  which is WTI's residency behaviour.  The bus operations differ by
  design (WTI write-through vs hybrid write-back), so the comparison
  is on residency and hit/miss classification, not cycle counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operations import MISS_OPERATIONS
from repro.sim import Cache, CacheGeometry, DragonProtocol
from repro.sim.protocols.hybrid import HybridProtocol
from repro.sim.protocols.wti import WriteThroughInvalidateProtocol
from repro.trace.records import AccessType

GEOMETRY = CacheGeometry(size_bytes=256, block_bytes=16, associativity=2)

accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),                 # cpu
        st.sampled_from([AccessType.LOAD, AccessType.STORE]),  # kind
        st.integers(min_value=0, max_value=30),                # block
    ),
    max_size=300,
)

class HybridInfiniteK(HybridProtocol):
    name = "hybrid-inf"
    k = 10**9
    resets_on_use = True
    read_hit_is_free = False


class HybridOne(HybridProtocol):
    name = "hybrid-1"
    k = 1
    resets_on_use = True
    read_hit_is_free = False


def _shared(block: int) -> bool:
    return block >= 8


def _fresh(protocol_cls):
    caches = [Cache(GEOMETRY) for _ in range(3)]
    return protocol_cls(caches, _shared), caches


class TestInfiniteKIsDragon:
    @settings(max_examples=100)
    @given(accesses)
    def test_outcomes_and_final_state_identical(self, operations):
        dragon, dragon_caches = _fresh(DragonProtocol)
        hybrid, hybrid_caches = _fresh(HybridInfiniteK)
        for cpu, kind, block in operations:
            expected = dragon.access(cpu, kind, block)
            actual = hybrid.access(cpu, kind, block)
            assert actual.operations == expected.operations
            assert actual.steal_from == expected.steal_from
        for reference, candidate in zip(dragon_caches, hybrid_caches):
            assert list(reference.resident_blocks()) == list(
                candidate.resident_blocks()
            )

    @settings(max_examples=50)
    @given(accesses)
    def test_never_invalidates(self, operations):
        hybrid, _ = _fresh(HybridInfiniteK)
        for cpu, kind, block in operations:
            hybrid.access(cpu, kind, block)
        assert hybrid.stats.invalidations == 0
        assert hybrid.stats.updates == hybrid.stats.broadcast_holders


class TestKOneIsWtiResidency:
    @settings(max_examples=100)
    @given(accesses)
    def test_residency_and_miss_classification_match(self, operations):
        wti, wti_caches = _fresh(WriteThroughInvalidateProtocol)
        hybrid, hybrid_caches = _fresh(HybridOne)
        for cpu, kind, block in operations:
            reference = wti.access(cpu, kind, block)
            candidate = hybrid.access(cpu, kind, block)
            reference_missed = bool(
                MISS_OPERATIONS.intersection(reference.operations)
            )
            candidate_missed = bool(
                MISS_OPERATIONS.intersection(candidate.operations)
            )
            assert candidate_missed == reference_missed
            # Same copies resident in the same caches after every step
            # (states legitimately differ: WTI never holds dirty lines).
            for ref_cache, cand_cache in zip(wti_caches, hybrid_caches):
                assert {b for b, _ in ref_cache.resident_blocks()} == {
                    b for b, _ in cand_cache.resident_blocks()
                }

    @settings(max_examples=50)
    @given(accesses)
    def test_every_snooped_broadcast_kills(self, operations):
        hybrid, _ = _fresh(HybridOne)
        for cpu, kind, block in operations:
            hybrid.access(cpu, kind, block)
        assert hybrid.stats.updates == 0
        assert hybrid.stats.invalidations == hybrid.stats.broadcast_holders
        # No survivors ever -> pressure table stays empty.
        assert hybrid.snapshot() == ()
