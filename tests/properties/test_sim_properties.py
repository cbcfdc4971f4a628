"""Property-based tests for the cache and coherence protocols."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cache, CacheGeometry, DragonProtocol, LineState
from repro.sim.protocols import PROTOCOLS, Protocol
from repro.sim.protocols.interface import NO_ACTION
from repro.trace.records import AccessType
from repro.verify.oracles import shadow_protocol

GEOMETRY = CacheGeometry(size_bytes=256, block_bytes=16, associativity=2)
GEOMETRY_4WAY = CacheGeometry(size_bytes=256, block_bytes=16, associativity=4)

blocks = st.integers(min_value=0, max_value=40)
states = st.sampled_from(
    [LineState.CLEAN, LineState.DIRTY, LineState.SHARED_CLEAN,
     LineState.SHARED_DIRTY]
)
cache_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
              blocks, states),
    max_size=200,
)


class TestCacheInvariants:
    @settings(max_examples=100)
    @given(cache_ops)
    def test_capacity_and_set_discipline(self, operations):
        cache = Cache(GEOMETRY)
        for name, block, state in operations:
            if name == "insert":
                cache.insert(block, state)
            elif name == "lookup":
                cache.lookup(block)
            else:
                cache.invalidate(block)
            assert cache.occupancy() <= GEOMETRY.blocks
            for resident, resident_state in cache.resident_blocks():
                assert resident_state is not LineState.INVALID
        # Every resident block must be findable through its own set.
        for resident, resident_state in cache.resident_blocks():
            assert cache.peek(resident) is resident_state

    @settings(max_examples=100)
    @given(cache_ops, blocks, states)
    def test_inserted_block_is_resident(self, operations, block, state):
        cache = Cache(GEOMETRY)
        for name, op_block, op_state in operations:
            if name == "insert":
                cache.insert(op_block, op_state)
        cache.insert(block, state)
        assert cache.peek(block) is state

    @settings(max_examples=100)
    @given(cache_ops)
    def test_eviction_never_returns_resident_block(self, operations):
        cache = Cache(GEOMETRY)
        for name, block, state in operations:
            if name != "insert":
                continue
            victim = cache.insert(block, state)
            if victim is not None:
                assert victim[0] not in cache


accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),                   # cpu
        st.sampled_from([AccessType.LOAD, AccessType.STORE]),    # kind
        st.integers(min_value=0, max_value=30),                  # block
    ),
    max_size=300,
)


def _shared(block: int) -> bool:
    return block >= 8


class TestDragonInvariants:
    @settings(max_examples=100)
    @given(accesses)
    def test_single_owner_per_block(self, sequence):
        caches = [Cache(GEOMETRY) for _ in range(3)]
        dragon = DragonProtocol(caches, _shared)
        for cpu, kind, block in sequence:
            dragon.access(cpu, kind, block)
            owners = [
                index for index, cache in enumerate(caches)
                if cache.peek(block).is_owner
            ]
            assert len(owners) <= 1, (block, owners)

    @settings(max_examples=100)
    @given(accesses)
    def test_exclusive_states_imply_exclusivity_unless_evicted(self, sequence):
        """After any access, a block in CLEAN or DIRTY in one cache is
        not resident in any other cache (evictions can only *remove*
        copies, which preserves the property)."""
        caches = [Cache(GEOMETRY) for _ in range(3)]
        dragon = DragonProtocol(caches, _shared)
        for cpu, kind, block in sequence:
            dragon.access(cpu, kind, block)
        for index, cache in enumerate(caches):
            for block, state in cache.resident_blocks():
                if state in (LineState.CLEAN, LineState.DIRTY):
                    for other_index, other in enumerate(caches):
                        if other_index != index:
                            assert block not in other, (block, state)

    @settings(max_examples=60)
    @given(accesses)
    def test_stats_counters_consistent(self, sequence):
        caches = [Cache(GEOMETRY) for _ in range(3)]
        dragon = DragonProtocol(caches, _shared)
        for cpu, kind, block in sequence:
            dragon.access(cpu, kind, block)
        stats = dragon.stats
        assert 0 <= stats.shared_misses_dirty_elsewhere <= stats.shared_misses
        assert (
            0
            <= stats.shared_write_hits_present_elsewhere
            <= stats.shared_write_hits
        )
        assert 0.0 <= stats.oclean <= 1.0
        assert 0.0 <= stats.opres <= 1.0
        assert stats.nshd >= 0.0


class TestAllProtocolsTerminate:
    @settings(max_examples=40)
    @given(accesses, st.sampled_from(sorted(PROTOCOLS)))
    def test_any_sequence_runs_and_reports_operations(
        self, sequence, protocol_name
    ):
        caches = [Cache(GEOMETRY) for _ in range(3)]
        protocol = PROTOCOLS[protocol_name](caches, _shared)
        for cpu, kind, block in sequence:
            outcome = protocol.access(cpu, kind, block)
            assert isinstance(outcome.operations, tuple)
            for victim in outcome.steal_from:
                assert 0 <= victim < 3
                assert victim != cpu


#: Protocols whose hits on single-owner blocks the engines prove
#: statically although remote traffic can evict (``_proven_hits``).
LOCAL_PRIVATE = sorted(
    name for name, cls in PROTOCOLS.items() if cls.private_blocks_are_local
)


def _any_accesses(max_block: int):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),               # cpu
            st.sampled_from(list(AccessType)),                   # kind
            st.integers(min_value=0, max_value=max_block),       # block
        ),
        min_size=20,
        max_size=80,
    )


def _apply(protocol, cpu, kind, block):
    if kind is AccessType.FLUSH:
        return protocol.flush(cpu, block)
    return protocol.access(cpu, kind, block)


def _set_lists(cache):
    return [list(cache_set.items()) for cache_set in cache.line_sets]


class TestPrivateBlocksAreLocal:
    def test_declared_by_the_invalidating_protocols_only(self):
        assert LOCAL_PRIVATE == [
            "directory", "hybrid-2", "hybrid-4", "hybrid-limit", "wti",
        ]
        # The oracle shadow relies on every flag defaulting to False.
        assert Protocol.private_blocks_are_local is False
        for name in PROTOCOLS:
            assert not shadow_protocol(name).private_blocks_are_local

    @settings(max_examples=20, deadline=None)
    @given(_any_accesses(15))
    def test_remote_traffic_only_touches_the_named_block(self, sequence):
        """An access or flush by CPU ``d`` to block ``b`` changes the
        other caches only on their lines of ``b``: it never inserts a
        line there and never reorders a set (four ways, so a set keeps
        lines to reorder after losing one, and few enough blocks that
        sets fill and copies are shared)."""
        for protocol_name in LOCAL_PRIVATE:
            caches = [Cache(GEOMETRY_4WAY) for _ in range(3)]
            protocol = PROTOCOLS[protocol_name](caches, _shared)
            for cpu, kind, block in sequence:
                before = {
                    other: _set_lists(caches[other]) for other in range(3)
                    if other != cpu
                }
                _apply(protocol, cpu, kind, block)
                for other, sets in before.items():
                    for old, new in zip(sets, _set_lists(caches[other])):
                        new_blocks = [line for line, _ in new]
                        assert [e for e in new if e[0] != block] == [
                            e for e in old if e[0] != block
                        ], protocol_name
                        assert new_blocks == [
                            line for line, _ in old
                            if line != block or line in new_blocks
                        ], protocol_name

    @settings(max_examples=25, deadline=None)
    @given(
        _any_accesses(30),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=30),
        st.sampled_from([AccessType.LOAD, AccessType.INST_FETCH]),
    )
    def test_private_read_hit_is_free(self, prefix, owner, private, kind):
        """A non-store hit on a block no other CPU ever references
        returns NO_ACTION and leaves the counters, the protocol
        snapshot and every cache but the owner's LRU touch alone."""
        for protocol_name in LOCAL_PRIVATE:
            caches = [Cache(GEOMETRY) for _ in range(3)]
            protocol = PROTOCOLS[protocol_name](caches, _shared)
            for cpu, op_kind, block in prefix:
                if block == private and cpu != owner:
                    continue
                _apply(protocol, cpu, op_kind, block)
            protocol.access(owner, AccessType.LOAD, private)
            stats = dataclasses.asdict(protocol.stats)
            snapshot = protocol.snapshot()
            contents = [_set_lists(cache) for cache in caches]
            outcome = protocol.access(owner, kind, private)
            assert outcome is NO_ACTION, protocol_name
            assert dataclasses.asdict(protocol.stats) == stats, protocol_name
            assert protocol.snapshot() == snapshot, protocol_name
            # The fill left the block most-recently-used, so even the
            # LRU touch is invisible.
            assert [_set_lists(cache) for cache in caches] == contents
