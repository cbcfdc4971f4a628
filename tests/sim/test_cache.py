"""Unit tests for the set-associative cache."""

import pytest

from repro.sim import Cache, CacheGeometry, LineState


class TestCacheGeometry:
    def test_paper_configuration(self):
        geometry = CacheGeometry(size_bytes=65536, block_bytes=16)
        assert geometry.sets == 4096
        assert geometry.block_shift == 4
        assert geometry.blocks == 4096

    def test_sets_and_blocks(self):
        geometry = CacheGeometry(
            size_bytes=1024, block_bytes=16, associativity=4
        )
        assert geometry.sets == 16
        assert geometry.blocks == 64

    def test_addressing(self):
        geometry = CacheGeometry(size_bytes=256, block_bytes=16)
        assert geometry.block_of(0x0) == 0
        assert geometry.block_of(0x1F) == 1
        assert geometry.set_of(17) == 17 % geometry.sets

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 100, "block_bytes": 16},        # not a multiple
            {"size_bytes": 64, "block_bytes": 12},          # not power of 2
            {"size_bytes": 8, "block_bytes": 16},           # too small
            {"size_bytes": 64, "block_bytes": 16, "associativity": 0},
            {"size_bytes": 16 * 24, "block_bytes": 16},     # sets not 2^k
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CacheGeometry(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"size_bytes": 65536.7},
                "cache size must be an integer, got 65536.7",
            ),
            (
                {"size_bytes": "65536"},
                "cache size must be an integer, got '65536'",
            ),
            ({"block_bytes": 16.0}, "block size must be an integer, got 16.0"),
            (
                {"associativity": True},
                "associativity must be an integer, got True",
            ),
            (
                {"associativity": 2.0},
                "associativity must be an integer, got 2.0",
            ),
        ],
    )
    def test_rejects_non_integer_fields(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            CacheGeometry(**kwargs)
        assert str(raised.value) == message


@pytest.fixture()
def tiny_cache():
    """Four sets, two ways: eight lines of 16 bytes."""
    return Cache(CacheGeometry(size_bytes=128, block_bytes=16, associativity=2))


class TestCacheBasics:
    def test_miss_on_empty(self, tiny_cache):
        assert tiny_cache.lookup(5) is LineState.INVALID
        assert 5 not in tiny_cache

    def test_insert_then_hit(self, tiny_cache):
        assert tiny_cache.insert(5, LineState.CLEAN) is None
        assert tiny_cache.lookup(5) is LineState.CLEAN
        assert 5 in tiny_cache

    def test_set_state(self, tiny_cache):
        tiny_cache.insert(5, LineState.CLEAN)
        tiny_cache.set_state(5, LineState.DIRTY)
        assert tiny_cache.peek(5) is LineState.DIRTY

    def test_set_state_to_invalid_removes(self, tiny_cache):
        tiny_cache.insert(5, LineState.CLEAN)
        tiny_cache.set_state(5, LineState.INVALID)
        assert 5 not in tiny_cache

    def test_set_state_requires_residency(self, tiny_cache):
        with pytest.raises(KeyError):
            tiny_cache.set_state(9, LineState.DIRTY)

    def test_insert_invalid_rejected(self, tiny_cache):
        with pytest.raises(ValueError):
            tiny_cache.insert(1, LineState.INVALID)

    def test_invalidate_returns_prior_state(self, tiny_cache):
        tiny_cache.insert(3, LineState.DIRTY)
        assert tiny_cache.invalidate(3) is LineState.DIRTY
        assert tiny_cache.invalidate(3) is LineState.INVALID

    def test_occupancy(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(1, LineState.CLEAN)
        assert tiny_cache.occupancy() == 2


class TestLruReplacement:
    def test_evicts_least_recently_used(self, tiny_cache):
        # Blocks 0, 4, 8 map to set 0 (4 sets).
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(4, LineState.CLEAN)
        victim = tiny_cache.insert(8, LineState.CLEAN)
        assert victim == (0, LineState.CLEAN)
        assert 0 not in tiny_cache
        assert 4 in tiny_cache and 8 in tiny_cache

    def test_lookup_refreshes_lru(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(4, LineState.CLEAN)
        tiny_cache.lookup(0)  # 4 is now LRU
        victim = tiny_cache.insert(8, LineState.CLEAN)
        assert victim == (4, LineState.CLEAN)

    def test_peek_does_not_refresh_lru(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(4, LineState.CLEAN)
        tiny_cache.peek(0)  # LRU order unchanged: 0 still oldest
        victim = tiny_cache.insert(8, LineState.CLEAN)
        assert victim == (0, LineState.CLEAN)

    def test_reinsert_updates_state_without_eviction(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(4, LineState.CLEAN)
        victim = tiny_cache.insert(0, LineState.DIRTY)
        assert victim is None
        assert tiny_cache.peek(0) is LineState.DIRTY
        assert tiny_cache.occupancy() == 2

    def test_different_sets_do_not_interfere(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)   # set 0
        tiny_cache.insert(1, LineState.CLEAN)   # set 1
        tiny_cache.insert(4, LineState.CLEAN)   # set 0
        victim = tiny_cache.insert(8, LineState.CLEAN)  # set 0 evicts
        assert victim == (0, LineState.CLEAN)
        assert 1 in tiny_cache

    def test_resident_blocks_view(self, tiny_cache):
        tiny_cache.insert(0, LineState.CLEAN)
        tiny_cache.insert(5, LineState.DIRTY)
        resident = dict(tiny_cache.resident_blocks())
        assert resident == {0: LineState.CLEAN, 5: LineState.DIRTY}


class TestLineState:
    def test_dirty_states(self):
        assert LineState.DIRTY.is_dirty
        assert LineState.SHARED_DIRTY.is_dirty
        assert not LineState.CLEAN.is_dirty
        assert not LineState.SHARED_CLEAN.is_dirty
        assert not LineState.INVALID.is_dirty

    def test_owner_states(self):
        assert LineState.DIRTY.is_owner
        assert LineState.SHARED_DIRTY.is_owner
        assert not LineState.SHARED_CLEAN.is_owner
