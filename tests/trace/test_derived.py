"""Memoized derived columns: content keying, bounds, reuse."""

import numpy as np
import pytest

from repro.trace import (
    TraceConfig,
    clear_derived_cache,
    derived_cache_info,
    derived_columns,
    generate_trace,
    set_derived_cache_bytes,
    set_derived_cache_size,
    trace_digest,
)
from repro.trace.records import Trace


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_derived_cache()
    yield
    clear_derived_cache()
    set_derived_cache_size(8)
    set_derived_cache_bytes(1 << 30)


def small_trace(seed=5):
    return generate_trace(TraceConfig(cpus=2, records_per_cpu=300, seed=seed))


class TestContentKeying:
    def test_same_object_hits(self):
        trace = small_trace()
        first = derived_columns(trace, 4)
        second = derived_columns(trace, 4)
        assert second is first
        info = derived_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_equal_content_shares_entry(self):
        trace = small_trace()
        clone = Trace.from_arrays(
            name="clone",
            cpus=trace.cpus,
            shared_region=trace.shared_region,
            cpu=trace.cpu.copy(),
            kind=trace.kind.copy(),
            address=trace.address.copy(),
        )
        assert trace_digest(clone) == trace_digest(trace)
        assert derived_columns(clone, 4) is derived_columns(trace, 4)

    def test_mutated_trace_gets_fresh_columns(self):
        # Regression: keying on object identity served stale columns
        # after in-place mutation.  The digest must observe content.
        trace = small_trace()
        stale = derived_columns(trace, 4)
        trace.address[0] = int(trace.address[0]) + 4096
        fresh = derived_columns(trace, 4)
        assert fresh is not stale
        assert fresh.digest != stale.digest
        assert fresh.blocks[0] != stale.blocks[0]

    def test_block_shift_is_part_of_the_key(self):
        trace = small_trace()
        at16 = derived_columns(trace, 4)
        at32 = derived_columns(trace, 5)
        assert at32 is not at16
        assert np.array_equal(at32.blocks, at16.blocks >> 1)

    def test_digest_observes_shared_region(self):
        trace = small_trace()
        moved = Trace.from_arrays(
            name="moved",
            cpus=trace.cpus,
            shared_region=range(
                trace.shared_region.start + 64, trace.shared_region.stop + 64
            ),
            cpu=trace.cpu,
            kind=trace.kind,
            address=trace.address,
        )
        assert trace_digest(moved) != trace_digest(trace)


class TestBoundedCache:
    def test_lru_eviction_at_bound(self):
        set_derived_cache_size(2)
        trace = small_trace()
        derived_columns(trace, 3)
        derived_columns(trace, 4)
        derived_columns(trace, 5)  # evicts shift 3
        assert derived_cache_info()["size"] == 2
        derived_columns(trace, 3)
        assert derived_cache_info()["misses"] == 4

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError, match="maxsize"):
            set_derived_cache_size(0)

    def test_rejects_non_positive_byte_bound(self):
        with pytest.raises(ValueError, match="max_bytes"):
            set_derived_cache_bytes(0)

    def test_clear_resets_counters(self):
        derived_columns(small_trace(), 4)
        clear_derived_cache()
        info = derived_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["size"] == 0 and info["bytes"] == 0
        assert info["maxsize"] == 8

    def test_bytes_track_payload(self):
        derived_columns(small_trace(), 4)
        one = derived_cache_info()["bytes"]
        assert one > 0
        derived_columns(small_trace(), 5)
        assert derived_cache_info()["bytes"] > one
        clear_derived_cache()
        assert derived_cache_info()["bytes"] == 0

    def test_byte_bound_evicts_lru(self):
        trace = small_trace()
        derived_columns(trace, 3)
        per_entry = derived_cache_info()["bytes"]
        derived_columns(trace, 4)
        derived_columns(trace, 5)
        # Room for roughly two entries: the LRU one (shift 3) must go.
        set_derived_cache_bytes(int(per_entry * 2.5))
        info = derived_cache_info()
        assert info["size"] == 2
        assert info["bytes"] <= info["max_bytes"]
        derived_columns(trace, 4)
        derived_columns(trace, 5)
        assert derived_cache_info()["hits"] == 2
        derived_columns(trace, 3)
        assert derived_cache_info()["misses"] == 4

    def test_oversized_entry_still_memoizes(self):
        # A single trace larger than the byte bound must not thrash:
        # the newest entry always survives eviction.
        set_derived_cache_bytes(1)
        trace = small_trace()
        first = derived_columns(trace, 4)
        assert derived_columns(trace, 4) is first
        info = derived_cache_info()
        assert info["size"] == 1
        assert info["hits"] == 1


class TestSingleOwnerMask:
    def test_matches_a_per_block_count(self):
        rng = np.random.default_rng(3)
        cpu = rng.integers(0, 3, 400)
        # CPU 2 keeps to its own blocks; 0 and 1 share a few.
        block = np.where(
            cpu == 2, 100 + rng.integers(0, 20, 400), rng.integers(0, 30, 400)
        )
        trace = Trace.from_arrays(
            name="owners",
            cpus=3,
            shared_region=range(0, 0),
            cpu=cpu,
            kind=rng.integers(0, 3, 400),
            address=block * 16 + rng.integers(0, 16, 400),
        )
        derived = derived_columns(trace, 4)
        owners = {}
        for cpu, block in zip(
            derived.cpus_sorted.tolist(), derived.blocks_sorted.tolist()
        ):
            owners.setdefault(block, set()).add(cpu)
        expected = [
            len(owners[block]) == 1
            for block in derived.blocks_sorted.tolist()
        ]
        assert derived.single_owner_sorted.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    def test_lazy_mask_leaves_the_byte_count_alone(self):
        # Eviction subtracts the entry's footprint recomputed at that
        # moment, so a mask computed after insertion must not count.
        trace = small_trace()
        first = derived_columns(trace, 4)
        with_first = derived_cache_info()["bytes"]
        first.single_owner_sorted
        assert derived_cache_info()["bytes"] == with_first
        derived_columns(trace, 5)
        second_only = derived_cache_info()["bytes"] - with_first
        set_derived_cache_size(1)
        assert derived_cache_info()["bytes"] == second_only
