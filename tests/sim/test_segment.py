"""The one LRU classifier, and one-size families as its entry point.

Every cache-size sweep classifies hits and misses with one walk,
:func:`repro.sim.segment.classify_lru`, which replaced the ``segment``
replay engine and the run-collapse kernel.  Its per-CPU events are
pinned against a direct LRU simulation at several associativities,
with and without flush handling and shared-data caching.  A one-size
:func:`repro.sim.run_geometry_family` must be byte-identical to
``Machine.run`` in either replay order and on fuzzed traces, and
``Machine.run`` has no ``segment`` engine label: asking for one is
refused loudly, whatever the cost table.  The geometry, associativity
and Software-Flush one-size checks live in ``test_onepass.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, SimulationConfig, family_support
from repro.sim.cache import CacheGeometry
from repro.sim.segment import (
    CLEAN_FLUSH,
    CLEAN_MISS,
    DIRTY_FLUSH,
    DIRTY_MISS,
    READ_THROUGH,
    WRITE_THROUGH,
    classify_lru,
)
from repro.trace import derived_columns
from tests.sim.test_conformance import FRACTIONAL, build_trace, fuzz_case
from tests.sim.test_onepass import (
    REMOVED_ENGINE,
    assert_one_size_family_matches,
)


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
        case = fuzz_case(seed, scale=0.3)
        for protocol in ("base", "nocache"):
            config = SimulationConfig(cache_bytes=16384)
            assert_one_size_family_matches(case.trace, protocol, config)


class TestSegmentGate:
    def test_refuses_non_integral_costs(self, seeded_trace):
        assert family_support("base", FRACTIONAL) == (
            "fallback",
            "costs:non-integral operation costs",
        )
        machine = Machine("base", SimulationConfig(), FRACTIONAL)
        with pytest.raises(ValueError) as raised:
            machine.run(seeded_trace, engine=REMOVED_ENGINE)
        assert str(raised.value) == (
            "engine must be 'columnar', 'legacy', or 'arbitrated', "
            f"got {REMOVED_ENGINE!r}"
        )


# -- The classifier vs a direct LRU simulation -------------------------

lru_references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # cpu (of 3)
        st.integers(min_value=0, max_value=3),  # kind incl. FLUSH
        st.integers(min_value=0, max_value=23),  # block; 12..23 shared
    ),
    min_size=1,
    max_size=150,
)


def reference_lru(derived, geometry, handles_flush, caches_shared):
    """Per-CPU ``(positions, opcodes, victims)`` by direct simulation
    of one LRU cache with a dirty bit per line."""
    events = []
    for start, count in zip(derived.offsets, derived.counts):
        state = {}  # set -> list of [block, dirty], MRU first
        positions, opcodes, victims = [], [], []
        for pos in range(count):
            kind = int(derived.kinds_sorted[start + pos])
            block = int(derived.blocks_sorted[start + pos])
            if kind == 3 and not handles_flush:
                continue
            if (
                kind in (1, 2)
                and not caches_shared
                and derived.shared_sorted[start + pos]
            ):
                positions.append(pos)
                opcodes.append(WRITE_THROUGH if kind == 2 else READ_THROUGH)
                victims.append(-1)
                continue
            ways = state.setdefault(block % geometry.sets, [])
            line = next((way for way in ways if way[0] == block), None)
            if kind == 3:
                positions.append(pos)
                opcodes.append(
                    DIRTY_FLUSH if line is not None and line[1]
                    else CLEAN_FLUSH
                )
                victims.append(-1)
                if line is not None:
                    ways.remove(line)
                continue
            if line is not None:
                ways.remove(line)
            else:
                victim, dirty = -1, False
                if len(ways) == geometry.associativity:
                    victim, dirty = ways.pop()
                line = [block, False]
                positions.append(pos)
                opcodes.append(DIRTY_MISS if dirty else CLEAN_MISS)
                victims.append(victim)
            ways.insert(0, line)
            if kind == 2:
                line[1] = True
        events.append((positions, opcodes, victims))
    return events


class TestClassifyLruTheorem:
    @settings(max_examples=60, deadline=None)
    @given(
        lru_references,
        st.sampled_from([1, 2, 4]),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_reference_simulation(
        self, refs, associativity, handles_flush, caches_shared
    ):
        derived = derived_columns(build_trace(refs), 4)
        # One family of three set counts, deliberately not sorted: the
        # prefilter visits geometries coarsest-first.
        geometries = [
            CacheGeometry(sets * 16 * associativity, 16, associativity)
            for sets in (4, 1, 2)
        ]
        events = classify_lru(
            derived, geometries, handles_flush, caches_shared
        )
        for geometry, got in zip(geometries, events):
            assert got == reference_lru(
                derived, geometry, handles_flush, caches_shared
            ), geometry
