"""One-pass geometry-family engine vs per-config ``Machine.run``.

``run_geometry_family`` is an optimisation, not a re-specification:
for every geometry-local protocol, replay order, and geometry family
it must produce statistics identical — including exact float clocks
and bus grants — to one ``Machine.run`` per configuration, while
traversing the trace once per family instead of once per cell.
A one-size family is the single-configuration entry to the one
classifier (``repro.sim.segment.classify_lru``) and must be
byte-identical to ``Machine.run``, including the reference record
loop on flush-bearing traces.  References come from the one
conformance check, ``tests/sim/test_conformance.py``, which also runs
every registry engine on a grid of buses, geometries and edge traces
and on arbitrary tiny traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.obs.metrics import fallback_counters, replay_counters
from repro.sim import (
    ONEPASS_PROTOCOLS,
    PROTOCOLS,
    Machine,
    SimulationConfig,
    family_support,
    run_geometry_family,
)
from repro.sim.engines import REF_LEGACY, REF_MACHINE
from repro.trace.records import Trace
from repro.verify.differential import stats_signature
from tests.sim.test_conformance import (
    FRACTIONAL,
    TINY_SIZES,
    assert_family_matches_machine,
    build_trace,
    fuzz_case,
    reference,
    signature,
    tiny_references,
    workload,
)

SIZES = [4096, 16384, 65536, 262144]

#: An engine label ``Machine.run`` must reject: the classifier is not
#: a replay engine.
REMOVED_ENGINE = "segment"


def without_flushes(trace):
    keep = trace.kind != 3
    return Trace.from_arrays(
        name=f"{trace.name}-noflush",
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        cpu=trace.cpu[keep],
        kind=trace.kind[keep],
        address=trace.address[keep],
    )


def assert_one_size_family_matches(
    trace, protocol, config, order="time", engine="columnar"
):
    """A one-size family equals ``Machine.run(engine=engine)``."""
    run = run_geometry_family(
        protocol,
        trace,
        [config.cache_bytes],
        block_bytes=config.block_bytes,
        associativity=config.associativity,
        order=order,
    )[config.cache_bytes]
    contract = REF_LEGACY if engine == "legacy" else REF_MACHINE
    expected = reference(contract, protocol, trace, config, order)
    assert run.engine == "onepass"
    assert stats_signature(run) == stats_signature(expected), (
        f"{protocol} {order} {config}"
    )


def assert_falls_back(trace, protocol, reason):
    """``family_support`` refuses with ``reason``, the sweep records it
    once, and runs one exact ``Machine.run`` per configuration."""
    assert family_support(protocol) == ("fallback", reason)
    before, _ = fallback_counters()
    family = run_geometry_family(protocol, trace, [4096, 16384])
    assert fallback_counters() == (before + 1, reason)
    for size, result in family.items():
        assert result.engine == "columnar"
        config = SimulationConfig(cache_bytes=size)
        expected = reference(REF_MACHINE, protocol, trace, config)
        assert signature(result) == signature(expected)


class TestOnepassMatchesMachine:
    @pytest.mark.parametrize("protocol", ONEPASS_PROTOCOLS)
    @pytest.mark.parametrize("order", ["time", "trace"])
    def test_identical_statistics(self, seeded_trace, protocol, order):
        assert_family_matches_machine(seeded_trace, protocol, SIZES, order=order)

    # Classifier rules must hold on direct-mapped and highly
    # associative caches and at every paper block size, not just the
    # default geometry.
    @pytest.mark.parametrize("block_bytes", [8, 32, 64])
    @pytest.mark.parametrize("associativity", [1, 4])
    @pytest.mark.parametrize("protocol", ONEPASS_PROTOCOLS)
    def test_identical_across_geometry_families(
        self, seeded_trace, protocol, block_bytes, associativity
    ):
        assert_family_matches_machine(
            seeded_trace,
            protocol,
            [4096, 65536],
            block_bytes=block_bytes,
            associativity=associativity,
        )

    @pytest.mark.parametrize("protocol", ONEPASS_PROTOCOLS)
    def test_single_cpu_trace(self, protocol):
        trace = workload(1, 3_000, 11)
        for order in ("time", "trace"):
            assert_family_matches_machine(
                trace, protocol, [1024, 8192, 65536], order=order
            )

    def test_cpu_restriction_matches(self, seeded_trace):
        family = run_geometry_family(
            "swflush", seeded_trace, [4096, 65536], cpus=2
        )
        restricted = seeded_trace.restricted_to(2)
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            expected = Machine("swflush", config).run(restricted)
            assert signature(family[size]) == signature(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_traces(self, seed):
        case = fuzz_case(seed, scale=0.3)
        for protocol in ONEPASS_PROTOCOLS:
            assert_family_matches_machine(
                case.trace, protocol, [2048, 16384, 131072]
            )

    @pytest.mark.parametrize("protocol", ONEPASS_PROTOCOLS)
    def test_engine_label(self, seeded_trace, protocol):
        family = run_geometry_family(protocol, seeded_trace, [4096, 65536])
        assert {run.engine for run in family.values()} == {"onepass"}

    def test_rejects_bad_order(self, seeded_trace):
        with pytest.raises(ValueError, match="order"):
            run_geometry_family("base", seeded_trace, [4096], order="clock")

    def test_rejected_trace_order_notes_no_fallback(self, seeded_trace):
        # A deferred-grant discipline cannot honour order='trace'; the
        # family must raise Machine.run's message and count nothing.
        before = fallback_counters()
        with pytest.raises(ValueError, match="order='trace' cannot be honoured"):
            run_geometry_family(
                "base", seeded_trace, [4096], order="trace",
                bus_discipline="round-robin",
            )
        assert fallback_counters() == before

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_empty_cache_sizes(self, seeded_trace, protocol):
        # An empty family is empty for every engine, not a
        # StopIteration from the one-pass or epoch set-up.
        assert run_geometry_family(protocol, seeded_trace, []) == {}


class TestOneSizeFamily:
    @pytest.mark.parametrize("associativity", [1, 2])
    @pytest.mark.parametrize("block_bytes", [8, 32])
    def test_identical_across_geometries(
        self, seeded_trace, associativity, block_bytes
    ):
        config = SimulationConfig(
            cache_bytes=8192,
            block_bytes=block_bytes,
            associativity=associativity,
        )
        assert_one_size_family_matches(seeded_trace, "base", config)

    def test_four_way_stays_onepass(self, seeded_trace):
        # The classifier walk covers associativities above two, so a
        # four-way sweep stays on the one-pass engine.
        assert family_support("base") == ("onepass", None)
        config = SimulationConfig(cache_bytes=8192, associativity=4)
        assert_one_size_family_matches(seeded_trace, "base", config)

    def test_swflush_exact_on_flushfree_trace(self, seeded_trace):
        trace = without_flushes(seeded_trace)
        assert family_support("swflush") == ("onepass", None)
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_one_size_family_matches(trace, "swflush", config)

    def test_swflush_exact_on_flush_trace(self, seeded_trace):
        # Real swflush traces always flush at section exits; the
        # classifier walk handles the flush records itself.
        assert int(np.count_nonzero(seeded_trace.kind == 3)) > 0
        for size in (4096, 65536):
            config = SimulationConfig(cache_bytes=size)
            assert_one_size_family_matches(seeded_trace, "swflush", config)

    def test_swflush_flush_trace_matches_machine_run(self, seeded_trace):
        # End-to-end: a one-size family must reproduce the reference
        # record loop byte-for-byte on a flush-bearing trace.
        config = SimulationConfig(cache_bytes=16384)
        assert_one_size_family_matches(
            seeded_trace, "swflush", config, engine="legacy"
        )


class TestFastPathGate:
    def test_fast_path_provenance(self, seeded_trace):
        family = run_geometry_family("base", seeded_trace, SIZES)
        for result in family.values():
            assert result.engine == "onepass"
            assert result.protocol_stats is None
            assert result.records_replayed == len(seeded_trace)
            assert result.run_wall_s > 0.0

    def test_geometry_coupled_protocols_use_epoch_engine(self, seeded_trace):
        assert family_support("dragon") == ("epoch", None)
        family = run_geometry_family("dragon", seeded_trace, [4096, 16384])
        for size, result in family.items():
            assert result.engine == "epoch"
            config = SimulationConfig(cache_bytes=size)
            expected = reference(REF_MACHINE, "dragon", seeded_trace, config)
            assert signature(result) == signature(expected)

    def test_wti_sweeps_per_config(self, seeded_trace):
        # WTI has no epoch engine: its sweeps are one exact Machine.run
        # per configuration, with the reason recorded.
        assert_falls_back(
            seeded_trace, "wti",
            "protocol:wti couples geometries and has no epoch engine",
        )

    def test_directory_protocol_falls_back(self, seeded_trace):
        assert_falls_back(
            seeded_trace, "directory",
            "protocol:directory couples geometries and has no epoch engine",
        )

    @pytest.mark.parametrize(
        "protocol", ["hybrid-2", "hybrid-4", "hybrid-limit"]
    )
    def test_hybrid_protocols_fall_back(self, seeded_trace, protocol):
        # Pressure counters couple epochs (a copy's fate depends on
        # broadcasts absorbed arbitrarily far back), so the hybrids
        # have no epoch engine; the gate must say so loudly and the
        # fallback must stay bit-identical to per-config replay.
        assert_falls_back(
            seeded_trace, protocol,
            f"protocol:{protocol} adapts per-copy update/invalidate "
            "pressure across epochs and has no epoch engine",
        )

    def test_coupled_high_associativity_is_exact(self, seeded_trace):
        # The classifier walk serves every associativity, so a four-way
        # Dragon sweep stays on the epoch engine, exact and unflagged.
        for order in ("time", "trace"):
            for overhead in (0.0, 2.0):
                before = fallback_counters()
                family = run_geometry_family(
                    "dragon", seeded_trace, [4096, 16384],
                    associativity=4, order=order,
                    bus_arbitration_cycles=overhead,
                )
                assert fallback_counters() == before
                for size, result in family.items():
                    assert result.engine == "epoch"
                    config = SimulationConfig(
                        cache_bytes=size, associativity=4,
                        bus_arbitration_cycles=overhead,
                    )
                    expected = reference(
                        REF_MACHINE, "dragon", seeded_trace, config, order
                    )
                    assert stats_signature(result) == stats_signature(
                        expected
                    ), (order, overhead, size)

    def test_non_integral_costs_fall_back(self, seeded_trace):
        assert family_support("dragon", FRACTIONAL) == (
            "fallback", "costs:non-integral operation costs"
        )
        for protocol in ("base", "dragon"):
            engine, reason = family_support(protocol, FRACTIONAL)
            assert (engine, reason) == (
                "fallback", "costs:non-integral operation costs"
            )
            before, _ = fallback_counters()
            family = run_geometry_family(
                protocol, seeded_trace, [4096], costs=FRACTIONAL
            )
            after, recorded = fallback_counters()
            assert after == before + 1
            assert recorded == reason
            assert family[4096].engine == "columnar"
            expected = Machine(
                protocol, SimulationConfig(cache_bytes=4096), FRACTIONAL
            ).run(seeded_trace)
            assert signature(family[4096]) == signature(expected)

    def test_segment_engine_refused(self, seeded_trace):
        # ``segment`` is not an engine label; family_support routes.
        with pytest.raises(ValueError) as raised:
            Machine("base", SimulationConfig()).run(
                seeded_trace, engine=REMOVED_ENGINE
            )
        assert str(raised.value) == (
            "engine must be 'columnar', 'legacy', or 'arbitrated', "
            f"got {REMOVED_ENGINE!r}"
        )

    def test_onepass_gate_covers_every_associativity(self, seeded_trace):
        # Routing never reads the associativity: every sweep engine
        # runs at every associativity.
        trace = seeded_trace.restricted_to(2)
        for protocol in ONEPASS_PROTOCOLS + ("dragon",):
            for associativity in (1, 2, 4):
                family = run_geometry_family(
                    protocol, trace, [8192], associativity=associativity
                )
                assert family[8192].engine == family_support(protocol)[0]

    def test_supported_combinations(self):
        for protocol in ONEPASS_PROTOCOLS:
            assert family_support(protocol) == ("onepass", None)
        assert family_support("dragon") == ("epoch", None)
        for protocol in ("wti", "directory"):
            assert family_support(protocol)[0] == "fallback"


class TestGeometryInput:
    @pytest.mark.parametrize(
        "size, message",
        [
            (65536.7, "cache size must be an integer, got 65536.7"),
            ("65536", "cache size must be an integer, got '65536'"),
        ],
    )
    def test_rejects_non_integer_cache_sizes(
        self, seeded_trace, size, message
    ):
        # Each size is checked as given, never coerced to an integer.
        with pytest.raises(ValueError) as raised:
            run_geometry_family("base", seeded_trace, [4096, size])
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"cache_bytes": 65536.0},
                "cache size must be an integer, got 65536.0",
            ),
            ({"block_bytes": 16.0}, "block size must be an integer, got 16.0"),
        ],
    )
    def test_config_rejects_non_integer_geometry(self, kwargs, message):
        # Checked when the config is built, not at its first replay.
        with pytest.raises(ValueError) as raised:
            SimulationConfig(**kwargs)
        assert str(raised.value) == message


class TestTraversalSavings:
    def test_family_is_one_traversal(self, seeded_trace):
        before, _ = replay_counters()
        run_geometry_family("base", seeded_trace, SIZES)
        after, engine = replay_counters()
        # Four cache sizes, one traversal: the per-config loop would
        # have replayed 4 * len(trace) records.
        assert after - before == len(seeded_trace)
        assert engine == "onepass"


class TestOnepassProperties:
    @settings(max_examples=40, deadline=None)
    @given(tiny_references)
    def test_exact_equality_and_monotone_hits(self, refs):
        # Tiny caches so the 24-block working set overflows them.
        trace = build_trace(refs)
        for protocol in ONEPASS_PROTOCOLS:
            assert_family_matches_machine(trace, protocol, TINY_SIZES)
            misses = [
                reference(
                    REF_MACHINE, protocol, trace,
                    SimulationConfig(
                        cache_bytes=size, block_bytes=16, associativity=2
                    ),
                ).total_misses
                for size in TINY_SIZES
            ]
            # LRU inclusion: hit counts are monotone non-decreasing in
            # cache size, so misses are non-increasing.
            assert misses == sorted(misses, reverse=True)
