"""Unit tests for per-cell execution metrics."""

import pytest

from repro.obs.metrics import (
    CellMetrics,
    fallback_counters,
    measure_call,
    note_family_fallback,
    note_replay,
    peak_rss_kb,
    replay_counters,
)


class TestReplayCounters:
    def test_note_replay_accumulates(self):
        before, _ = replay_counters()
        note_replay(1000, "columnar")
        note_replay(500, "legacy")
        after, engine = replay_counters()
        assert after - before == 1500
        assert engine == "legacy"

    def test_machine_run_reports(self):
        from repro.sim import Machine
        from repro.trace import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=400, seed=7)
        )
        before, _ = replay_counters()
        result = Machine("base").run(trace)
        after, engine = replay_counters()
        assert after - before == len(trace)
        assert engine == "columnar"
        assert result.engine == "columnar"
        assert result.records_replayed == len(trace)
        assert result.run_wall_s > 0.0


class TestFallbackCounters:
    def test_note_family_fallback_accumulates(self):
        before, _ = fallback_counters()
        note_family_fallback("protocol:directory couples geometries")
        note_family_fallback("associativity:4 (outside the theorem)")
        after, reason = fallback_counters()
        assert after - before == 2
        assert reason == "associativity:4 (outside the theorem)"

    def test_family_run_records_structured_reason(self):
        from repro.sim import run_geometry_family
        from repro.trace import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(cpus=2, records_per_cpu=400, seed=7)
        )
        before, _ = fallback_counters()
        run_geometry_family("directory", trace, [4096])
        after, reason = fallback_counters()
        assert after == before + 1
        assert reason.startswith("protocol:directory")


class TestPeakRss:
    def test_positive_kilobytes(self):
        # Any Python process has at least a few MB resident.
        assert peak_rss_kb() > 1024


class TestMeasureCall:
    def test_returns_result_and_metrics(self):
        outcome, metrics = measure_call(lambda x: x * 2, 21)
        assert outcome == 42
        assert isinstance(metrics, CellMetrics)
        assert metrics.wall_s >= 0.0
        assert metrics.peak_rss_kb > 0

    def test_counts_replays_inside_the_call(self):
        def fake_cell(_item):
            note_replay(250, "columnar")
            return "done"

        _, metrics = measure_call(fake_cell, None)
        assert metrics.records == 250
        assert metrics.engine == "columnar"

    def test_exceptions_propagate(self):
        def bad_cell(_item):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            measure_call(bad_cell, None)

    def test_captures_fallback_reason_inside_the_call(self):
        def falling_cell(_item):
            note_family_fallback("costs:non-integral operation costs")
            return "done"

        _, metrics = measure_call(falling_cell, None)
        assert metrics.fallback_reason == (
            "costs:non-integral operation costs"
        )

    def test_no_fallback_means_empty_reason(self):
        # A stale process-global reason from an *earlier* cell must not
        # leak into cells that never fell back.
        note_family_fallback("protocol:stale reason from another cell")
        _, metrics = measure_call(lambda x: x, None)
        assert metrics.fallback_reason == ""


def _quiet_two_cpu_trace():
    """Two CPUs, disjoint 4-block loops, all loads: near-idle bus."""
    import numpy as np

    from repro.trace.records import Trace

    n = 1000
    cpu = np.tile([0, 1], n).astype(np.uint16)
    kind = np.zeros(2 * n, dtype=np.uint8)
    blocks = np.empty(2 * n, dtype=np.uint64)
    blocks[0::2] = np.arange(n) % 4
    blocks[1::2] = 8 + (np.arange(n) % 4)
    return Trace.from_arrays(
        name="quiet", cpus=2, shared_region=range(0, 0),
        cpu=cpu, kind=kind, address=blocks * 16,
    )


class TestEngineProvenanceMetrics:
    """Per-cell engine/fallback provenance for the folded engines."""

    def test_quiet_cell_reports_epoch_engine(self):
        from repro.sim import run_geometry_family

        trace = _quiet_two_cpu_trace()

        def cell(_item):
            return run_geometry_family(
                "dragon", trace, [1024, 4096],
                block_bytes=16, associativity=1, order="time",
            )

        family, metrics = measure_call(cell, None)
        assert all(r.engine == "epoch" for r in family.values())
        assert metrics.engine == "epoch"
        assert metrics.fallback_reason == ""

    def test_cell_reports_columnar_arb_engine(self):
        import dataclasses

        from repro.sim import Machine, SimulationConfig

        trace = _quiet_two_cpu_trace()
        config = dataclasses.replace(
            SimulationConfig(), bus_arbitration_cycles=4.0
        )

        def cell(_item):
            return Machine("wti", config).run(trace)

        run, metrics = measure_call(cell, None)
        assert run.engine == "columnar+arb"
        assert metrics.engine == "columnar+arb"
        assert metrics.fallback_reason == ""


class TestCellMetrics:
    def test_records_per_s(self):
        metrics = CellMetrics(
            wall_s=2.0, records=1000, engine="columnar", peak_rss_kb=100
        )
        assert metrics.records_per_s == 500.0

    def test_zero_wall_time_is_zero_rate(self):
        metrics = CellMetrics(
            wall_s=0.0, records=1000, engine="", peak_rss_kb=0
        )
        assert metrics.records_per_s == 0.0

    def test_as_dict_is_json_ready(self):
        import json

        metrics = CellMetrics(
            wall_s=1.23456789, records=100, engine="legacy", peak_rss_kb=42
        )
        payload = metrics.as_dict()
        json.dumps(payload)  # must not raise
        assert payload["engine"] == "legacy"
        assert payload["records"] == 100
        assert payload["wall_s"] == pytest.approx(1.234568)
