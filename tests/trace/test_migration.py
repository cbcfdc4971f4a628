"""Unit tests for the process-migration extension of the generator."""

import dataclasses

import pytest

from repro.trace import AccessType, TraceConfig, generate_trace

BASE = TraceConfig(cpus=4, records_per_cpu=8_000, seed=21)


@pytest.fixture(scope="module")
def migrated():
    """``migrated(interval)``: BASE's trace at that migration interval,
    generated once per module (no test edits a trace)."""
    traces = {}

    def trace_for(interval):
        if interval not in traces:
            traces[interval] = generate_trace(
                dataclasses.replace(BASE, migration_interval=interval)
            )
        return traces[interval]

    return trace_for


def _code_region_of_process(config, process):
    base = config.code_base + process * config.code_bytes_per_cpu
    return range(base, base + config.code_bytes_per_cpu)


class TestMigration:
    def test_disabled_by_default(self, migrated):
        """Without migration, CPU i only ever runs process i, so all
        its fetches stay in process i's code region."""
        trace = migrated(0)
        for cpu, kind, address in trace:
            if kind is AccessType.INST_FETCH:
                region = _code_region_of_process(BASE, cpu)
                assert region.start <= address < region.stop

    def test_migration_moves_processes_across_cpus(self):
        config = dataclasses.replace(BASE, migration_interval=2_000)
        trace = generate_trace(config)
        foreign_fetches = 0
        for cpu, kind, address in trace:
            if kind is AccessType.INST_FETCH:
                region = _code_region_of_process(config, cpu)
                if not region.start <= address < region.stop:
                    foreign_fetches += 1
        assert foreign_fetches > 0

    def test_record_budget_unchanged(self, migrated):
        trace = migrated(1_000)
        assert trace.per_cpu_counts() == [8_000] * 4

    def test_every_process_keeps_running(self, migrated):
        """Migration permutes processes; none is lost or duplicated at
        any instant, so all four code regions keep appearing."""
        trace = migrated(1_000)
        seen_regions = set()
        for cpu, kind, address in trace:
            if kind is AccessType.INST_FETCH:
                seen_regions.add(address // BASE.code_bytes_per_cpu)
        assert seen_regions == {0, 1, 2, 3}

    def test_deterministic(self):
        config = dataclasses.replace(BASE, migration_interval=500)
        assert (
            generate_trace(config).records == generate_trace(config).records
        )

    def test_single_cpu_migration_is_noop(self):
        solo = dataclasses.replace(BASE, cpus=1, migration_interval=100)
        without = dataclasses.replace(BASE, cpus=1)
        assert generate_trace(solo).records == generate_trace(without).records

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError, match="migration_interval"):
            dataclasses.replace(BASE, migration_interval=-1)

    def test_migration_raises_miss_rate(self, migrated):
        from repro.sim import Machine, SimulationConfig

        machine = Machine("base", SimulationConfig(cache_bytes=16384))
        calm = machine.run(migrated(0))
        churned = machine.run(migrated(1_000))
        assert churned.data_miss_rate > calm.data_miss_rate
