"""Unit tests for the synthetic trace generator."""

import random
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.trace import AccessType, TraceConfig, generate_trace
from repro.trace.synthetic import SyntheticWorkload, _geometric

SMALL = TraceConfig(cpus=2, records_per_cpu=5_000, seed=7)


@pytest.fixture(scope="module")
def small_trace():
    # Shared by the module's read-only tests.
    return generate_trace(SMALL)


class TestTraceConfig:
    def test_address_space_layout_is_disjoint(self):
        config = SMALL
        assert config.private_base >= config.code_base + (
            config.cpus * config.code_bytes_per_cpu
        )
        assert config.shared_base >= config.private_base + (
            config.cpus * config.private_bytes_per_cpu
        )

    def test_shared_region_size(self):
        config = TraceConfig(shared_objects=10, object_blocks=3)
        assert len(config.shared_region) == 10 * 3 * 16

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cpus": 0},
            {"records_per_cpu": 0},
            {"ls": 1.5},
            {"shd": -0.1},
            {"private_working_set": 0},
            {"private_working_set": 10**9},
            {"block_bytes": 2},
            {"block_bytes": 24},
            {"section_length_mean": 0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            TraceConfig(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cpus", 2.0),
            ("records_per_cpu", 10.5),
            ("records_per_cpu", True),
            ("seed", 1.5),
            ("layout_cpus", 64.0),
            ("migration_interval", 2.5),
            ("block_bytes", 16.0),
            ("instruction_bytes", False),
            ("object_blocks", 1.5),
            ("loop_iterations_mean", "3"),
            ("private_working_set", 8.0),
            ("shared_objects", True),
            ("scheduler_burst_mean", 6.0),
        ],
    )
    def test_integer_fields_reject_non_integers(self, field, value):
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            TraceConfig(**{field: value})

    def test_integer_fields_accept_numpy_integers(self):
        config = TraceConfig(cpus=np.int64(2), seed=np.uint8(7))
        assert type(config.cpus) is int and type(config.seed) is int
        assert generate_trace(
            replace(config, records_per_cpu=50)
        ).per_cpu_counts() == [50, 50]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"block_bytes": 2, "instruction_bytes": 2},
            {"block_bytes": 0},
            {"instruction_bytes": 0},
            {"migration_interval": -1},
        ],
    )
    def test_rejects_unusable_sizes(self, overrides):
        with pytest.raises(ValueError):
            TraceConfig(**overrides)


class TestGenerateTrace:
    def test_deterministic_for_same_seed(self):
        first = generate_trace(SMALL)
        second = generate_trace(SMALL)
        assert first.records == second.records

    def test_different_seeds_differ(self, small_trace):
        other = replace(SMALL, seed=8)
        assert small_trace.records != generate_trace(other).records

    def test_record_count(self, small_trace):
        counts = small_trace.per_cpu_counts()
        assert all(count == SMALL.records_per_cpu for count in counts)

    def test_all_cpus_present(self, small_trace):
        assert {record.cpu for record in small_trace} == {0, 1}

    def test_addresses_lie_in_their_regions(self, small_trace):
        config = SMALL
        for cpu, kind, address in small_trace:
            if kind is AccessType.INST_FETCH:
                base = config.code_base + cpu * config.code_bytes_per_cpu
                assert base <= address < base + config.code_bytes_per_cpu
            elif address >= config.shared_base:
                assert address in config.shared_region
            else:
                base = config.private_base + cpu * config.private_bytes_per_cpu
                assert base <= address < base + config.private_bytes_per_cpu

    def test_ls_controls_data_fraction(self):
        config = TraceConfig(cpus=1, records_per_cpu=30_000, ls=0.4, seed=3)
        trace = generate_trace(config)
        fetches = sum(
            1 for r in trace if r.kind is AccessType.INST_FETCH
        )
        data = sum(1 for r in trace if r.kind.is_data)
        assert data / fetches == pytest.approx(0.4, abs=0.02)

    def test_shd_controls_shared_fraction(self):
        config = TraceConfig(
            cpus=1, records_per_cpu=40_000, shd=0.3, seed=5
        )
        trace = generate_trace(config)
        data = [r for r in trace if r.kind.is_data]
        shared = [r for r in data if trace.is_shared(r.address)]
        assert len(shared) / len(data) == pytest.approx(0.3, abs=0.05)

    def test_zero_sharing_produces_no_shared_references(self):
        config = TraceConfig(cpus=2, records_per_cpu=5_000, shd=0.0, seed=1)
        trace = generate_trace(config)
        assert not any(
            trace.is_shared(r.address) for r in trace if r.kind.is_data
        )
        assert not any(r.kind is AccessType.FLUSH for r in trace)

    def test_flush_records_only_in_shared_region(self, small_trace):
        flushes = [r for r in small_trace if r.kind is AccessType.FLUSH]
        assert flushes, "expected critical sections to flush"
        assert all(small_trace.is_shared(r.address) for r in flushes)

    def test_flush_can_be_disabled(self):
        import dataclasses

        config = dataclasses.replace(SMALL, flush_on_exit=False)
        trace = generate_trace(config)
        assert not any(r.kind is AccessType.FLUSH for r in trace)

    def test_per_cpu_streams_independent_of_cpu_count(self):
        """CPU 0's program is the same whether 1 or 4 CPUs run — the
        property the validation's processor sweeps rely on."""
        import dataclasses

        base = TraceConfig(cpus=4, records_per_cpu=2_000, seed=11)
        solo = dataclasses.replace(base, cpus=1)
        four_cpu0 = [
            (r.kind, r.address)
            for r in generate_trace(base)
            if r.cpu == 0
        ]
        one_cpu0 = [
            (r.kind, r.address) for r in generate_trace(solo) if r.cpu == 0
        ]
        assert four_cpu0 == one_cpu0

    def test_name_is_recorded(self):
        assert generate_trace(SMALL, name="mytrace").name == "mytrace"


class TestSyntheticWorkload:
    def test_generate_with_overrides(self):
        workload = SyntheticWorkload(name="w", config=SMALL)
        trace = workload.generate(records_per_cpu=1_000)
        assert trace.per_cpu_counts() == [1_000, 1_000]
        assert trace.name == "w"

    def test_generate_with_seed(self):
        workload = SyntheticWorkload(name="w", config=SMALL)
        assert (
            workload.generate(seed=1).records
            != workload.generate(seed=2).records
        )


class TestGeometric:
    def test_mean_is_respected(self):
        rng = random.Random(0)
        samples = [_geometric(rng, 5.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, rel=0.05)

    def test_zero_mean(self):
        rng = random.Random(0)
        assert _geometric(rng, 0.0) == 0
