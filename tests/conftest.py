"""Fixtures shared across the test packages."""

from dataclasses import replace

import pytest

from repro.trace import TraceConfig, generate_trace, preset_trace, synthetic


@pytest.fixture(scope="session")
def seeded_trace():
    """The seeded 4-CPU workload the engine suites share: in small
    caches it has plenty of misses, dirty victims, flushes and shared
    traffic to exercise every branch.  Tests must not modify it."""
    return generate_trace(TraceConfig(cpus=4, records_per_cpu=4_000, seed=7))


@pytest.fixture
def preset_configs(monkeypatch):
    """The ``TraceConfig`` of every preset generated during the test.

    Generation itself runs at 200 records per CPU, so a default-length
    preset costs no more than a small trace.
    """
    configs = []
    generate = synthetic.generate_trace

    def capture(config, name="synthetic"):
        configs.append(config)
        return generate(replace(config, records_per_cpu=200), name=name)

    monkeypatch.setattr(synthetic, "generate_trace", capture)
    # A memoized preset would skip generation, and a shortened one must
    # not outlive the test.
    preset_trace.cache_clear()
    yield configs
    preset_trace.cache_clear()
