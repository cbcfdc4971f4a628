"""The three-phase generator equals the record-at-a-time reference.

:func:`repro.trace.synthetic.generate_trace` must produce the same
``cpu``, ``kind`` and ``address`` columns, bit for bit, as
:func:`tests.trace.reference_generator.reference_generate_trace`.  The
pinned digests were recorded from the reference loop before it left
``src``, so the two cannot drift together.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import TraceConfig, generate_trace, preset
from tests.trace.reference_generator import reference_generate_trace

PRESETS = ("pops", "thor", "pero", "pero8")

#: sha256 of each preset's cpu (<u2), kind (u1) and address (<u8)
#: columns at 2k records per CPU.
GOLDEN = {
    "pops": "db4d4eeddcd7b2e6215f9a9d29d0ef3ead6db38793522ce93f12ecf3ef0d1a5b",
    "thor": "88cc1022e038ce61f9340abb861be236594221fabe3523c0b46bbc40a018e02f",
    "pero": "6ff8a7b5b55351778bd65a1c2479d2ac4093d250c6afd97503253c622584497d",
    "pero8": "5ee2f360d2e581fb589b175a508c469040c9e285280beebcc75f51e3f49cd4e6",
}


def assert_same_columns(config: TraceConfig) -> None:
    fast = generate_trace(config)
    reference = reference_generate_trace(config)
    for column in ("cpu", "kind", "address"):
        got, want = getattr(fast, column), getattr(reference, column)
        assert got.dtype == want.dtype, column
        assert np.array_equal(got, want), column


def digest(trace) -> str:
    sha = hashlib.sha256()
    for column, dtype in (
        (trace.cpu, "<u2"),
        (trace.kind, "u1"),
        (trace.address, "<u8"),
    ):
        sha.update(column.astype(dtype).tobytes())
    return sha.hexdigest()


@st.composite
def trace_configs(draw) -> TraceConfig:
    cpus = draw(st.integers(1, 4))
    block_bytes = draw(st.sampled_from([16, 32, 64]))
    private_blocks = draw(st.integers(1, 64))
    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    return TraceConfig(
        cpus=cpus,
        records_per_cpu=draw(st.integers(1, 600)),
        block_bytes=block_bytes,
        instruction_bytes=draw(st.sampled_from([4, 8])),
        ls=draw(probability),
        code_blocks_per_cpu=draw(st.integers(1, 64)),
        loop_blocks_mean=draw(st.integers(1, 8)),
        loop_iterations_mean=draw(st.integers(1, 4)),
        private_blocks_per_cpu=private_blocks,
        private_working_set=draw(st.integers(1, private_blocks)),
        private_locality=draw(probability),
        private_write_fraction=draw(probability),
        shd=draw(probability),
        shared_objects=draw(st.integers(1, 8)),
        object_blocks=draw(st.integers(1, 4)),
        section_length_mean=draw(st.integers(1, 6)),
        shared_write_fraction=draw(probability),
        readonly_section_fraction=draw(probability),
        flush_on_exit=draw(st.booleans()),
        scheduler_burst_mean=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**20)),
        layout_cpus=draw(st.integers(cpus, 6)),
        migration_interval=draw(st.sampled_from([0, 0, 1, 7, 40, 150])),
    )


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(config=trace_configs())
    def test_any_config(self, config):
        assert_same_columns(config)

    @pytest.mark.parametrize("name", PRESETS)
    def test_presets(self, name):
        assert_same_columns(replace(preset(name).config, records_per_cpu=5_000))

    @pytest.mark.parametrize("name", PRESETS)
    def test_pinned_digest(self, name):
        config = replace(preset(name).config, records_per_cpu=2_000)
        assert digest(generate_trace(config)) == GOLDEN[name]
        assert digest(reference_generate_trace(config)) == GOLDEN[name]
