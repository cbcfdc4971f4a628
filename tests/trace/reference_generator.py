"""The record-at-a-time trace generator, kept as the ``==`` reference.

:func:`repro.trace.synthetic.generate_trace` builds the same three
columns in three phases (burst table, one stream per process, numpy
interleave).  This module keeps the loop it replaced: one
:class:`_CpuProcess` object per processor, asked for one record at a
time by the bursty scheduler.  ``tests/trace/test_generator_reference.py``
checks the two are equal, column for column.
"""

from __future__ import annotations

import random

import numpy as np

from repro.trace.records import (
    ADDRESS_DTYPE,
    CPU_DTYPE,
    KIND_DTYPE,
    AccessType,
    Trace,
)
from repro.trace.synthetic import TraceConfig, _geometric

__all__ = ["reference_generate_trace"]

_FETCH = int(AccessType.INST_FETCH)
_LOAD = int(AccessType.LOAD)
_STORE = int(AccessType.STORE)
_FLUSH = int(AccessType.FLUSH)


class _CpuProcess:
    """The reference stream of one processor, generated lazily."""

    def __init__(self, cpu: int, config: TraceConfig, rng: random.Random):
        self.cpu = cpu
        self.config = config
        self.rng = rng
        self.pending: list[tuple[int, int]] = []
        # Instruction stream state.
        self.code_base = config.code_base + cpu * config.code_bytes_per_cpu
        self.loop_start_block = 0
        self.loop_blocks = 1
        self.loop_remaining_iterations = 0
        self.instruction_index = 0
        self._new_loop()
        # Private data state.
        self.private_base = config.private_base + cpu * config.private_bytes_per_cpu
        self.working_set = list(range(config.private_working_set))
        # Critical-section state.
        self.section_remaining = 0
        self.section_object = 0
        self.section_writes = False
        self.section_touched: set[int] = set()
        gap = self._section_gap_mean()
        self.enter_probability = 0.0 if gap is None else 1.0 / gap

    def _section_gap_mean(self) -> float | None:
        """Mean non-shared data references between critical sections.

        Chosen so that the long-run fraction of shared data references
        equals ``shd``.  None when ``shd`` is 0 (never enter a
        section).
        """
        config = self.config
        if config.shd == 0.0:
            return None
        if config.shd >= 1.0:
            return 1e-9  # effectively always in a section
        return config.section_length_mean * (1.0 - config.shd) / config.shd

    # -- instruction stream ------------------------------------------------

    def _new_loop(self) -> None:
        config, rng = self.config, self.rng
        self.loop_blocks = min(
            1 + _geometric(rng, config.loop_blocks_mean),
            config.code_blocks_per_cpu,
        )
        self.loop_start_block = rng.randrange(
            config.code_blocks_per_cpu - self.loop_blocks + 1
        )
        self.loop_remaining_iterations = 1 + _geometric(
            rng, config.loop_iterations_mean
        )
        self.instruction_index = 0

    def _next_fetch(self) -> int:
        """Address of the next instruction fetch."""
        config = self.config
        instructions_per_loop = (
            self.loop_blocks * config.block_bytes // config.instruction_bytes
        )
        address = (
            self.code_base
            + self.loop_start_block * config.block_bytes
            + self.instruction_index * config.instruction_bytes
        )
        self.instruction_index += 1
        if self.instruction_index >= instructions_per_loop:
            self.loop_remaining_iterations -= 1
            self.instruction_index = 0
            if self.loop_remaining_iterations <= 0:
                self._new_loop()
        return address

    # -- data streams --------------------------------------------------

    def _private_reference(self) -> tuple[int, int]:
        config, rng = self.config, self.rng
        if rng.random() < config.private_locality:
            block = rng.choice(self.working_set)
        else:
            block = rng.randrange(config.private_blocks_per_cpu)
            # Rotate the newcomer into the working set.
            victim = rng.randrange(len(self.working_set))
            self.working_set[victim] = block
        offset = rng.randrange(config.block_bytes // 4) * 4
        address = self.private_base + block * config.block_bytes + offset
        kind = (
            _STORE
            if rng.random() < config.private_write_fraction
            else _LOAD
        )
        return kind, address

    def _enter_section(self) -> None:
        config, rng = self.config, self.rng
        self.section_object = rng.randrange(config.shared_objects)
        self.section_remaining = 1 + _geometric(rng, config.section_length_mean)
        self.section_writes = rng.random() >= config.readonly_section_fraction
        self.section_touched = set()

    def _shared_reference(self) -> tuple[int, int]:
        config, rng = self.config, self.rng
        block_in_object = rng.randrange(config.object_blocks)
        block = self.section_object * config.object_blocks + block_in_object
        self.section_touched.add(block)
        offset = rng.randrange(config.block_bytes // 4) * 4
        address = config.shared_base + block * config.block_bytes + offset
        write = (
            self.section_writes
            and rng.random() < config.shared_write_fraction
        )
        kind = _STORE if write else _LOAD
        self.section_remaining -= 1
        if self.section_remaining <= 0:
            self._exit_section()
        return kind, address

    def _exit_section(self) -> None:
        if self.config.flush_on_exit:
            for block in sorted(self.section_touched):
                address = self.config.shared_base + block * self.config.block_bytes
                self.pending.append((_FLUSH, address))
        self.section_touched = set()

    # -- record stream ---------------------------------------------------

    def next_record(self) -> tuple[int, int]:
        """The next ``(kind, address)`` of this CPU, in program order."""
        if self.pending:
            return self.pending.pop(0)

        address = self._next_fetch()
        if self.rng.random() < self.config.ls:
            if self.section_remaining > 0:
                self.pending.append(self._shared_reference())
            elif self.rng.random() < self.enter_probability:
                self._enter_section()
                self.pending.append(self._shared_reference())
            else:
                self.pending.append(self._private_reference())
        return _FETCH, address


def reference_generate_trace(
    config: TraceConfig, name: str = "synthetic"
) -> Trace:
    """The trace :func:`repro.trace.synthetic.generate_trace` must equal,
    built one scheduler burst and one record at a time."""
    scheduler_rng = random.Random((config.seed << 8) ^ 0x5C0DE)
    processes = [
        _CpuProcess(cpu, config, random.Random((config.seed << 16) | cpu))
        for cpu in range(config.cpus)
    ]
    # assignment[host cpu] -> process index; identity without migration.
    assignment = list(range(config.cpus))
    remaining = [config.records_per_cpu] * config.cpus
    active = list(range(config.cpus))
    cpu_column: list[int] = []
    kind_column: list[int] = []
    address_column: list[int] = []
    until_migration = config.migration_interval

    while active:
        cpu = scheduler_rng.choice(active)
        burst = 1 + _geometric(scheduler_rng, config.scheduler_burst_mean - 1)
        process = processes[assignment[cpu]]
        emitted = min(burst, remaining[cpu])
        for _ in range(emitted):
            kind, address = process.next_record()
            cpu_column.append(cpu)
            kind_column.append(kind)
            address_column.append(address)
        remaining[cpu] -= emitted
        if remaining[cpu] <= 0:
            active.remove(cpu)
        if config.migration_interval and len(active) >= 2:
            until_migration -= emitted
            if until_migration <= 0:
                first, second = scheduler_rng.sample(active, 2)
                assignment[first], assignment[second] = (
                    assignment[second],
                    assignment[first],
                )
                until_migration = config.migration_interval

    return Trace.from_arrays(
        name=name,
        cpus=config.cpus,
        shared_region=config.shared_region,
        cpu=np.asarray(cpu_column, dtype=CPU_DTYPE),
        kind=np.asarray(kind_column, dtype=KIND_DTYPE),
        address=np.asarray(address_column, dtype=ADDRESS_DTYPE),
    )
