"""Synthetic multiprocessor address-trace generation.

This module is the substitute for the paper's ATUM-2 traces (POPS,
THOR, PERO), which are not available.  It generates interleaved
per-processor reference streams with the structural features the
paper's workload model measures:

* an instruction stream with loop locality (controls the instruction
  miss rate ``mains``);
* private data accessed through a working set inside a large region
  (controls the data miss rate ``msdat`` and victim dirtiness ``md``);
* shared data accessed in critical sections over a pool of shared
  objects: a processor enters a section, makes a burst of references
  (stores with probability ``wr``) to one object's blocks, then emits
  FLUSH records for the blocks it touched (controls ``shd``, ``apl``,
  ``mdshd``);
* a bursty round-robin scheduler interleaving the per-CPU streams,
  mimicking trace collection on a real bus-based machine.

Every knob lives in :class:`TraceConfig`; :mod:`repro.trace.workloads`
provides POPS/THOR/PERO-like presets whose *measured* parameters land
inside the paper's Table 7 ranges.

:func:`generate_trace` runs in three phases that reproduce, bit for bit,
the record-at-a-time loop kept in ``tests/trace/reference_generator.py``:

1. the scheduler's RNG never reads process state, so its loop runs
   alone and yields the burst table ``(host cpu, process, length)``;
2. each process's program-order stream is generated to exactly its
   demand in one loop over locals, keeping three draw orders: a
   section's exit FLUSHes precede the data reference that ended it; a
   word offset is drawn before its store/load draw; a new loop is drawn
   after the fetch that ends the old one, before that fetch's ``ls`` draw;
3. numpy gathers the streams into trace order by the burst table.
"""

from __future__ import annotations

import numbers
import random
from array import array
from dataclasses import dataclass, replace

import numpy as np

from repro.trace.records import (
    ADDRESS_DTYPE,
    CPU_DTYPE,
    KIND_DTYPE,
    AccessType,
    AddressRange,
    Trace,
)

__all__ = ["SyntheticWorkload", "TraceConfig", "generate_trace"]

# Kind codes of the generated records.
_FETCH = int(AccessType.INST_FETCH)
_LOAD = int(AccessType.LOAD)
_STORE = int(AccessType.STORE)
_FLUSH = int(AccessType.FLUSH)

#: Integer knobs of :class:`TraceConfig` that must be >= 1.
_COUNT_FIELDS = (
    "cpus",
    "records_per_cpu",
    "instruction_bytes",
    "code_blocks_per_cpu",
    "loop_blocks_mean",
    "loop_iterations_mean",
    "private_blocks_per_cpu",
    "private_working_set",
    "shared_objects",
    "object_blocks",
    "section_length_mean",
    "scheduler_burst_mean",
)


@dataclass(frozen=True)
class TraceConfig:
    """All knobs of the synthetic trace generator.

    Attributes:
        cpus: number of processors.
        records_per_cpu: approximate trace records issued per CPU.
        block_bytes: cache/transfer block size (16 in the paper).
        instruction_bytes: instruction size (4: a RISC machine).
        ls: probability an instruction makes a data reference.
        code_blocks_per_cpu: size of each CPU's code region, in blocks.
        loop_blocks_mean: mean loop body length, in blocks.
        loop_iterations_mean: mean iterations before jumping to a new
            loop; higher means a lower instruction miss rate.
        private_blocks_per_cpu: size of each CPU's private data region.
        private_working_set: number of blocks in the hot working set.
        private_locality: probability a private reference stays in the
            working set; higher means a lower data miss rate.
        private_write_fraction: probability a private reference is a
            store (drives victim dirtiness ``md``).
        shd: probability a data reference targets shared data.
        shared_objects: number of shared objects (e.g. protected
            structures) in the shared region.
        object_blocks: blocks per shared object.
        section_length_mean: mean shared references per critical
            section; with ``object_blocks`` this sets the achievable
            ``apl``.
        shared_write_fraction: probability a shared reference in a
            writing section is a store (``wr``).
        readonly_section_fraction: fraction of critical sections that
            only read (drives ``mdshd`` down).
        flush_on_exit: emit FLUSH records for touched blocks when a
            critical section ends (required by Software-Flush runs).
        scheduler_burst_mean: mean records a CPU issues before the
            scheduler switches CPUs.
        seed: master RNG seed; same seed, same trace.
        layout_cpus: CPU count used to lay out the address space.
            Keeping it fixed (and >= ``cpus``) makes each CPU's
            reference stream independent of how many CPUs run, so
            1/2/4-processor sweeps of one workload use identical
            per-CPU programs.
        migration_interval: extension — if non-zero, approximately
            every this-many records two processors swap their running
            processes (each process carries its code and data regions
            with it, so the destination caches are cold for it).  The
            paper's traces contain no migration; 0 (the default)
            matches them.
    """

    cpus: int = 4
    records_per_cpu: int = 100_000
    block_bytes: int = 16
    instruction_bytes: int = 4
    ls: float = 0.30
    code_blocks_per_cpu: int = 8192
    loop_blocks_mean: int = 48
    loop_iterations_mean: int = 110
    private_blocks_per_cpu: int = 16384
    private_working_set: int = 256
    private_locality: float = 0.986
    private_write_fraction: float = 0.30
    shd: float = 0.25
    shared_objects: int = 64
    object_blocks: int = 2
    section_length_mean: int = 16
    shared_write_fraction: float = 0.30
    readonly_section_fraction: float = 0.35
    flush_on_exit: bool = True
    scheduler_burst_mean: int = 6
    seed: int = 0
    layout_cpus: int = 64
    migration_interval: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "layout_cpus", "migration_interval", "block_bytes",
                     *_COUNT_FIELDS):
            value = getattr(self, name)
            # A float or bool would otherwise die inside range() or the
            # RNG, or silently generate a trace.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in _COUNT_FIELDS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.layout_cpus < self.cpus:
            raise ValueError(
                f"layout_cpus ({self.layout_cpus}) must be >= cpus "
                f"({self.cpus})"
            )
        if self.block_bytes < 4 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError(
                "block_bytes must be a power of two >= 4 (data references "
                f"are 4-byte words), got {self.block_bytes}"
            )
        if self.migration_interval < 0:
            raise ValueError(
                f"migration_interval must be >= 0, got "
                f"{self.migration_interval}"
            )
        if self.block_bytes < self.instruction_bytes:
            raise ValueError("block_bytes must be >= instruction_bytes")
        if self.block_bytes % self.instruction_bytes:
            raise ValueError(
                "block_bytes must be a multiple of instruction_bytes"
            )
        for name in (
            "ls",
            "private_locality",
            "private_write_fraction",
            "shd",
            "shared_write_fraction",
            "readonly_section_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.private_working_set > self.private_blocks_per_cpu:
            raise ValueError(
                "private_working_set cannot exceed private_blocks_per_cpu"
            )

    # -- address-space layout --------------------------------------------

    @property
    def code_base(self) -> int:
        return 0

    @property
    def code_bytes_per_cpu(self) -> int:
        return self.code_blocks_per_cpu * self.block_bytes

    @property
    def private_base(self) -> int:
        return self.code_base + self.layout_cpus * self.code_bytes_per_cpu

    @property
    def private_bytes_per_cpu(self) -> int:
        return self.private_blocks_per_cpu * self.block_bytes

    @property
    def shared_base(self) -> int:
        return self.private_base + self.layout_cpus * self.private_bytes_per_cpu

    @property
    def shared_bytes(self) -> int:
        return self.shared_objects * self.object_blocks * self.block_bytes

    @property
    def shared_region(self) -> AddressRange:
        return AddressRange(self.shared_base, self.shared_base + self.shared_bytes)


@dataclass(frozen=True)
class SyntheticWorkload:
    """A named, reusable trace recipe (see :mod:`repro.trace.workloads`)."""

    name: str
    config: TraceConfig
    description: str = ""

    def generate(self, seed: int | None = None, **overrides) -> Trace:
        """Generate the trace, optionally overriding config fields."""
        config = self.config
        if seed is not None:
            overrides = dict(overrides, seed=seed)
        if overrides:
            config = replace(config, **overrides)
        return generate_trace(config, name=self.name)


def _geometric(rng: random.Random, mean: float) -> int:
    """A geometric variate with the given mean, in ``{0, 1, 2, ...}``."""
    if mean <= 0.0:
        return 0
    # P(success) = 1 / (mean + 1) gives E[failures before success] = mean.
    probability = 1.0 / (mean + 1.0)
    count = 0
    while rng.random() >= probability:
        count += 1
        if count > 1_000_000:  # pragma: no cover - RNG pathology guard
            break
    return count


def _schedule(config: TraceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 1: every scheduler burst as ``(host cpu, process, length)``.

    The scheduler's RNG never reads process state, so its loop runs
    alone; ``choice(active)`` and :func:`_geometric` are inlined with
    their exact draws.
    """
    rng = random.Random((config.seed << 8) ^ 0x5C0DE)
    getrandbits, draw = rng.getrandbits, rng.random
    assignment = list(range(config.cpus))  # host cpu -> process
    remaining = [config.records_per_cpu] * config.cpus
    active = list(range(config.cpus))
    live, bits = config.cpus, config.cpus.bit_length()
    mean = config.scheduler_burst_mean - 1
    probability = 1.0 / (mean + 1.0)
    interval = until_migration = config.migration_interval
    hosts, owners, lengths = [], [], []
    while active:
        pick = getrandbits(bits)
        while pick >= live:
            pick = getrandbits(bits)
        cpu = active[pick]
        burst = 1
        if mean > 0:
            while draw() >= probability:
                burst += 1
                if burst > 1_000_001:  # pragma: no cover - as in _geometric
                    break
        left = remaining[cpu]
        if burst >= left:
            burst = left
            active.remove(cpu)
            live -= 1
            bits = live.bit_length()
        else:
            remaining[cpu] = left - burst
        hosts.append(cpu)
        owners.append(assignment[cpu])
        lengths.append(burst)
        if interval and live >= 2:
            until_migration -= burst
            if until_migration <= 0:
                first, second = rng.sample(active, 2)
                assignment[first], assignment[second] = (
                    assignment[second],
                    assignment[first],
                )
                until_migration = interval
    return (
        np.asarray(hosts, dtype=CPU_DTYPE),
        np.asarray(owners, dtype=np.intp),
        np.asarray(lengths, dtype=np.intp),
    )


def _program(
    process: int, config: TraceConfig, kinds: bytearray, addresses: array,
    start: int, stop: int,
) -> None:
    """Phase 2: write one process's first ``stop - start`` records, in
    program order, to ``kinds``/``addresses`` from ``start`` on.

    Everything is a local: ``randrange(n)`` is a ``getrandbits``
    rejection loop and ``choice(ws)`` is ``ws[randrange(len(ws))]``.
    A fetch writes only its address (``kinds`` starts zeroed, and zero
    is ``_FETCH``); the last fetch may spill up to ``object_blocks + 1``
    records past ``stop``, whose kinds are cleared again on return.
    """
    rng = random.Random((config.seed << 16) | process)
    draw, getrandbits, randrange = rng.random, rng.getrandbits, rng.randrange
    block_bytes, step = config.block_bytes, config.instruction_bytes
    code_blocks = config.code_blocks_per_cpu
    code_base = config.code_base + process * config.code_bytes_per_cpu
    private_base = config.private_base + process * config.private_bytes_per_cpu
    shared_base, flush_on_exit = config.shared_base, config.flush_on_exit
    ls, locality, shd = config.ls, config.private_locality, config.shd
    private_write = config.private_write_fraction
    shared_write = config.shared_write_fraction
    working_set = list(range(config.private_working_set))
    working, private_blocks = len(working_set), config.private_blocks_per_cpu
    words, object_blocks = block_bytes // 4, config.object_blocks
    working_bits, private_bits, word_bits, object_bits = (
        n.bit_length() for n in (working, private_blocks, words, object_blocks)
    )
    # 1 / the mean gap between sections, so that a fraction shd of data
    # references is shared; shd = 1 is effectively always in a section.
    enter = 0.0 if shd == 0.0 else 1.0 / (
        1e-9 if shd >= 1.0 else config.section_length_mean * (1.0 - shd) / shd
    )

    def new_loop() -> tuple[int, int, int]:
        blocks = min(1 + _geometric(rng, config.loop_blocks_mean), code_blocks)
        start = code_base + randrange(code_blocks - blocks + 1) * block_bytes
        iterations = 1 + _geometric(rng, config.loop_iterations_mean)
        return start, start + blocks * block_bytes, iterations

    loop_start, loop_end, iterations = new_loop()
    fetch = loop_start
    section_left = 0
    section_base = 0
    section_writes = False
    touched: set[int] = set()
    i = start
    while i < stop:
        addresses[i] = fetch
        i += 1
        fetch += step
        if fetch == loop_end:
            iterations -= 1
            fetch = loop_start
            if iterations <= 0:
                loop_start, loop_end, iterations = new_loop()
                fetch = loop_start
        if draw() >= ls:
            continue
        if section_left > 0 or draw() < enter:
            if section_left <= 0:
                section_base = randrange(config.shared_objects) * object_blocks
                section_left = 1 + _geometric(rng, config.section_length_mean)
                section_writes = draw() >= config.readonly_section_fraction
                touched = set()
            pick = getrandbits(object_bits)
            while pick >= object_blocks:
                pick = getrandbits(object_bits)
            block = section_base + pick
            touched.add(block)
            pick = getrandbits(word_bits)
            while pick >= words:
                pick = getrandbits(word_bits)
            address = shared_base + block * block_bytes + pick * 4
            kind = _STORE if section_writes and draw() < shared_write else _LOAD
            section_left -= 1
            if section_left <= 0:
                # Exit FLUSHes precede the reference that ended the section.
                if flush_on_exit:
                    for block in sorted(touched):
                        kinds[i] = _FLUSH
                        addresses[i] = shared_base + block * block_bytes
                        i += 1
                touched = set()
        else:
            if draw() < locality:
                pick = getrandbits(working_bits)
                while pick >= working:
                    pick = getrandbits(working_bits)
                block = working_set[pick]
            else:
                block = getrandbits(private_bits)
                while block >= private_blocks:
                    block = getrandbits(private_bits)
                # Rotate the newcomer into the working set.
                pick = getrandbits(working_bits)
                while pick >= working:
                    pick = getrandbits(working_bits)
                working_set[pick] = block
            pick = getrandbits(word_bits)
            while pick >= words:
                pick = getrandbits(word_bits)
            address = private_base + block * block_bytes + pick * 4
            kind = _STORE if draw() < private_write else _LOAD
        kinds[i] = kind
        addresses[i] = address
        i += 1
    kinds[stop:i] = bytes(i - stop)


def generate_trace(config: TraceConfig, name: str = "synthetic") -> Trace:
    """Generate an interleaved multiprocessor trace.

    Per-CPU streams are deterministic functions of ``config.seed`` and
    the CPU index, so restricting a 4-CPU config to fewer CPUs leaves
    each remaining CPU's program unchanged — the property the paper's
    validation sweeps (1..4 processors of the same workload) rely on.

    Args:
        config: the generator knobs.
        name: label stored on the returned :class:`Trace`.
    """
    hosts, owners, lengths = _schedule(config)
    demand = np.bincount(owners, weights=lengths, minlength=config.cpus)
    bounds = [0, *np.cumsum(demand).astype(np.intp).tolist()]
    total = bounds[-1]
    # Programs are laid out in process order, with slack for the last
    # fetch's FLUSHes and data reference.
    kinds = bytearray(total + config.object_blocks + 1)
    addresses = array("Q", [0]) * len(kinds)
    for process in range(config.cpus):
        _program(process, config, kinds, addresses, *bounds[process : process + 2])
    # Phase 3: burst b reads the next lengths[b] records of its
    # process's program, so a stable sort by process gives each burst's
    # offset in the programs; index maps trace positions to those.
    order = np.argsort(owners, kind="stable")
    ordered = lengths[order]
    source = np.empty_like(lengths)
    source[order] = np.cumsum(ordered) - ordered
    index = np.repeat(source - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(total)
    return Trace.from_arrays(
        name=name,
        cpus=config.cpus,
        shared_region=config.shared_region,
        cpu=np.repeat(hosts, lengths),
        kind=np.frombuffer(kinds, dtype=KIND_DTYPE)[index],
        address=np.frombuffer(addresses, dtype=ADDRESS_DTYPE)[index],
    )
