"""Trace-level statistics, including the paper's ``apl`` estimator.

These statistics depend only on the reference stream (not on any cache
configuration): reference mix, sharing level, write fractions, and the
run-length structure of shared blocks.  Cache-dependent parameters
(miss rates, ``md``, ``oclean``, ``opres``) are measured by simulation
in :mod:`repro.sim.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.trace.records import ADDRESS_DTYPE, AccessType, Trace

__all__ = ["TraceStats", "collect_stats", "shared_run_lengths"]

#: Block size of the run accounting: the paper uses 16-byte blocks
#: throughout, and the record format does not encode one.
_BLOCK_SHIFT = ADDRESS_DTYPE(4)


@dataclass
class TraceStats:
    """Aggregate counts and derived parameters for one trace.

    All ``*_references`` counts are raw record counts; the derived
    properties map onto the paper's Table 2 parameters where the trace
    alone determines them.
    """

    instructions: int = 0
    flushes: int = 0
    loads: int = 0
    stores: int = 0
    shared_loads: int = 0
    shared_stores: int = 0
    per_cpu_records: list[int] = field(default_factory=list)
    shared_blocks_touched: int = 0
    run_lengths: list[int] = field(default_factory=list)
    write_run_lengths: list[int] = field(default_factory=list)

    @property
    def data_references(self) -> int:
        return self.loads + self.stores

    @property
    def shared_references(self) -> int:
        return self.shared_loads + self.shared_stores

    @property
    def ls(self) -> float:
        """Data references per (non-flush) instruction."""
        if self.instructions == 0:
            return 0.0
        return self.data_references / self.instructions

    @property
    def shd(self) -> float:
        """Fraction of data references that touch shared data."""
        if self.data_references == 0:
            return 0.0
        return self.shared_references / self.data_references

    @property
    def wr(self) -> float:
        """Fraction of shared references that are stores."""
        if self.shared_references == 0:
            return 0.0
        return self.shared_stores / self.shared_references

    @property
    def apl(self) -> float:
        """The paper's optimistic ``apl`` estimate.

        Mean number of references to a shared block by one processor —
        counting only runs containing at least one write — between
        references by another processor (Section 4).  Falls back to
        all runs if no run contains a write; 1.0 for traces without
        shared data.
        """
        lengths = self.write_run_lengths or self.run_lengths
        if not lengths:
            return 1.0
        return sum(lengths) / len(lengths)

    @property
    def mdshd(self) -> float:
        """Fraction of inter-processor runs that modify the block.

        A proxy for "shared block modified before flushed": runs
        containing a write over all runs.
        """
        if not self.run_lengths:
            return 0.0
        return len(self.write_run_lengths) / len(self.run_lengths)


def collect_stats(trace: Trace) -> TraceStats:
    """Whole-trace statistics, computed over the trace's columns.

    Run-length accounting follows the paper: for each shared block we
    track the current owning CPU and its consecutive reference count;
    a reference by a different CPU closes the run.  Runs still open at
    the end of the trace are closed there.  ``run_lengths`` and
    ``write_run_lengths`` list runs in the order they close: a run
    closed mid-trace at the reference that closes it, then the runs
    still open at the end, in the order their blocks were first
    touched.

    Raises:
        ValueError: if the ``cpu`` column holds an id ``>= trace.cpus``.
    """
    if len(trace) and int(trace.cpu.max()) >= trace.cpus:
        raise ValueError(
            f"cpu id {int(trace.cpu.max())} out of range for a trace of "
            f"{trace.cpus} cpus"
        )
    kinds = np.bincount(trace.kind, minlength=len(AccessType))
    runs = _shared_runs(trace)
    shared_stores = int(runs.stores.sum())
    closed = np.argsort(runs.close_keys)
    lengths = runs.lengths[closed]
    return TraceStats(
        instructions=int(kinds[AccessType.INST_FETCH]),
        flushes=int(kinds[AccessType.FLUSH]),
        loads=int(kinds[AccessType.LOAD]),
        stores=int(kinds[AccessType.STORE]),
        shared_loads=int(runs.lengths.sum()) - shared_stores,
        shared_stores=shared_stores,
        per_cpu_records=trace.per_cpu_counts(),
        shared_blocks_touched=int(runs.block_first.sum()),
        run_lengths=lengths.tolist(),
        write_run_lengths=lengths[runs.stores[closed] > 0].tolist(),
    )


def shared_run_lengths(trace: Trace) -> dict[int, list[int]]:
    """Run lengths per shared block (diagnostic detail view).

    Returns:
        ``{block_number: [run lengths in order]}`` using 16-byte
        blocks (or the trace's inferable block size), keyed in the
        order each block's first run closes.
    """
    runs = _shared_runs(trace)
    firsts = np.flatnonzero(runs.block_first)
    per_block = np.split(runs.lengths, firsts[1:])
    return {
        int(runs.blocks[firsts[index]]): per_block[index].tolist()
        for index in np.argsort(runs.close_keys[firsts])
    }


class _Runs(NamedTuple):
    """Every shared-block run of a trace, sorted by (block, start).

    A run is a maximal sequence of one CPU's consecutive data
    references to one shared block, consecutive among that block's
    references (other blocks' references may interleave).
    """

    #: Per run: block number, reference count, store count, whether
    #: it is its block's first run, and a key that orders runs as the
    #: per-record accounting closes them.
    blocks: np.ndarray
    lengths: np.ndarray
    stores: np.ndarray
    block_first: np.ndarray
    close_keys: np.ndarray


def _shared_runs(trace: Trace) -> _Runs:
    is_data = (trace.kind == AccessType.LOAD) | (
        trace.kind == AccessType.STORE
    )
    positions = np.flatnonzero(is_data & trace.shared_mask())
    blocks = trace.address[positions] >> _BLOCK_SHIFT
    by_block = np.argsort(blocks, kind="stable")
    ordered = positions[by_block]
    blocks = blocks[by_block]
    cpus = trace.cpu[ordered]
    new_block = np.ones(len(ordered), dtype=bool)
    new_block[1:] = blocks[1:] != blocks[:-1]
    run_start = new_block.copy()
    run_start[1:] |= cpus[1:] != cpus[:-1]
    heads = np.flatnonzero(run_start)
    stores = (trace.kind[ordered] == AccessType.STORE).astype(np.int64)

    starts = ordered[heads]
    block_first = new_block[heads]
    # A block's last run stays open to the end of the trace, where open
    # runs close in the order their blocks were first touched; any
    # other run closes at the first reference of the block's next run.
    close_keys = len(trace) + starts[block_first][np.cumsum(block_first) - 1]
    followed = np.flatnonzero(~block_first[1:])
    close_keys[followed] = starts[followed + 1]
    return _Runs(
        blocks=blocks[heads],
        lengths=np.diff(np.append(heads, len(ordered))),
        stores=np.add.reduceat(stores, heads),
        block_first=block_first,
        close_keys=close_keys,
    )
