"""Extension: flush-placement policies (the paper's compiler question).

The paper closes on compiler technology: Software-Flush's fate rests
on ``apl``, the references a shared block receives before it is
flushed, and "It remains to be seen whether a compiler can generate
code that takes advantage of these long runs."  This module makes
flush placement a replaceable policy over any trace, so the compiler
design space can be measured instead of speculated about:

* ``eager``    — flush after *every* shared reference (``apl = 1``):
  the paper's worst case, a compiler with no liveness information.
* ``section``  — keep the trace's own FLUSH records (our generator
  emits them at critical-section exits): a compiler that understands
  the locking discipline.
* ``oracle``   — flush a block exactly when its run ends, i.e. just
  before the next reference by a *different* processor: perfect future
  knowledge, the upper bound no real compiler reaches.  The paper's
  ``apl`` estimator ("number of references of a cache-line by one
  processor ... between references by another processor") measures
  precisely this policy's achieved run length, which is why the paper
  calls its estimate *optimistic*.
* ``none``     — strip all flushes (coherence abandoned; useful as a
  Base-equivalent reference).
"""

from __future__ import annotations

import numpy as np

from repro.trace.records import AccessType, Trace, TraceRecord

__all__ = ["FLUSH_POLICIES", "apply_flush_policy", "implied_apl"]

FLUSH_POLICIES = ("eager", "section", "oracle", "none")

_BLOCK_SHIFT = 4  # 16-byte blocks, as everywhere in the reproduction


def apply_flush_policy(trace: Trace, policy: str) -> Trace:
    """Rewrite a trace's FLUSH records under a placement policy.

    The data/instruction reference stream is untouched; only FLUSH
    records are removed and/or inserted.  The result is a new trace
    named ``<name>[<policy>]``.

    Raises:
        ValueError: for an unknown policy name.
    """
    if policy not in FLUSH_POLICIES:
        raise ValueError(
            f"policy must be one of {FLUSH_POLICIES}, got {policy!r}"
        )
    if policy == "section":
        return trace

    stripped = [
        record for record in trace.records
        if record.kind is not AccessType.FLUSH
    ]
    if policy == "none":
        rewritten = stripped
    elif policy == "eager":
        rewritten = _eager(trace, stripped)
    else:
        rewritten = _oracle(trace, stripped)

    return Trace(
        name=f"{trace.name}[{policy}]",
        cpus=trace.cpus,
        shared_region=trace.shared_region,
        records=rewritten,
    )


def _eager(trace: Trace, records: list[TraceRecord]) -> list[TraceRecord]:
    """A flush immediately after every shared data reference."""
    rewritten: list[TraceRecord] = []
    for record in records:
        rewritten.append(record)
        if record.kind.is_data and trace.is_shared(record.address):
            block_address = (record.address >> _BLOCK_SHIFT) << _BLOCK_SHIFT
            rewritten.append(
                TraceRecord(record.cpu, AccessType.FLUSH, block_address)
            )
    return rewritten


def _oracle(trace: Trace, records: list[TraceRecord]) -> list[TraceRecord]:
    """Flush exactly at run ends (perfect future knowledge).

    A backward pass computes, for each shared reference, the CPU of
    the *next* reference to the same block; the forward pass inserts a
    flush after every reference whose successor belongs to another CPU
    (or that is the block's last reference).
    """
    next_cpu_of: list[int | None] = [None] * len(records)
    upcoming: dict[int, int] = {}
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if not record.kind.is_data or not trace.is_shared(record.address):
            continue
        block = record.address >> _BLOCK_SHIFT
        next_cpu_of[index] = upcoming.get(block)
        upcoming[block] = record.cpu

    rewritten: list[TraceRecord] = []
    for index, record in enumerate(records):
        rewritten.append(record)
        if not record.kind.is_data or not trace.is_shared(record.address):
            continue
        successor = next_cpu_of[index]
        if successor is None or successor != record.cpu:
            block_address = (record.address >> _BLOCK_SHIFT) << _BLOCK_SHIFT
            rewritten.append(
                TraceRecord(record.cpu, AccessType.FLUSH, block_address)
            )
    return rewritten


def implied_apl(trace: Trace) -> float:
    """Shared references per flush: the ``apl`` a trace's flush
    placement actually achieves.

    Returns ``inf`` for a trace without flushes.
    """
    is_data = (trace.kind == AccessType.LOAD) | (
        trace.kind == AccessType.STORE
    )
    shared = int(np.count_nonzero(is_data & trace.shared_mask()))
    flushes = int(np.count_nonzero(trace.kind == AccessType.FLUSH))
    if flushes == 0:
        return float("inf")
    return shared / flushes
