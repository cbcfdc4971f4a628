"""Per-cell execution metrics: wall time, replay throughput, peak RSS.

This module sits *below* every other ``repro`` package (it imports
nothing from them), so the simulator can report into it without
creating a layering cycle: :meth:`repro.sim.machine.Machine.run` calls
:func:`note_replay` once per run — one function call per *run*, not
per record, so the overhead on the committed micro-benchmarks is
unmeasurable — and the sweep layer brackets each worker call with
:func:`measure_call` to turn those counters into a
:class:`CellMetrics`.

The counters are process-global on purpose: sweep cells run in worker
processes, and each worker measures its own cells against its own
counters, so no cross-process synchronisation is needed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = [
    "CellMetrics",
    "fallback_counters",
    "measure_call",
    "note_family_fallback",
    "note_replay",
    "peak_rss_kb",
    "replay_counters",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Records replayed and last engine used in *this* process, updated by
#: ``Machine.run``.  Read via :func:`replay_counters`.
_records_replayed = 0
_last_engine = ""


def note_replay(records: int, engine: str) -> None:
    """Record that a simulation replayed ``records`` under the engine
    label ``engine`` (a key of ``repro.sim.engines.ENGINES``).

    Called once per run by ``Machine.run`` and once per family by the
    sweep engines.
    """
    global _records_replayed, _last_engine
    _records_replayed += records
    _last_engine = engine


def replay_counters() -> tuple[int, str]:
    """``(records_replayed, last_engine)`` for this process so far."""
    return _records_replayed, _last_engine


#: Why geometry-family runs fell back to per-config replay, updated by
#: ``repro.sim.onepass.run_geometry_family``: the structured
#: ``category:detail`` gate reasons of ``repro.sim.engines``.  Read via
#: :func:`fallback_counters`.
_fallbacks = 0
_last_fallback_reason = ""


def note_family_fallback(reason: str) -> None:
    """Record that a geometry-family run fell back, and why.

    Called by :func:`repro.sim.onepass.run_geometry_family` once per
    fallback, with the reason from ``repro.sim.engines.family_support``.
    """
    global _fallbacks, _last_fallback_reason
    _fallbacks += 1
    _last_fallback_reason = reason


def fallback_counters() -> tuple[int, str]:
    """``(fallbacks, last_reason)`` for this process so far."""
    return _fallbacks, _last_fallback_reason


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes.

    Returns 0 where :mod:`resource` is unavailable (non-POSIX).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only fallback
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class CellMetrics:
    """What one sweep cell cost to execute.

    Attributes:
        wall_s: wall-clock seconds spent in the cell's worker function.
        records: trace records replayed by simulations inside the cell
            (0 for cells that never touch the simulator).
        engine: replay engine of the cell's last simulation run
            (``""`` if none ran).
        peak_rss_kb: peak resident set size of the executing process,
            in KB.  This is a process-lifetime high-water mark, so for
            a worker that has already run larger cells it bounds, not
            measures, the cell's own footprint.
        fallback_reason: why a geometry-family run inside the cell
            fell back to per-config replay (structured
            ``category:detail``), or ``""`` when nothing fell back.
    """

    wall_s: float
    records: int
    engine: str
    peak_rss_kb: int
    fallback_reason: str = ""

    @property
    def records_per_s(self) -> float:
        """Replay throughput of the cell (0.0 when nothing replayed)."""
        if self.wall_s <= 0.0 or self.records == 0:
            return 0.0
        return self.records / self.wall_s

    def as_dict(self) -> dict:
        """JSON-ready form, as embedded in manifest cell events."""
        return {
            "wall_s": round(self.wall_s, 6),
            "records": self.records,
            "records_per_s": round(self.records_per_s, 1),
            "engine": self.engine,
            "peak_rss_kb": self.peak_rss_kb,
            "fallback_reason": self.fallback_reason,
        }


def measure_call(
    fn: Callable[[_ItemT], _ResultT], item: _ItemT
) -> tuple[_ResultT, CellMetrics]:
    """Run ``fn(item)`` and measure it into a :class:`CellMetrics`."""
    records_before, _ = replay_counters()
    fallbacks_before, _ = fallback_counters()
    started = time.perf_counter()
    result = fn(item)
    wall_s = time.perf_counter() - started
    records_after, engine = replay_counters()
    records = records_after - records_before
    fallbacks_after, fallback_reason = fallback_counters()
    return result, CellMetrics(
        wall_s=wall_s,
        records=records,
        engine=engine if records else "",
        peak_rss_kb=peak_rss_kb(),
        fallback_reason=(
            fallback_reason if fallbacks_after > fallbacks_before else ""
        ),
    )
