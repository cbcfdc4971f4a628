"""Multiprocessor address traces.

The paper validates its model against ATUM-2 address traces (POPS,
THOR, PERO) from a 4-processor VAX 8350 and an 8-processor PERO trace.
Those traces are not publicly available, so this package provides the
closest synthetic equivalent:

* :mod:`repro.trace.records` — the trace record model (interleaved
  per-processor instruction fetches, loads, stores, and explicit FLUSH
  markers at critical-section exits).
* :mod:`repro.trace.synthetic` — a parameterised generator producing
  traces whose *measured* workload parameters (load/store fraction,
  miss rates at the paper's cache sizes, sharing level, write fraction,
  shared run lengths) fall in the ranges of the paper's Table 7.
* :mod:`repro.trace.workloads` — POPS/THOR/PERO-like presets.
* :mod:`repro.trace.io` — trace (de)serialisation.
* :mod:`repro.trace.stats` — trace-level statistics, including the
  paper's run-length estimator for ``apl``.
"""

from repro.trace.records import AccessType, Trace, TraceRecord
from repro.trace.derived import (
    DerivedColumns,
    clear_derived_cache,
    derived_cache_info,
    derived_columns,
    set_derived_cache_bytes,
    set_derived_cache_size,
    trace_digest,
)
from repro.trace.synthetic import SyntheticWorkload, TraceConfig, generate_trace
from repro.trace.flushing import FLUSH_POLICIES, apply_flush_policy, implied_apl
from repro.trace.io import load_trace, save_trace
from repro.trace.stats import TraceStats, collect_stats, shared_run_lengths
from repro.trace.workloads import WORKLOAD_PRESETS, preset, preset_trace

__all__ = [
    "AccessType",
    "DerivedColumns",
    "FLUSH_POLICIES",
    "clear_derived_cache",
    "derived_cache_info",
    "derived_columns",
    "set_derived_cache_bytes",
    "set_derived_cache_size",
    "trace_digest",
    "apply_flush_policy",
    "implied_apl",
    "SyntheticWorkload",
    "Trace",
    "TraceConfig",
    "TraceRecord",
    "TraceStats",
    "WORKLOAD_PRESETS",
    "collect_stats",
    "generate_trace",
    "load_trace",
    "preset",
    "preset_trace",
    "save_trace",
    "shared_run_lengths",
]
