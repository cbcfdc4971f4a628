"""Trace-driven multiprocessor cache-and-bus simulator.

This package reimplements the simulator the paper used to validate its
analytical model (Section 3): per-processor write-back caches, a shared
bus with the fixed per-operation service times of Table 1, and one
coherence engine per scheme.

The simulator consumes :class:`repro.trace.Trace` streams and reports
the same statistics the paper's simulator did — cache miss rates,
cycles lost to bus contention, processor utilisation, and processing
power — plus the measured workload parameters that feed the analytical
model during validation (:mod:`repro.sim.measure`).

Protocols:

* ``base`` — no coherence actions (upper bound),
* ``dragon`` — snoopy write-broadcast hardware (4-state Dragon),
* ``nocache`` — shared region is non-cachable (read/write-through),
* ``swflush`` — shared data cached, invalidated by FLUSH records.
"""

from repro.sim.cache import Cache, CacheGeometry, LineState
from repro.sim.bus import (
    DISCIPLINES,
    ArbitratedBus,
    TimedBus,
    validate_discipline,
)
from repro.sim.family import FAMILY_PROTOCOLS, run_coupled_family
from repro.sim.machine import Machine, SimulationConfig, SimulationResult
from repro.sim.measure import measure_workload_params
from repro.sim.onepass import (
    ONEPASS_PROTOCOLS,
    family_support,
    run_geometry_family,
)
from repro.sim.segment import classify_lru
from repro.sim.netsim import NetworkSimResult, OmegaNetworkSimulator
from repro.sim.protocols import (
    PROTOCOLS,
    AccessOutcome,
    BaseProtocol,
    DragonProtocol,
    NoCacheProtocol,
    Protocol,
    SoftwareFlushProtocol,
    protocol_class,
)

__all__ = [
    "AccessOutcome",
    "ArbitratedBus",
    "BaseProtocol",
    "Cache",
    "CacheGeometry",
    "DISCIPLINES",
    "DragonProtocol",
    "FAMILY_PROTOCOLS",
    "LineState",
    "Machine",
    "NetworkSimResult",
    "NoCacheProtocol",
    "ONEPASS_PROTOCOLS",
    "PROTOCOLS",
    "OmegaNetworkSimulator",
    "Protocol",
    "SimulationConfig",
    "SimulationResult",
    "SoftwareFlushProtocol",
    "TimedBus",
    "classify_lru",
    "family_support",
    "measure_workload_params",
    "protocol_class",
    "run_coupled_family",
    "run_geometry_family",
    "validate_discipline",
]
