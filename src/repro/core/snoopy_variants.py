"""Extension: snoopy alternatives to Dragon (WTI and the hybrids).

The paper adopts Dragon because Archibald and Baer's comparison found
its performance "among the best" of the snoopy protocols.  To make
that design choice visible inside this reproduction, this module
models the simplest classical alternative — write-through caches whose
bus writes invalidate remote copies (the scheme of the earliest snoopy
designs) — plus the adaptive hybrid update/invalidate family sitting
between Dragon (pure update) and WTI (pure invalidate).

Workload model (per non-flush instruction), using the paper's
parameter vocabulary:

* every store goes to the bus as a write-through: ``ls * wr``
  (``wr`` doubles as the overall store fraction, as it does for
  Dragon's broadcast term);
* write-through caches hold no dirty lines, so every miss is clean;
* loads and instruction fetches miss as in the Base scheme, plus one
  coherence re-fetch per inter-processor run on shared data
  (``ls * shd / apl``), because remote writes invalidated the copy.

The point of the model is the bus demand of the write-through term:
at Table 7 middle values it alone is ``0.3 * 0.25 = 0.075`` bus
cycles per instruction — more than Dragon's *entire* demand — which is
exactly why update-based Dragon wins on a bus.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.operations import Operation
from repro.core.params import WorkloadParams
from repro.core.schemes import (
    CoherenceScheme,
    _split_by_dirty,
    register_scheme,
)

__all__ = [
    "HYBRID_2",
    "HYBRID_4",
    "HYBRID_LIMIT",
    "WRITE_THROUGH_INVALIDATE",
    "Hybrid2Scheme",
    "Hybrid4Scheme",
    "HybridKScheme",
    "HybridLimitScheme",
    "WriteThroughInvalidateScheme",
]


class WriteThroughInvalidateScheme(CoherenceScheme):
    """Write-through caches with bus-write invalidation (extension)."""

    name = "WTI"
    requires_broadcast = True  # snooping on bus writes

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        coherence_refetch = params.ls * params.shd / params.apl
        miss_rate = (
            params.ls * params.msdat + params.mains + coherence_refetch
        )
        return {
            Operation.INSTRUCTION: 1.0,
            # No dirty lines ever: every victim is clean.
            Operation.CLEAN_MISS_MEMORY: miss_rate,
            Operation.WRITE_THROUGH: params.ls * params.wr,
        }


WRITE_THROUGH_INVALIDATE = WriteThroughInvalidateScheme()

register_scheme(WRITE_THROUGH_INVALIDATE, "wti", "write-through-invalidate")


class HybridKScheme(CoherenceScheme):
    """Adaptive update/invalidate snooping with threshold ``k``.

    The simulator counterpart is
    :class:`repro.sim.protocols.hybrid.HybridProtocol`: stores update
    remote copies like Dragon until a copy absorbs ``k`` consecutive
    broadcasts with no local use, at which point it is invalidated like
    WTI.

    Model: writes in one inter-processor run of length ``apl`` number
    ``W = apl * wr`` on average; take the run's write count as
    geometric with that mean, so ``P(w >= j) = q^j`` with
    ``q = W / (1 + W)``.  Per run on a remotely-held line
    (probability ``opres``):

    * broadcasts issued: ``E[min(w, k)] = q (1 - q^k) / (1 - q)``
      (the run stops broadcasting once the copy dies);
    * broadcasts that update a surviving copy (and steal a cycle
      from each of the ``nshd`` holders): ``E[min(w, k - 1)]`` — the
      ``k``-th broadcast kills, stealing nothing;
    * copy deaths: ``q^k``, each adding one re-fetch miss on the
      holder's next run (supplied cache-to-cache with the usual
      ``1 - oclean`` probability, since the block is known shared).

    As ``k -> inf`` every term converges to Dragon's (``q^k -> 0``,
    ``E[min(w, k)] -> W``, recovering ``ls * shd * wr * opres``); the
    property tests pin that limit.  All arithmetic is plain
    elementwise math, so the scheme vectorises over
    :class:`~repro.core.vectorized.ParameterGrid` unchanged.
    """

    name = "Hybrid-k"
    requires_broadcast = True
    #: Broadcasts a copy may absorb before the next one kills it.
    k = 4

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        run_rate = params.ls * params.shd / params.apl
        writes_per_run = params.apl * params.wr
        q = writes_per_run / (1.0 + writes_per_run)
        broadcasts_per_run = q * (1.0 - q**self.k) / (1.0 - q)
        updates_per_run = q * (1.0 - q ** (self.k - 1)) / (1.0 - q)
        deaths_per_run = q**self.k
        return self._frequencies(
            params,
            run_rate,
            broadcasts_per_run,
            updates_per_run,
            deaths_per_run,
        )

    def _frequencies(
        self,
        params: WorkloadParams,
        run_rate,
        broadcasts_per_run,
        updates_per_run,
        deaths_per_run,
    ) -> Mapping[Operation, float]:
        """Dragon's base terms plus the per-run hybrid rates."""
        # Invalidation re-fetches are extra shared-data misses on top
        # of the geometry-driven miss rate.
        refetch = run_rate * params.opres * deaths_per_run
        data_miss = params.ls * params.msdat + refetch
        supplied_by_cache = params.shd * (1.0 - params.oclean)
        memory_miss = data_miss * (1.0 - supplied_by_cache) + params.mains
        cache_miss = data_miss * supplied_by_cache
        memory_clean, memory_dirty = _split_by_dirty(memory_miss, params.md)
        cache_clean, cache_dirty = _split_by_dirty(cache_miss, params.md)
        broadcast_rate = run_rate * params.opres * broadcasts_per_run
        steal_rate = run_rate * params.opres * updates_per_run * params.nshd
        return {
            Operation.INSTRUCTION: 1.0,
            Operation.CLEAN_MISS_MEMORY: memory_clean,
            Operation.DIRTY_MISS_MEMORY: memory_dirty,
            Operation.WRITE_BROADCAST: broadcast_rate,
            Operation.CLEAN_MISS_CACHE: cache_clean,
            Operation.DIRTY_MISS_CACHE: cache_dirty,
            Operation.CYCLE_STEAL: steal_rate,
        }


class Hybrid2Scheme(HybridKScheme):
    name = "Hybrid-2"
    k = 2


class Hybrid4Scheme(HybridKScheme):
    name = "Hybrid-4"
    k = 4


class HybridLimitScheme(HybridKScheme):
    """Competitive variant: a fixed broadcast budget per caching.

    Pressure never resets, so each caching of a line absorbs at most
    ``k`` broadcasts (``k - 1`` updates, then the kill) regardless of
    the local reference pattern.  Renewal approximation per run:
    ``min(W, k)`` broadcasts, of which a ``(k - 1) / k`` fraction
    update a surviving copy and ``min(W, k) / k`` kill it.  Uses
    :func:`numpy.minimum`, which is elementwise, so the grid kernels
    cover it unchanged; ``k -> inf`` again recovers Dragon.
    """

    name = "Hybrid-Limit"
    k = 3

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        run_rate = params.ls * params.shd / params.apl
        writes_per_run = params.apl * params.wr
        broadcasts_per_run = np.minimum(writes_per_run, float(self.k))
        updates_per_run = broadcasts_per_run * ((self.k - 1) / self.k)
        deaths_per_run = broadcasts_per_run / self.k
        return self._frequencies(
            params,
            run_rate,
            broadcasts_per_run,
            updates_per_run,
            deaths_per_run,
        )


HYBRID_2 = Hybrid2Scheme()
HYBRID_4 = Hybrid4Scheme()
HYBRID_LIMIT = HybridLimitScheme()

register_scheme(HYBRID_2, "hybrid-2")
register_scheme(HYBRID_4, "hybrid-4", "hybrid")
register_scheme(HYBRID_LIMIT, "hybrid-limit", "competitive")
