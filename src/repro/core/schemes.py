"""Workload models for the four coherence schemes (Tables 3-6).

Each scheme maps :class:`~repro.core.params.WorkloadParams` to the
per-instruction frequency of every hardware operation.  Frequencies are
expressed per *non-flush* instruction, as in the paper, so that flush
instructions appear as coherence overhead amortised over useful work.

The Software-Flush model follows the three effects the paper lists in
Section 2.2.3:

1. the flush instructions themselves (clean or dirty), one per ``apl``
   shared references;
2. one extra data miss per flush — the re-fetch of the flushed line on
   its next use (the miss "which brought the flushed line into the
   cache");
3. extra instruction misses caused by the inserted flush instructions.

Effect 2 is essential: without it, Software-Flush at ``apl = 1`` would
be *cheaper* than No-Cache, contradicting Section 5.3 ("every reference
to a shared variable requires a flush (possibly dirty) and a miss ...
Software-Flush's performance is the worse").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from repro.core.operations import Operation
from repro.core.params import WorkloadParams

__all__ = [
    "ALL_SCHEMES",
    "BASE",
    "DRAGON",
    "NO_CACHE",
    "SOFTWARE_FLUSH",
    "BaseScheme",
    "CoherenceScheme",
    "DragonScheme",
    "NoCacheScheme",
    "SoftwareFlushScheme",
    "known_schemes",
    "scheme_by_name",
]


class CoherenceScheme(ABC):
    """A cache-coherence strategy's workload model.

    Subclasses implement :meth:`operation_frequencies`, the scheme's
    row of Tables 3-6.  Scheme objects are stateless; the module-level
    singletons :data:`BASE`, :data:`NO_CACHE`, :data:`SOFTWARE_FLUSH`,
    and :data:`DRAGON` are the intended instances.
    """

    #: Human-readable scheme name, as used in the paper.
    name: str = "abstract"

    #: Whether the scheme needs a broadcast medium (bus).  Snoopy
    #: schemes cannot run on a multistage network.
    requires_broadcast: bool = False

    @abstractmethod
    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        """Operations per non-flush instruction for this scheme."""

    def miss_rate(self, params: WorkloadParams) -> float:
        """Total misses (data + instruction) per non-flush instruction."""
        frequencies = self.operation_frequencies(params)
        miss_ops = (
            Operation.CLEAN_MISS_MEMORY,
            Operation.DIRTY_MISS_MEMORY,
            Operation.CLEAN_MISS_CACHE,
            Operation.DIRTY_MISS_CACHE,
        )
        return sum(frequencies.get(operation, 0.0) for operation in miss_ops)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _split_by_dirty(miss_rate: float, dirty_probability: float) -> tuple[float, float]:
    """Split a miss rate into (clean, dirty) by victim dirtiness;
    array-safe, so the grid kernels share it."""
    return miss_rate * (1.0 - dirty_probability), miss_rate * dirty_probability


class BaseScheme(CoherenceScheme):
    """Table 3: no coherence actions; the performance upper bound."""

    name = "Base"

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        miss_rate = params.ls * params.msdat + params.mains
        clean, dirty = _split_by_dirty(miss_rate, params.md)
        return {
            Operation.INSTRUCTION: 1.0,
            Operation.CLEAN_MISS_MEMORY: clean,
            Operation.DIRTY_MISS_MEMORY: dirty,
        }


class NoCacheScheme(CoherenceScheme):
    """Table 4: shared data is never cached.

    Shared loads become read-throughs and shared stores
    write-throughs; only unshared data contributes to the data miss
    rate.
    """

    name = "No-Cache"

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        miss_rate = params.ls * params.msdat * (1.0 - params.shd) + params.mains
        clean, dirty = _split_by_dirty(miss_rate, params.md)
        shared_rate = params.ls * params.shd
        return {
            Operation.INSTRUCTION: 1.0,
            Operation.CLEAN_MISS_MEMORY: clean,
            Operation.DIRTY_MISS_MEMORY: dirty,
            Operation.READ_THROUGH: shared_rate * (1.0 - params.wr),
            Operation.WRITE_THROUGH: shared_rate * params.wr,
        }


class SoftwareFlushScheme(CoherenceScheme):
    """Table 5: shared data is cached and explicitly flushed.

    One flush instruction is inserted per ``apl`` shared references.
    See the module docstring for the three overhead effects modelled.
    """

    name = "Software-Flush"

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        flush_rate = params.ls * params.shd / params.apl
        # Unshared-data misses plus instruction misses, the latter
        # inflated by the inserted flush instructions (effect 3).
        miss_rate = (
            params.ls * params.msdat * (1.0 - params.shd)
            + params.mains * (1.0 + flush_rate)
        )
        # Each flushed line is re-fetched on its next shared reference
        # (effect 2): one extra data miss per flush.
        miss_rate += flush_rate
        clean, dirty = _split_by_dirty(miss_rate, params.md)
        return {
            Operation.INSTRUCTION: 1.0,
            Operation.CLEAN_MISS_MEMORY: clean,
            Operation.DIRTY_MISS_MEMORY: dirty,
            Operation.CLEAN_FLUSH: flush_rate * (1.0 - params.mdshd),
            Operation.DIRTY_FLUSH: flush_rate * params.mdshd,
        }


class DragonScheme(CoherenceScheme):
    """Table 6: Dragon-like snoopy write-broadcast hardware.

    Writes to data present in another cache are broadcast on the bus;
    misses dirty in another cache are supplied cache-to-cache; caches
    applying a broadcast steal a cycle from their processors.
    """

    name = "Dragon"
    requires_broadcast = True

    def operation_frequencies(
        self, params: WorkloadParams
    ) -> Mapping[Operation, float]:
        data_miss = params.ls * params.msdat
        supplied_by_cache = params.shd * (1.0 - params.oclean)
        memory_miss = data_miss * (1.0 - supplied_by_cache) + params.mains
        cache_miss = data_miss * supplied_by_cache
        memory_clean, memory_dirty = _split_by_dirty(memory_miss, params.md)
        cache_clean, cache_dirty = _split_by_dirty(cache_miss, params.md)
        broadcast_rate = params.ls * params.shd * params.wr * params.opres
        return {
            Operation.INSTRUCTION: 1.0,
            Operation.CLEAN_MISS_MEMORY: memory_clean,
            Operation.DIRTY_MISS_MEMORY: memory_dirty,
            Operation.WRITE_BROADCAST: broadcast_rate,
            Operation.CLEAN_MISS_CACHE: cache_clean,
            Operation.DIRTY_MISS_CACHE: cache_dirty,
            Operation.CYCLE_STEAL: broadcast_rate * params.nshd,
        }


BASE = BaseScheme()
NO_CACHE = NoCacheScheme()
SOFTWARE_FLUSH = SoftwareFlushScheme()
DRAGON = DragonScheme()

#: The four schemes the paper evaluates, in presentation order.
ALL_SCHEMES: tuple[CoherenceScheme, ...] = (BASE, NO_CACHE, SOFTWARE_FLUSH, DRAGON)

_SCHEMES_BY_NAME = {scheme.name.lower(): scheme for scheme in ALL_SCHEMES}
# Friendly aliases.
_SCHEMES_BY_NAME.update(
    {
        "base": BASE,
        "nocache": NO_CACHE,
        "no-cache": NO_CACHE,
        "softwareflush": SOFTWARE_FLUSH,
        "software-flush": SOFTWARE_FLUSH,
        "flush": SOFTWARE_FLUSH,
        "swflush": SOFTWARE_FLUSH,  # the simulator protocol's name
        "dragon": DRAGON,
    }
)


def register_scheme(scheme: CoherenceScheme, *aliases: str) -> None:
    """Add a scheme (e.g. an extension) to the name lookup."""
    _SCHEMES_BY_NAME[scheme.name.lower()] = scheme
    for alias in aliases:
        _SCHEMES_BY_NAME[alias.lower()] = scheme


def known_schemes() -> dict[str, tuple[str, ...]]:
    """Canonical scheme name -> sorted lookup aliases.

    Derived from the live registry (extensions included), so CLI help
    generated from it can never drift from what
    :func:`scheme_by_name` actually accepts.  The canonical name
    itself is excluded from each alias tuple.
    """
    names: dict[str, set[str]] = {}
    for alias, scheme in _SCHEMES_BY_NAME.items():
        names.setdefault(scheme.name, set()).add(alias)
    return {
        canonical: tuple(
            sorted(aliases - {canonical.lower()})
        )
        for canonical, aliases in sorted(names.items())
    }


def scheme_by_name(name: str) -> CoherenceScheme:
    """Look up a scheme by (case-insensitive) name or alias.

    Raises:
        KeyError: if the name matches no scheme.
    """
    try:
        return _SCHEMES_BY_NAME[name.strip().lower()]
    except KeyError:
        known = ", ".join(
            sorted({scheme.name for scheme in _SCHEMES_BY_NAME.values()})
        )
        raise KeyError(f"unknown scheme {name!r}; known schemes: {known}") from None
