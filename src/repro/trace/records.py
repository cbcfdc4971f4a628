"""Trace record model — columnar, numpy-backed.

A trace is an interleaved sequence of per-processor memory references,
as produced by the ATUM-2 tracing technique the paper used: each record
carries the issuing CPU, an access type, and a byte address.

Beyond the ATUM access types (instruction fetch, load, store) we add
``FLUSH``: an explicit cache-flush instruction naming a shared address,
emitted by the synthetic generator at critical-section exits.  Only the
Software-Flush protocol acts on FLUSH records; the other protocols
skip them (the paper's machines without flush support would never see
such instructions).

Storage layout
--------------

Traces routinely hold millions of records, so :class:`Trace` stores
them as a structure of arrays — three parallel numpy arrays ``cpu``
(``uint16``), ``kind`` (``uint8``), and ``address`` (``uint64``) —
rather than a list of per-record objects.  The columnar layout is what
the simulator's hot path consumes directly (block indices and
shared-block masks are computed vectorised over whole columns), what
the binary trace format serialises, and what makes whole-trace
operations (restriction, per-CPU counts, statistics) numpy-speed.

Record-oriented code keeps working: :attr:`Trace.records` is a lazy
sequence view yielding :class:`TraceRecord` tuples, and the ``Trace``
constructor accepts any iterable of records.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "AccessType",
    "AddressRange",
    "CPU_DTYPE",
    "KIND_DTYPE",
    "ADDRESS_DTYPE",
    "Trace",
    "TraceRecord",
    "TraceRecords",
    "validate_cpus",
]


def validate_cpus(cpus, most: int | None = None) -> int:
    """Return ``cpus`` if it is a processor count in ``[1, most]``.

    ``most`` is unbounded when ``None``.  A float or bool count is
    rejected even when it equals an integer: it would otherwise reach
    list sizing and array reshapes deep inside a replay.

    Raises:
        ValueError: if ``cpus`` is not an integer or is out of range.
    """
    if isinstance(cpus, bool) or not isinstance(cpus, numbers.Integral):
        raise ValueError(f"cpus must be an integer, got {cpus!r}")
    if most is None:
        if cpus < 1:
            raise ValueError(f"cpus must be >= 1, got {cpus}")
    elif not 1 <= cpus <= most:
        raise ValueError(f"cpus must be in [1, {most}], got {cpus}")
    return cpus


#: Column dtypes of the structure-of-arrays trace layout.
CPU_DTYPE = np.uint16
KIND_DTYPE = np.uint8
ADDRESS_DTYPE = np.uint64


class AccessType(enum.IntEnum):
    """The kind of one memory reference."""

    INST_FETCH = 0
    LOAD = 1
    STORE = 2
    FLUSH = 3

    @property
    def is_data(self) -> bool:
        """True for loads and stores (not fetches or flushes)."""
        return self in (AccessType.LOAD, AccessType.STORE)


#: Kind-code -> AccessType member, indexable by the ``kind`` column.
KIND_MEMBERS: tuple[AccessType, ...] = tuple(AccessType)


class TraceRecord(NamedTuple):
    """One memory reference: ``(cpu, kind, address)``.

    The record-oriented view of one row of the columnar trace.
    """

    cpu: int
    kind: AccessType
    address: int


@dataclass(frozen=True)
class AddressRange:
    """A half-open byte-address interval ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(
                f"invalid address range [{self.start}, {self.stop})"
            )

    def __contains__(self, address: int) -> bool:
        return self.start <= address < self.stop

    def __len__(self) -> int:
        return self.stop - self.start


class TraceRecords(Sequence):
    """Lazy record view over the three trace columns.

    Behaves like an immutable sequence of :class:`TraceRecord`; rows
    are materialised only when accessed, so holding the view costs
    nothing beyond the columns themselves.
    """

    __slots__ = ("_cpu", "_kind", "_address")

    def __init__(
        self, cpu: np.ndarray, kind: np.ndarray, address: np.ndarray
    ):
        self._cpu = cpu
        self._kind = kind
        self._address = address

    def __len__(self) -> int:
        return len(self._cpu)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                TraceRecord(int(c), KIND_MEMBERS[k], int(a))
                for c, k, a in zip(
                    self._cpu[index].tolist(),
                    self._kind[index].tolist(),
                    self._address[index].tolist(),
                )
            ]
        return TraceRecord(
            int(self._cpu[index]),
            KIND_MEMBERS[int(self._kind[index])],
            int(self._address[index]),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        for cpu, kind, address in zip(
            self._cpu.tolist(), self._kind.tolist(), self._address.tolist()
        ):
            yield TraceRecord(cpu, KIND_MEMBERS[kind], address)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceRecords):
            return (
                np.array_equal(self._cpu, other._cpu)
                and np.array_equal(self._kind, other._kind)
                and np.array_equal(self._address, other._address)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable-array backed; unhashable like a list

    def __repr__(self) -> str:
        return f"TraceRecords(<{len(self)} records>)"


def _columns_from_records(
    records: Iterable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise an iterable of ``(cpu, kind, address)`` into columns."""
    cpu_column: list[int] = []
    kind_column: list[int] = []
    address_column: list[int] = []
    for cpu, kind, address in records:
        cpu_column.append(cpu)
        kind_column.append(int(kind))
        address_column.append(address)
    return (
        np.asarray(cpu_column, dtype=CPU_DTYPE),
        np.asarray(kind_column, dtype=KIND_DTYPE),
        np.asarray(address_column, dtype=ADDRESS_DTYPE),
    )


class Trace:
    """An interleaved multiprocessor address trace (structure of arrays).

    Attributes:
        name: identifying label (e.g. the workload preset name).
        cpus: number of processors issuing references.
        shared_region: the byte-address range holding shared data.  The
            No-Cache protocol treats references in this range as
            non-cachable, and statistics classify references with it —
            mirroring the paper, where sharing is identified by address
            region ("a tag or a bit in the page table").
        cpu: ``uint16`` column of issuing-processor indices.
        kind: ``uint8`` column of :class:`AccessType` codes.
        address: ``uint64`` column of byte addresses.
    """

    __slots__ = ("name", "cpus", "shared_region", "cpu", "kind", "address")

    def __init__(
        self,
        name: str,
        cpus: int,
        shared_region: AddressRange,
        records: Iterable = (),
    ):
        validate_cpus(cpus)
        self.name = name
        self.cpus = cpus
        self.shared_region = shared_region
        if isinstance(records, TraceRecords):
            cpu, kind, address = (
                records._cpu, records._kind, records._address
            )
        else:
            cpu, kind, address = _columns_from_records(records)
        self._bind_columns(cpu, kind, address)

    def _bind_columns(
        self, cpu: np.ndarray, kind: np.ndarray, address: np.ndarray
    ) -> None:
        if not (len(cpu) == len(kind) == len(address)):
            raise ValueError(
                "column lengths differ: "
                f"cpu={len(cpu)}, kind={len(kind)}, address={len(address)}"
            )
        if len(kind) and int(kind.max()) >= len(KIND_MEMBERS):
            raise ValueError(
                f"kind codes must be < {len(KIND_MEMBERS)}, "
                f"got {int(kind.max())}"
            )
        self.cpu = cpu
        self.kind = kind
        self.address = address

    @classmethod
    def from_arrays(
        cls,
        name: str,
        cpus: int,
        shared_region: AddressRange,
        cpu: np.ndarray,
        kind: np.ndarray,
        address: np.ndarray,
    ) -> "Trace":
        """Build a trace directly from the three columns (no copy when
        dtypes already match)."""
        trace = cls.__new__(cls)
        validate_cpus(cpus)
        trace.name = name
        trace.cpus = cpus
        trace.shared_region = shared_region
        trace._bind_columns(
            np.asarray(cpu, dtype=CPU_DTYPE),
            np.asarray(kind, dtype=KIND_DTYPE),
            np.asarray(address, dtype=ADDRESS_DTYPE),
        )
        return trace

    # -- record-oriented compatibility surface ---------------------------

    @property
    def records(self) -> TraceRecords:
        """Sequence view of the rows as :class:`TraceRecord` tuples."""
        return TraceRecords(self.cpu, self.kind, self.address)

    def __len__(self) -> int:
        return len(self.cpu)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, cpus={self.cpus}, "
            f"records={len(self)})"
        )

    # -- whole-trace operations (columnar) -------------------------------

    def is_shared(self, address: int) -> bool:
        """True if ``address`` lies in the shared data region."""
        return address in self.shared_region

    def block_index(self, block_shift: int) -> np.ndarray:
        """Block number of every record (``address >> block_shift``)."""
        return self.address >> ADDRESS_DTYPE(block_shift)

    def shared_mask(self) -> np.ndarray:
        """Boolean column: record address inside the shared region."""
        return (self.address >= ADDRESS_DTYPE(self.shared_region.start)) & (
            self.address < ADDRESS_DTYPE(max(self.shared_region.stop, 0))
        )

    def per_cpu_counts(self) -> list[int]:
        """Number of records issued by each CPU."""
        return np.bincount(
            self.cpu, minlength=self.cpus
        ).tolist()[: self.cpus]

    def restricted_to(self, cpus: int, name: str | None = None) -> "Trace":
        """A sub-trace containing only CPUs ``0 .. cpus-1``.

        Used by the validation figures, which run the same workload at
        1, 2, 3, and 4 processors.
        """
        validate_cpus(cpus, self.cpus)
        keep = self.cpu < cpus
        return Trace.from_arrays(
            name=name if name is not None else f"{self.name}[{cpus}cpu]",
            cpus=cpus,
            shared_region=self.shared_region,
            cpu=self.cpu[keep],
            kind=self.kind[keep],
            address=self.address[keep],
        )

    @classmethod
    def from_records(
        cls,
        records: Iterable[TraceRecord],
        cpus: int,
        shared_region: AddressRange,
        name: str = "trace",
    ) -> "Trace":
        """Build a trace, materialising ``records`` into the columns."""
        return cls(
            name=name,
            cpus=cpus,
            shared_region=shared_region,
            records=records,
        )
