"""Workload model parameters (the paper's Tables 2 and 7).

Eleven parameters characterise a program's memory behaviour.  The
paper's Table 7 gives low/middle/high values for each, derived from
the ATUM-2 multiprocessor traces (with the adjustments described in
Section 4: ``apl`` estimated from inter-processor reference runs,
``md`` raised to 0.5 high, ``ls`` set to a RISC-typical range).

``apl`` is special: the traces constrain ``1/apl`` (flushes per shared
reference), so Table 7 lists the range of ``1/apl`` — low 0.04
(apl = 25), middle 0.13 (apl ≈ 7.7), high 1.0 (apl = 1).  Increasing
``1/apl`` from low to high *degrades* Software-Flush, which is the
direction the sensitivity analysis (Table 8) reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "PARAMETER_RANGES",
    "ParameterRange",
    "WorkloadParams",
    "validate_parameter",
]

_PROBABILITY_FIELDS = (
    "ls",
    "msdat",
    "mains",
    "md",
    "shd",
    "wr",
    "mdshd",
    "oclean",
    "opres",
)

#: ``name -> (low, high, message)``: the closed range a parameter must
#: lie in, and the error naming it.  NaN lies in no range.
_RULES = {
    **{
        name: (0.0, 1.0, f"{name} is a probability and must be in [0, 1]")
        for name in _PROBABILITY_FIELDS
    },
    "apl": (1.0, float("inf"), "apl is a reference count and must be >= 1"),
    "nshd": (0.0, float("inf"), "nshd must be >= 0"),
}


def validate_parameter(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a legal ``name``.

    ``value`` is a scalar or an array (a swept grid axis); an array
    is legal when every element is, and the error reports the first
    offending element.
    """
    low, high, message = _RULES[name]
    if isinstance(value, (int, float)):
        if low <= value <= high:
            return
        got = value
    else:
        values = np.asarray(value, dtype=float)
        bad = ~((values >= low) & (values <= high))
        if not bad.any():
            return
        got = values[bad][0]
    raise ValueError(f"{message}, got {got}")


@dataclass(frozen=True)
class WorkloadParams:
    """The workload parameters of the paper's Table 2.

    Attributes:
        ls: probability an instruction is a load or store.
        msdat: miss rate for data references.
        mains: miss rate for instruction fetches (per instruction).
        md: probability a miss replaces a dirty block.
        shd: probability a load/store refers to shared data.
        wr: probability a shared reference is a store rather than a
            load.
        apl: mean number of references to a shared block before it is
            flushed (Software-Flush only); ``>= 1``.
        mdshd: probability a shared block is modified before it is
            flushed (Software-Flush only).
        oclean: on a miss to a shared block, probability it is *not*
            dirty in another cache (Dragon only).
        opres: on a write to a shared block, probability it is present
            in another cache (Dragon only).
        nshd: mean number of other caches holding a shared block on a
            write-broadcast (Dragon only); ``>= 0``.
    """

    ls: float
    msdat: float
    mains: float
    md: float
    shd: float
    wr: float
    apl: float
    mdshd: float
    oclean: float
    opres: float
    nshd: float

    def __post_init__(self) -> None:
        for name in _RULES:
            validate_parameter(name, getattr(self, name))

    def replace(self, **changes: float) -> "WorkloadParams":
        """A copy with the named parameters replaced (and re-validated)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict[str, float]:
        """The parameters as a plain ``{name: value}`` dict."""
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """All parameter names, in Table 2 order."""
        return tuple(field.name for field in dataclasses.fields(cls))

    @classmethod
    def at_level(cls, level: str, **overrides: float) -> "WorkloadParams":
        """Parameters with every field at a Table 7 level.

        Args:
            level: ``"low"``, ``"middle"``, or ``"high"``.
            overrides: individual parameters to pin to other values.
        """
        values = {
            name: parameter_range.at(level)
            for name, parameter_range in PARAMETER_RANGES.items()
        }
        values.update(overrides)
        return cls(**values)

    @classmethod
    def low(cls, **overrides: float) -> "WorkloadParams":
        """All parameters at their Table 7 low values."""
        return cls.at_level("low", **overrides)

    @classmethod
    def middle(cls, **overrides: float) -> "WorkloadParams":
        """All parameters at their Table 7 middle values."""
        return cls.at_level("middle", **overrides)

    @classmethod
    def high(cls, **overrides: float) -> "WorkloadParams":
        """All parameters at their Table 7 high values."""
        return cls.at_level("high", **overrides)


@dataclass(frozen=True)
class ParameterRange:
    """Low/middle/high values for one workload parameter (Table 7).

    ``degrading_direction`` records whether performance worsens as the
    stored value goes low→high (+1) or high→low (-1); only ``apl`` has
    -1, because Table 7's row is expressed as ``1/apl``.
    """

    low: float
    middle: float
    high: float
    degrading_direction: int = +1

    def at(self, level: str) -> float:
        """The value at ``"low"``, ``"middle"``, or ``"high"``."""
        try:
            return {"low": self.low, "middle": self.middle, "high": self.high}[level]
        except KeyError:
            raise ValueError(
                f"level must be 'low', 'middle', or 'high', got {level!r}"
            ) from None

    def __iter__(self) -> Iterator[float]:
        return iter((self.low, self.middle, self.high))


def _table7() -> Mapping[str, ParameterRange]:
    """The paper's Table 7, with ``1/apl`` converted to ``apl``."""
    inverse_apl = {"low": 0.04, "middle": 0.13, "high": 1.0}
    ranges = {
        "ls": ParameterRange(0.2, 0.3, 0.4),
        "msdat": ParameterRange(0.004, 0.014, 0.024),
        "mains": ParameterRange(0.0014, 0.0022, 0.0034),
        "md": ParameterRange(0.14, 0.20, 0.50),
        "shd": ParameterRange(0.08, 0.25, 0.42),
        "wr": ParameterRange(0.10, 0.25, 0.40),
        "mdshd": ParameterRange(0.0, 0.25, 0.5),
        # Table 7 lists 1/apl: low 0.04, middle 0.13, high 1.0.  The
        # *parameter* apl therefore runs 25 → ~7.7 → 1, and raising
        # 1/apl (lowering apl) is the degrading direction.
        "apl": ParameterRange(
            1.0 / inverse_apl["low"],
            1.0 / inverse_apl["middle"],
            1.0 / inverse_apl["high"],
            degrading_direction=-1,
        ),
        "oclean": ParameterRange(0.60, 0.84, 0.976),
        "opres": ParameterRange(0.63, 0.79, 0.94),
        "nshd": ParameterRange(1.0, 1.0, 7.0),
    }
    return MappingProxyType(ranges)


PARAMETER_RANGES: Mapping[str, ParameterRange] = _table7()
"""Table 7: low/middle/high ranges for every workload parameter.

For ``apl`` the stored low/middle/high follow Table 7's ``1/apl`` row,
so ``PARAMETER_RANGES["apl"].low == 25.0`` (i.e. ``1/apl == 0.04``) and
``.high == 1.0``.
"""
