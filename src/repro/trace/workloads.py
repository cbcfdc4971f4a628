"""ATUM-like workload presets.

The paper's validation traces were POPS, THOR, and PERO — parallel
applications (plus MACH operating-system references) traced on a
4-processor VAX 8350, and an 8-processor PERO trace from a T-bit
tracer.  The originals are unavailable; these presets are synthetic
stand-ins differentiated the way the paper describes its traces:
different sharing levels, write mixes, and working-set sizes, all
landing inside Table 7's observed parameter ranges when measured at
the paper's cache sizes.

The presets are recipes, not traces: call ``preset("pops").generate()``
(optionally with a seed or config overrides) to materialise one.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from repro.trace.records import Trace
from repro.trace.synthetic import SyntheticWorkload, TraceConfig

__all__ = ["WORKLOAD_PRESETS", "preset", "preset_trace"]


def _presets() -> Mapping[str, SyntheticWorkload]:
    pops = SyntheticWorkload(
        name="pops",
        description=(
            "Parallel OPS5 production system stand-in: moderate sharing, "
            "read-mostly shared objects, large private working sets."
        ),
        config=TraceConfig(
            cpus=4,
            records_per_cpu=150_000,
            ls=0.32,
            shd=0.22,
            shared_objects=96,
            object_blocks=2,
            section_length_mean=14,
            shared_write_fraction=0.22,
            readonly_section_fraction=0.45,
            private_working_set=192,
            private_locality=0.991,
            private_write_fraction=0.35,
            loop_iterations_mean=120,
            seed=101,
        ),
    )
    thor = SyntheticWorkload(
        name="thor",
        description=(
            "Logic-simulator stand-in: higher sharing and write fraction, "
            "smaller shared objects touched in short bursts."
        ),
        config=TraceConfig(
            cpus=4,
            records_per_cpu=150_000,
            ls=0.30,
            shd=0.30,
            shared_objects=48,
            object_blocks=1,
            section_length_mean=8,
            shared_write_fraction=0.35,
            readonly_section_fraction=0.25,
            private_working_set=256,
            private_locality=0.988,
            private_write_fraction=0.40,
            loop_iterations_mean=100,
            seed=202,
        ),
    )
    pero = SyntheticWorkload(
        name="pero",
        description=(
            "Circuit-extraction stand-in: light sharing, long private "
            "phases, longer runs on shared blocks."
        ),
        config=TraceConfig(
            cpus=4,
            records_per_cpu=150_000,
            ls=0.28,
            shd=0.12,
            shared_objects=64,
            object_blocks=2,
            section_length_mean=24,
            shared_write_fraction=0.25,
            readonly_section_fraction=0.40,
            private_working_set=320,
            private_locality=0.989,
            private_write_fraction=0.38,
            loop_iterations_mean=130,
            seed=303,
        ),
    )
    pero8 = SyntheticWorkload(
        name="pero8",
        description="8-processor variant of pero (the paper's T-bit trace).",
        config=TraceConfig(
            cpus=8,
            records_per_cpu=110_000,
            ls=0.28,
            shd=0.12,
            shared_objects=64,
            object_blocks=2,
            section_length_mean=24,
            shared_write_fraction=0.25,
            readonly_section_fraction=0.40,
            private_working_set=320,
            private_locality=0.989,
            private_write_fraction=0.38,
            loop_iterations_mean=130,
            seed=404,
        ),
    )
    return MappingProxyType(
        {workload.name: workload for workload in (pops, thor, pero, pero8)}
    )


WORKLOAD_PRESETS: Mapping[str, SyntheticWorkload] = _presets()
"""The named workload recipes, keyed by preset name."""


def preset(name: str) -> SyntheticWorkload:
    """Look up a workload preset by name.

    Raises:
        KeyError: if the preset does not exist.
    """
    try:
        return WORKLOAD_PRESETS[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_PRESETS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


@lru_cache(maxsize=16)
def preset_trace(name: str, records_per_cpu: int | None = None) -> Trace:
    """Preset ``name``'s trace at ``records_per_cpu`` records per CPU
    (``None``: the recipe's own length), generated once per process.

    The experiments share these traces instead of regenerating the
    same preset per experiment; callers must not modify them.
    """
    recipe = preset(name)
    if records_per_cpu is None:
        return recipe.generate()
    return recipe.generate(records_per_cpu=records_per_cpu)
