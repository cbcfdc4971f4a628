"""Spans around the public entry points of the ``repro`` layers.

A :class:`Probe` wraps each function named in :data:`LAYERS` at run
time.  Callers import these functions by name (``from repro.sim import
run_geometry_family``), so a wrapper only takes effect if it replaces
every binding: the probe rebinds each attribute of each loaded
``repro`` module that refers to the original function (methods are
replaced on their class), and restores them all on exit.  No source
file of ``repro`` is edited.

With spans off the probe collects what the benchmark needs to check
and digest the run — every simulation result and the model validation
points — at one extra Python call per wrapped call.  Given a clock
(``clock.py``), it also wraps every layer and marks the clock at each
entry and exit, so that the clock can cut the body into segments there.
With spans on it also records, per call, the layer name, start, end and
parent span, kept in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

#: Layer name -> the public callables timed as that layer, as
#: ``(module, attribute)``; ``Class.method`` names a method.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "trace.stats": (("repro.trace.stats", "collect_stats"),),
    "trace.synthetic": (("repro.trace.synthetic", "generate_trace"),),
    "trace.derived": (("repro.trace.derived", "derived_columns"),),
    "sim.onepass": (("repro.sim.onepass", "run_geometry_family"),),
    "sim.family": (("repro.sim.family", "run_coupled_family"),),
    "sim.segment": (("repro.sim.segment", "classify_lru"),),
    "sim.machine": (("repro.sim.machine", "Machine.run"),),
    "sim.measure": (("repro.sim.measure", "measure_workload_params"),),
    "core.bus": tuple(
        ("repro.core.bus", f"BusSystem.{method}")
        for method in (
            "evaluate", "sweep", "compare", "saturation_processing_power",
        )
    ),
    "experiments.surface": (("repro.experiments.surface", "sweep_grid"),),
}

#: Layers wrapped even with spans off, because the benchmark reads
#: their return values.
_COLLECTED_LAYERS = ("sim.machine", "sim.onepass")
#: Never spanned; wrapped for the model-vs-simulation points it returns.
_VALIDATION = ("repro.experiments.validation", "validation_sweep")


@dataclass
class Span:
    """One call into a layer: host ``perf_counter`` start and end, the
    index of the enclosing span (``None`` at top level), and what the
    call did (engine, records, configurations)."""

    layer: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probe:
    """Wraps the layer entry points while installed (a context manager).

    Attributes:
        results: every distinct ``SimulationResult`` returned by
            ``Machine.run`` or ``run_geometry_family``, in call order.
        validation_points: every point ``validation_sweep`` returned.
        spans: the recorded spans, in start order (spans on only).
    """

    def __init__(self, spans: bool, clock=None):
        self.record_spans = spans
        self.clock = clock
        self.results: list = []
        self.validation_points: list[dict] = []
        self.spans: list[Span] = []
        self._result_ids: set[int] = set()
        self._machine_ids: set[int] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # Traces passed to trace.stats, kept alive so ids stay distinct.
        self._stats_traces: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Probe":
        for layer, callables in LAYERS.items():
            if (self.record_spans or self.clock is not None
                    or layer in _COLLECTED_LAYERS):
                for module_name, attribute in callables:
                    self._install(layer, module_name, attribute)
        self._install("validation", *_VALIDATION)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _install(self, layer: str, module_name: str, attribute: str) -> None:
        module = importlib.import_module(module_name)
        class_name, _, name = attribute.rpartition(".")
        if class_name:
            owner = getattr(module, class_name)
            original = owner.__dict__[name]
            self._rebind(owner, name, original, self._wrap(layer, original))
            return
        original = getattr(module, name)
        wrapper = self._wrap(layer, original)
        rebound = 0
        for module_key, loaded in list(sys.modules.items()):
            if module_key != "repro" and not module_key.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._rebind(loaded, key, original, wrapper)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"{module_name}.{name} is bound nowhere")

    def _rebind(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def _wrap(self, layer: str, fn):
        spanned = self.record_spans and layer in LAYERS
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not spanned:
                if clock is not None:
                    clock.checkpoint()
                result = fn(*args, **kwargs)
                if clock is not None:
                    clock.checkpoint()
                self._collect(layer, args, result)
                return result
            span = Span(layer, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.detail = self._collect(layer, args, result)
            return result

        return wrapper

    def _collect(self, layer: str, args: tuple, result) -> dict:
        if layer == "sim.machine":
            self._machine_ids.add(id(result))
            self._add_result(result)
            return {"engine": result.engine, "records": result.records_replayed}
        if layer == "sim.onepass":
            for simulated in result.values():
                self._add_result(simulated)
            fallback = sum(id(r) in self._machine_ids for r in result.values())
            return {"configs": len(result), "fallback": fallback}
        if layer == "validation":
            for points in result.values():
                self.validation_points.extend(points)
        elif layer == "trace.stats":
            trace = args[0]
            self._stats_traces[id(trace)] = trace
            return {"trace": id(trace)}
        elif layer == "trace.synthetic":
            return {"records": len(result)}
        return {}

    def _add_result(self, result) -> None:
        if id(result) not in self._result_ids:
            self._result_ids.add(id(result))
            self.results.append(result)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a
    span cover disjoint parts of its interval.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def nesting_errors(spans: list[Span], start: float, end: float) -> list[str]:
    """Spans that leave their parent's interval (or the traced window)."""
    errors = []
    for index, span in enumerate(spans):
        low, high = (
            (start, end)
            if span.parent is None
            else (spans[span.parent].start, spans[span.parent].end)
        )
        if not low <= span.start <= span.end <= high:
            errors.append(f"span {index} ({span.layer}) escapes its parent")
    return errors
