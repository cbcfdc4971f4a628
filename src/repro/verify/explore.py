"""Bounded exhaustive state-space exploration of the protocols.

The fuzz/differential subsystem samples paths through a protocol's
state space; this module *enumerates* them.  For a small model — a
handful of CPUs, one or two cache lines per set, a bounded block
alphabet — every protocol in :mod:`repro.sim.protocols` is a finite
state machine, and breadth-first search over its reachable states
visits each one exactly once.  Every transition is validated by the
per-line :class:`~repro.verify.oracles.ProtocolOracle` as it is taken,
so within the explored bounds the per-step coherence rules hold on
**all** interleavings, not just sampled ones (the approach of
"Modeling a Cache Coherence Protocol with the Guarded Action
Language", arXiv:1803.10323, applied to this repo's executable
protocols instead of a separate formal model).

Canonical machine states
------------------------

A machine state is canonically encoded as a hashable tuple of

* every cache set's ``(block, state)`` pairs **in LRU order** (the
  insertion order of the underlying dict — the replacement decision is
  part of protocol behaviour, so two states with different LRU orders
  are different states), and
* the oracle's version model per block — ``latest``, ``memory``, and
  each CPU's copy version — with the version values renumbered
  order-preservingly per block (``0, 1, 2, ...`` over the distinct
  values, ascending).  Version counters grow without bound along a
  path, but only their equality pattern and the fact that ``latest``
  is the maximum ever matter, so the renumbering collapses the state
  space to a finite one without changing any future oracle verdict.

Most protocol objects carry no transition-relevant state beyond the
caches (their ``stats`` and the directory's ``_invalidated`` set feed
counters only), so a fresh protocol instance over reconstructed caches
resumes any state exactly.  Protocols that do (the hybrid family's
pressure counters) declare it through ``Protocol.snapshot`` /
``restore``, and the matching oracle model state through
``ProtocolOracle.model_snapshot`` / ``restore_model``; both snapshots
are further components of the canonical state.

What is (and is not) proven
---------------------------

Within the bounds — CPUs, cache geometry, block alphabet, and search
depth — every reachable transition satisfies the oracle's rules, and
(budget permitting) every reached state's shortest path replays
identically through the columnar and legacy engines and (where
``family_support`` routes the protocol to a sweep engine: one-pass or
Dragon's epoch family) a one-size family, while satisfying the global
conservation invariants.  Nothing is claimed beyond the bounds: a bug
that needs three CPUs is invisible at two, and one that needs a deeper
interleaving is invisible below its depth.  The fuzzer keeps covering
the large-model regime; the explorer converts the small-model regime
from statistical confidence into an exhaustive guarantee.

Counterexamples
---------------

A violation is reported as the shortest action path that triggers it,
re-emitted as a concrete columnar :class:`~repro.trace.records.Trace`
(replayable by ``Machine.run(order="trace")``), shrunk further by
:func:`~repro.verify.minimize.minimize_failing_trace`, and written as
a standard ``swcc-fuzz-failure`` JSON artifact so ``swcc fuzz
--replay`` reproduces it without the explorer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.sim.cache import Cache, LineState
from repro.sim.engines import COLUMNAR, ENGINES, FALLBACK, family_support
from repro.sim.machine import SimulationConfig
from repro.sim.protocols import protocol_class
from repro.trace.records import (
    ADDRESS_DTYPE,
    CPU_DTYPE,
    KIND_DTYPE,
    AccessType,
    AddressRange,
    Trace,
)
from repro.verify.differential import (
    FuzzFailure,
    _failure_predicate,
    engine_divergence,
)
from repro.verify.invariants import (
    InvariantViolation,
    check_result_invariants,
)
from repro.verify.minimize import minimize_failing_trace
from repro.verify.oracles import ORACLES, OracleViolation

__all__ = [
    "ExploreBounds",
    "ExploreReport",
    "ExploreViolation",
    "explore_protocol",
    "validate_conformance",
    "validate_cpus",
    "validate_depth",
    "validate_lines",
    "validate_max_states",
    "validate_sets",
    "write_counterexample",
]

_BLOCK_BYTES = 16
#: Block-number bases (addresses are ``block * 16``); mirrors the
#: fuzzer's region layout so artifacts look familiar.
_SHARED_BASE_BLOCK = 0x80000
_PRIVATE_BASE_BLOCK = 0x10000


# -- bounds validation (shared by the API and the CLI) -------------------


def validate_cpus(cpus: int) -> int:
    """CPUs in the small model: at least 2 (coherence needs sharing),
    at most 8 (the action alphabet, and with it the branching factor,
    grows linearly; past 8 the 'small model' claim is no longer
    honest)."""
    if not 2 <= cpus <= 8:
        raise ValueError(
            f"cpus must be in [2, 8] (coherence needs at least two "
            f"sharers; more than eight is no longer a small model), "
            f"got {cpus}"
        )
    return cpus


def validate_lines(lines: int) -> int:
    """Cache lines per set (the associativity): 1 to 4."""
    if not 1 <= lines <= 4:
        raise ValueError(
            f"lines per set must be in [1, 4], got {lines}"
        )
    return lines


def validate_sets(sets: int) -> int:
    """Cache sets: a power of two between 1 and 4."""
    if sets not in (1, 2, 4):
        raise ValueError(
            f"sets must be 1, 2, or 4 (a power of two keeps the "
            f"set-index arithmetic exact), got {sets}"
        )
    return sets


def validate_depth(depth: int) -> int:
    """Search depth: at least 1 (depth 0 explores nothing)."""
    if depth < 1:
        raise ValueError(
            f"depth must be >= 1 (a depth-0 search visits no "
            f"transition), got {depth}"
        )
    return depth


def validate_max_states(max_states: int) -> int:
    """State budget: at least 1; a negative budget is nonsensical."""
    if max_states < 1:
        raise ValueError(
            f"max-states must be >= 1 (the budget bounds the visited "
            f"set), got {max_states}"
        )
    return max_states


def validate_conformance(conformance: int) -> int:
    """Cross-engine conformance budget: >= 0 (0 disables it)."""
    if conformance < 0:
        raise ValueError(
            f"conformance must be >= 0 (0 = skip cross-engine "
            f"replays), got {conformance}"
        )
    return conformance


@dataclass(frozen=True)
class ExploreBounds:
    """The small model: machine width, geometry, and search budget.

    Attributes:
        cpus: processors in the model (2-8).
        lines: cache lines per set, i.e. the associativity (1-4).
        sets: cache sets (1, 2, or 4).
        depth: BFS depth bound — the longest interleaving explored.
        max_states: visited-state budget; the search reports itself
            truncated (not exhaustive) when it runs out.
        conformance: how many discovered states also get a
            cross-engine replay of their shortest path (columnar vs
            legacy vs the sweep family engine where it applies, plus the
            global invariants); states are checked in BFS discovery
            order.
    """

    cpus: int = 2
    lines: int = 1
    sets: int = 1
    depth: int = 8
    max_states: int = 200_000
    conformance: int = 256

    def __post_init__(self) -> None:
        validate_cpus(self.cpus)
        validate_lines(self.lines)
        validate_sets(self.sets)
        validate_depth(self.depth)
        validate_max_states(self.max_states)
        validate_conformance(self.conformance)

    @property
    def config(self) -> SimulationConfig:
        """The machine geometry the bounds describe."""
        return SimulationConfig(
            cache_bytes=self.sets * self.lines * _BLOCK_BYTES,
            block_bytes=_BLOCK_BYTES,
            associativity=self.lines,
        )

    @property
    def shared_blocks(self) -> tuple[int, ...]:
        """``lines + 1`` shared blocks per set — one more than the
        ways, so evictions of shared lines are reachable."""
        count = self.sets * (self.lines + 1)
        return tuple(range(_SHARED_BASE_BLOCK, _SHARED_BASE_BLOCK + count))

    @property
    def private_blocks(self) -> tuple[int, ...]:
        """One private block per set (exercises the uncached-vs-cached
        split and instruction fetches)."""
        return tuple(
            range(_PRIVATE_BASE_BLOCK, _PRIVATE_BASE_BLOCK + self.sets)
        )

    @property
    def shared_region(self) -> AddressRange:
        blocks = self.shared_blocks
        return AddressRange(
            blocks[0] * _BLOCK_BYTES, (blocks[-1] + 1) * _BLOCK_BYTES
        )


@dataclass(frozen=True)
class ExploreViolation:
    """A violated transition or a diverging frontier state.

    ``failure.check`` is ``oracle:trace`` for a per-step oracle
    violation, or one of ``engine-diff:trace`` / ``invariants:trace``
    / ``onepass-diff:trace`` for a frontier-conformance failure; the
    trace replays the shortest path that triggers it.
    """

    failure: FuzzFailure
    trace: Trace


@dataclass
class ExploreReport:
    """What one protocol's exploration covered and concluded."""

    protocol: str
    bounds: ExploreBounds
    states: int = 0
    edges: int = 0
    depth_reached: int = 0
    #: States whose successors were *not* expanded because they sit at
    #: the depth bound (the search horizon).
    frontier: int = 0
    #: True when the state budget ran out before the reachable set
    #: (within the depth bound) was closed.
    truncated: bool = False
    conformance_checked: int = 0
    violation: ExploreViolation | None = None
    wall_s: float = 0.0
    actions: int = 0

    @property
    def exhaustive(self) -> bool:
        """True when every state reachable within the depth bound was
        visited and none broke a rule."""
        return not self.truncated and self.violation is None


# -- canonical state encoding --------------------------------------------


def _encode_state(caches, protocol, oracle, blocks) -> tuple:
    """Hashable canonical encoding of (caches, protocol state,
    version model, oracle model state).

    Protocols and oracles carrying transition state beyond the caches
    (the hybrid family's pressure counters) contribute their
    :meth:`~repro.sim.protocols.interface.Protocol.snapshot` /
    ``model_snapshot`` values as *separate* components — deliberately
    not one copied into the other, so a protocol whose private state
    drifts from the oracle's independent model produces distinct
    states whose divergent transitions the search then visits.
    """
    cache_part = tuple(
        tuple(
            tuple((block, int(state)) for block, state in line_set.items())
            for line_set in cache.line_sets
        )
        for cache in caches
    )
    version_part = []
    for block in blocks:
        raw = [oracle.latest[block], oracle.memory[block]] + [
            oracle.copies[cpu].get(block) for cpu in range(oracle.n)
        ]
        rank = {
            value: index
            for index, value in enumerate(
                sorted({v for v in raw if v is not None})
            )
        }
        version_part.append(
            tuple(None if v is None else rank[v] for v in raw)
        )
    return (
        cache_part,
        tuple(version_part),
        protocol.snapshot(),
        oracle.model_snapshot(),
    )


def _decode_state(state, bounds, oracle_class, protocol_cls, blocks):
    """Rebuild live caches, a fresh protocol, and a primed oracle from
    a canonical encoding.

    The canonical version ranks are usable directly as versions: the
    renumbering preserves order, so ``latest`` stays the per-block
    maximum and the next store's ``latest + 1`` is fresh.
    """
    cache_part, version_part, protocol_part, model_part = state
    geometry = bounds.config.geometry
    caches = [Cache(geometry) for _ in range(bounds.cpus)]
    for cache, sets in zip(caches, cache_part):
        for line_set, encoded in zip(cache.line_sets, sets):
            for block, state_value in encoded:
                line_set[block] = LineState(state_value)
    shared = set(bounds.shared_blocks)
    is_shared = shared.__contains__
    protocol = protocol_cls(caches, is_shared)
    if protocol_part is not None:
        protocol.restore(protocol_part)
    oracle = oracle_class(caches, is_shared)
    if model_part is not None:
        oracle.restore_model(model_part)
    oracle.mirror = [
        [dict(line_set) for line_set in cache.line_sets]
        for cache in caches
    ]
    for block, versions in zip(blocks, version_part):
        latest, memory = versions[0], versions[1]
        if latest:
            oracle.latest[block] = latest
        if memory:
            oracle.memory[block] = memory
        for cpu, version in enumerate(versions[2:]):
            if version is not None:
                oracle.copies[cpu][block] = version
    return caches, protocol, oracle


# -- action alphabet and trace emission ----------------------------------


def _alphabet(bounds: ExploreBounds, handles_flush: bool) -> tuple:
    """All (cpu, kind, block) actions of the model.

    Shared blocks take loads and stores (and flushes, for protocols
    that handle them); private blocks take fetches, loads, and stores.
    """
    actions = []
    shared_kinds = [AccessType.LOAD, AccessType.STORE]
    if handles_flush:
        shared_kinds.append(AccessType.FLUSH)
    for cpu in range(bounds.cpus):
        for block in bounds.shared_blocks:
            for kind in shared_kinds:
                actions.append((cpu, kind, block))
        for block in bounds.private_blocks:
            for kind in (
                AccessType.INST_FETCH,
                AccessType.LOAD,
                AccessType.STORE,
            ):
                actions.append((cpu, kind, block))
    return tuple(actions)


def path_trace(
    path, bounds: ExploreBounds, name: str = "explore"
) -> Trace:
    """The action path as a concrete columnar trace.

    ``Machine.run(trace, order="trace")`` replays it record by record
    in exactly the explored interleaving.
    """
    return Trace.from_arrays(
        name=name,
        cpus=bounds.cpus,
        shared_region=bounds.shared_region,
        cpu=np.asarray([cpu for cpu, _, _ in path], dtype=CPU_DTYPE),
        kind=np.asarray([int(kind) for _, kind, _ in path], dtype=KIND_DTYPE),
        address=np.asarray(
            [block * _BLOCK_BYTES for _, _, block in path],
            dtype=ADDRESS_DTYPE,
        ),
    )


def _shortest_path(parents, state) -> list:
    path = []
    while True:
        entry = parents[state]
        if entry is None:
            break
        state, action = entry
        path.append(action)
    path.reverse()
    return path


# -- frontier conformance -------------------------------------------------


def _conformance_divergence(
    trace: Trace, config: SimulationConfig, protocol
) -> tuple[str, str] | None:
    """(check, message) when the engines disagree on this path, else
    None.  ``protocol`` may be a registry name or a Protocol class;
    the family cross-check (one-pass or epoch engine) only applies to
    registry names (its routing gate is about the real protocols)."""
    columnar, message = engine_divergence(
        COLUMNAR, protocol, trace, config, "trace"
    )
    if message is not None:
        return "engine-diff:trace", message
    try:
        check_result_invariants(columnar, trace=trace)
    except InvariantViolation as violation:
        return "invariants:trace", str(violation)
    if isinstance(protocol, str):
        sweep, _ = family_support(protocol)
        if sweep != FALLBACK:
            _, message = engine_divergence(
                ENGINES[sweep], protocol, trace, config, "trace",
                reference=columnar,
            )
            if message is not None:
                return "onepass-diff:trace", message
    return None


# -- the explorer ---------------------------------------------------------


def explore_protocol(
    protocol, bounds: ExploreBounds | None = None
) -> ExploreReport:
    """Exhaustively explore one protocol's small-model state space.

    Args:
        protocol: registry name or a Protocol subclass (a deliberately
            broken subclass keeping its parent's ``name`` is checked
            against the rules of the protocol it claims to be, exactly
            like :func:`~repro.verify.oracles.shadow_protocol`).
        bounds: the model; defaults to :class:`ExploreBounds`'s
            2 CPUs x 1 line x 1 set at depth 8.

    Returns:
        An :class:`ExploreReport`; ``report.violation`` carries the
        shortest-path counterexample when a rule broke, and
        ``report.exhaustive`` is True when the search closed the
        reachable set within the bounds without finding one.
    """
    if bounds is None:
        bounds = ExploreBounds()
    started = time.perf_counter()
    protocol_cls = (
        protocol_class(protocol) if isinstance(protocol, str) else protocol
    )
    name = protocol_cls.name
    try:
        oracle_class = ORACLES[name]
    except KeyError:
        raise ValueError(
            f"no oracle for protocol {name!r}; have {sorted(ORACLES)}"
        ) from None
    blocks = bounds.shared_blocks + bounds.private_blocks
    actions = _alphabet(bounds, protocol_cls.handles_flush)
    config = bounds.config

    report = ExploreReport(
        protocol=name, bounds=bounds, actions=len(actions)
    )
    geometry = config.geometry
    empty_caches = [Cache(geometry) for _ in range(bounds.cpus)]
    initial = _encode_state(
        empty_caches,
        protocol_cls(empty_caches, lambda _: False),
        oracle_class(empty_caches, lambda _: False),
        blocks,
    )
    # state -> (parent state, action) or None for the root.
    parents: dict = {initial: None}
    depths = {initial: 0}
    queue = deque([initial])
    report.states = 1

    def fail(check: str, message: str, path) -> ExploreViolation:
        failure = FuzzFailure(
            seed=0,
            shape="explore",
            protocol=name,
            check=check,
            message=message,
        )
        return ExploreViolation(failure=failure, trace=path_trace(
            path, bounds, name=f"explore-{name}"
        ))

    while queue:
        state = queue.popleft()
        depth = depths[state]
        if depth >= bounds.depth:
            report.frontier += 1
            continue
        for action in actions:
            caches, live_protocol, oracle = _decode_state(
                state, bounds, oracle_class, protocol_cls, blocks
            )
            oracle.index = depth
            cpu, kind, block = action
            try:
                if kind is AccessType.FLUSH:
                    outcome = live_protocol.flush(cpu, block)
                    oracle.observe_flush(cpu, block, outcome)
                else:
                    outcome = live_protocol.access(cpu, kind, block)
                    oracle.observe_access(cpu, kind, block, outcome)
            except OracleViolation as violation:
                path = _shortest_path(parents, state) + [action]
                report.violation = fail("oracle:trace", str(violation), path)
                report.wall_s = time.perf_counter() - started
                return report
            report.edges += 1
            successor = _encode_state(caches, live_protocol, oracle, blocks)
            if successor in parents:
                continue
            parents[successor] = (state, action)
            depths[successor] = depth + 1
            report.states += 1
            report.depth_reached = max(report.depth_reached, depth + 1)
            if report.conformance_checked < bounds.conformance:
                report.conformance_checked += 1
                path = _shortest_path(parents, successor)
                divergence = _conformance_divergence(
                    path_trace(path, bounds, name=f"explore-{name}"),
                    config,
                    protocol,
                )
                if divergence is not None:
                    check, message = divergence
                    report.violation = fail(check, message, path)
                    report.wall_s = time.perf_counter() - started
                    return report
            if report.states >= bounds.max_states:
                report.truncated = True
                report.wall_s = time.perf_counter() - started
                return report
            queue.append(successor)
    report.wall_s = time.perf_counter() - started
    return report


# -- counterexample minimization and artifacts ---------------------------


def write_counterexample(
    violation: ExploreViolation,
    protocol,
    config: SimulationConfig,
    directory: str | Path,
    max_checks: int = 48,
) -> tuple[Path, Trace]:
    """Minimize a violation's trace and write it as a JSON artifact.

    Returns the artifact path and the minimized trace.  The artifact
    is a standard ``swcc-fuzz-failure``, so ``swcc fuzz --replay``
    re-runs the failed check on it without the explorer; minimization
    keeps the trace failing under that same predicate, evaluated on
    ``protocol`` (a name or the explored class).
    """
    from repro.verify.artifact import (
        failure_artifact,
        write_failure_artifact,
    )

    predicate = _failure_predicate(violation.failure, config, protocol)
    minimized = minimize_failing_trace(
        violation.trace, predicate, max_checks=max_checks
    )
    artifact = failure_artifact(violation.failure, minimized, config)
    return write_failure_artifact(artifact, directory), minimized
