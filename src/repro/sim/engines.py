"""The engine registry: every simulation engine label, declared once.

Each entry of :data:`ENGINES` declares the label results and manifests
carry, its entry point, the reference contract it is held ``==`` to,
and a gate ``(protocol class, cost table, bus discipline, arbitration
overhead) -> None | "category:detail"``.  Routing, the verifier's
engine diffs and ``tests/sim/test_conformance.py`` read this table.
It imports no engine, so every engine module imports it at module
level.

There is one replay reference loop, ``machine._run_reference``, and
two replay reference contracts, one per bus, since grant timing
differs by design once steals or invalidations couple the CPUs (the
buses agree under fcfs for the geometry-local protocols only):
``legacy``, the reference over the synchronous fcfs ``TimedBus``, and
``deferred``, the reference over the ``ArbitratedBus``.  The sweeps'
reference, ``machine``, is one ``Machine.run`` per configuration.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.operations import CostTable
from repro.sim.protocols import HYBRID_PROTOCOLS, Protocol, protocol_class

#: Entry points.
MACHINE_RUN = "Machine.run"
GEOMETRY_FAMILY = "run_geometry_family"

#: Reference contracts.
REF_LEGACY = "legacy"
REF_DEFERRED = "deferred"
REF_MACHINE = "machine"

#: What :func:`family_support` names when no sweep engine's gate
#: passes: one exact ``Machine.run`` per configuration.
FALLBACK = "fallback"


class Engine(NamedTuple):
    """One engine label and the facts every caller derives from it.

    ``reference`` is ``None`` for the label under which ``Machine.run``
    runs the reference loop its bus needs (:func:`deferred_grants`).
    ``requests`` are the ``Machine.run(engine=...)`` values the label
    answers when its gate passes; ``protocols`` are the registry names
    a sweep engine serves.
    """

    label: str
    entry: str
    reference: str | None
    gate: Callable[[type[Protocol], CostTable, str, float], str | None]
    requests: tuple[str, ...] = ()
    protocols: tuple[str, ...] = ()


def _fcfs(discipline: str) -> str | None:
    if discipline != "fcfs":
        return (
            f"bus-discipline:{discipline} needs the deferred-grant "
            "arbitrated engine"
        )
    return None


def _columnar(protocol, costs, discipline, overhead):
    return _fcfs(discipline) or (
        f"bus-discipline:arbitration overhead {overhead:g} cycles folds "
        "into the fcfs grants as columnar+arb"
        if overhead
        else None
    )


def _sweep_bus(discipline: str, overhead: float) -> str | None:
    # Every one-traversal engine assumes call-order FCFS grants.
    # Integral fcfs overhead folds into every merge's service term
    # exactly as TimedBus applies it; a non-integral overhead breaks
    # the batched-advance float-exactness gate.
    if _fcfs(discipline) or float(overhead).is_integer():
        return _fcfs(discipline)
    return (
        f"bus-discipline:arbitration overhead {overhead:g} cycles is "
        "non-integral and cannot be folded exactly into the one-pass "
        "merges"
    )


def _integral(costs: CostTable) -> str | None:
    if all(
        float(cost.cpu_cycles).is_integer()
        and float(cost.channel_cycles).is_integer()
        for _, cost in costs.items()
    ):
        return None
    return "costs:non-integral operation costs"


def _onepass(protocol, costs, discipline, overhead):
    name = protocol.name
    if name not in ONEPASS.protocols:
        reason = f"protocol:{name} is not a one-pass protocol"
    elif not (
        protocol.read_hit_is_free
        and protocol.store_hit_is_local
        and protocol.remote_traffic_preserves_residency
        and not protocol.may_steal_cycles
    ):
        reason = f"protocol:{name} breaks the geometry-local contract flags"
    else:
        reason = _integral(costs)
    return _sweep_bus(discipline, overhead) or reason


def _epoch(protocol, costs, discipline, overhead):
    name = protocol.name
    if name in HYBRID_PROTOCOLS:
        # A hybrid's update-or-invalidate decision depends on per-copy
        # pressure accumulated across the whole interleaving, so epoch
        # partitioning cannot factor its sharing traffic.
        reason = (
            f"protocol:{name} adapts per-copy update/invalidate "
            "pressure across epochs and has no epoch engine"
        )
    elif name not in EPOCH.protocols:
        reason = f"protocol:{name} couples geometries and has no epoch engine"
    else:
        reason = _integral(costs)
    return _sweep_bus(discipline, overhead) or reason


COLUMNAR = Engine(
    "columnar", MACHINE_RUN, REF_LEGACY, _columnar, ("columnar",)
)
COLUMNAR_ARB = Engine(
    "columnar+arb", MACHINE_RUN, REF_LEGACY,
    lambda protocol, costs, discipline, overhead: _fcfs(discipline) or (
        None if overhead else "bus-discipline:no arbitration overhead"
    ),
    ("columnar",),
)
LEGACY = Engine("legacy", MACHINE_RUN, None, lambda *_: None, ("legacy",))
# Deferred grants express every discipline, so a ``columnar`` request
# the synchronous bus cannot serve lands here.
ARBITRATED = Engine(
    "arbitrated", MACHINE_RUN, REF_DEFERRED, lambda *_: None,
    ("columnar", "arbitrated"),
)
# Membership is by name on purpose: beyond the contract flags, the
# one-pass engine maps each classifier opcode onto one fixed operation
# (a miss from memory, a through, a flush).
ONEPASS = Engine(
    "onepass", GEOMETRY_FAMILY, REF_MACHINE, _onepass,
    protocols=("base", "nocache", "swflush"),
)
EPOCH = Engine(
    "epoch", GEOMETRY_FAMILY, REF_MACHINE, _epoch, protocols=("dragon",)
)

#: Every engine, by label, in routing order.
ENGINES: dict[str, Engine] = {
    engine.label: engine
    for engine in (COLUMNAR, COLUMNAR_ARB, LEGACY, ARBITRATED, ONEPASS, EPOCH)
}
#: Protocols the one-pass engine handles.
ONEPASS_PROTOCOLS = ONEPASS.protocols
#: Geometry-coupled protocols the epoch engine handles.
FAMILY_PROTOCOLS = EPOCH.protocols

_REQUESTS = tuple(
    dict.fromkeys(r for engine in ENGINES.values() for r in engine.requests)
)


def machine_engine(
    requested: str,
    protocol: type[Protocol],
    costs: CostTable,
    bus_discipline: str,
    bus_arbitration_cycles: float,
) -> Engine:
    """The entry ``Machine.run(engine=requested)`` runs as: the first
    entry answering the request whose gate passes.

    Raises:
        ValueError: for a value no entry answers.
    """
    if requested not in _REQUESTS:
        accepted = ", ".join(repr(r) for r in _REQUESTS[:-1])
        raise ValueError(
            f"engine must be {accepted}, or {_REQUESTS[-1]!r}, "
            f"got {requested!r}"
        )
    return next(
        engine
        for engine in ENGINES.values()
        if requested in engine.requests
        and engine.gate(
            protocol, costs, bus_discipline, bus_arbitration_cycles
        )
        is None
    )


def deferred_grants(engine: Engine, bus_discipline: str) -> bool:
    """Whether a ``Machine.run`` entry runs over the ``ArbitratedBus``:
    when it is held to the ``deferred`` contract, or when the
    discipline needs deferred grants (the ``legacy`` label then runs
    the deferred-grant reference)."""
    return engine.reference == REF_DEFERRED or bool(_fcfs(bus_discipline))


def family_support(
    protocol: str | type[Protocol],
    costs: CostTable | None = None,
    bus_discipline: str = "fcfs",
    bus_arbitration_cycles: float = 0.0,
) -> tuple[str, str | None]:
    """How ``run_geometry_family`` will run this combination.

    Returns ``(label, None)`` for the first sweep engine whose gate
    passes, else ``(FALLBACK, reason)``: the refusal of the engine
    that serves the protocol, or of the last one when none does.  The
    reason is recorded in the run manifest via ``repro.obs.metrics``.
    """
    cls = protocol_class(protocol) if isinstance(protocol, str) else protocol
    table = costs if costs is not None else CostTable.bus()
    sweeps = (e for e in ENGINES.values() if e.entry == GEOMETRY_FAMILY)
    for engine in sweeps:
        reason = engine.gate(
            cls, table, bus_discipline, bus_arbitration_cycles
        )
        if reason is None:
            return engine.label, None
        if cls.name in engine.protocols:
            break
    return FALLBACK, reason
