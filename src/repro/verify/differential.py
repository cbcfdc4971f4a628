"""Differential runner: engines vs oracles vs the analytical model.

Every engine-vs-reference comparison goes through one function,
:func:`engine_divergence`: it runs an engine of the registry
(:mod:`repro.sim.engines`) and diffs it against the reference contract
that entry declares — the one reference loop over the synchronous bus
or over the deferred-grant bus, or one ``Machine.run`` per
configuration.

For each fuzzed case and protocol, six checks run in order (first
failure wins for that protocol):

1. **Engine diff** (``engine-diff:<order>``) — the columnar engine
   against its reference, for both replay orders.
2. **Invariants** — the columnar results must satisfy the global
   conservation laws of :mod:`repro.verify.invariants`.
3. **One-pass diff** (``onepass-diff:<order>``) — for protocols whose
   sweep :func:`repro.sim.family_support` routes to a family engine
   (one-pass or epoch), a family of the case's cache size plus a 4x
   larger one must engage that engine and match per-config replay at
   both sizes — both replay orders.
4. **Oracle shadow** — the protocol re-runs with every fast-path
   contract flag disabled while a per-line reference state machine
   (:mod:`repro.verify.oracles`) validates each transition and then
   reconciles its independently derived counters with the result.
5. **Shadow diff** — the shadowed run's statistics must equal the
   unshadowed columnar run's.  The shadow took the everything-is-slow
   path, so this differentially validates the fast-path contract
   flags (``read_hit_is_free``, ``store_hit_is_local``, …) and the
   static hit analysis they enable.
6. **Discipline sweep** (``discipline:<name>``) — the case re-runs on
   the deferred-grant arbitrated engine once per requested bus
   discipline.  Every run must equal the deferred-grant reference
   exactly and satisfy the conservation invariants; for the
   geometry-local protocols (whose outcomes are
   interleaving-independent) the ``fcfs`` arbitrated run must
   additionally reproduce the columnar statistics bit-for-bit, and
   every other discipline must conserve the order-independent
   counters (operation counts, misses, bus busy cycles, transactions)
   against the columnar baseline — a property across the two
   reference contracts, not an engine diff.

Cases the fuzzer marks ``model_comparable`` (statistically
well-behaved workload-like traces) additionally compare simulated
processing power against the analytical model inside the documented
:data:`MODEL_BANDS` relative-error tolerances — the paper's own
Section 3 validation, continuously re-run on random workloads.  The
adversarial shapes (ping-pong, hot lines, …) deliberately violate the
model's statistical assumptions, so no bands can hold there and the
model check is skipped for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core import BASE, DRAGON, NO_CACHE, SOFTWARE_FLUSH, BusSystem
from repro.core.operations import CostTable
from repro.sim.bus import DISCIPLINES
from repro.sim.engines import (
    ARBITRATED,
    COLUMNAR,
    ENGINES,
    FALLBACK,
    GEOMETRY_FAMILY,
    LEGACY,
    ONEPASS_PROTOCOLS,
    REF_DEFERRED,
    REF_MACHINE,
    Engine,
    family_support,
)
from repro.sim.machine import Machine, SimulationConfig, SimulationResult
from repro.sim.measure import measure_workload_params
from repro.sim.onepass import run_geometry_family
from repro.sim.protocols import Protocol
from repro.trace.records import Trace
from repro.verify.fuzzer import FuzzCase, generate_case
from repro.verify.invariants import (
    InvariantViolation,
    check_result_invariants,
)
from repro.verify.minimize import minimize_failing_trace
from repro.verify.oracles import OracleViolation, shadow_protocol

__all__ = [
    "MODEL_BANDS",
    "PAPER_PROTOCOLS",
    "FuzzFailure",
    "check_case",
    "engine_divergence",
    "minimize_failure",
    "oracle_run",
    "run_seed",
    "seed_worker",
    "stats_signature",
]

#: The four schemes the acceptance sweep must cover (the paper's
#: software schemes plus the two hardware reference points it models).
PAPER_PROTOCOLS = ("dragon", "wti", "swflush", "nocache")

#: Simulator protocol name -> analytical-model scheme.  WTI has no
#: bus-model counterpart in :mod:`repro.core.schemes`, so it is
#: engine/oracle-checked only.
_MODEL_SCHEMES = {
    "base": BASE,
    "dragon": DRAGON,
    "nocache": NO_CACHE,
    "swflush": SOFTWARE_FLUSH,
}

#: Documented relative-error tolerance of model vs simulation
#: processing power, per protocol, on ``model_comparable`` fuzz cases.
#: The paper reports the model "generally within 25%" of its simulator
#: on real traces (Section 3); our synthetic workloads are smaller and
#: noisier (hundreds-to-thousands of references per CPU, so miss-rate
#: estimates carry sampling error the paper's multi-million-reference
#: traces do not).  Bands are set from the empirical error
#: distribution over the first 200 fuzzer seeds (observed maxima:
#: base 0.23, dragon 0.22, nocache 0.16, swflush 0.28) with headroom;
#: Software-Flush inherits extra error from the flush-overhead
#: approximation, hence the wider band.
MODEL_BANDS: dict[str, float] = {
    "base": 0.35,
    "dragon": 0.35,
    "nocache": 0.35,
    "swflush": 0.45,
}


@dataclass(frozen=True)
class FuzzFailure:
    """One reproducible divergence, in picklable primitives.

    ``check`` identifies the failing stage: ``engine-diff:<order>``,
    ``invariants:<order>``, ``onepass-diff:<order>``, ``oracle``,
    ``shadow-diff``, ``discipline:<name>``, or ``model-band``.
    """

    seed: int
    shape: str
    protocol: str
    check: str
    message: str


def stats_signature(result: SimulationResult) -> tuple:
    """Everything a run reports, as one comparable tuple.

    Floats are included exactly (no rounding): the engines promise
    identical arithmetic, so equality is the contract.
    """
    protocol_stats = result.protocol_stats
    return (
        result.protocol,
        tuple(
            (
                cpu.instructions,
                cpu.loads,
                cpu.stores,
                cpu.flushes,
                cpu.clock,
                cpu.wait_cycles,
                cpu.stolen_cycles,
            )
            for cpu in result.cpus
        ),
        tuple(
            sorted(
                (operation.value, count)
                for operation, count in result.operation_counts.items()
                if count
            )
        ),
        result.fetch_misses,
        result.data_misses,
        result.dirty_victim_misses,
        result.shared_loads,
        result.shared_stores,
        result.shared_data_misses,
        result.bus_busy_cycles,
        result.bus_transactions,
        None
        if protocol_stats is None
        else tuple(sorted(vars(protocol_stats).items())),
    )


_SIGNATURE_FIELDS = (
    "protocol",
    "per-cpu stats (instructions, loads, stores, flushes, clock, "
    "waits, steals)",
    "operation counts",
    "fetch_misses",
    "data_misses",
    "dirty_victim_misses",
    "shared_loads",
    "shared_stores",
    "shared_data_misses",
    "bus_busy_cycles",
    "bus_transactions",
    "protocol_stats",
    "bus_arbitration_cycles",
)


def _signature(result: SimulationResult) -> tuple:
    """:func:`stats_signature` plus the arbitration busy cycles, which
    the perfbench digest does not hash but the engines must agree on."""
    return stats_signature(result) + (result.bus_arbitration_cycles,)


def _describe_divergence(left: tuple, right: tuple) -> str:
    for field_name, a, b in zip(_SIGNATURE_FIELDS, left, right):
        if a != b:
            return f"{field_name}: {a!r} != {b!r}"
    return "signatures differ"


def oracle_run(
    trace: Trace,
    config: SimulationConfig,
    protocol,
    order: str = "time",
    engine: str = "columnar",
) -> SimulationResult:
    """Replay ``trace`` under oracle shadow.

    Every transition is validated as it happens and the oracle's
    counters are reconciled with the result afterwards.

    Raises:
        OracleViolation: on the first rule the run breaks.
    """
    sink: list = []
    machine = Machine(shadow_protocol(protocol, sink), config)
    result = machine.run(trace, order=order, engine=engine)
    sink[-1].finalize(result)
    return result


def check_case(
    case: FuzzCase,
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    compare_model: bool = True,
    disciplines: Sequence[str] = DISCIPLINES,
) -> list[FuzzFailure]:
    """All verification failures of one fuzz case (empty = clean)."""
    failures: list[FuzzFailure] = []
    baseline: dict[str, SimulationResult] = {}
    for protocol in protocols:
        failure, result = _check_protocol(case, protocol, disciplines)
        if failure is not None:
            failures.append(failure)
        elif result is not None:
            baseline[protocol] = result
    if compare_model and case.model_comparable:
        failures.extend(_check_model(case, baseline))
    return failures


def run_seed(
    seed: int,
    scale: float = 1.0,
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    compare_model: bool = True,
    disciplines: Sequence[str] = DISCIPLINES,
) -> list[FuzzFailure]:
    """Generate the case for ``seed`` and run every check on it."""
    case = generate_case(seed, scale=scale)
    return check_case(
        case,
        protocols=protocols,
        compare_model=compare_model,
        disciplines=disciplines,
    )


def seed_worker(
    item: tuple[int, float, tuple[str, ...], bool, tuple[str, ...]]
) -> list[FuzzFailure]:
    """Module-level (picklable) worker for parallel fuzz sweeps."""
    seed, scale, protocols, compare_model, disciplines = item
    return run_seed(
        seed,
        scale=scale,
        protocols=protocols,
        compare_model=compare_model,
        disciplines=disciplines,
    )


def _run(
    trace: Trace,
    config: SimulationConfig,
    protocol: str,
    order: str,
) -> SimulationResult:
    return Machine(protocol, config).run(trace, order=order)


def engine_divergence(
    engine: Engine,
    protocol,
    trace: Trace,
    config: SimulationConfig,
    order: str = "time",
    costs: CostTable | None = None,
    sizes: Sequence[int] = (),
    reference: SimulationResult | None = None,
) -> tuple[SimulationResult, str | None]:
    """Run ``engine`` at ``config`` and diff it against the reference
    contract its registry entry declares (:mod:`repro.sim.engines`).

    A sweep engine runs the family of ``config.cache_bytes`` plus
    ``sizes``, each member diffed against its own configuration;
    ``reference`` may supply the reference result at ``config``.
    Returns the engine's result at ``config`` and the first divergence
    (``None`` when the engine engaged and matched exactly).
    """
    if engine.entry == GEOMETRY_FAMILY:
        family = run_geometry_family(
            protocol,
            trace,
            (config.cache_bytes, *sizes),
            block_bytes=config.block_bytes,
            associativity=config.associativity,
            costs=costs,
            order=order,
            bus_discipline=config.bus_discipline,
            bus_arbitration_cycles=config.bus_arbitration_cycles,
        )
        runs = {
            replace(config, cache_bytes=size): run
            for size, run in family.items()
        }
    else:
        request = (
            engine.label
            if engine.label in engine.requests
            else engine.requests[0]
        )
        machine = Machine(protocol, config, costs)
        runs = {config: machine.run(trace, order=order, engine=request)}
    for member, run in runs.items():
        if run.engine != engine.label:
            return runs[config], (
                f"{engine.label} engine not engaged (engine={run.engine!r})"
            )
        if engine.reference is None:
            continue  # the label runs the reference loop itself
        expected = reference if member == config else None
        if expected is None:
            machine = Machine(protocol, member, costs)
            if engine.reference == REF_MACHINE:
                expected = machine.run(trace, order=order)
            else:
                expected = machine._replay(
                    trace, order, LEGACY,
                    deferred=engine.reference == REF_DEFERRED,
                )
        left, right = _signature(run), _signature(expected)
        if left != right:
            where = f" at {member.cache_bytes}B" if len(runs) > 1 else ""
            return runs[config], (
                f"{engine.label} vs {engine.reference} reference{where}: "
                + _describe_divergence(left, right)
            )
    return runs[config], None


def _onepass_divergence(
    trace: Trace,
    config: SimulationConfig,
    protocol: str,
    order: str,
    columnar: SimulationResult | None = None,
) -> str | None:
    """Why the protocol's sweep engine diverges (None = ok), over the
    case's cache size plus a 4x larger one."""
    _, message = engine_divergence(
        ENGINES[family_support(protocol)[0]],
        protocol,
        trace,
        config,
        order,
        sizes=(config.cache_bytes * 4,),
        reference=columnar,
    )
    return message


#: Order-independent counters every bus discipline must conserve for
#: the geometry-local protocols (whose outcomes never depend on the
#: cross-CPU interleaving the arbiter chooses).
_CONSERVED_FIELDS = (
    "fetch_misses",
    "data_misses",
    "dirty_victim_misses",
    "shared_loads",
    "shared_stores",
    "shared_data_misses",
    "bus_busy_cycles",
    "bus_transactions",
)


def _conserved_mismatch(
    run: SimulationResult, baseline: SimulationResult
) -> str | None:
    """First order-independent counter the two runs disagree on."""
    left = sorted(
        (operation.value, count)
        for operation, count in run.operation_counts.items()
        if count
    )
    right = sorted(
        (operation.value, count)
        for operation, count in baseline.operation_counts.items()
        if count
    )
    if left != right:
        return f"operation counts: {left!r} != {right!r}"
    for field_name in _CONSERVED_FIELDS:
        a = getattr(run, field_name)
        b = getattr(baseline, field_name)
        if a != b:
            return f"{field_name}: {a!r} != {b!r}"
    return None


def _discipline_divergence(
    trace: Trace,
    config: SimulationConfig,
    protocol: str,
    discipline: str,
    columnar: SimulationResult,
) -> str | None:
    """Why the arbitrated engine under ``discipline`` fails (None = ok).

    Every discipline's run must equal its declared reference
    (:func:`engine_divergence`) and satisfy the conservation
    invariants.  For the geometry-local protocols the ``fcfs``
    arbitrated run must also match the columnar baseline bit-for-bit,
    and every other discipline must conserve the order-independent
    counters — only clocks and waits may move with the grant order.
    """
    run, message = engine_divergence(
        ARBITRATED, protocol, trace, replace(config, bus_discipline=discipline)
    )
    if message is not None:
        return message
    try:
        check_result_invariants(run, trace=trace)
    except InvariantViolation as violation:
        return f"invariants under {discipline} arbitration: {violation}"
    if protocol in ONEPASS_PROTOCOLS:
        if discipline == "fcfs":
            left, right = stats_signature(run), stats_signature(columnar)
            if left != right:
                return (
                    "fcfs arbitrated vs columnar: "
                    + _describe_divergence(left, right)
                )
        else:
            mismatch = _conserved_mismatch(run, columnar)
            if mismatch is not None:
                return f"{discipline} vs columnar baseline: {mismatch}"
    return None


def _check_protocol(
    case: FuzzCase, protocol: str, disciplines: Sequence[str] = DISCIPLINES
) -> tuple[FuzzFailure | None, SimulationResult | None]:
    """First failure (or None) plus the columnar time-order result."""

    def failure(check: str, message: str) -> FuzzFailure:
        return FuzzFailure(
            seed=case.seed,
            shape=case.shape,
            protocol=protocol,
            check=check,
            message=message,
        )

    time_result = None
    sweep, _ = family_support(protocol)
    for order in ("time", "trace"):
        columnar, message = engine_divergence(
            COLUMNAR, protocol, case.trace, case.config, order
        )
        if message is not None:
            return failure(f"engine-diff:{order}", message), None
        try:
            check_result_invariants(columnar, trace=case.trace)
        except InvariantViolation as violation:
            return failure(f"invariants:{order}", str(violation)), None
        if sweep != FALLBACK:
            message = _onepass_divergence(
                case.trace, case.config, protocol, order, columnar
            )
            if message is not None:
                return failure(f"onepass-diff:{order}", message), None
        if order == "time":
            time_result = columnar

    try:
        shadowed = oracle_run(case.trace, case.config, protocol)
    except OracleViolation as violation:
        return failure("oracle", str(violation)), None
    shadow_sig = stats_signature(shadowed)
    plain_sig = stats_signature(time_result)
    if shadow_sig != plain_sig:
        return (
            failure(
                "shadow-diff",
                "all-slow-path shadow vs fast-path columnar: "
                + _describe_divergence(shadow_sig, plain_sig),
            ),
            None,
        )

    for discipline in disciplines:
        message = _discipline_divergence(
            case.trace, case.config, protocol, discipline, time_result
        )
        if message is not None:
            return failure(f"discipline:{discipline}", message), None
    return None, time_result


def _check_model(
    case: FuzzCase, baseline: dict[str, SimulationResult]
) -> list[FuzzFailure]:
    """Model-vs-simulation processing power inside MODEL_BANDS."""
    protocols = [p for p in baseline if p in _MODEL_SCHEMES]
    if not protocols:
        return []
    dragon_result = baseline.get("dragon")
    if dragon_result is None:
        dragon_result = _run(case.trace, case.config, "dragon", "time")
    params = measure_workload_params(
        case.trace, case.config, dragon_result
    )
    bus = BusSystem()
    failures = []
    for protocol in protocols:
        simulated = baseline[protocol].processing_power
        predicted = bus.evaluate(
            _MODEL_SCHEMES[protocol], params, case.trace.cpus
        ).processing_power
        if simulated <= 0.0:
            continue
        relative_error = abs(predicted - simulated) / simulated
        band = MODEL_BANDS[protocol]
        if relative_error > band:
            failures.append(
                FuzzFailure(
                    seed=case.seed,
                    shape=case.shape,
                    protocol=protocol,
                    check="model-band",
                    message=(
                        f"model {predicted:.3f} vs simulation "
                        f"{simulated:.3f} processing power: relative "
                        f"error {relative_error:.1%} exceeds the "
                        f"{band:.0%} band"
                    ),
                )
            )
    return failures


def _failure_predicate(
    failure: FuzzFailure,
    config: SimulationConfig,
    protocol: str | type[Protocol] | None = None,
) -> Callable[[Trace], bool] | None:
    """A pure 'does this trace still fail the same check' predicate.

    ``protocol`` defaults to the failure's protocol name; the explorer
    passes the class it explored, so a counterexample found on a
    deliberately broken subclass shrinks against that same subclass,
    under the criterion ``swcc fuzz --replay`` applies.

    Model-band failures are statistical properties of whole workloads,
    not of any single record, so they are not minimizable.
    """
    if protocol is None:
        protocol = failure.protocol
    stage, _, arg = failure.check.partition(":")

    def predicate(trace: Trace) -> bool:
        if stage in ("engine-diff", "invariants"):
            columnar, message = engine_divergence(
                COLUMNAR, protocol, trace, config, arg
            )
            if message is not None:
                return True
            try:
                check_result_invariants(columnar, trace=trace)
            except InvariantViolation:
                return True
            return False
        if stage == "onepass-diff":
            return (
                _onepass_divergence(trace, config, protocol, arg) is not None
            )
        if stage == "discipline":
            columnar = _run(trace, config, protocol, "time")
            return (
                _discipline_divergence(trace, config, protocol, arg, columnar)
                is not None
            )
        # "oracle" (fuzzer, time order), "oracle:<order>" (the explorer
        # replays its interleavings in trace order) or "shadow-diff".
        order = arg or "time"
        try:
            shadowed = oracle_run(trace, config, protocol, order=order)
        except OracleViolation:
            return True
        plain = _run(trace, config, protocol, order)
        return stats_signature(shadowed) != stats_signature(plain)

    stages = ("engine-diff", "invariants", "onepass-diff", "discipline")
    if stage in stages + ("oracle", "shadow-diff"):
        return predicate
    return None


def minimize_failure(
    failure: FuzzFailure, case: FuzzCase, max_checks: int = 48
) -> Trace | None:
    """Shrink the failing case's trace; None if not minimizable."""
    predicate = _failure_predicate(failure, case.config)
    if predicate is None:
        return None
    return minimize_failing_trace(
        case.trace, predicate, max_checks=max_checks
    )
