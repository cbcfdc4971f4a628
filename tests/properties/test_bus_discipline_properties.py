"""Property-based tests for the bus arbitration disciplines.

Two satellite guarantees of the arbitration refactor:

* ``fcfs`` is byte-identical to the pre-refactor bus — the
  :class:`~repro.sim.bus.TimedBus` grant arithmetic is the exact
  ``max(free_at, ready)`` fold, and a default-discipline ``Machine``
  run reproduces the legacy engine (and, for geometry-local
  protocols, the deferred-grant arbitrated engine) counter for
  counter across fuzzer traces.
* Every non-FCFS discipline conserves the oracle invariants: total
  busy cycles equal the cost-weighted bus operations and transaction
  counts equal the operations with bus time, per
  :mod:`repro.verify.invariants`.
* fcfs with an integral arbitration overhead folds into the
  synchronous engines (``columnar+arb`` and the one-pass family
  merges); the folded accounting must match the deferred-grant
  ``engine="arbitrated"`` reference exactly.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DISCIPLINES,
    Machine,
    SimulationConfig,
    TimedBus,
    run_geometry_family,
)
from repro.sim.bus import ArbitratedBus
from repro.sim.onepass import ONEPASS_PROTOCOLS
from repro.trace.records import Trace
from repro.verify.differential import stats_signature
from repro.verify.fuzzer import generate_case
from repro.verify.invariants import check_result_invariants

transactions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.5, max_value=64.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

seeds = st.integers(min_value=0, max_value=2_000)

references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # cpu (of 3)
        st.integers(min_value=0, max_value=3),  # kind incl. FLUSH
        st.integers(min_value=0, max_value=23),  # block
    ),
    min_size=1,
    max_size=150,
)


def build_trace(refs):
    cpu = np.array([r[0] for r in refs], dtype=np.uint16)
    kind = np.array([r[1] for r in refs], dtype=np.uint8)
    address = np.array([r[2] * 16 for r in refs], dtype=np.uint64)
    # Blocks 12..23 are shared.
    return Trace.from_arrays(
        name="hyp-arb",
        cpus=3,
        shared_region=range(12 * 16, 24 * 16),
        cpu=cpu,
        kind=kind,
        address=address,
    )


class TestTimedBusGrantArithmetic:
    @settings(max_examples=100)
    @given(transactions)
    def test_fcfs_grants_are_the_reference_fold(self, requests):
        # The pre-refactor bus computed, in call order,
        # grant = max(free_at, ready); free_at = grant + hold.
        bus = TimedBus()
        free_at = 0.0
        busy = 0.0
        for ready, hold in requests:
            grant, wait = bus.transact(ready, hold)
            expected = free_at if free_at > ready else ready
            assert grant == expected
            assert wait == grant - ready
            free_at = expected + hold
            busy += hold
        assert bus.free_at == free_at
        assert bus.busy_cycles == busy
        assert bus.transactions == len(requests)

    @settings(max_examples=60)
    @given(transactions)
    def test_arbitrated_fcfs_matches_timed_bus_in_ready_order(
        self, requests
    ):
        # Posted one at a time in ready order (how the replay engine
        # drives it), the deferred-grant fcfs bus degenerates to the
        # synchronous fold.
        ordered = sorted(requests, key=lambda r: r[0])
        timed = TimedBus()
        arbitrated = ArbitratedBus(1)
        for ready, hold in ordered:
            expected_grant, expected_wait = timed.transact(ready, hold)
            arbitrated.request(0, ready, hold)
            cpu, grant, wait = arbitrated.grant_next()
            assert (grant, wait) == (expected_grant, expected_wait)
        assert arbitrated.busy_cycles == timed.busy_cycles
        assert arbitrated.transactions == timed.transactions


class TestDisciplineConservation:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_fcfs_is_byte_identical_across_engines(self, seed):
        case = generate_case(seed, scale=0.25)
        for protocol in ONEPASS_PROTOCOLS:
            columnar = Machine(protocol, case.config).run(case.trace)
            legacy = Machine(protocol, case.config).run(
                case.trace, engine="legacy"
            )
            arbitrated = Machine(protocol, case.config).run(
                case.trace, engine="arbitrated"
            )
            reference = stats_signature(columnar)
            assert stats_signature(legacy) == reference
            assert stats_signature(arbitrated) == reference

    @settings(max_examples=6, deadline=None)
    @given(seeds, st.sampled_from(["dragon", "wti", "swflush"]))
    def test_non_fcfs_disciplines_conserve_bus_accounting(
        self, seed, protocol
    ):
        case = generate_case(seed, scale=0.25)
        baseline = Machine(protocol, case.config).run(case.trace)
        for discipline in DISCIPLINES:
            if discipline == "fcfs":
                continue
            config = dataclasses.replace(
                case.config,
                bus_discipline=discipline,
                bus_arbitration_cycles=2.0,
            )
            run = Machine(protocol, config).run(case.trace)
            assert run.engine == "arbitrated"
            # The oracle invariants: busy cycles == cost-weighted bus
            # operations, transactions == operations with bus time.
            check_result_invariants(run, trace=case.trace)
            if protocol in ONEPASS_PROTOCOLS:
                # Geometry-local outcomes are interleaving-independent,
                # so the totals must equal the fcfs baseline exactly.
                assert run.bus_busy_cycles == baseline.bus_busy_cycles
                assert run.bus_transactions == baseline.bus_transactions


class TestFoldedArbitrationEquivalence:
    # The synchronous engines serve bus transactions in call order
    # (each record's transactions are issued atomically), while the
    # deferred ArbitratedBus interleaves parked requests.  The two
    # coincide exactly for the single-transaction-per-record one-pass
    # protocols — the same scope PR 9 pinned for fcfs bit-identity —
    # so the fold is held to the deferred reference there, and to the
    # retained synchronous reference (columnar+arb) for the coupled
    # family protocols.
    @settings(max_examples=25, deadline=None)
    @given(
        references,
        st.sampled_from([1.0, 2.0, 4.0]),
        st.sampled_from(["base", "nocache", "swflush"]),
    )
    def test_folded_fcfs_overhead_matches_arbitrated(
        self, refs, overhead, protocol
    ):
        trace = build_trace(refs)
        config = SimulationConfig(
            cache_bytes=256,
            block_bytes=16,
            associativity=2,
            bus_arbitration_cycles=overhead,
        )
        machine = Machine(protocol, config)
        folded = machine.run(trace)
        assert folded.engine == "columnar+arb"
        deferred = machine.run(trace, engine="arbitrated")
        assert deferred.engine == "arbitrated"
        assert stats_signature(folded) == stats_signature(deferred)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_family_folds_overhead_on_fuzz_shapes(self, seed):
        case = generate_case(seed, scale=0.2)
        size = case.config.cache_bytes
        config = dataclasses.replace(
            case.config, bus_arbitration_cycles=4.0
        )
        for protocol in ("wti", "dragon", "base", "nocache", "swflush"):
            for order in ("time", "trace"):
                family = run_geometry_family(
                    protocol, case.trace, (size,),
                    block_bytes=case.config.block_bytes,
                    associativity=case.config.associativity,
                    order=order,
                    bus_arbitration_cycles=4.0,
                )
                reference = Machine(protocol, config).run(
                    case.trace, order=order
                )
                assert reference.engine == "columnar+arb"
                assert stats_signature(family[size]) == stats_signature(
                    reference
                )
                # Not in stats_signature: the merge rebuilds it as
                # overhead x transactions instead of summing per grant.
                assert (
                    family[size].bus_arbitration_cycles
                    == reference.bus_arbitration_cycles
                )
