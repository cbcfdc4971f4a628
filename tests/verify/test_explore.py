"""Exhaustive small-model exploration: clean protocols close their
state space, injected bugs yield minimized replayable counterexamples.
"""

import pytest

from repro.core.operations import Operation
from repro.sim.cache import LineState
from repro.sim.protocols.hybrid import Hybrid2Protocol
from repro.sim.protocols.interface import NO_ACTION, AccessOutcome
from repro.sim.protocols.wti import WriteThroughInvalidateProtocol
from repro.trace.records import AccessType
from repro.verify import (
    ORACLES,
    ExploreBounds,
    OracleViolation,
    explore_protocol,
    load_failure_artifact,
    oracle_run,
    replay_artifact,
    write_counterexample,
)
from repro.verify.artifact import _rebuild
from repro.verify.differential import _failure_predicate
from repro.verify.explore import path_trace

SMALL = ExploreBounds(cpus=2, lines=1, sets=1, depth=8, conformance=32)


class BrokenWti(WriteThroughInvalidateProtocol):
    """Bug: stores no longer invalidate remote copies."""

    def access(self, cpu, kind, block):
        cache = self.caches[cpu]
        state = cache.lookup(block)
        if kind is not AccessType.STORE:
            if state is not LineState.INVALID:
                return NO_ACTION
            cache.insert(block, LineState.CLEAN)
            return AccessOutcome((Operation.CLEAN_MISS_MEMORY,))
        # The invalidation loop is missing here.
        if state is not LineState.INVALID:
            return AccessOutcome((Operation.WRITE_THROUGH,))
        cache.insert(block, LineState.CLEAN)
        return AccessOutcome(
            (Operation.CLEAN_MISS_MEMORY, Operation.WRITE_THROUGH)
        )


class BrokenHybrid(Hybrid2Protocol):
    """Bug: pressure reaches the threshold but never kills the copy."""

    def _broadcast(self, cpu, block, holders):
        self.stats.broadcasts += 1
        self.stats.broadcast_holders += len(holders)
        for holder in holders:
            key = (holder, block)
            # The `count >= k` kill branch is missing here.
            self._pressure[key] = self._pressure.get(key, 0) + 1
            self.caches[holder].set_state(block, LineState.SHARED_CLEAN)
            self.stats.updates += 1
        self.caches[cpu].set_state(block, LineState.SHARED_DIRTY)
        return AccessOutcome(
            (Operation.WRITE_BROADCAST,), steal_from=tuple(holders)
        )


class TestBounds:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"cpus": 1}, "cpus must be in"),
            ({"cpus": 9}, "cpus must be in"),
            ({"lines": 0}, "lines per set"),
            ({"lines": 5}, "lines per set"),
            ({"sets": 3}, "sets must be 1, 2, or 4"),
            ({"depth": 0}, "depth must be >= 1"),
            ({"depth": -4}, "depth must be >= 1"),
            ({"max_states": 0}, "max-states must be >= 1"),
            ({"max_states": -5}, "max-states must be >= 1"),
            ({"conformance": -1}, "conformance must be >= 0"),
        ],
    )
    def test_nonsensical_bounds_are_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExploreBounds(**kwargs)

    def test_geometry_derivation(self):
        bounds = ExploreBounds(cpus=3, lines=2, sets=2)
        config = bounds.config
        assert config.associativity == 2
        assert config.cache_bytes == 2 * 2 * config.block_bytes
        # One more shared block than ways per set: shared evictions
        # are reachable.
        assert len(bounds.shared_blocks) == 2 * (2 + 1)
        assert len(bounds.private_blocks) == 2
        first = bounds.shared_blocks[0] * config.block_bytes
        assert bounds.shared_region.start == first


class TestCleanProtocolsAreExhaustive:
    @pytest.mark.parametrize("protocol", sorted(ORACLES))
    def test_small_model_closes_with_zero_violations(self, protocol):
        report = explore_protocol(protocol, SMALL)
        assert report.violation is None
        assert report.exhaustive
        assert not report.truncated
        # At 2 cpus / 1 line / 1 set every protocol's reachable set
        # closes before depth 8 (frontier empty == the guarantee holds
        # at every depth, not just the bound).
        assert report.frontier == 0
        assert report.states >= 9
        assert report.edges >= report.states - 1
        assert report.conformance_checked > 0

    def test_exploration_is_deterministic(self):
        first = explore_protocol("dragon", SMALL)
        second = explore_protocol("dragon", SMALL)
        assert (first.states, first.edges, first.depth_reached) == (
            second.states,
            second.edges,
            second.depth_reached,
        )

    def test_state_budget_reports_truncation(self):
        starved = ExploreBounds(
            cpus=2, lines=1, sets=1, depth=8, max_states=5, conformance=0
        )
        report = explore_protocol("dragon", starved)
        assert report.truncated
        assert not report.exhaustive
        assert report.violation is None

    def test_unknown_protocol_is_rejected(self):
        class Nameless(WriteThroughInvalidateProtocol):
            name = "mystery"

        with pytest.raises(ValueError, match="no oracle"):
            explore_protocol(Nameless, SMALL)


class TestMutantYieldsCounterexample:
    @pytest.fixture(scope="class")
    def report(self):
        bounds = ExploreBounds(
            cpus=2, lines=1, sets=1, depth=8, conformance=0
        )
        return explore_protocol(BrokenWti, bounds)

    def test_violation_is_found_with_a_shortest_path(self, report):
        violation = report.violation
        assert violation is not None
        assert violation.failure.check == "oracle:trace"
        assert violation.failure.protocol == "wti"
        assert "missing invalidation" in violation.failure.message
        # BFS finds the 2-record shortest trigger: a remote fill, then
        # the store that should have killed it.
        assert len(violation.trace) == 2

    def test_counterexample_trace_replays_the_failure(self, report):
        bounds = report.bounds
        with pytest.raises(OracleViolation):
            oracle_run(
                report.violation.trace,
                bounds.config,
                BrokenWti,
                order="trace",
            )
        # The shipped implementation is clean on the same trace.
        oracle_run(
            report.violation.trace, bounds.config, "wti", order="trace"
        )

    def test_artifact_round_trip(self, report, tmp_path):
        bounds = report.bounds
        path, minimized = write_counterexample(
            report.violation, BrokenWti, bounds.config, tmp_path
        )
        assert path.exists()
        assert len(minimized) <= len(report.violation.trace)
        artifact = load_failure_artifact(path)
        rebuilt_trace, rebuilt_config = _rebuild(artifact)
        assert rebuilt_config == bounds.config
        predicate = _failure_predicate(
            report.violation.failure, bounds.config, BrokenWti
        )
        assert predicate(rebuilt_trace)
        # swcc fuzz --replay checks the *real* wti, which is clean.
        assert replay_artifact(artifact) is None


class TestHybridMutantYieldsCounterexample:
    """The pressure model is part of the checked state: a hybrid that
    keeps updating past the kill threshold is caught on the first store
    where the oracle's independent counters demand an invalidation."""

    @pytest.fixture(scope="class")
    def report(self):
        bounds = ExploreBounds(
            cpus=2, lines=1, sets=1, depth=8, conformance=0
        )
        return explore_protocol(BrokenHybrid, bounds)

    def test_violation_is_found_with_a_shortest_path(self, report):
        violation = report.violation
        assert violation is not None
        assert violation.failure.check == "oracle:trace"
        assert violation.failure.protocol == "hybrid-2"
        # With every remote copy doomed the writer must end exclusive;
        # the mutant's wrongly-surviving holder keeps it SHARED_DIRTY.
        assert "expected post-state DIRTY" in violation.failure.message
        # BFS's shortest trigger at k = 2: a remote fill, the store
        # whose broadcast the copy legitimately absorbs (pressure 1),
        # and the consecutive store that should have killed it.
        assert len(violation.trace) == 3

    def test_counterexample_trace_replays_the_failure(self, report):
        bounds = report.bounds
        with pytest.raises(OracleViolation):
            oracle_run(
                report.violation.trace,
                bounds.config,
                BrokenHybrid,
                order="trace",
            )
        # The shipped implementation is clean on the same trace.
        oracle_run(
            report.violation.trace, bounds.config, "hybrid-2", order="trace"
        )

    def test_artifact_round_trip(self, report, tmp_path):
        bounds = report.bounds
        path, minimized = write_counterexample(
            report.violation, BrokenHybrid, bounds.config, tmp_path
        )
        assert path.exists()
        assert len(minimized) <= len(report.violation.trace)
        artifact = load_failure_artifact(path)
        predicate = _failure_predicate(
            report.violation.failure, bounds.config, BrokenHybrid
        )
        rebuilt_trace, _ = _rebuild(artifact)
        assert predicate(rebuilt_trace)
        # swcc fuzz --replay checks the *real* hybrid, which is clean.
        assert replay_artifact(artifact) is None


class TestEpochFamilyConformance:
    """Dragon's epoch family is replayed at every conformance state:
    a family engine that drifts from columnar is a counterexample."""

    def test_clean_dragon_runs_the_epoch_family(self, monkeypatch):
        # The engine diff the explorer calls runs the family.
        import repro.verify.differential as differential

        engines = []
        real = differential.run_geometry_family

        def spy(*args, **kwargs):
            family = real(*args, **kwargs)
            engines.extend(run.engine for run in family.values())
            return family

        monkeypatch.setattr(differential, "run_geometry_family", spy)
        report = explore_protocol("dragon", SMALL)
        assert report.exhaustive
        assert engines and set(engines) == {"epoch"}

    @pytest.fixture
    def forgetful_family(self, monkeypatch):
        """Bug: the family resolver drops every broadcast's cycle-steal
        charges (the sharers' clocks never move)."""
        import repro.sim.family as family

        real = family.replay_events

        def forgets_steals(*args):
            *head, resolve = args

            def resolve_without_steals(cpu, i):
                return resolve(cpu, i)._replace(steal_from=())

            return real(*head, resolve_without_steals)

        monkeypatch.setattr(family, "replay_events", forgets_steals)

    def test_family_mutant_yields_counterexample(self, forgetful_family):
        report = explore_protocol("dragon", SMALL)
        violation = report.violation
        assert violation is not None
        assert violation.failure.check == "onepass-diff:trace"
        assert violation.failure.protocol == "dragon"
        assert "steals" in violation.failure.message
        # Shortest trigger: a remote fill, then the broadcasting store.
        assert len(violation.trace) == 2

    def test_counterexample_minimizes_and_replays_alike(
        self, forgetful_family, tmp_path
    ):
        # The explorer shrinks under the predicate `swcc fuzz --replay`
        # applies, so the minimized artifact reproduces on replay
        # while the bug is present.
        report = explore_protocol("dragon", SMALL)
        violation = report.violation
        path, minimized = write_counterexample(
            violation, "dragon", report.bounds.config, tmp_path
        )
        assert _failure_predicate(
            violation.failure, report.bounds.config
        )(minimized)
        replayed = replay_artifact(load_failure_artifact(path))
        assert replayed is not None
        assert replayed.check == "onepass-diff:trace"


class TestPathTrace:
    def test_actions_become_records_in_order(self):
        bounds = SMALL
        block = bounds.shared_blocks[0]
        trace = path_trace(
            [(0, AccessType.LOAD, block), (1, AccessType.STORE, block)],
            bounds,
        )
        assert len(trace) == 2
        assert list(trace.cpu) == [0, 1]
        assert list(trace.kind) == [
            int(AccessType.LOAD),
            int(AccessType.STORE),
        ]
        assert trace.address[0] == block * bounds.config.block_bytes
        assert trace.cpus == bounds.cpus
