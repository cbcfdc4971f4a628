"""Differential runner: clean sweeps, signatures, failure plumbing."""

import pickle

import pytest

from repro.sim import Machine, family_support
from repro.sim.bus import DISCIPLINES
from repro.verify import (
    MODEL_BANDS,
    PAPER_PROTOCOLS,
    FuzzFailure,
    check_case,
    generate_case,
    minimize_failure,
    run_seed,
    stats_signature,
)
from repro.verify.differential import (
    _MODEL_SCHEMES,
    _describe_divergence,
    seed_worker,
)


class TestCleanSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_is_clean(self, seed):
        assert run_seed(seed, scale=0.4) == []

    def test_seed_worker_matches_run_seed(self):
        item = (1, 0.4, PAPER_PROTOCOLS, True, DISCIPLINES)
        assert seed_worker(item) == run_seed(1, scale=0.4)

    def test_protocol_subset_is_respected(self):
        case = generate_case(0, scale=0.3)
        assert check_case(case, protocols=("wti",)) == []

    @pytest.mark.slow
    def test_two_hundred_seed_acceptance_sweep(self):
        # The ISSUE acceptance criterion, runnable directly:
        # zero divergences and zero oracle violations over 200 seeds.
        failures = [f for seed in range(200) for f in run_seed(seed)]
        assert failures == []


class TestStatsSignature:
    def test_identical_runs_have_identical_signatures(self):
        case = generate_case(2, scale=0.3)
        a = Machine("dragon", case.config).run(case.trace)
        b = Machine("dragon", case.config).run(case.trace)
        assert stats_signature(a) == stats_signature(b)

    def test_counter_change_changes_signature(self):
        case = generate_case(2, scale=0.3)
        result = Machine("wti", case.config).run(case.trace)
        before = stats_signature(result)
        result.fetch_misses += 1
        after = stats_signature(result)
        assert before != after
        assert "fetch_misses" in _describe_divergence(before, after)

    def test_divergence_names_the_first_differing_field(self):
        case = generate_case(2, scale=0.3)
        result = Machine("swflush", case.config).run(case.trace)
        before = stats_signature(result)
        result.bus_transactions += 1
        description = _describe_divergence(
            before, stats_signature(result)
        )
        assert "bus_transactions" in description


class TestModelBands:
    def test_bands_cover_exactly_the_modelled_schemes(self):
        assert set(MODEL_BANDS) == set(_MODEL_SCHEMES)

    def test_bands_are_sane_fractions(self):
        for band in MODEL_BANDS.values():
            assert 0.0 < band < 1.0

    def test_wti_has_no_model_counterpart(self):
        assert "wti" not in _MODEL_SCHEMES


class TestOnepassDiff:
    def test_stage_runs_for_geometry_local_protocols(self, monkeypatch):
        import repro.verify.differential as diff

        calls = []
        real = diff.run_geometry_family

        def spy(protocol, trace, sizes, **kwargs):
            calls.append((protocol, kwargs.get("order")))
            return real(protocol, trace, sizes, **kwargs)

        monkeypatch.setattr(diff, "run_geometry_family", spy)
        assert run_seed(0, scale=0.3) == []
        # Every paper protocol with an exact family engine gets the
        # stage — including Dragon via the epoch engine; WTI sweeps
        # per-config and is skipped.
        expected = {
            protocol
            for protocol in ("dragon", "wti", "swflush", "nocache")
            if family_support(protocol)[0] != "fallback"
        }
        assert {"swflush", "nocache"} <= expected
        assert set(calls) == {
            (protocol, order)
            for protocol in expected
            for order in ("time", "trace")
        }

    def test_forced_divergence_is_caught_and_minimizable(
        self, monkeypatch
    ):
        import repro.verify.differential as diff

        case = generate_case(3, scale=0.3)
        real = diff.run_geometry_family

        def corrupted(protocol, trace, sizes, **kwargs):
            family = real(protocol, trace, sizes, **kwargs)
            for result in family.values():
                result.fetch_misses += 1
            return family

        monkeypatch.setattr(diff, "run_geometry_family", corrupted)
        failures = [
            f
            for f in check_case(case, compare_model=False)
            if f.check.startswith("onepass-diff:")
        ]
        assert failures
        assert "fetch_misses" in failures[0].message
        minimized = minimize_failure(failures[0], case, max_checks=8)
        assert minimized is not None
        assert len(minimized) <= len(case.trace)


class TestFailurePlumbing:
    def test_failures_are_picklable(self):
        failure = FuzzFailure(
            seed=3, shape="pingpong", protocol="dragon",
            check="oracle", message="boom",
        )
        assert pickle.loads(pickle.dumps(failure)) == failure

    def test_model_band_failures_are_not_minimizable(self):
        case = generate_case(0, scale=0.3)
        failure = FuzzFailure(
            seed=0, shape=case.shape, protocol="dragon",
            check="model-band", message="out of band",
        )
        assert minimize_failure(failure, case) is None
