"""CLI tests for ``swcc fuzz`` and the shared ``--jobs`` handling."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.parallel import resolve_workers


class TestFuzzParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == 200
        assert args.seed_start == 0
        assert args.scale == 1.0
        # Empty sentinel: the command resolves it to every protocol
        # with an oracle (see tests/test_registry_drift.py).
        assert args.protocols == ""
        assert args.artifact_dir == "fuzz-failures"
        assert args.jobs is None
        assert not args.smoke
        assert not args.no_model
        assert not args.replay

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fuzz", "--seeds", "10", "--seed-start", "5",
                "--protocols", "wti", "--scale", "0.5", "--no-model",
                "--smoke", "--jobs", "4", "--artifact-dir", "out",
            ]
        )
        assert (args.seeds, args.seed_start) == (10, 5)
        assert args.protocols == "wti"
        assert args.jobs == 4


class TestJobsValidation:
    """--jobs: negative is a parse error, 0 means serial, large
    values clamp to the number of work items."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--jobs", "-1"],
            ["fuzz", "--jobs", "-99"],
            ["run", "--jobs", "-1"],
            ["report", "--jobs", "-2"],
            ["fuzz", "--jobs", "four"],
        ],
    )
    def test_bad_jobs_values_are_parse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err

    def test_negative_jobs_exits_with_the_library_message(self, capsys):
        # `swcc run --jobs -1`: the shared validator shim turns
        # validate_jobs's rejection into argparse's exit 2.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--jobs", "-1"])
        assert excinfo.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--jobs", "0"],
            ["run", "all", "--jobs", "0"],
            ["report", "--jobs", "0"],
        ],
    )
    def test_zero_jobs_parses_as_explicit_serial(self, argv):
        args = build_parser().parse_args(argv)
        assert args.jobs == 0

    def test_resolver_defined_behaviour(self):
        # 0/None collapse to serial; oversubscription clamps to the
        # item count; nothing ever returns < 1 worker; negative
        # requests raise the same rejection the CLI gives.
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(4, 10) == 4
        assert resolve_workers(64, 3) == 3
        assert resolve_workers(5, 0) == 1
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_workers(-3, 10)


class TestFuzzBoundsValidation:
    """--seeds/--scale: nonsensical bounds are rejected at parse time
    by the same validators the API uses."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fuzz", "--seeds", "-1"], "--seeds"),
            (["fuzz", "--seeds", "ten"], "--seeds"),
            (["fuzz", "--scale", "0"], "--scale"),
            (["fuzz", "--scale", "-0.5"], "--scale"),
            (["fuzz", "--scale", "nan"], "--scale"),
            (["fuzz", "--scale", "inf"], "--scale"),
        ],
    )
    def test_bad_bounds_are_parse_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_zero_seeds_parses_and_runs_nothing(self, capsys):
        assert build_parser().parse_args(["fuzz", "--seeds", "0"]).seeds == 0
        assert main(["fuzz", "--seeds", "0", "--no-manifest"]) == 0
        assert "0 seeds" in capsys.readouterr().out

    def test_api_rejects_the_same_bounds(self):
        from repro.verify import generate_case
        from repro.verify.fuzzer import validate_scale, validate_seed_count

        with pytest.raises(ValueError, match="scale must be a positive"):
            generate_case(0, scale=0)
        with pytest.raises(ValueError, match="scale must be a positive"):
            validate_scale(float("nan"))
        with pytest.raises(ValueError, match="seeds must be >= 0"):
            validate_seed_count(-1)
        assert validate_seed_count(0) == 0
        assert validate_scale(0.5) == 0.5


class TestFuzzCommand:
    def test_small_clean_sweep_exits_zero(self, capsys, tmp_path):
        code = main(
            [
                "fuzz", "--seeds", "2", "--scale", "0.2", "--no-model",
                "--no-manifest",
                "--artifact-dir", str(tmp_path / "artifacts"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 seeds" in out
        assert "0 failure(s)" in out
        assert not (tmp_path / "artifacts").exists()

    def test_oversubscribed_jobs_still_work(self, capsys, tmp_path):
        code = main(
            [
                "fuzz", "--seeds", "2", "--scale", "0.2", "--no-model",
                "--no-manifest", "--jobs", "16",
                "--artifact-dir", str(tmp_path / "artifacts"),
            ]
        )
        assert code == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_unknown_protocol_exits_two(self, capsys):
        code = main(["fuzz", "--seeds", "1", "--protocols", "mesif"])
        assert code == 2
        err = capsys.readouterr().err
        assert "mesif" in err
        assert "dragon" in err  # the help lists what IS available

    def test_protocol_aliases_are_not_silently_accepted(self, capsys):
        # The fuzz sweep is keyed by oracle name, not simulator alias.
        assert main(["fuzz", "--protocols", "snoopy"]) == 2
        capsys.readouterr()


class TestFuzzReplay:
    def test_clean_artifact_reports_no_repro(self, capsys, tmp_path):
        from repro.verify import (
            FuzzFailure,
            failure_artifact,
            generate_case,
            write_failure_artifact,
        )

        case = generate_case(1, scale=0.2)
        failure = FuzzFailure(
            seed=1, shape=case.shape, protocol="wti",
            check="oracle", message="synthetic",
        )
        path = write_failure_artifact(
            failure_artifact(failure, case.trace, case.config), tmp_path
        )
        code = main(["fuzz", "--replay", str(path)])
        assert code == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--replay", str(tmp_path / "does-not-exist.json")]
        )
        assert code == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_non_artifact_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        code = main(["fuzz", "--replay", str(path)])
        assert code == 2
        assert "cannot replay" in capsys.readouterr().err


@pytest.mark.slow
class TestFuzzSmoke:
    def test_smoke_preset_is_clean(self, capsys, tmp_path):
        manifest = tmp_path / "fuzz-smoke.jsonl"
        code = main(
            [
                "fuzz", "--smoke", "--artifact-dir", str(tmp_path / "a"),
                "--manifest", str(manifest),
            ]
        )
        assert code == 0
        assert "24 seeds" in capsys.readouterr().out
        # The manifest recorded the whole sweep.
        from repro.obs import load_manifest

        events = [e["event"] for e in load_manifest(manifest)]
        assert events.count("cell-finish") == 24
        assert events[-1] == "run-finish"
