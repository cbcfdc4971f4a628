"""Unit tests for the ``swcc trace`` subcommands."""

from repro.cli import main
from repro.trace import load_trace


class TestTraceGenerate:
    def test_generate_writes_loadable_trace(self, tmp_path, capsys):
        output = tmp_path / "small.swcc"
        code = main(
            ["trace", "generate", "pops", str(output), "--records", "2000"]
        )
        assert code == 0
        trace = load_trace(output)
        assert trace.cpus == 4
        assert len(trace) == 8000
        assert "wrote" in capsys.readouterr().out

    def test_generate_gzip(self, tmp_path):
        output = tmp_path / "small.swcc.gz"
        main(["trace", "generate", "thor", str(output), "--records", "1000"])
        assert load_trace(output).cpus == 4

    def test_generate_with_policy(self, tmp_path):
        from repro.trace.records import AccessType

        output = tmp_path / "none.swcc"
        main(
            [
                "trace", "generate", "pops", str(output),
                "--records", "1500", "--policy", "none",
            ]
        )
        trace = load_trace(output)
        assert not any(
            record.kind is AccessType.FLUSH for record in trace
        )
        assert trace.name.endswith("[none]")

    def test_generate_with_seed_changes_trace(self, tmp_path):
        first = tmp_path / "a.swcc"
        second = tmp_path / "b.swcc"
        main(["trace", "generate", "pero", str(first),
              "--records", "800", "--seed", "1"])
        main(["trace", "generate", "pero", str(second),
              "--records", "800", "--seed", "2"])
        assert (
            list(load_trace(first).records)
            != list(load_trace(second).records)
        )

    def test_default_records_use_the_preset_recipe(
        self, tmp_path, preset_configs
    ):
        """Without ``--records`` or ``--seed`` the recipe is unchanged."""
        from repro.trace import WORKLOAD_PRESETS

        output = tmp_path / "pops.npz"
        assert main(["trace", "generate", "pops", str(output)]) == 0
        assert preset_configs == [WORKLOAD_PRESETS["pops"].config]
        assert load_trace(output).cpus == 4

    def test_unknown_workload(self, tmp_path, capsys):
        output = tmp_path / "x.swcc"
        assert main(["trace", "generate", "spice", str(output)]) == 2
        assert capsys.readouterr().err.startswith(
            "swcc trace: unknown workload 'spice'; known: "
        )
        assert not output.exists()


class TestTraceStat:
    def test_stat_prints_parameters(self, tmp_path, capsys):
        output = tmp_path / "small.swcc"
        main(["trace", "generate", "pops", str(output), "--records", "2000"])
        capsys.readouterr()
        assert main(["trace", "stat", str(output)]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "apl (run est.)" in out
        assert "shared blocks" in out
