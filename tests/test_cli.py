"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "figure5", "--fast"])
        assert args.experiment == ["figure5"]
        assert args.fast


class TestListCommand:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        assert "table8" in out


class TestRunCommand:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "table1", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "[PASS]" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert capsys.readouterr().err.startswith(
            "swcc run: unknown experiment 'figure99'; known: "
        )

    def test_no_experiments_and_no_resume_exits_two(self, capsys):
        assert main(["run"]) == 2
        assert "no experiments" in capsys.readouterr().err

    def test_manifest_records_the_run(self, tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        assert main(["run", "table1", "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        from repro.obs import load_manifest

        events = load_manifest(manifest)
        assert events[0]["event"] == "run-start"
        assert events[0]["config"]["experiments"] == ["table1"]
        names = [e["event"] for e in events]
        assert "experiment-finish" in names
        assert names[-1] == "run-finish"


class TestPredictCommand:
    def test_bus_prediction(self, capsys):
        assert main(["predict", "dragon", "16"]) == 0
        out = capsys.readouterr().out
        assert "Dragon on a 16-processor bus" in out
        assert "processing power" in out

    def test_network_prediction(self, capsys):
        assert main(["predict", "flush", "256", "--network"]) == 0
        out = capsys.readouterr().out
        assert "256-processor" in out

    def test_network_rounds_to_power_of_two(self, capsys):
        assert main(["predict", "base", "100", "--network"]) == 0
        err = capsys.readouterr().err
        assert "rounding" in err

    def test_level_selection(self, capsys):
        main(["predict", "nocache", "4", "--level", "high"])
        out = capsys.readouterr().out
        assert "high workload" in out

    @pytest.mark.parametrize("machine", [[], ["--network"]])
    @pytest.mark.parametrize("processors", ["0", "-5"])
    def test_bad_processor_count_is_a_parse_error(
        self, processors, machine, capsys
    ):
        # Rejected at the CLI boundary with the library's message, on
        # both machines: no traceback, and no silent network rounding.
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "base", processors, *machine])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"processors must be >= 1, got {processors}" in captured.err
        assert "rounding" not in captured.err
        assert captured.out == ""


class TestCsvExport:
    def test_run_with_csv_dir(self, tmp_path, capsys):
        assert main(
            ["run", "figure4", "--no-manifest", "--csv-dir", str(tmp_path)]
        ) == 0
        series_csv = tmp_path / "figure4_series.csv"
        assert series_csv.exists()
        header = series_csv.read_text().splitlines()[0]
        assert header.startswith("processors,")
        assert "Dragon" in header

    def test_tables_exported(self, tmp_path):
        main(["run", "table8", "--no-manifest", "--csv-dir", str(tmp_path)])
        table_csv = tmp_path / "table8_table0.csv"
        assert table_csv.exists()
        assert "parameter" in table_csv.read_text().splitlines()[0]


class TestParamsCommand:
    def test_measures_small_trace(self, capsys):
        assert main(
            ["params", "pops", "--records", "5000", "--cache-kb", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "ls" in out
        assert "Table 7 range" in out

    def test_default_records_use_the_preset_length(
        self, capsys, preset_configs
    ):
        """Without ``--records`` the preset's own trace is measured."""
        from repro.trace import WORKLOAD_PRESETS

        assert main(["params", "pops", "--cache-kb", "16"]) == 0
        assert preset_configs == [WORKLOAD_PRESETS["pops"].config]
        assert "Table 7 range" in capsys.readouterr().out


class TestBadInputExitsTwo:
    """An unknown name or an unreadable file is one ``swcc <command>:``
    line on stderr and exit status 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["params", "nosuch"], "swcc params: unknown workload 'nosuch'"),
            (["predict", "nosuch", "4"], "swcc predict: unknown scheme 'nosuch'"),
            (
                ["trace", "stat", "/nonexistent"],
                "swcc trace: [Errno 2] No such file or directory",
            ),
            (["trace", "stat", "notes.txt"], "swcc trace: notes.txt: not a"),
        ],
        ids=["params", "predict", "stat-missing", "stat-corrupt"],
    )
    def test_one_line_and_exit_two(
        self, argv, message, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "notes.txt").write_bytes("\u2014 no trace\n".encode())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""
