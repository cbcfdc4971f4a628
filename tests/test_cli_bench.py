"""CLI tests for ``swcc bench``'s regression gate.

pytest-benchmark is not importable in every environment the suite runs
in, so the benchmark subprocess is stubbed: the stub writes a canned
``--benchmark-json`` report and the test exercises everything after it
— baseline diffing, the ``--max-regression`` gate, and the exit code.
"""

import json
import subprocess
import types
from pathlib import Path

import pytest

from repro.cli import main


def fake_benchmark_run(measured):
    """A subprocess.run stand-in that writes ``measured`` to the
    ``--benchmark-json=`` path found in the command line."""

    def run(cmd, **kwargs):
        json_path = next(
            arg.split("=", 1)[1]
            for arg in cmd
            if arg.startswith("--benchmark-json=")
        )
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump({"benchmarks": measured}, handle)
        return types.SimpleNamespace(returncode=0)

    return run


def write_baseline(tmp_path, entries):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"benchmarks": entries}))
    return path


def entry(name, minimum):
    return {"name": name, "stats": {"min": minimum}, "extra_info": {}}


class TestBenchRegressionGate:
    def test_regression_exits_nonzero_and_names_the_metric(
        self, monkeypatch, capsys, tmp_path
    ):
        baseline = write_baseline(
            tmp_path,
            [entry("test_bench_replay", 0.001), entry("test_bench_model", 0.001)],
        )
        monkeypatch.setattr(
            subprocess,
            "run",
            fake_benchmark_run(
                [
                    entry("test_bench_replay", 0.010),  # 10x: regressed
                    entry("test_bench_model", 0.001),  # 1x: fine
                ]
            ),
        )
        code = main(
            [
                "bench",
                "benchmarks/bench_micro.py",
                "--baseline", str(baseline),
                "--max-regression", "2.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION" in captured.out
        # The gate names the offending benchmark and its ratio on
        # stderr, not just a count.
        assert "1 benchmark(s) regressed beyond 2.0x" in captured.err
        assert "test_bench_replay (10.00x)" in captured.err
        assert "test_bench_model" not in captured.err

    def test_within_threshold_exits_zero(
        self, monkeypatch, capsys, tmp_path
    ):
        baseline = write_baseline(
            tmp_path, [entry("test_bench_replay", 0.001)]
        )
        monkeypatch.setattr(
            subprocess,
            "run",
            fake_benchmark_run([entry("test_bench_replay", 0.0015)]),
        )
        code = main(
            [
                "bench",
                "benchmarks/bench_micro.py",
                "--baseline", str(baseline),
                "--max-regression", "2.0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "REGRESSION" not in captured.out
        assert captured.err == ""

    def test_without_gate_regressions_only_report(
        self, monkeypatch, capsys, tmp_path
    ):
        baseline = write_baseline(
            tmp_path, [entry("test_bench_replay", 0.001)]
        )
        monkeypatch.setattr(
            subprocess,
            "run",
            fake_benchmark_run([entry("test_bench_replay", 0.010)]),
        )
        code = main(
            [
                "bench",
                "benchmarks/bench_micro.py",
                "--baseline", str(baseline),
            ]
        )
        assert code == 0
        assert "10.00x" in capsys.readouterr().out

    def test_unreadable_baseline_exits_two(self, capsys, tmp_path):
        code = main(
            [
                "bench",
                "--baseline", str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestCommittedBaseline:
    """The committed baseline keeps summary statistics only: ``swcc
    bench`` reads ``stats.min`` and ``extra_info.speedup``, never the
    raw samples."""

    path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "baseline_micro.json"
    )

    def test_holds_no_raw_samples(self):
        entries = json.loads(self.path.read_text())["benchmarks"]
        assert entries
        assert not [e["name"] for e in entries if "data" in e["stats"]]

    def test_loads_in_the_regression_diff(self, monkeypatch, capsys):
        entries = json.loads(self.path.read_text())["benchmarks"]
        monkeypatch.setattr(subprocess, "run", fake_benchmark_run(entries))
        code = main(
            [
                "bench",
                "benchmarks/bench_micro.py",
                "--baseline", str(self.path),
                "--max-regression", "1.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert all(entry["name"] in out for entry in entries)
