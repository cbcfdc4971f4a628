"""Command-line interface: ``python -m repro`` or the ``swcc`` script.

Subcommands:

* ``list`` — show every registered experiment.
* ``run <id> [...]`` — run experiments and print their text reports
  (``--fast`` shrinks the trace-driven ones; ``all`` runs everything).
* ``params <workload>`` — generate a synthetic trace and print its
  measured workload parameters next to Table 7's ranges.
* ``predict`` — one-off model evaluation for a scheme/machine/size.
* ``fuzz`` — differential fuzzing: adversarial traces through both
  replay engines, the protocol oracles, and the analytical model;
  failures are minimized and written as JSON artifacts.
* ``check`` — bounded *exhaustive* state-space exploration of the
  protocols over a small model; every reachable transition is
  oracle-checked, violations shrink to minimized JSON artifacts.
* ``bench`` — run the pytest micro-benchmarks and print a regression
  diff against the committed baseline
  (``benchmarks/baseline_micro.json``); speedup floors asserted
  inside the benchmarks fail the run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core import (
    PARAMETER_RANGES,
    BusSystem,
    NetworkSystem,
    WorkloadParams,
    known_schemes,
    scheme_by_name,
)

__all__ = ["main"]


def registry_protocols() -> tuple[str, ...]:
    """Every protocol with an oracle — the default fuzz/check set.

    Both ``swcc fuzz`` and ``swcc check`` derive their default protocol
    list from this one place so a newly registered protocol is picked
    up by both (and by nothing less than the whole registry).
    """
    from repro.verify.oracles import ORACLES

    return tuple(sorted(ORACLES))


def registry_disciplines() -> tuple[str, ...]:
    """Every registered bus arbitration discipline.

    ``swcc predict --discipline`` and ``swcc fuzz --disciplines``
    derive their choices/defaults from the simulator's registry
    (:data:`repro.sim.bus.DISCIPLINES`) so a newly registered
    discipline reaches both without hand-maintained lists
    (pinned by ``tests/test_registry_drift.py``).
    """
    from repro.sim.bus import DISCIPLINES

    return tuple(DISCIPLINES)


def _scheme_help() -> str:
    """Scheme-argument help generated from the live registry.

    Every name :func:`scheme_by_name` accepts appears here, so the
    help text cannot drift from the registry (it once hard-coded
    "base/nocache/flush/dragon" and silently omitted the extension
    schemes).
    """
    entries = []
    for canonical, aliases in known_schemes().items():
        shown = canonical.lower()
        if aliases:
            shown += f" ({', '.join(aliases)})"
        entries.append(shown)
    return "scheme name or alias: " + ", ".join(entries)


def _command_list(_: argparse.Namespace) -> int:
    from repro.experiments import list_experiments

    for experiment in list_experiments():
        print(
            f"{experiment.experiment_id:28s} [{experiment.paper_ref:18s}] "
            f"{experiment.title}"
        )
    return 0


def _default_manifest_path(command: str) -> str:
    import os
    import time

    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join("swcc-runs", f"{command}-{stamp}.jsonl")


def _open_monitor(
    command: str,
    args: argparse.Namespace,
    config: dict,
    resume=None,
):
    """Build the run's SweepMonitor, or None with ``--no-manifest``.

    The manifest gets its ``run-start`` header here; a resumed run
    appends to the resumed manifest (and its checkpoint sidecar) so
    one file tells the whole story.
    """
    from repro.obs import (
        CheckpointWriter,
        ManifestWriter,
        ProgressLine,
        SweepMonitor,
        run_header,
    )

    if args.no_manifest:
        return None
    if resume is not None:
        path = str(resume.manifest_path)
    else:
        path = args.manifest or _default_manifest_path(command)
    checkpoint_path = (
        resume.header.get("checkpoint") if resume is not None else None
    ) or path + ".ckpt"
    manifest = ManifestWriter(path)
    header = run_header(command, config=config, checkpoint=checkpoint_path)
    if resume is not None:
        header["resumed_from"] = str(resume.manifest_path)
    manifest.event("run-start", **header)
    return SweepMonitor(
        manifest=manifest,
        checkpoint=CheckpointWriter(checkpoint_path),
        progress=ProgressLine(),
        resume=resume,
    )


def _command_run(args: argparse.Namespace) -> int:
    import time

    from repro.experiments import get_experiment, list_experiments
    from repro.obs import use_monitor

    resume_state = None
    if args.resume:
        from repro.obs import load_resume_state

        try:
            resume_state = load_resume_state(args.resume)
        except (OSError, ValueError) as error:
            print(
                f"cannot resume from {args.resume}: {error}", file=sys.stderr
            )
            return 2
        stored = resume_state.header.get("config", {})
        # The stored config wins for everything that shapes the work
        # (sweep numbering must match the checkpoint); --jobs stays a
        # per-invocation choice because parallelism never changes
        # results.
        if not args.experiment:
            args.experiment = list(stored.get("experiments", []))
        args.fast = bool(stored.get("fast", args.fast))
    if not args.experiment:
        print(
            "swcc run: no experiments given (and no --resume manifest "
            "to take them from)",
            file=sys.stderr,
        )
        return 2
    if "all" in args.experiment:
        experiments = list_experiments()
    else:
        try:
            experiments = [get_experiment(name) for name in args.experiment]
        except KeyError as error:
            print(f"swcc run: {error.args[0]}", file=sys.stderr)
            return 2

    monitor = _open_monitor(
        "run",
        args,
        config={"experiments": list(args.experiment), "fast": args.fast},
        resume=resume_state,
    )
    started = time.perf_counter()
    failed = []
    crashed = []
    with use_monitor(monitor):
        for experiment in experiments:
            if monitor is not None:
                monitor.note_label(experiment.experiment_id)
                monitor.event(
                    "experiment-start",
                    experiment=experiment.experiment_id,
                )
            try:
                result = experiment.run(fast=args.fast, jobs=args.jobs)
            except Exception as error:
                # Only a monitored run degrades gracefully: a crashed
                # experiment (usually collateral of failed sweep cells)
                # is recorded and the remaining experiments still run.
                if monitor is None:
                    raise
                crashed.append(experiment.experiment_id)
                monitor.event(
                    "experiment-failed",
                    experiment=experiment.experiment_id,
                    error=f"{type(error).__name__}: {error}",
                )
                print(
                    f"experiment {experiment.experiment_id} FAILED: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                )
                continue
            print(result.render())
            print()
            if monitor is not None:
                monitor.event(
                    "experiment-finish",
                    experiment=experiment.experiment_id,
                    digest=result.digest(),
                    checks_passed=result.all_checks_pass,
                )
            if args.csv_dir:
                _write_csv(result, args.csv_dir)
            if not result.all_checks_pass:
                failed.append(experiment.experiment_id)
    if monitor is not None:
        monitor.event(
            "run-finish",
            wall_s=round(time.perf_counter() - started, 3),
            exit_code=1 if failed or crashed else 0,
            cells_run=monitor.cells_run,
            cells_cached=monitor.cells_cached,
            cells_failed=monitor.cells_failed,
        )
        manifest_path = monitor.manifest.path
        monitor.close()
        for sweep, failure in monitor.failures:
            print(f"cell failure (sweep {sweep}): {failure}", file=sys.stderr)
        if monitor.failures or crashed:
            print(
                f"resume with: swcc run --resume {manifest_path}",
                file=sys.stderr,
            )
    if failed:
        print(f"shape checks FAILED in: {', '.join(failed)}", file=sys.stderr)
    if crashed:
        print(
            f"experiments CRASHED: {', '.join(crashed)}", file=sys.stderr
        )
    return 1 if failed or crashed else 0


def _write_csv(result, csv_dir: str) -> None:
    """Dump an experiment's series and tables as CSV files."""
    import csv
    from pathlib import Path

    directory = Path(csv_dir)
    directory.mkdir(parents=True, exist_ok=True)
    if result.series:
        from repro.experiments.report import series_table

        table = series_table(result.series, result.xlabel or "x")
        path = directory / f"{result.experiment_id}_series.csv"
        with open(path, "w", newline="", encoding="utf-8") as stream:
            writer = csv.writer(stream)
            writer.writerow(table.headers)
            writer.writerows(table.rows)
        print(f"wrote {path}")
    for index, table in enumerate(result.tables):
        path = directory / f"{result.experiment_id}_table{index}.csv"
        with open(path, "w", newline="", encoding="utf-8") as stream:
            writer = csv.writer(stream)
            writer.writerow(table.headers)
            writer.writerows(table.rows)
        print(f"wrote {path}")


def _command_report(args: argparse.Namespace) -> int:
    """Run every experiment and write a consolidated markdown summary."""
    from pathlib import Path

    from repro.experiments import list_experiments

    lines = [
        "# Reproduction report",
        "",
        "| experiment | paper ref | checks | detail |",
        "|---|---|---|---|",
    ]
    failures = 0
    for experiment in list_experiments():
        result = experiment.run(fast=args.fast, jobs=args.jobs)
        passed = sum(1 for check in result.checks if check.passed)
        total = len(result.checks)
        failures += total - passed
        failed_names = ", ".join(
            check.name for check in result.checks if not check.passed
        )
        lines.append(
            f"| {experiment.experiment_id} | {experiment.paper_ref} | "
            f"{passed}/{total} | {failed_names or 'all pass'} |"
        )
        print(f"{experiment.experiment_id:32s} {passed}/{total}")
    lines.append("")
    lines.append(
        f"Total: {failures} failing checks."
        if failures
        else "Total: every shape check passes."
    )
    output = Path(args.output)
    output.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 1 if failures else 0


def _command_params(args: argparse.Namespace) -> int:
    from repro.sim import SimulationConfig, measure_workload_params
    from repro.trace import preset, preset_trace

    try:
        preset(args.workload)
    except KeyError as error:
        print(f"swcc params: {error.args[0]}", file=sys.stderr)
        return 2
    trace = preset_trace(args.workload, args.records or None)
    config = SimulationConfig(cache_bytes=args.cache_kb * 1024)
    params = measure_workload_params(trace, config)
    print(f"workload {args.workload!r}, {len(trace)} records, "
          f"{args.cache_kb}K caches")
    print(f"{'parameter':8s} {'measured':>10s}   Table 7 range")
    for name, value in params.as_dict().items():
        parameter_range = PARAMETER_RANGES[name]
        low, high = sorted((parameter_range.low, parameter_range.high))
        inside = "  " if low <= value <= high else " *"
        print(
            f"{name:8s} {value:10.4f}{inside} "
            f"[{parameter_range.low:g} .. {parameter_range.high:g}]"
        )
    print("(* = outside the paper's observed range)")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    """Generate, inspect, or re-flush synthetic traces."""
    from repro.trace import (
        collect_stats,
        load_trace,
        preset,
        save_trace,
    )
    from repro.trace.flushing import apply_flush_policy, implied_apl
    from repro.trace.io import TraceFormatError

    if args.trace_action == "generate":
        # Only the options given override the preset's recipe.
        overrides = {"records_per_cpu": args.records} if args.records else {}
        try:
            recipe = preset(args.workload)
        except KeyError as error:
            print(f"swcc trace: {error.args[0]}", file=sys.stderr)
            return 2
        trace = recipe.generate(seed=args.seed, **overrides)
        if args.policy != "section":
            trace = apply_flush_policy(trace, args.policy)
        save_trace(trace, args.output)
        print(
            f"wrote {args.output}: {len(trace)} records, {trace.cpus} CPUs, "
            f"flush policy {args.policy!r}"
        )
        return 0

    try:
        trace = load_trace(args.file)
    except (OSError, TraceFormatError) as error:
        print(f"swcc trace: {error}", file=sys.stderr)
        return 2
    stats = collect_stats(trace)
    print(f"trace {trace.name!r}: {len(trace)} records, {trace.cpus} CPUs")
    print(f"  instructions      {stats.instructions}")
    print(f"  loads / stores    {stats.loads} / {stats.stores}")
    print(f"  flushes           {stats.flushes}")
    print(f"  ls                {stats.ls:.4f}")
    print(f"  shd               {stats.shd:.4f}")
    print(f"  wr                {stats.wr:.4f}")
    print(f"  apl (run est.)    {stats.apl:.2f}")
    print(f"  apl (per flush)   {implied_apl(trace):.2f}")
    print(f"  mdshd             {stats.mdshd:.4f}")
    print(f"  shared blocks     {stats.shared_blocks_touched}")
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    try:
        scheme = scheme_by_name(args.scheme)
    except KeyError as error:
        print(f"swcc predict: {error.args[0]}", file=sys.stderr)
        return 2
    params = WorkloadParams.at_level(args.level)
    if args.network:
        if args.discipline != "fcfs" or args.arbitration_cycles != 0.0:
            print(
                "bus disciplines do not apply to the multistage "
                "network model; ignoring --discipline/"
                "--arbitration-cycles",
                file=sys.stderr,
            )
        stages = max((args.processors - 1).bit_length(), 1)
        if 2**stages != args.processors:
            print(
                f"network size must be a power of two; rounding "
                f"{args.processors} up to {2 ** stages}",
                file=sys.stderr,
            )
        prediction = NetworkSystem(stages).evaluate(scheme, params)
        print(
            f"{scheme.name} on a {prediction.processors}-processor "
            f"{stages}-stage network ({args.level} workload):"
        )
        print(f"  c = {prediction.cost.cpu_cycles:.4f} cycles/instr")
        print(f"  t = {prediction.cost.channel_cycles:.4f} network cycles")
        print(f"  request rate m*t = {prediction.request_rate:.4f}")
        print(f"  utilization     = {prediction.utilization:.4f}")
        print(f"  processing power= {prediction.processing_power:.2f}")
    else:
        system = BusSystem(
            bus_discipline=args.discipline,
            arbitration_cycles=args.arbitration_cycles,
        )
        prediction = system.evaluate(scheme, params, args.processors)
        print(
            f"{scheme.name} on a {args.processors}-processor bus "
            f"({args.level} workload):"
        )
        if args.discipline != "fcfs" or args.arbitration_cycles != 0.0:
            print(
                f"  discipline      = {args.discipline} "
                f"(arbitration {args.arbitration_cycles:g} cycles)"
            )
        print(f"  c = {prediction.cost.cpu_cycles:.4f} cycles/instr")
        print(f"  b = {prediction.cost.channel_cycles:.4f} bus cycles")
        print(f"  w = {prediction.waiting_cycles:.4f} contention cycles")
        print(f"  utilization     = {prediction.utilization:.4f}")
        print(f"  processing power= {prediction.processing_power:.2f}")
        print(f"  bus utilization = {prediction.bus_utilization:.4f}")
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.parallel import CellFailure, parallel_map
    from repro.obs import use_monitor
    from repro.verify import (
        failure_artifact,
        generate_case,
        load_failure_artifact,
        minimize_failure,
        replay_artifact,
        write_failure_artifact,
    )
    from repro.verify.differential import seed_worker
    from repro.verify.oracles import ORACLES

    if args.replay:
        try:
            artifact = load_failure_artifact(args.replay)
        except (OSError, ValueError) as error:
            print(f"cannot replay {args.replay}: {error}", file=sys.stderr)
            return 2
        reproduced = replay_artifact(artifact)
        if reproduced is None:
            print(
                f"{args.replay}: failure no longer reproduces "
                f"({artifact['protocol']}/{artifact['check']})"
            )
            return 0
        print(
            f"{args.replay}: REPRODUCED {reproduced.protocol}/"
            f"{reproduced.check}: {reproduced.message}"
        )
        return 1

    if args.smoke:
        # A deterministic sub-minute pass for CI: fewer, smaller cases.
        seeds, scale = 24, 0.4
    else:
        seeds, scale = args.seeds, args.scale
    protocols = tuple(
        name.strip() for name in args.protocols.split(",") if name.strip()
    )
    if not protocols:
        # Registry-derived default: fuzz everything with an oracle, so
        # newly registered protocols cannot be silently skipped (the
        # old hard-coded default omitted base and directory).
        protocols = registry_protocols()
    unknown = sorted(set(protocols) - set(ORACLES))
    if unknown:
        print(
            f"no oracle for protocol(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(ORACLES))}",
            file=sys.stderr,
        )
        return 2
    disciplines = tuple(
        name.strip() for name in args.disciplines.split(",") if name.strip()
    )
    if not disciplines:
        # Registry-derived default, like --protocols: a newly
        # registered discipline is differential-checked automatically.
        disciplines = registry_disciplines()
    unknown = sorted(set(disciplines) - set(registry_disciplines()))
    if unknown:
        print(
            f"unknown bus discipline(s) {', '.join(unknown)}; "
            f"available: {', '.join(registry_disciplines())}",
            file=sys.stderr,
        )
        return 2
    compare_model = not args.no_model
    items = [
        (seed, scale, protocols, compare_model, disciplines)
        for seed in range(args.seed_start, args.seed_start + seeds)
    ]
    monitor = _open_monitor(
        "fuzz",
        args,
        config={
            "seeds": seeds,
            "seed_start": args.seed_start,
            "scale": scale,
            "protocols": list(protocols),
            "compare_model": compare_model,
            "disciplines": list(disciplines),
        },
    )
    started = time.perf_counter()
    with use_monitor(monitor):
        if monitor is not None:
            monitor.note_label("fuzz")
        per_seed = parallel_map(seed_worker, items, jobs=args.jobs)

    # A monitored (resilient) sweep returns a CellFailure where a seed
    # *crashed* the checker itself — a different beast from the seed's
    # checks reporting divergences, so keep the two populations apart.
    failures = []
    crashed = []
    for item, batch in zip(items, per_seed):
        if isinstance(batch, CellFailure):
            crashed.append((item[0], batch))
        else:
            failures.extend(batch)
    for seed, casualty in crashed:
        print(
            f"CRASH seed={seed}: checker died: {casualty.error}",
            file=sys.stderr,
        )
    for failure in failures:
        print(
            f"FAIL seed={failure.seed} shape={failure.shape} "
            f"protocol={failure.protocol} check={failure.check}: "
            f"{failure.message}",
            file=sys.stderr,
        )
        case = generate_case(failure.seed, scale=scale)
        minimized = minimize_failure(failure, case)
        trace = minimized if minimized is not None else case.trace
        if minimized is not None:
            print(
                f"  minimized {len(case.trace)} -> {len(minimized)} "
                f"records",
                file=sys.stderr,
            )
        path = write_failure_artifact(
            failure_artifact(failure, trace, case.config),
            args.artifact_dir,
        )
        print(f"  artifact: {path}", file=sys.stderr)
    clean = seeds - len({f.seed for f in failures}) - len(crashed)
    summary = (
        f"swcc fuzz: {seeds} seeds x {len(protocols)} protocols "
        f"({', '.join(protocols)}), disciplines "
        f"{', '.join(disciplines)}, model comparison "
        f"{'on' if compare_model else 'off'}: "
        f"{clean} clean, {len(failures)} failure(s)"
    )
    if crashed:
        summary += f", {len(crashed)} crashed seed(s)"
    print(summary)
    exit_code = 1 if failures or crashed else 0
    if monitor is not None:
        monitor.event(
            "run-finish",
            wall_s=round(time.perf_counter() - started, 3),
            exit_code=exit_code,
            cells_run=monitor.cells_run,
            cells_cached=monitor.cells_cached,
            cells_failed=monitor.cells_failed,
        )
        monitor.close()
    return exit_code


def _command_check(args: argparse.Namespace) -> int:
    import time

    from repro.obs import use_monitor
    from repro.verify import ORACLES, ExploreBounds, explore_protocol
    from repro.verify.explore import write_counterexample

    if args.protocol:
        protocols = tuple(
            name.strip()
            for name in args.protocol.split(",")
            if name.strip()
        )
    else:
        protocols = registry_protocols()
    unknown = sorted(set(protocols) - set(ORACLES))
    if unknown:
        print(
            f"no oracle for protocol(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(ORACLES))}",
            file=sys.stderr,
        )
        return 2
    try:
        bounds = ExploreBounds(
            cpus=args.cpus,
            lines=args.lines,
            sets=args.sets,
            depth=args.depth,
            max_states=args.max_states,
            conformance=args.conformance,
        )
    except ValueError as error:
        print(f"swcc check: {error}", file=sys.stderr)
        return 2

    monitor = _open_monitor(
        "check",
        args,
        config={
            "protocols": list(protocols),
            "cpus": bounds.cpus,
            "lines": bounds.lines,
            "sets": bounds.sets,
            "depth": bounds.depth,
            "max_states": bounds.max_states,
            "conformance": bounds.conformance,
        },
    )
    started = time.perf_counter()
    print(
        f"swcc check: {bounds.cpus} cpus x {bounds.lines} line(s) x "
        f"{bounds.sets} set(s), depth {bounds.depth}, "
        f"{len(protocols)} protocol(s)"
    )
    print(
        f"\n{'protocol':10s} {'states':>8s} {'edges':>9s} {'depth':>5s} "
        f"{'frontier':>8s} {'checked':>7s} {'wall':>7s}  result"
    )
    violations = 0
    with use_monitor(monitor):
        for protocol in protocols:
            if monitor is not None:
                monitor.note_label(protocol)
            report = explore_protocol(protocol, bounds)
            if report.violation is not None:
                violations += 1
                result = f"VIOLATION ({report.violation.failure.check})"
            elif report.truncated:
                result = (
                    f"truncated at {bounds.max_states} states "
                    f"(not exhaustive)"
                )
            elif report.frontier:
                result = f"exhaustive to depth {bounds.depth}"
            else:
                # The reachable set closed before the depth bound ran
                # out: the guarantee holds at *every* depth.
                result = (
                    f"exhaustive (state space closed at depth "
                    f"{report.depth_reached})"
                )
            print(
                f"{report.protocol:10s} {report.states:8d} "
                f"{report.edges:9d} {report.depth_reached:5d} "
                f"{report.frontier:8d} {report.conformance_checked:7d} "
                f"{report.wall_s:6.2f}s  {result}"
            )
            if monitor is not None:
                monitor.event(
                    "explore-finish",
                    protocol=report.protocol,
                    states=report.states,
                    edges=report.edges,
                    depth_reached=report.depth_reached,
                    frontier=report.frontier,
                    truncated=report.truncated,
                    conformance_checked=report.conformance_checked,
                    violation=(
                        report.violation.failure.check
                        if report.violation is not None
                        else ""
                    ),
                    wall_s=round(report.wall_s, 3),
                )
            if report.violation is not None:
                failure = report.violation.failure
                print(
                    f"  {failure.check}: {failure.message}",
                    file=sys.stderr,
                )
                path, minimized = write_counterexample(
                    report.violation, protocol, bounds.config,
                    args.artifact_dir,
                )
                print(
                    f"  counterexample: {len(report.violation.trace)} "
                    f"-> {len(minimized)} records",
                    file=sys.stderr,
                )
                print(f"  artifact: {path}", file=sys.stderr)
    exit_code = 1 if violations else 0
    if monitor is not None:
        monitor.event(
            "run-finish",
            wall_s=round(time.perf_counter() - started, 3),
            exit_code=exit_code,
            cells_run=monitor.cells_run,
            cells_cached=monitor.cells_cached,
            cells_failed=monitor.cells_failed,
        )
        monitor.close()
    if violations:
        print(
            f"\n{violations} protocol(s) violated their reference "
            f"rules within the explored bounds",
            file=sys.stderr,
        )
    return exit_code


def _repo_paths() -> tuple[str, str]:
    """Locate the repo root and its ``benchmarks/`` directory.

    Prefers the current directory (normal invocation from a checkout);
    falls back to the source tree this module lives in (``src/repro``
    is two levels below the root).
    """
    import os

    here = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..")
    )
    for root in (os.getcwd(), here):
        bench_dir = os.path.join(root, "benchmarks")
        if os.path.isdir(bench_dir):
            return root, bench_dir
    raise FileNotFoundError(
        "cannot locate the benchmarks/ directory (run from the repo root)"
    )


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.3f}s "


def _command_bench(args: argparse.Namespace) -> int:
    import json
    import os
    import subprocess
    import tempfile

    try:
        root, bench_dir = _repo_paths()
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    files = args.files or sorted(
        os.path.join("benchmarks", name)
        for name in os.listdir(bench_dir)
        if name.startswith("bench_") and name.endswith(".py")
    )
    baseline_path = args.baseline or os.path.join(
        bench_dir, "baseline_micro.json"
    )
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = {
                entry["name"]: entry
                for entry in json.load(handle)["benchmarks"]
            }
    except (OSError, ValueError, KeyError) as error:
        print(
            f"cannot read baseline {baseline_path}: {error}",
            file=sys.stderr,
        )
        return 2

    descriptor, json_path = tempfile.mkstemp(
        suffix=".json", prefix="swcc-bench-"
    )
    os.close(descriptor)
    try:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        outcome = subprocess.run(
            [
                sys.executable, "-m", "pytest", *files,
                "--benchmark-only", "--benchmark-disable-gc", "-q",
                f"--benchmark-json={json_path}",
            ],
            cwd=root,
            env=env,
        )
        try:
            with open(json_path, encoding="utf-8") as handle:
                measured = json.load(handle)["benchmarks"]
        except (OSError, ValueError, KeyError):
            print("benchmark run produced no JSON report", file=sys.stderr)
            return outcome.returncode or 1
    finally:
        os.unlink(json_path)

    # Regression diff: this run's min wall time vs the committed
    # baseline.  Absolute times are machine-dependent, so the ratio is
    # informational unless --max-regression opts into a hard gate; the
    # speedup floors (which *are* machine-independent claims) were
    # already asserted inside the benchmarks themselves.
    print(
        f"\n{'benchmark':44s} {'min':>10s} {'baseline':>10s} "
        f"{'ratio':>6s}  speedup"
    )
    regressions = []
    for entry in measured:
        name = entry["name"]
        minimum = entry["stats"]["min"]
        speedup = entry.get("extra_info", {}).get("speedup")
        reference = baseline.get(name)
        if reference is None:
            line = (
                f"{name:44s} {_format_seconds(minimum)} "
                f"{'(new)':>10s} {'':>6s}"
            )
        else:
            base_min = reference["stats"]["min"]
            ratio = minimum / base_min if base_min > 0 else float("inf")
            flag = ""
            if args.max_regression and ratio > args.max_regression:
                regressions.append((name, ratio))
                flag = "  REGRESSION"
            line = (
                f"{name:44s} {_format_seconds(minimum)} "
                f"{_format_seconds(base_min)} {ratio:5.2f}x{flag}"
            )
        if speedup is not None:
            base_speedup = (reference or {}).get("extra_info", {}).get(
                "speedup"
            )
            line += f"  {speedup:.2f}x"
            if base_speedup is not None:
                line += f" (baseline {base_speedup:.2f}x)"
        print(line)
    missing = sorted(
        set(baseline) - {entry["name"] for entry in measured}
    )
    if missing and not args.files:
        print(f"\nnot measured this run: {', '.join(missing)}")

    if outcome.returncode:
        print("\nbenchmark floor violations (see pytest output above)")
        return outcome.returncode
    if regressions:
        worst = ", ".join(
            f"{name} ({ratio:.2f}x)" for name, ratio in regressions
        )
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"{args.max_regression:.1f}x the baseline: {worst}",
            file=sys.stderr,
        )
        return 1
    return 0


def _validated_number(module_name: str, validator_name: str, kind=int):
    """Build an argparse type shim around a library validator.

    Validation lives in the library (the named ``validate_*``
    function), so the CLI and the API reject the same inputs for the
    same reason; the shim only converts the failure into argparse's
    error type.
    """

    def parse(value: str):
        import importlib

        try:
            number = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {value!r}"
            ) from None
        validate = getattr(
            importlib.import_module(module_name), validator_name
        )
        try:
            validate(number)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return number

    return parse


_check_cpus = _validated_number("repro.verify.explore", "validate_cpus")
_check_lines = _validated_number("repro.verify.explore", "validate_lines")
_check_sets = _validated_number("repro.verify.explore", "validate_sets")
_check_depth = _validated_number("repro.verify.explore", "validate_depth")
_check_max_states = _validated_number(
    "repro.verify.explore", "validate_max_states"
)
_check_conformance = _validated_number(
    "repro.verify.explore", "validate_conformance"
)
_fuzz_seeds = _validated_number("repro.verify.fuzzer", "validate_seed_count")
_fuzz_scale = _validated_number(
    "repro.verify.fuzzer", "validate_scale", kind=float
)
_arbitration_cycles = _validated_number(
    "repro.sim.bus", "validate_arbitration_cycles", kind=float
)
_processors = _validated_number("repro.core.bus", "validate_processors")
_jobs_count = _validated_number("repro.experiments.parallel", "validate_jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swcc",
        description=(
            "Reproduction of Owicki & Agarwal, 'Evaluating the Performance "
            "of Software Cache Coherence' (ASPLOS 1989)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(handler=_command_list)

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiment", nargs="*",
        help="experiment ids (see 'list'), or 'all'; may be omitted "
             "with --resume (taken from the manifest)",
    )
    run_parser.add_argument(
        "--fast", action="store_true",
        help="shrink trace-driven experiments for a quick pass",
    )
    run_parser.add_argument(
        "--manifest", default="", metavar="FILE",
        help="run-manifest path (default: swcc-runs/run-<timestamp>"
             ".jsonl; checkpoint sidecar at <FILE>.ckpt)",
    )
    run_parser.add_argument(
        "--no-manifest", action="store_true",
        help="disable the run manifest, checkpointing, and resilient "
             "cell execution",
    )
    run_parser.add_argument(
        "--resume", default="", metavar="FILE",
        help="resume a previous run from its manifest: completed "
             "cells are served from the checkpoint, only missing or "
             "failed cells re-execute (output is byte-identical to an "
             "uninterrupted run)",
    )
    run_parser.add_argument(
        "--csv-dir", default="",
        help="also dump each experiment's series/tables as CSV here",
    )
    run_parser.add_argument(
        "--jobs", type=_jobs_count, default=None, metavar="N",
        help=(
            "run independent sweep cells in up to N worker processes "
            "(results are identical to a serial run; 0 = serial, "
            "requests past the cell count are clamped)"
        ),
    )
    run_parser.set_defaults(handler=_command_run)

    report_parser = subparsers.add_parser(
        "report", help="run everything, write a markdown summary"
    )
    report_parser.add_argument(
        "--output", default="reproduction_report.md",
        help="markdown file to write",
    )
    report_parser.add_argument(
        "--fast", action="store_true",
        help="shrink trace-driven experiments",
    )
    report_parser.add_argument(
        "--jobs", type=_jobs_count, default=None, metavar="N",
        help="worker processes for parallelisable sweeps (0 = serial)",
    )
    report_parser.set_defaults(handler=_command_report)

    params_parser = subparsers.add_parser(
        "params", help="measure workload parameters of a synthetic trace"
    )
    params_parser.add_argument("workload", help="pops, thor, pero, or pero8")
    params_parser.add_argument(
        "--cache-kb", type=int, default=64, help="cache size in KB"
    )
    params_parser.add_argument(
        "--records", type=int, default=0,
        help="records per CPU (0 = preset default)",
    )
    params_parser.set_defaults(handler=_command_params)

    trace_parser = subparsers.add_parser(
        "trace", help="generate or inspect synthetic traces"
    )
    trace_actions = trace_parser.add_subparsers(
        dest="trace_action", required=True
    )
    generate_parser = trace_actions.add_parser(
        "generate", help="generate a preset workload to a file"
    )
    generate_parser.add_argument("workload", help="pops/thor/pero/pero8")
    generate_parser.add_argument("output", help="output path (*.gz to pack)")
    generate_parser.add_argument(
        "--records", type=int, default=0,
        help="records per CPU (0 = preset default)",
    )
    generate_parser.add_argument(
        "--seed", type=int, default=None, help="override the preset seed"
    )
    generate_parser.add_argument(
        "--policy", default="section",
        choices=("eager", "section", "oracle", "none"),
        help="flush-placement policy to apply",
    )
    generate_parser.set_defaults(handler=_command_trace)
    stat_parser = trace_actions.add_parser(
        "stat", help="print statistics of a trace file"
    )
    stat_parser.add_argument("file", help="trace file path")
    stat_parser.set_defaults(handler=_command_trace)

    predict_parser = subparsers.add_parser(
        "predict", help="evaluate the analytical model once"
    )
    predict_parser.add_argument("scheme", help=_scheme_help())
    predict_parser.add_argument(
        "processors", type=_processors, help="number of processors"
    )
    predict_parser.add_argument(
        "--level", default="middle", choices=("low", "middle", "high"),
        help="Table 7 parameter level",
    )
    predict_parser.add_argument(
        "--network", action="store_true",
        help="multistage network instead of a bus",
    )
    predict_parser.add_argument(
        "--discipline", default="fcfs", choices=registry_disciplines(),
        help="bus arbitration discipline (default fcfs)",
    )
    predict_parser.add_argument(
        "--arbitration-cycles", type=_arbitration_cycles, default=0.0,
        metavar="A",
        help="arbitration overhead per bus grant (per grant window "
             "under batched; default 0)",
    )
    predict_parser.set_defaults(handler=_command_predict)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: engines vs oracles vs the model",
    )
    fuzz_parser.add_argument(
        "--seeds", type=_fuzz_seeds, default=200, metavar="N",
        help="number of fuzz seeds to run (default 200)",
    )
    fuzz_parser.add_argument(
        "--seed-start", type=int, default=0, metavar="K",
        help="first seed (sweeps [K, K+N))",
    )
    fuzz_parser.add_argument(
        "--protocols", default="",
        metavar="LIST",
        help="comma-separated protocols to check (default: every "
             "protocol with an oracle)",
    )
    fuzz_parser.add_argument(
        "--disciplines", default="",
        metavar="LIST",
        help="comma-separated bus disciplines for the arbitrated-"
             "engine differential (default: every registered "
             "discipline)",
    )
    fuzz_parser.add_argument(
        "--scale", type=_fuzz_scale, default=1.0, metavar="F",
        help="trace-length scale factor for generated cases",
    )
    fuzz_parser.add_argument(
        "--no-model", action="store_true",
        help="skip the analytical-model tolerance comparison",
    )
    fuzz_parser.add_argument(
        "--smoke", action="store_true",
        help="deterministic sub-minute pass for CI (overrides "
             "--seeds/--scale)",
    )
    fuzz_parser.add_argument(
        "--jobs", type=_jobs_count, default=None, metavar="N",
        help="run seeds in up to N worker processes (0 = serial)",
    )
    fuzz_parser.add_argument(
        "--artifact-dir", default="fuzz-failures", metavar="DIR",
        help="directory for minimized JSON failure artifacts",
    )
    fuzz_parser.add_argument(
        "--replay", default="", metavar="FILE",
        help="replay a failure artifact instead of fuzzing",
    )
    fuzz_parser.add_argument(
        "--manifest", default="", metavar="FILE",
        help="run-manifest path (default: swcc-runs/fuzz-<timestamp>"
             ".jsonl)",
    )
    fuzz_parser.add_argument(
        "--no-manifest", action="store_true",
        help="disable the run manifest and resilient seed execution",
    )
    fuzz_parser.set_defaults(handler=_command_fuzz)

    check_parser = subparsers.add_parser(
        "check",
        help="exhaustive small-model exploration of every protocol",
    )
    check_parser.add_argument(
        "--protocol", default="", metavar="LIST",
        help="comma-separated protocols to explore (default: every "
             "protocol with an oracle)",
    )
    check_parser.add_argument(
        "--cpus", type=_check_cpus, default=2, metavar="N",
        help="CPUs in the small model (2-8, default 2)",
    )
    check_parser.add_argument(
        "--lines", type=_check_lines, default=1, metavar="N",
        help="cache lines per set (1-4, default 1)",
    )
    check_parser.add_argument(
        "--sets", type=_check_sets, default=1, metavar="N",
        help="cache sets (1, 2 or 4; default 1)",
    )
    check_parser.add_argument(
        "--depth", type=_check_depth, default=8, metavar="D",
        help="exploration depth bound in accesses (default 8)",
    )
    check_parser.add_argument(
        "--max-states", type=_check_max_states, default=200_000,
        metavar="N",
        help="state budget before the search reports truncation "
             "(default 200000)",
    )
    check_parser.add_argument(
        "--conformance", type=_check_conformance, default=256,
        metavar="N",
        help="cross-engine conformance replays per protocol "
             "(0 disables, default 256)",
    )
    check_parser.add_argument(
        "--artifact-dir", default="check-failures", metavar="DIR",
        help="directory for minimized JSON counterexample artifacts",
    )
    check_parser.add_argument(
        "--manifest", default="", metavar="FILE",
        help="run-manifest path (default: swcc-runs/check-<timestamp>"
             ".jsonl)",
    )
    check_parser.add_argument(
        "--no-manifest", action="store_true",
        help="disable the run manifest",
    )
    check_parser.set_defaults(handler=_command_check)

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the micro-benchmarks and diff against the baseline",
    )
    bench_parser.add_argument(
        "files", nargs="*", metavar="FILE",
        help="benchmark files to run (default: benchmarks/bench_*.py)",
    )
    bench_parser.add_argument(
        "--baseline", default="", metavar="FILE",
        help="baseline pytest-benchmark JSON (default: "
             "benchmarks/baseline_micro.json)",
    )
    bench_parser.add_argument(
        "--max-regression", type=float, default=None, metavar="F",
        help="exit non-zero when any benchmark's min wall time exceeds "
             "F times its baseline (default: report only — absolute "
             "times are machine-dependent)",
    )
    bench_parser.set_defaults(handler=_command_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
