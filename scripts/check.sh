#!/usr/bin/env bash
# One-stop pre-merge check: byte-compile, tier-1 tests, benchmark smoke,
# committed reports.
#
# Usage: scripts/check.sh
# Runs from any directory; everything is resolved relative to the repo
# root.  Exits non-zero on the first failure.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== byte-compile src/ =="
python -m compileall -q src

echo "== static guard: chunked parallel dispatch =="
# The plain parallel path must amortise pickling by shipping work in
# chunks; a refactor that drops chunksize silently costs ~2x on large
# sweeps (see docs/ARCHITECTURE.md "Parallel experiment runner").
if ! grep -q "chunksize=" src/repro/experiments/parallel.py; then
    echo "FAIL: parallel_map no longer passes chunksize= to pool.map" >&2
    exit 1
fi

# Coverage gate for the core simulation and trace layers, active when
# pytest-cov is available (it is optional: [project.optional-dependencies]
# test).  Without it the tier-1 run is identical minus the gate.
cov_args=()
if python -c "import pytest_cov" >/dev/null 2>&1; then
    cov_args=(
        --cov=repro.sim --cov=repro.trace
        --cov-report=term --cov-fail-under=80
    )
else
    echo "(pytest-cov not installed; skipping the coverage floor)"
fi

echo "== tier-1 tests =="
python -m pytest -x -q "${cov_args[@]:+${cov_args[@]}}"

echo "== fuzz smoke =="
# No --protocols: the list is derived from the oracle registry, so new
# protocols (e.g. the hybrid family) are fuzzed the day they land.
python -m repro.cli fuzz --smoke \
    --artifact-dir "${TMPDIR:-/tmp}/swcc-fuzz-failures" \
    --manifest "${TMPDIR:-/tmp}/swcc-fuzz-manifest.jsonl"

echo "== exhaustive check smoke (every protocol, small model) =="
# BFS over all interleavings at 2 CPUs x 1 line x 1 set; every state
# space closes within this depth (the hybrids' pressure counters need
# depth 8; the stateless protocols close by 3), so the oracle
# guarantee is depth-unbounded (see docs/ARCHITECTURE.md "Exhaustive
# checking").
python -m repro.cli check --cpus 2 --lines 1 --sets 1 --depth 8 \
    --conformance 64 \
    --artifact-dir "${TMPDIR:-/tmp}/swcc-check-failures" \
    --manifest "${TMPDIR:-/tmp}/swcc-check-manifest.jsonl"

echo "== benchmark smoke (micro substrates) =="
# Also enforces the speedup floors inside bench_micro.py: the columnar
# replay over the legacy loop (test_single_owner_span_speedup) and the
# trace generator over its record-at-a-time reference
# (test_trace_generation_speedup).
python -m pytest benchmarks/bench_micro.py --benchmark-only \
    --benchmark-disable-gc -q

echo "== vectorized kernels: equivalence + speedup smoke =="
# Small-grid bit-exactness against the scalar path for all four
# schemes (bus and network), then the figure-scale 10x speedup floor.
python benchmarks/bench_vectorized.py --smoke

echo "== one-pass geometry families: equivalence + speedup smoke =="
# Family-vs-per-config bit-exactness for the three geometry-local
# protocols, then the sweep-scale speedup floor on the benchmark
# family (2x in smoke; the recorded baseline enforces 3x).
python benchmarks/bench_onepass.py --smoke

echo "== epoch family (dragon): smoke =="
# Family-vs-per-config bit-exactness for Dragon and WTI's per-config
# fallback reason, then the Dragon eight-size sweep speedup floor
# (1.6x in smoke; the recorded baseline enforces 2x).
python benchmarks/bench_coupled.py --smoke

echo "== bus arbitration disciplines: exactness + overhead smoke =="
# fcfs bit-exactness (arbitrated engine vs columnar, plus the folded
# columnar+arb path vs the reference), round-robin bit-exactness
# (arbitrated engine vs the reference loop over the deferred-grant
# bus), the oracle invariants for every registered discipline, then
# the deferred-grant overhead ceiling (2x in smoke; the recorded
# baseline enforces 1.6x) and the folded-overhead parity ceiling
# (1.5x).
python benchmarks/bench_bus.py --smoke

echo "== paper artefacts: committed reports reproduce =="
# Every figure, table, ablation and extension bench rewrites its
# reports/<experiment>.txt and asserts its shape checks; any byte that
# differs from the committed report fails the check, so a change meant
# to keep results unchanged is held to the paper's own artefacts.
python -m pytest benchmarks/bench_{fig,table,ablation,extension}*.py \
    --benchmark-only -q
git diff --exit-code -- reports/

echo "== all checks passed =="
