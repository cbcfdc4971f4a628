"""Run manifests: an append-only JSONL event log per CLI invocation.

A manifest is the run's flight recorder.  Every ``swcc run``/``swcc
fuzz`` invocation appends one **run header** followed by per-sweep and
per-cell events, each a single JSON object on its own line:

.. code-block:: json

    {"event": "run-start", "format": "swcc-run-manifest", "version": 1,
     "command": "run", "experiments": ["figure2"],
     "config": {"fast": true, "jobs": 8},
     "checkpoint": "swcc-runs/run-....jsonl.ckpt",
     "git": {"commit": "2ada0ac...", "dirty": false}, ...}
    {"event": "sweep-start", "sweep": 0, "cells": 3, "label": "figure2"}
    {"event": "cell-start",  "sweep": 0, "cell": 0, "item": "('pops', ...)"}
    {"event": "cell-finish", "sweep": 0, "cell": 0, "wall_s": 1.92,
     "records": 480000, "records_per_s": 250133.1, "engine": "columnar",
     "peak_rss_kb": 181240, "fallback_reason": "", "digest": "sha256:ab12..."}

``engine`` is the label of the cell's last simulation, one of
``repro.sim.engines.ENGINES``, and
``fallback_reason`` is the structured ``category:detail`` reason when
a geometry-family call inside the cell fell back to per-config replay
(empty when nothing fell back) — so a sweep that silently lost its
one-pass speedup is visible in the flight log.
    {"event": "cell-failed", "sweep": 0, "cell": 1, "item": "...",
     "error": "ValueError: boom", "traceback": "Traceback ..."}
    {"event": "sweep-finish", "sweep": 0, "ok": 2, "failed": 1, "cached": 0}
    {"event": "run-finish", "wall_s": 6.21, "exit_code": 1}

Each line is flushed as it is written, so a killed run leaves a valid
prefix (plus at most one truncated final line, which
:func:`load_manifest` tolerates).  ``swcc run --resume <manifest>``
appends a fresh ``run-start``/``run-finish`` pair to the same file and
re-executes only the cells the sidecar checkpoint
(:mod:`repro.obs.checkpoint`) does not already hold.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import IO

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "ManifestWriter",
    "git_state",
    "load_manifest",
    "run_header",
]

MANIFEST_FORMAT = "swcc-run-manifest"
MANIFEST_VERSION = 1


def git_state(root: str | Path | None = None) -> dict | None:
    """Commit hash and dirtiness of the working tree, or None.

    Never raises: a missing ``git`` binary or a non-repository working
    directory simply yields None (manifests must work from a tarball).
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        "commit": commit.stdout.strip(),
        "dirty": bool(status.returncode == 0 and status.stdout.strip()),
    }


def run_header(command: str, *, config: dict, **fields) -> dict:
    """The ``run-start`` event body for one CLI invocation.

    Args:
        command: the subcommand (``"run"`` or ``"fuzz"``).
        config: everything needed to re-execute the run identically
            (experiment list, fast flag, seeds, ...).
        **fields: extra header fields (e.g. ``checkpoint=...``,
            ``resumed_from=...``).
    """
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "command": command,
        "config": config,
        "git": git_state(),
        "python": platform.python_version(),
        **fields,
    }


class ManifestWriter:
    """Appends JSONL events to a manifest file, flushing per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: IO[str] | None = open(
            self.path, "a", encoding="utf-8"
        )

    def event(self, event: str, **fields) -> None:
        """Append one event line (no-op after :meth:`close`)."""
        if self._stream is None:
            return
        record = {"event": event, "ts": round(time.time(), 3), **fields}
        self._stream.write(json.dumps(record, sort_keys=False) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_manifest(path: str | Path) -> list[dict]:
    """All parseable events of a manifest, in file order.

    A truncated final line (the signature a killed writer leaves) is
    skipped silently; a corrupt line anywhere *else* raises, since
    that indicates real damage rather than an interrupted append.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    events: list[dict] = []
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                break
            raise ValueError(
                f"{path}:{number + 1}: corrupt manifest line"
            ) from None
    return events
