"""Table and JSON emission for benchmarks.

Benchmarks print the rows/series the paper reports.  Output goes to
the real stdout (bypassing pytest's capture) so that
``pytest benchmarks/ --benchmark-only`` leaves the tables in the log.

Benchmarks that contribute to the performance trajectory additionally
call :func:`emit_json`, which writes a machine-readable
``BENCH_<name>.json`` file at the repository root so successive
changes can be compared without parsing log text.  Every file carries
the fingerprint of the host that wrote it (:func:`host_fingerprint`),
so numbers from different machines are never compared as if alike.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Mapping, Sequence

from repro.harness.tables import format_table

#: Repository root — two levels up from this file (benchmarks/_emit.py).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def host_fingerprint() -> dict[str, Any]:
    """CPU count, Python version, fsync p50 and git HEAD of this host.

    The fsync figure is the median of 50 4 KiB write + ``fsync`` rounds
    in a fresh temporary directory.  ``git_head`` is None outside a git
    checkout.
    """
    samples = []
    with tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(scratch, "fsync-probe.dat"), "wb") as fh:
            for _ in range(50):
                fh.write(b"\0" * 4096)
                fh.flush()
                t0 = time.perf_counter()
                os.fsync(fh.fileno())
                samples.append((time.perf_counter() - t0) * 1e6)
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
        git_head = (head.stdout.strip() or None) if head.returncode == 0 \
            else None
    except (OSError, subprocess.SubprocessError):
        git_head = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "fsync_p50_us": round(statistics.median(samples), 1),
        "git_head": git_head,
    }


def emit(text: str) -> None:
    print(text, file=sys.__stdout__, flush=True)


def emit_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> None:
    emit("")
    emit(format_table(headers, rows, title))


def emit_json(
    name: str,
    payload: Mapping[str, Any],
    root: pathlib.Path | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    ``payload`` must carry ``params`` and ``metrics`` mappings plus a
    ``wall_seconds`` float; ``bench``, the ``host`` fingerprint and a
    ``unix_time`` stamp are filled in here so every trajectory file
    shares one schema::

        {"bench": ..., "params": {...}, "metrics": {...},
         "wall_seconds": ..., "host": {...}, "unix_time": ...}
    """
    document = {
        "bench": name,
        "params": dict(payload.get("params", {})),
        "metrics": dict(payload.get("metrics", {})),
        "wall_seconds": payload.get("wall_seconds"),
        "host": host_fingerprint(),
        "unix_time": time.time(),
    }
    path = (root if root is not None else REPO_ROOT) / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    emit(f"[bench] wrote {path}")
    return path
