"""Append-only history for ``benchmarks/history/BENCH_*.json`` records.

The first three perf PRs each landed a ``BENCH_*.json``, and each suite
re-run *overwrote* its file — so the repository's perf trajectory silently
collapsed to whichever suite ran last, and nothing could ever compare runs
over time. This module is the fix: every BENCH file is now a versioned
envelope holding an append-only list of entries, each keyed by the git
commit and an ISO-8601 UTC date::

    {
      "version": 1,
      "bench": "compiled_kernels",
      "entries": [
        {"recorded": "2026-08-08T12:00:00Z", "git_sha": "99d2816...",
         "record": { ...the suite's measurement dict... }},
        ...
      ]
    }

:func:`append_bench_record` migrates a surviving legacy file (a bare
record dict) into the envelope on first touch, so history accumulated
before this schema is preserved as entry zero. Writers go through the
fsync-hardened atomic JSON writer shared with the checkpoint layer, so a
crash mid-append can never tear the accumulated history.

The golden/replay trend renderer (:mod:`repro.golden.trend`) reads these
files back through :func:`load_history` to build the per-figure perf
trajectory table.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

from repro.harness.checkpoint import _atomic_write_json

__all__ = [
    "FORMAT_VERSION",
    "append_bench_record",
    "bench_name_for",
    "current_git_sha",
    "iso_utc",
    "load_history",
]

#: Bumped when the envelope layout changes incompatibly.
FORMAT_VERSION = 1


def bench_name_for(path):
    """Logical bench name of a results file (``BENCH_foo.json`` -> ``foo``)."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def current_git_sha(cwd=None):
    """The checkout's HEAD commit, or ``"unknown"`` outside a git repo.

    Best-effort by design: bench records must still append when the suite
    runs from an exported tarball or a CI shallow clone without git.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def iso_utc(seconds=None):
    """ISO-8601 UTC stamp (second resolution) for entry/golden metadata."""
    # repro: noqa[nondet] recorded-at stamps are history metadata; entries
    # are keyed for humans/trend rendering, never digested or replayed
    seconds = time.time() if seconds is None else seconds
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds))


def _empty_history(bench):
    return {"version": FORMAT_VERSION, "bench": bench, "entries": []}


def load_history(path):
    """The envelope stored at ``path`` (legacy bare records are wrapped).

    Returns an empty envelope for a missing file; raises ``ValueError``
    for files that are neither an envelope nor a legacy record (corrupt
    JSON), so callers can decide whether to skip or fail loudly.
    """
    path = Path(path)
    bench = bench_name_for(path)
    if not path.is_file():
        return _empty_history(bench)
    payload = json.loads(path.read_text("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: BENCH payload is not a JSON object")
    if "entries" in payload and isinstance(payload["entries"], list):
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: BENCH history version {payload.get('version')!r} "
                f"!= {FORMAT_VERSION}"
            )
        payload.setdefault("bench", bench)
        return payload
    # Legacy schema: the file *is* one bare measurement record, written by
    # a pre-history suite run. Wrap it as the oldest entry; its commit and
    # date were never recorded, which is exactly the loss this schema fixes.
    history = _empty_history(bench)
    history["entries"].append(
        {"recorded": None, "git_sha": None, "record": payload}
    )
    return history


def append_bench_record(path, record, git_sha=None, recorded=None):
    """Append one measurement ``record`` to the history at ``path``.

    Returns the updated envelope. ``git_sha``/``recorded`` default to the
    checkout's HEAD and the current UTC time; tests pass explicit values.
    A legacy bare-record file is migrated into the envelope first, so the
    pre-schema measurement survives as entry zero.
    """
    path = Path(path)
    try:
        history = load_history(path)
    except ValueError:
        # A corrupt history must not block recording fresh measurements;
        # start a new envelope (the corrupt bytes are unreadable anyway).
        history = _empty_history(bench_name_for(path))
    history["entries"].append(
        {
            "recorded": iso_utc() if recorded is None else recorded,
            "git_sha": current_git_sha(path.parent) if git_sha is None else git_sha,
            "record": record,
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write_json(path, history)
    return history
