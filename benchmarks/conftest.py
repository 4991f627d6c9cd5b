"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at full
scale (DESIGN.md Section 3), prints the rows/series the paper reports, and
persists them under ``benchmarks/results/``. A session-wide runner memoizes
(workload, mode) runs so later figures reuse earlier simulations. The perf
suites append their measurements to the tracked ``benchmarks/history/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.experiments.common import shared_runner
from repro.harness.resultcache import ResultCache

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
HISTORY_DIR = pathlib.Path(__file__).parent / "history"


@pytest.fixture(scope="session")
def runner():
    """Session-wide runner shared by all figure benchmarks.

    Carries the persistent result cache (``benchmarks/results/.cache/``) so
    a re-run — or a resumed, previously killed session — skips completed
    simulations entirely.
    """
    instance = shared_runner()
    if instance.result_cache is None:
        instance.result_cache = ResultCache()
    return instance


@pytest.fixture(scope="session")
def bench_history():
    """Append a perf measurement to ``benchmarks/history/<name>``.

    The perf suites used to ``write_text`` their record, silently clobbering
    every earlier suite's measurement — which is how the PR-1 and PR-4 BENCH
    files vanished. Records now accumulate keyed by git SHA + ISO date (see
    :mod:`repro.harness.benchhistory`) in a tracked directory, and
    ``repro trend`` renders the resulting trajectory.
    """
    from repro.harness.benchhistory import append_bench_record

    def append(name, record):
        HISTORY_DIR.mkdir(exist_ok=True)
        path = HISTORY_DIR / name
        history = append_bench_record(path, record)
        entry = history["entries"][-1]
        print(
            f"[appended entry {len(history['entries'])} "
            f"(git {str(entry['git_sha'])[:12]}, {entry['recorded']}) "
            f"to {path}]"
        )
        return history

    return append


@pytest.fixture(scope="session")
def save_result():
    """Persist an ExperimentResult (text + CSV rows) and echo the text."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def save(result):
        path = RESULTS_DIR / f"{result.name}.txt"
        path.write_text(result.text + "\n")
        if result.rows:
            import csv

            csv_path = RESULTS_DIR / f"{result.name}.csv"
            fieldnames = list(result.rows[0])
            with csv_path.open("w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=fieldnames)
                writer.writeheader()
                writer.writerows(result.rows)
        print(f"\n{result.text}\n[saved to {path}]")
        return result

    return save
