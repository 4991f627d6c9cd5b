"""Perf-trajectory rendering over the accumulated ``BENCH_*.json`` history.

Every perf suite now *appends* its measurement (keyed by git SHA + ISO
date, :mod:`repro.harness.benchhistory`), so each BENCH file is a time
series. This module folds those series into the per-figure trajectory
table the ``repro trend`` subcommand prints: one section per bench, one
row per recorded entry, one column per tracked metric, plus a net-change
line (newest vs oldest) so a perf regression reads as a negative delta
instead of silently replacing the only number anyone ever recorded.

Metrics are the ``*speedup*`` leaves of each record — the repo's perf
claims are all expressed as speedups with CI floors (3x predictor, 3x
pipeline, 2x DES), so those are the values whose drift matters.
"""

from __future__ import annotations

from pathlib import Path

from repro.harness.benchhistory import load_history
from repro.harness.report import format_table

__all__ = ["HISTORY_DIR", "bench_trend", "format_trend", "trend_metrics"]

#: Tracked home of the ``BENCH_*.json`` histories in a source checkout.
HISTORY_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "history"


def trend_metrics(record, prefix=""):
    """``{dotted.path: value}`` of every numeric ``*speedup*`` leaf."""
    metrics = {}
    if isinstance(record, dict):
        for key in sorted(record):
            dotted = f"{prefix}.{key}" if prefix else str(key)
            value = record[key]
            if isinstance(value, dict):
                metrics.update(trend_metrics(value, dotted))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                if "speedup" in str(key):
                    metrics[dotted] = float(value)
    return metrics


def bench_trend(results_dir):
    """Structured trajectory of every ``BENCH_*.json`` under ``results_dir``.

    Returns ``{"benches": [...], "skipped": [...]}``; a corrupt history
    file lands in ``skipped`` with its error instead of aborting the
    report (the trend must keep rendering whatever survived).
    """
    results_dir = Path(results_dir)
    benches = []
    skipped = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            history = load_history(path)
        except ValueError as exc:
            skipped.append({"path": str(path), "error": str(exc)})
            continue
        entries = []
        for entry in history["entries"]:
            entries.append(
                {
                    "recorded": entry.get("recorded"),
                    "git_sha": entry.get("git_sha"),
                    "metrics": trend_metrics(entry.get("record", {})),
                }
            )
        benches.append(
            {
                "bench": history["bench"],
                "path": str(path),
                "entries": entries,
            }
        )
    return {"benches": benches, "skipped": skipped}


def _short_sha(sha):
    if not sha:
        return "(pre-history)"
    return str(sha)[:12]


def format_trend(data):
    """Render :func:`bench_trend` output as the ``repro trend`` text."""
    sections = []
    for bench in data["benches"]:
        entries = bench["entries"]
        if not entries:
            sections.append(f"{bench['bench']}: no recorded entries")
            continue
        metric_names = sorted({m for e in entries for m in e["metrics"]})
        rows = [
            [
                entry["recorded"] or "(pre-history)",
                _short_sha(entry["git_sha"]),
                *[
                    entry["metrics"].get(name, float("nan"))
                    for name in metric_names
                ],
            ]
            for entry in entries
        ]
        table = format_table(
            ["recorded", "git", *metric_names],
            rows,
            title=f"{bench['bench']} ({len(entries)} entries)",
        )
        lines = [table]
        if len(entries) >= 2:
            oldest, newest = entries[0]["metrics"], entries[-1]["metrics"]
            deltas = []
            for name in metric_names:
                if name in oldest and name in newest and oldest[name]:
                    change = (newest[name] - oldest[name]) / oldest[name]
                    deltas.append(f"{name} {change:+.1%}")
            if deltas:
                lines.append(f"  net change (newest vs oldest): {', '.join(deltas)}")
        sections.append("\n".join(lines))
    for skip in data["skipped"]:
        sections.append(f"SKIPPED {skip['path']}: {skip['error']}")
    if not sections:
        return "no BENCH_*.json history found"
    return "\n\n".join(sections)
