"""Plain-text table/series formatting shared by experiments and benches."""

from __future__ import annotations

import math

__all__ = [
    "geomean",
    "format_table",
    "format_series",
    "format_replay",
    "speedup",
]


def geomean(values):
    """Geometric mean (ignores non-positive values defensively)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup(baseline_cycles, new_cycles):
    """Speedup of ``new`` over ``baseline`` (>1 means faster)."""
    return baseline_cycles / new_cycles if new_cycles else float("inf")


def format_table(headers, rows, title=None, floatfmt="{:.2f}"):
    """Render an aligned text table. ``rows`` hold str/int/float cells."""
    rendered = [
        [
            floatfmt.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered
        else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[c].rjust(widths[c]) for c in range(len(row))))
    return "\n".join(lines)


def format_series(name, xs, ys, xlabel="x", ylabel="y", floatfmt="{:.3f}"):
    """Render an (x, y) series as the rows a figure would plot."""
    rows = [[x, float(y)] for x, y in zip(xs, ys)]
    return format_table([xlabel, ylabel], rows, title=name, floatfmt=floatfmt)


def format_replay(payload):
    """Render a ``ReplayReport.as_dict()`` payload as plain text.

    Takes the serialized dict (not the dataclass) so ``repro report
    --replay saved.json`` renders an artifact from another machine/CI run
    identically to a live ``repro replay``.
    """
    buckets = ("pass", "fail", "stale", "missing")
    rows = [
        [
            str(point.get("point")),
            str(point.get("mode")),
            str(point.get("status")),
            str(len(point.get("counter_drift", []))),
        ]
        for point in payload.get("points", [])
    ]
    summary = payload.get("summary", {})
    lines = [
        format_table(
            ["point", "mode", "status", "drifts"],
            rows,
            title=(
                f"Replay vs counter pins (machine "
                f"{str(payload.get('machine_digest'))[:12]})"
            ),
        ),
        "  " + "  ".join(f"{b} {summary.get(b, 0)}" for b in buckets),
    ]
    for point in payload.get("points", []):
        for drift in point.get("counter_drift", []):
            lines.append(
                f"  COUNTER DRIFT {point.get('point')} ({point.get('mode')}) "
                f"{drift.get('field')}: pinned={drift.get('pinned')!r} "
                f"replay={drift.get('replay')!r}"
            )
    out_of_date = summary.get("stale", 0) + summary.get("missing", 0)
    if summary.get("fail"):
        verdict = "COUNTER DRIFT DETECTED"
    elif out_of_date:
        verdict = (
            f"{out_of_date} pin(s) stale or missing: re-record with "
            "`python -m repro capture` and name the cause in CHANGES.md"
        )
    else:
        verdict = "counters bit-identical"
    lines.append(f"  gate: {verdict}")
    return "\n".join(lines)
