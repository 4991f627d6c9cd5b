"""Counter pins and the perf trajectory: the continuous regression gate.

The paper's claims are counter-level and bit-exact — fig02–fig15 LLC miss
rates, stall fractions, and the 7.4x/74x pipeline speedups — so this
package pins the counters of a small canary in one tracked file and gates
every change on them. Three pieces:

:mod:`repro.golden.canary`
    The small figure-suite subset pinned by capture/replay.
:mod:`repro.golden.replay`
    ``repro capture`` / ``repro replay``: record the canary's counters in
    the tracked ``pins.json``, or re-run the canary and diff it against
    the pins bit-exactly into a structured
    :class:`~repro.golden.replay.ReplayReport`.
:mod:`repro.golden.trend`
    ``repro trend``: the per-figure perf trajectory over the accumulated
    append-only ``BENCH_*.json`` history.
"""

from __future__ import annotations

from repro.golden.canary import CANARY_SPECS, canary_points
from repro.golden.replay import (
    PINS_PATH,
    PointReport,
    ReplayReport,
    capture_pins,
    load_pins,
    replay_pins,
)
from repro.golden.trend import bench_trend, format_trend, trend_metrics

__all__ = [
    "CANARY_SPECS",
    "PINS_PATH",
    "PointReport",
    "ReplayReport",
    "bench_trend",
    "canary_points",
    "capture_pins",
    "format_trend",
    "load_pins",
    "replay_pins",
    "trend_metrics",
]
