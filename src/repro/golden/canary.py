"""The canary subset of the figure suite pinned by capture/replay.

The full figure campaign is hours of simulation; the counter gate needs a
subset small enough to re-run in tier-1 yet broad enough to cover the
counter surfaces the paper's claims rest on. The canary spans both
workload families (graph-irregular and sort-irregular updates) and every
mode whose counters back the headline figures: ``baseline`` (fig02 LLC
miss rates), ``pb-sw``/``pb-sw-ideal`` (fig05/fig10 software PB),
``cobra`` (fig10/fig11 hardware PB with reserved ways + C-Buffers), and
the coalescing modes ``phi``/``cobra-comm`` (fig14) — plus one ingested
real graph (``csr-build/KARATE``), pinning the dataset ingestion path
(sha256-verified bytes, fixed natural scale).

Scale 13 fits in the 128 KB LLC, so DRRIP/PSEL eviction and writebacks
barely fire there; ``degree-count/KRON@16`` under baseline and cobra
spills to DRAM and pins the eviction and writeback counters too.
"""

from __future__ import annotations

from repro.harness.modes import BASELINE, COBRA, COBRA_COMM, PB_SW, PB_SW_IDEAL, PHI
from repro.workloads.registry import resolve_spec

__all__ = ["CANARY_SPECS", "canary_points"]

#: ``(workload/input[@scale], modes)`` pairs of the canary subset.
CANARY_SPECS = (
    ("degree-count/KRON@13", (BASELINE, PB_SW_IDEAL, COBRA, COBRA_COMM, PHI)),
    ("integer-sort/U16@13", (BASELINE, PB_SW, PB_SW_IDEAL, COBRA)),
    ("csr-build/KARATE", (BASELINE, COBRA)),
    ("degree-count/KRON@16", (BASELINE, COBRA)),
)


def canary_points():
    """The canary ``(workload, mode)`` list, in :data:`CANARY_SPECS` order."""
    points = []
    for spec, modes in CANARY_SPECS:
        workload = resolve_spec(spec)
        points.extend((workload, mode) for mode in modes)
    return points
