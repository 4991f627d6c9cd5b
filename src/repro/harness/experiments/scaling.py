"""Extension experiment: multicore scalability of baseline / PB / COBRA.

Not a paper figure — the paper evaluates at a fixed 16 cores — but a
direct consequence of its parallel design: PB and COBRA duplicate bins and
C-Buffers per thread and therefore scale without coherence traffic, while
the baseline's shared scatters ping-pong lines between cores. This driver
produces speedup-vs-cores curves for all three.

:class:`ParallelModel` layers those effects on the single-representative-
core runner (16-core Table II machine):

* per-core work = an even slice of the update stream (edge-parallel
  kernels), with the measured slice-size imbalance applied,
* DRAM-bandwidth share per core shrinks as cores grow (the default
  machine's ``stream_bytes_per_cycle`` is the 16-core share),
* baseline writes to shared data run through :class:`DirectoryMESI` on a
  round-robin interleaving to measure invalidations per update, each
  costing a remote transfer.

The scalability curves it produces are reported as an extension in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.harness import modes
from repro.harness.experiments.common import ExperimentResult, shared_runner
from repro.harness.report import format_table
from repro.workloads.registry import resolve

__all__ = ["BASE_CORES", "ParallelEstimate", "ParallelModel", "run"]

DEFAULT_CORES = (1, 2, 4, 8, 16)

#: Total cores the default machine's per-core parameters assume.
BASE_CORES = 16


@dataclass(frozen=True)
class ParallelEstimate:
    """Modeled parallel execution of one workload/mode."""

    mode: str
    num_cores: int
    single_core_cycles: float
    parallel_cycles: float
    imbalance: float
    invalidations_per_update: float
    coherence_cycles: float

    @property
    def speedup_vs_one_core(self):
        """Parallel speedup over the same mode on one core."""
        return self.single_core_cycles / self.parallel_cycles

    @property
    def efficiency(self):
        """Parallel efficiency (speedup / cores)."""
        return self.speedup_vs_one_core / self.num_cores


class ParallelModel:
    """Estimates multicore behaviour from single-core runs."""

    def __init__(self, runner, coherence_sample=60_000):
        self.runner = runner
        self.coherence_sample = coherence_sample

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #

    def slice_imbalance(self, workload, num_cores):
        """Max-over-mean work across even stream slices.

        Edge-parallel loops divide the update stream evenly, so imbalance
        comes only from rounding; dynamic scheduling in the paper's
        OpenMP-style loops keeps it near 1.0.
        """
        check_positive("num_cores", num_cores)
        n = workload.num_updates
        if n == 0 or num_cores == 1:
            return 1.0
        per_core = -(-n // num_cores)
        return per_core * num_cores / n

    def invalidation_rate(self, workload, num_cores, line_elems=16):
        """Invalidations per update when cores share the data structure.

        Round-robin-interleaves a sample of the update stream across cores
        and counts the *line-level* write conflicts a MESI directory would
        see (the probability that another core recently wrote the same line
        is what drives ping-ponging). Because every access is a write, at
        most one core holds a line at any time, so replaying the stream
        through :class:`DirectoryMESI` reduces to a closed form — a write
        invalidates iff the line's previous write came from a different
        core, i.e. the gap between occurrences is not a multiple of the
        core count — evaluated here fully vectorized (equivalence with the
        scalar directory replay is test-asserted).
        """
        if num_cores == 1:
            return 0.0
        sample = np.asarray(workload.update_indices[: self.coherence_sample])
        if sample.size == 0:
            return 0.0
        lines = sample // line_elems
        # Stable sort by line groups successive writes to the same line;
        # positions within a group are consecutive occurrences.
        order = np.lexsort((np.arange(lines.size), lines))
        sorted_lines = lines[order]
        same_line = sorted_lines[1:] == sorted_lines[:-1]
        gaps = order[1:] - order[:-1]
        invalidations = int(
            np.count_nonzero(same_line & (gaps % num_cores != 0))
        )
        return invalidations / lines.size

    # ------------------------------------------------------------------ #
    # Estimates
    # ------------------------------------------------------------------ #

    def estimate(self, workload, mode, num_cores=BASE_CORES):
        """Parallel cycles for ``workload`` under ``mode`` on ``num_cores``.

        The per-core DRAM-bandwidth share scales inversely with the core
        count relative to the 16-core default; per-core cache capacities
        are per-core resources and stay fixed.
        """
        check_positive("num_cores", num_cores)
        from repro.harness.runner import Runner

        machine = self.runner.machine.with_core(
            stream_bytes_per_cycle=(
                self.runner.machine.core.stream_bytes_per_cycle
                * BASE_CORES
                / num_cores
            )
        )
        scaled_runner = Runner(
            machine=machine,
            max_sim_events=self.runner.max_sim_events,
            model_eviction_stalls=self.runner.model_eviction_stalls,
            des_sample=self.runner.des_sample,
            engine=self.runner.engine,
            result_cache=self.runner.result_cache,
        )
        one_core_total = scaled_runner.run(
            workload, mode, use_cache=False
        ).cycles

        imbalance = self.slice_imbalance(workload, num_cores)
        per_core = one_core_total / num_cores * imbalance

        invalidations_per_update = 0.0
        coherence_cycles = 0.0
        if mode == modes.BASELINE and num_cores > 1:
            invalidations_per_update = self.invalidation_rate(
                workload, num_cores
            )
            transfer = self.runner.machine.core.llc_remote_latency
            mlp = self.runner.machine.core.mlp_irregular
            coherence_cycles = (
                invalidations_per_update
                * workload.num_updates
                / num_cores
                * transfer
                / mlp
            )
        return ParallelEstimate(
            mode=mode,
            num_cores=num_cores,
            single_core_cycles=one_core_total,
            parallel_cycles=per_core + coherence_cycles,
            imbalance=imbalance,
            invalidations_per_update=invalidations_per_update,
            coherence_cycles=coherence_cycles,
        )

    def scaling_curve(self, workload, mode, core_counts=(1, 2, 4, 8, 16)):
        """Estimates across core counts (the scalability extension)."""
        return [
            self.estimate(workload, mode, num_cores)
            for num_cores in core_counts
        ]


def run(
    runner=None,
    workload_name="pagerank",
    input_name="KRON",
    core_counts=DEFAULT_CORES,
    scale=None,
):
    """Speedup vs cores for baseline, PB-SW, and COBRA."""
    runner = runner or shared_runner()
    kwargs = {} if scale is None else {"scale": scale}
    workload = resolve(workload_name, input_name, **kwargs)
    model = ParallelModel(runner)
    rows = []
    for mode in (modes.BASELINE, modes.PB_SW, modes.COBRA):
        curve = model.scaling_curve(workload, mode, core_counts)
        base = curve[0].parallel_cycles
        for estimate in curve:
            rows.append(
                {
                    "mode": mode,
                    "cores": estimate.num_cores,
                    "cycles": estimate.parallel_cycles,
                    "speedup": base / estimate.parallel_cycles,
                    "efficiency": base
                    / estimate.parallel_cycles
                    / estimate.num_cores,
                    "invalidations_per_update": (
                        estimate.invalidations_per_update
                    ),
                }
            )
    text = format_table(
        ["mode", "cores", "speedup", "efficiency", "inval/update"],
        [
            [
                r["mode"],
                r["cores"],
                r["speedup"],
                r["efficiency"],
                r["invalidations_per_update"],
            ]
            for r in rows
        ],
        title=(
            f"Scalability extension ({workload_name}/{input_name}): "
            "speedup vs 1 core"
        ),
    )
    return ExperimentResult(name="scaling", rows=rows, text=text)
