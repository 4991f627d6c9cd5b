"""Exploring the bin-count tension and COBRA's answer to it.

Reproduces, on a workload of your choice, the paper's core motivation
(Figure 4): software PB must compromise on one bin count, while COBRA's
hierarchical C-Buffers give Binning an L1-resident view of a few buffers
and Accumulate a large in-memory bin count simultaneously. Also shows the
eviction-buffer DES (Figure 13a) sizing the hardware FIFOs.

Run:  python examples/tune_binning.py [workload] [input]
      e.g. python examples/tune_binning.py integer-sort U16
"""

import sys

from repro.des import EvictionBufferModel, EvictionModelConfig
from repro.harness import Runner
from repro.harness.report import format_table
from repro.pb import BinSpec
from repro.workloads.registry import WORKLOAD_INPUTS, resolve


def main(workload_name="neighbor-populate", input_name="KRON"):
    runner = Runner(max_sim_events=100_000)
    workload = resolve(workload_name, input_name, scale=16)
    plan = runner.plan(workload)
    print(f"{workload_name}/{input_name}: {workload}")
    print(f"planner: {plan.describe()}\n")

    # The software sweep: one bin count must serve both phases.
    rows = []
    for num_bins in (16, 64, 256, 1024, 4096):
        spec = BinSpec.from_num_bins(workload.num_indices, num_bins)
        counters = runner.run_with_spec(workload, spec, include_init=False)
        rows.append(
            [
                spec.num_bins,
                counters.phase("binning").cycles / 1e6,
                counters.phase("accumulate").cycles / 1e6,
                counters.cycles / 1e6,
            ]
        )
    print(
        format_table(
            ["bins", "binning Mcyc", "accumulate Mcyc", "total Mcyc"],
            rows,
            title="Software PB: the Figure 4 tension",
        )
    )

    # COBRA's answer: per-level buffer counts from bininit.
    cobra = runner.cobra_config(workload)
    print(
        f"\nCOBRA bininit: L1 {cobra.l1.num_buffers} buffers "
        f"(range {cobra.l1.bin_range}) -> L2 {cobra.l2.num_buffers} -> "
        f"LLC {cobra.llc.num_buffers} = in-memory bins"
    )
    from repro.harness import COBRA, PB_SW

    pb = runner.run(workload, PB_SW)
    hw = runner.run(workload, COBRA)
    print(
        f"PB-SW {pb.cycles / 1e6:.1f}M cycles -> COBRA "
        f"{hw.cycles / 1e6:.1f}M cycles ({pb.cycles / hw.cycles:.2f}x)\n"
    )

    # Eviction-buffer sizing via the DES (Figure 13a).
    rows = []
    for entries in (1, 4, 16, 32):
        config = EvictionModelConfig(
            num_indices=workload.num_indices,
            l1_buffers=cobra.l1.num_buffers,
            l2_buffers=cobra.l2.num_buffers,
            llc_buffers=cobra.llc.num_buffers,
            tuples_per_line=cobra.tuples_per_line,
            l1_evict_queue=entries,
        )
        result = EvictionBufferModel(config).run(
            workload.update_indices[:30_000]
        )
        rows.append([entries, result.stall_fraction])
    print(
        format_table(
            ["L1->L2 FIFO entries", "stall fraction"],
            rows,
            title="Eviction-buffer DES (Figure 13a)",
            floatfmt="{:.4f}",
        )
    )


if __name__ == "__main__":
    args = sys.argv[1:3]
    if args and args[0] not in WORKLOAD_INPUTS:
        raise SystemExit(
            f"unknown workload {args[0]!r}; pick from {sorted(WORKLOAD_INPUTS)}"
        )
    main(*args)
