"""Quickstart: Propagation Blocking and COBRA in five minutes.

Builds a small power-law graph, runs the degree-counting kernel three ways
— directly, with software PB, and through the COBRA machine model — and
shows that all three agree while the performance model explains why they
differ in speed.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import resolve_workload
from repro.core import CobraConfig, CobraMachine
from repro.graphs import rmat
from repro.harness import BASELINE, COBRA, PB_SW, Runner
from repro.pb import PropagationBlocker


def main():
    # ------------------------------------------------------------------ #
    # 1. An irregular update stream: count vertex degrees of a graph.
    # ------------------------------------------------------------------ #
    edges = rmat(num_vertices=1 << 14, num_edges=1 << 17, seed=7)
    print(f"input: {edges}")

    degrees_direct = np.zeros(edges.num_vertices, dtype=np.int64)
    np.add.at(degrees_direct, edges.src, 1)

    # ------------------------------------------------------------------ #
    # 2. The same kernel under software Propagation Blocking.
    # ------------------------------------------------------------------ #
    blocker = PropagationBlocker(edges.num_vertices, num_bins=256)
    degrees_pb = blocker.execute(
        edges.src,
        np.ones(edges.num_edges, dtype=np.int64),
        np.zeros(edges.num_vertices, dtype=np.int64),
        op="add",
    )
    print(
        f"software PB ({blocker.num_bins} bins) matches direct execution:",
        bool(np.array_equal(degrees_direct, degrees_pb)),
    )

    # ------------------------------------------------------------------ #
    # 3. The same stream through the COBRA machine model: binupdate per
    #    tuple, hierarchical C-Buffer evictions, binflush at the end.
    # ------------------------------------------------------------------ #
    config = CobraConfig(num_indices=edges.num_vertices, tuple_bytes=4)
    machine = CobraMachine(config).bininit()
    machine.binupdate_many(edges.src.tolist())
    machine.binflush()
    degrees_cobra = np.zeros(edges.num_vertices, dtype=np.int64)
    for bin_tuples in machine.memory_bins.bins:
        for index, _value in bin_tuples:
            degrees_cobra[index] += 1
    print(
        "COBRA machine matches direct execution:",
        bool(np.array_equal(degrees_direct, degrees_cobra)),
    )
    print(
        f"COBRA C-Buffers: {config.l1.num_buffers} (L1) -> "
        f"{config.l2.num_buffers} (L2) -> {config.llc.num_buffers} (LLC); "
        f"{machine.stats.l1_evictions} L1 evictions, "
        f"{machine.memory_bins.lines_written} DRAM lines written"
    )

    # ------------------------------------------------------------------ #
    # 4. Why it is faster: the performance model.
    # ------------------------------------------------------------------ #
    runner = Runner(max_sim_events=100_000)
    workload = resolve_workload("degree-count/KRON@17")
    baseline = runner.run(workload, BASELINE).cycles
    pb = runner.run(workload, PB_SW).cycles
    cobra = runner.run(workload, COBRA).cycles
    print(
        f"\nmodeled cycles  baseline={baseline / 1e6:.1f}M  "
        f"PB={pb / 1e6:.1f}M ({baseline / pb:.2f}x)  "
        f"COBRA={cobra / 1e6:.1f}M ({baseline / cobra:.2f}x, "
        f"{pb / cobra:.2f}x over PB)"
    )


if __name__ == "__main__":
    main()
