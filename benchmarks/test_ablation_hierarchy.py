"""Ablation: hierarchical C-Buffers vs a flat single-level design.

COBRA's key insight is decoupling the core-visible buffer count (few, L1)
from the in-memory bin count (many, LLC) via a *hierarchy* of C-Buffers.
The obvious simpler design — pin all C-Buffers in the LLC and have
binupdate write them directly — keeps the one-instruction ISA but pays an
LLC access per tuple. This bench quantifies what the hierarchy buys.
"""

from repro.core import costs
from repro.harness import modes
from repro.harness.experiments.common import ExperimentResult
from repro.harness.report import format_table
from repro.workloads.base import PhaseSpec, RegionSpec, Segment
from repro.workloads.registry import resolve


def _flat_binning_phase(workload, cobra):
    """binupdate straight into LLC-pinned C-Buffers (no L1/L2 tiers)."""
    n = workload.num_updates
    bin_ids = cobra.memory_bin_spec.bins_of(workload.update_indices)
    cbuf_region = RegionSpec(
        f"{workload.name}.flat-cbuffers", 64, cobra.llc.num_buffers
    )
    per_line = cobra.tuples_per_line
    return PhaseSpec(
        name="binning",
        instructions=n * costs.COBRA_BIN_TUPLE_INSTRS,
        branches=n,
        branch_sites=workload.extra_branch_sites("binning"),
        segments=[Segment(cbuf_region, bin_ids, True)],
        streaming_bytes=n * workload.stream_bytes_per_update,
        hw_write_lines=-(-n // per_line),
        reserved_ways=(0, 0, cobra.llc_reserved_ways),
    )


def test_ablation_hierarchy(benchmark, runner, save_result):
    def run():
        rows = []
        for input_name in ("KRON", "URND"):
            workload = resolve("neighbor-populate", input_name)
            cobra = runner.cobra_config(workload)
            hierarchical = runner.run(workload, modes.COBRA).phase("binning")
            flat = runner._simulate_phase(
                workload, _flat_binning_phase(workload, cobra), None
            )
            rows.append(
                {
                    "input": input_name,
                    "hierarchical_cycles": hierarchical.cycles,
                    "flat_cycles": flat.cycles,
                    "hierarchy_gain": flat.cycles / hierarchical.cycles,
                }
            )
        text = format_table(
            ["input", "hierarchical Mcyc", "flat Mcyc", "gain"],
            [
                [
                    r["input"],
                    r["hierarchical_cycles"] / 1e6,
                    r["flat_cycles"] / 1e6,
                    r["hierarchy_gain"],
                ]
                for r in rows
            ],
            title="Ablation: hierarchical vs flat (LLC-only) C-Buffers",
        )
        return ExperimentResult(name="ablation_hierarchy", rows=rows, text=text)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    # The hierarchy must pay for its eviction plumbing: flat binning that
    # touches the LLC per tuple is strictly slower.
    for row in result.rows:
        assert row["hierarchy_gain"] > 1.2
