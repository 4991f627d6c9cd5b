"""Supplemental characterization: miss-ratio curves, raw vs binned.

Not a paper figure, but the cleanest way to see *why* PB works: the raw
irregular update stream's miss-ratio curve stays high until the cache
approaches the whole working set, while the same updates replayed in
bin-major order drop to compulsory misses at any realistic size.
"""

from __future__ import annotations

from repro.cache.mrc import miss_ratio_curve, working_set_lines
from repro.harness.experiments.common import ExperimentResult, shared_runner
from repro.harness.report import format_table
from repro.pb.bins import BinSpec, group_order
from repro.workloads.registry import resolve

__all__ = ["run"]

DEFAULT_SIZES_KB = (16, 32, 64, 128, 256, 512)


def run(
    runner=None,
    workload_name="degree-count",
    input_name="KRON",
    sizes_kb=DEFAULT_SIZES_KB,
    num_bins=1024,
    scale=None,
):
    """Miss-ratio curves of the raw and bin-reordered update streams."""
    runner = runner or shared_runner()
    kwargs = {} if scale is None else {"scale": scale}
    workload = resolve(workload_name, input_name, **kwargs)
    line_elems = 64 // workload.element_bytes
    raw_lines = (workload.update_indices // line_elems).tolist()
    spec = BinSpec.from_num_bins(workload.num_indices, num_bins)
    order = group_order(spec.bins_of(workload.update_indices), spec.num_bins)
    binned_lines = (workload.update_indices[order] // line_elems).tolist()

    rows = []
    for label, lines in (("raw", raw_lines), ("binned", binned_lines)):
        simulated = min(len(lines), 200_000)
        for point in miss_ratio_curve(lines, sizes_kb=sizes_kb):
            # DRAM accesses per kilo-update is the comparable metric: the
            # binned replay sends almost nothing past the L2, so its LLC
            # miss *ratio* is high while its absolute misses are tiny.
            rows.append(
                {
                    "stream": label,
                    **point,
                    "dram_per_kilo_update": 1000.0
                    * point["dram_accesses"]
                    / max(simulated, 1),
                }
            )
    text = format_table(
        ["stream", "LLC KB", "DRAM/kupdate", "LLC miss ratio"],
        [
            [
                r["stream"],
                r["size_kb"],
                r["dram_per_kilo_update"],
                r["miss_ratio"],
            ]
            for r in rows
        ],
        title=(
            f"Miss-ratio curves ({workload_name}/{input_name}, "
            f"working set {working_set_lines(raw_lines)} lines)"
        ),
        floatfmt="{:.3f}",
    )
    return ExperimentResult(name="mrc", rows=rows, text=text)
