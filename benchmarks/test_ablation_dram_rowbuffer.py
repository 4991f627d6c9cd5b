"""Ablation: DRAM row-buffer behaviour of baseline vs PB phases.

Beyond caches, binning reorders DRAM traffic itself: the baseline's
scattered updates close a row per access, while PB/COBRA touch DRAM with
sequential bin writes (Binning) and range-confined replays (Accumulate).
The banked DRAM model quantifies the row-hit-rate gap — an additional,
paper-adjacent benefit of the same reordering.
"""

from repro.dram import DramModel
from repro.harness.experiments.common import ExperimentResult
from repro.harness.report import format_table
from repro.pb.bins import BinSpec, bin_updates
from repro.workloads.registry import resolve


def test_ablation_dram_rowbuffer(benchmark, runner, save_result):
    def run():
        rows = []
        for input_name in ("KRON", "URND"):
            workload = resolve("degree-count", input_name)
            line_elems = 64 // workload.element_bytes
            sample = workload.update_indices[:200_000]

            baseline_lines = (sample // line_elems).tolist()
            baseline = DramModel().run(baseline_lines)

            spec = BinSpec.from_num_bins(workload.num_indices, 1024)
            binned, _vals, _off = bin_updates(sample, None, spec)
            accumulate_lines = (binned // line_elems).tolist()
            accumulate = DramModel().run(accumulate_lines)

            # Binning's own DRAM writes are the bins, filled sequentially.
            tuples_per_line = 64 // workload.tuple_bytes
            bin_write_lines = list(range(len(sample) // tuples_per_line))
            binning = DramModel().run(bin_write_lines)

            rows.append(
                {
                    "input": input_name,
                    "baseline_hit_rate": baseline.row_hit_rate,
                    "binning_hit_rate": binning.row_hit_rate,
                    "accumulate_hit_rate": accumulate.row_hit_rate,
                    "baseline_avg_latency": baseline.average_latency,
                    "accumulate_avg_latency": accumulate.average_latency,
                }
            )
        text = format_table(
            [
                "input",
                "baseline hit",
                "binning hit",
                "accumulate hit",
                "baseline lat",
                "accumulate lat",
            ],
            [
                [
                    r["input"],
                    r["baseline_hit_rate"],
                    r["binning_hit_rate"],
                    r["accumulate_hit_rate"],
                    r["baseline_avg_latency"],
                    r["accumulate_avg_latency"],
                ]
                for r in rows
            ],
            title="Ablation: DRAM row-buffer hit rates per phase",
        )
        return ExperimentResult(
            name="ablation_dram_rowbuffer", rows=rows, text=text
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    for row in result.rows:
        assert row["binning_hit_rate"] > 0.95  # pure sequential writes
        assert row["accumulate_hit_rate"] > row["baseline_hit_rate"] + 0.3
        assert row["accumulate_avg_latency"] < row["baseline_avg_latency"]
