"""Ablation: COBRA without static cache partitioning (Section V-E).

The paper claims the baseline replacement policies (PLRU at L1/L2, DRRIP
at the LLC) retain C-Buffer lines well even *without* way reservation,
because all competing accesses during Binning are streaming: they measured
a <1% C-Buffer miss rate on their cache simulator. We repeat the
experiment: C-Buffer lines become ordinary cacheable data fighting the
edge stream, and we measure how often a C-Buffer access leaves the
hierarchy.
"""

from repro.harness.experiments.common import ExperimentResult
from repro.harness.report import format_table
from repro.workloads.base import PhaseSpec, RegionSpec, Segment
from repro.workloads.registry import resolve


def _unpartitioned_cbuffer_phase(workload, num_buffers):
    bin_shift = max(
        0, (workload.num_indices // num_buffers).bit_length() - 1
    )
    bin_ids = workload.update_indices >> bin_shift
    region = RegionSpec(f"{workload.name}.soft-cbuffers", 64, num_buffers)
    return PhaseSpec(
        name="binning",
        instructions=workload.num_updates * 3,
        branches=workload.num_updates,
        segments=[Segment(region, bin_ids, True)],
        streaming_bytes=workload.num_updates * workload.stream_bytes_per_update,
        reserved_ways=None,  # the whole point: no partitioning
    )


def test_ablation_no_partitioning(benchmark, runner, save_result):
    def run():
        rows = []
        for input_name in ("KRON", "URND", "EURO"):
            workload = resolve("neighbor-populate", input_name)
            cobra = runner.cobra_config(workload)
            phase = _unpartitioned_cbuffer_phase(
                workload, cobra.llc.num_buffers
            )
            counters = runner._simulate_phase(workload, phase, None)
            service = counters.irregular_service
            rows.append(
                {
                    "input": input_name,
                    "dram_miss_rate": service.dram / max(service.total, 1),
                    "llc_or_better": (service.total - service.dram)
                    / max(service.total, 1),
                }
            )
        text = format_table(
            ["input", "C-Buffer DRAM-miss rate", "retained on chip"],
            [
                [r["input"], r["dram_miss_rate"], r["llc_or_better"]]
                for r in rows
            ],
            title="Ablation: C-Buffer retention without static partitioning",
            floatfmt="{:.4f}",
        )
        return ExperimentResult(
            name="ablation_no_partitioning", rows=rows, text=text
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    # Section V-E's claim: streaming competitors barely displace C-Buffer
    # lines — miss rate stays around or below 1%.
    for row in result.rows:
        assert row["dram_miss_rate"] < 0.02, row
