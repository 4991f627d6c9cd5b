"""Ablation: COBRA with a medium LLC C-Buffer count for PINV.

Section VII-A: PINV is the one kernel where more Accumulate bins hurt
(one update per index, so per-bin work is tiny and parallel dispatch
dominates). The paper re-ran COBRA with a *medium* number of LLC C-Buffers
and PINV's improvement rose to 1.94x over software PB. We reproduce the
sweep: COBRA's LLC reservation controls the in-memory bin count, and
PINV's best configuration is a reservation well below the default.
"""

from dataclasses import replace

from repro.harness import modes
from repro.harness.experiments.common import ExperimentResult
from repro.harness.report import format_table
from repro.workloads.registry import resolve


def _cobra_cycles(runner, workload, llc_reserved):
    cobra = replace(
        runner.cobra_config(workload), llc_reserved_ways=llc_reserved
    )
    des_config = runner._des_config(workload, cobra)
    return sum(
        runner._simulate_phase(workload, phase, des_config).cycles
        for phase in workload.cobra_phases(cobra)
    )


def test_ablation_pinv_bins(benchmark, runner, save_result):
    def run():
        workload = resolve("pinv", "PERM")
        pb = runner.run(workload, modes.PB_SW).cycles
        base = runner.run(workload, modes.BASELINE).cycles
        rows = []
        for llc_reserved in (1, 3, 7, 15):
            cobra = replace(
                runner.cobra_config(workload), llc_reserved_ways=llc_reserved
            )
            cycles = _cobra_cycles(runner, workload, llc_reserved)
            rows.append(
                {
                    "llc_reserved_ways": llc_reserved,
                    "memory_bins": cobra.llc.num_buffers,
                    "cycles": cycles,
                    "vs_baseline": base / cycles,
                    "vs_pb": pb / cycles,
                }
            )
        text = format_table(
            ["LLC ways", "bins", "Mcyc", "vs baseline", "vs PB-SW"],
            [
                [
                    r["llc_reserved_ways"],
                    r["memory_bins"],
                    r["cycles"] / 1e6,
                    r["vs_baseline"],
                    r["vs_pb"],
                ]
                for r in rows
            ],
            title="Ablation: PINV under COBRA with fewer LLC C-Buffers",
        )
        return ExperimentResult(name="ablation_pinv_bins", rows=rows, text=text)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(result)
    by_ways = {r["llc_reserved_ways"]: r for r in result.rows}
    # Fewer LLC C-Buffers (medium bins) beat the default for PINV —
    # the paper's Section VII-A observation.
    best = max(result.rows, key=lambda r: r["vs_pb"])
    assert best["llc_reserved_ways"] < 15
    assert best["vs_pb"] > by_ways[15]["vs_pb"]
    # And the medium configuration clearly beats software PB (the paper
    # reports 1.94x there; our band is looser).
    assert best["vs_pb"] > 1.4
