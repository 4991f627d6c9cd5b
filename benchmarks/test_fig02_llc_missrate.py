"""Figure 2 benchmark: LLC miss rates of baseline irregular updates."""

from repro.harness.experiments import fig02
from repro.harness.report import format_table
from repro.workloads.registry import describe_inputs


def test_fig02_llc_missrate(benchmark, runner, save_result):
    inputs = format_table(
        ["input", "kind", "size", "entries"],
        [
            [
                row["input"],
                row["kind"],
                row.get("vertices", row.get("rows", 0)),
                row.get("edges", row.get("nnz", 0)),
            ]
            for row in describe_inputs()
        ],
        title="Table III (scaled): input suite",
    )
    print("\n" + inputs)
    result = benchmark.pedantic(
        fig02.run, kwargs={"runner": runner}, rounds=1, iterations=1
    )
    save_result(result)
    # The paper's claim: irregular updates suffer high LLC miss rates
    # across all nine application domains.
    assert all(row["llc_miss_rate"] > 0.25 for row in result.rows)
    mean_rate = sum(r["llc_miss_rate"] for r in result.rows) / len(result.rows)
    assert mean_rate > 0.5
