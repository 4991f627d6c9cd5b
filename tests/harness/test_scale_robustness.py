"""Scale robustness: the paper's orderings hold across input scales.

The reproduction picks one default scale (DESIGN.md Section 5); these
tests check the qualitative conclusions are not an artifact of that choice
by sweeping the input scale while keeping the machine fixed. Below the
cache-fitting threshold blocking cannot help (there is nothing to
localize), which is itself part of the expected shape.
"""

import pytest

from repro.harness import BASELINE, COBRA, PB_SW, Runner
from repro.workloads.registry import resolve


@pytest.fixture(scope="module")
def runner():
    return Runner(max_sim_events=40_000, des_sample=3_000)


class TestOrderingAcrossScales:
    @pytest.mark.parametrize("scale", [16, 17])
    def test_cobra_beats_pb_beats_baseline(self, runner, scale):
        workload = resolve("degree-count", "KRON", scale=scale)
        base = runner.run(workload, BASELINE).cycles
        pb = runner.run(workload, PB_SW).cycles
        cobra = runner.run(workload, COBRA).cycles
        assert base > pb > cobra, f"ordering broke at scale {scale}"

    def test_gains_grow_with_working_set(self, runner):
        """Bigger irregular working sets leave more for blocking to
        recover: PB's speedup at scale 17 exceeds its speedup at 15."""

        def pb_speedup(scale):
            workload = resolve("degree-count", "KRON", scale=scale)
            base = runner.run(workload, BASELINE).cycles
            return base / runner.run(workload, PB_SW).cycles

        assert pb_speedup(17) > pb_speedup(15)

    def test_cache_resident_inputs_gain_nothing(self, runner):
        """At scale 12 the 16 KB working set sits in the LLC: the baseline
        is already local and PB's binning tax has nothing to recover."""
        workload = resolve("degree-count", "KRON", scale=12)
        base = runner.run(workload, BASELINE).cycles
        pb = runner.run(workload, PB_SW).cycles
        assert base / pb < 1.2

    def test_cobra_over_pb_stable_across_scales(self, runner):
        """COBRA's gain over PB comes from Binning mechanics, not working-
        set size, so the ratio stays in a narrow band."""
        ratios = []
        for scale in (16, 17):
            workload = resolve("degree-count", "KRON", scale=scale)
            pb = runner.run(workload, PB_SW).cycles
            cobra = runner.run(workload, COBRA).cycles
            ratios.append(pb / cobra)
        assert max(ratios) / min(ratios) < 1.3
