"""Sampling behaviour of the branch-site simulator."""

import inspect

import numpy as np
import pytest

from repro.cpu import BranchSite, GSharePredictor, simulate_sites
from repro.cpu.branch import BRANCH_SAMPLE


class TestSampling:
    def test_max_simulated_caps_work_not_result_scale(self, rng):
        outcomes = rng.random(50_000) < 0.5
        site = BranchSite("r", 11, outcomes)
        capped = simulate_sites([site], GSharePredictor(), max_simulated=5_000)
        full = simulate_sites([site], GSharePredictor(), max_simulated=50_000)
        # Both estimates target the same dynamic count; rates agree within
        # sampling noise for a stationary stream.
        assert capped == pytest.approx(full, rel=0.15)

    def test_scaled_count_multiplies_rate(self, rng):
        outcomes = rng.random(10_000) < 0.5
        small = BranchSite("r", 11, outcomes, count=10_000)
        big = BranchSite("r", 11, outcomes, count=1_000_000)
        small_total = simulate_sites([small], GSharePredictor())
        big_total = simulate_sites([big], GSharePredictor())
        assert big_total == pytest.approx(small_total * 100, rel=0.01)

    def test_periodic_cbuffer_full_pattern_on_one_hot_bin(self):
        """A single hot bin fills every 8th insertion — a periodic branch
        GShare learns nearly perfectly (the easy case)."""
        outcomes = np.array([(i % 8) == 7 for i in range(8_000)])
        total = simulate_sites([BranchSite("full", 3, outcomes)])
        assert total / len(outcomes) < 0.02

    def test_interleaved_bins_defeat_the_predictor(self, rng):
        """Real PB interleaves hundreds of bins, so the full branch fires
        pseudo-randomly at rate 1/8 — this is what Figure 12 measures."""
        from repro.pb import BinSpec, CBufferModel

        indices = rng.integers(0, 1 << 14, size=30_000)
        model = CBufferModel(BinSpec(1 << 14, 64), tuple_bytes=8)
        outcomes = model.full_events(indices)
        total = simulate_sites([BranchSite("full", 3, outcomes)])
        rate = total / len(outcomes)
        assert 0.05 < rate < 0.25  # near the 1/8 firing probability

    def test_branch_sample_is_the_simulated_default(self):
        """Workloads build BRANCH_SAMPLE outcomes because that is all the
        predictor reads; the two must not drift apart."""
        params = inspect.signature(simulate_sites).parameters
        assert params["max_simulated"].default == BRANCH_SAMPLE

    def test_sampled_cbuffer_outcomes_match_the_full_stream(self, rng):
        """A prefix's C-Buffer occupancy depends on that prefix alone, so
        outcomes built for the sample and scaled by ``count`` give the
        same total as outcomes built for the whole stream."""
        from repro.pb import BinSpec, CBufferModel

        n = BRANCH_SAMPLE + 60_000
        indices = rng.integers(0, 1 << 14, size=n)
        model = CBufferModel(BinSpec(1 << 14, 64), tuple_bytes=8)
        full = BranchSite("full", 3, model.full_events(indices))
        sampled = BranchSite(
            "full", 3, model.full_events(indices[:BRANCH_SAMPLE]), count=n
        )
        assert np.array_equal(sampled.outcomes, full.outcomes[:BRANCH_SAMPLE])
        assert simulate_sites([sampled]) == simulate_sites([full])
