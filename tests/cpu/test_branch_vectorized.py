"""Vectorized predictor kernel vs the scalar reference loop.

The scalar ``simulate`` loops are the oracle; ``simulate_array`` must be
bit-identical — same misprediction counts, same final counter table, same
final global history — on every stream, including streams that straddle
the internal sort-chunk boundary and interleavings across many sites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.branch import (
    BRANCH_SAMPLE,
    BimodalPredictor,
    BranchSite,
    GSharePredictor,
    simulate_sites,
)
from repro.cpu.branch import _SORT_CHUNK


def _random_outcomes(rng, n, p=0.5):
    return rng.random(n) < p


def _assert_same_state(vec, ref):
    assert bytes(vec._counters) == bytes(ref._counters)
    if hasattr(vec, "_history"):
        assert vec._history == ref._history


class TestBimodalEquivalence:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1000])
    def test_lengths_around_pack_boundary(self, n):
        rng = np.random.default_rng(n)
        outcomes = _random_outcomes(rng, n)
        vec, ref = BimodalPredictor(), BimodalPredictor()
        assert vec.simulate_array(0x40, outcomes) == ref.simulate(
            0x40, outcomes.tolist()
        )
        _assert_same_state(vec, ref)

    @pytest.mark.parametrize("bias", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_biased_streams(self, bias):
        rng = np.random.default_rng(7)
        outcomes = _random_outcomes(rng, 5000, bias)
        vec, ref = BimodalPredictor(), BimodalPredictor()
        assert vec.simulate_array(0x1234, outcomes) == ref.simulate(
            0x1234, outcomes.tolist()
        )
        _assert_same_state(vec, ref)

    def test_repeated_calls_carry_state(self):
        rng = np.random.default_rng(11)
        vec, ref = BimodalPredictor(), BimodalPredictor()
        for trial in range(5):
            outcomes = _random_outcomes(rng, 317)
            assert vec.simulate_array(0x99, outcomes) == ref.simulate(
                0x99, outcomes.tolist()
            )
        _assert_same_state(vec, ref)

    def test_aliasing_pcs_share_an_entry(self):
        # pcs congruent mod table_size hit the same counter
        vec, ref = BimodalPredictor(table_size=64), BimodalPredictor(table_size=64)
        rng = np.random.default_rng(3)
        for pc in (5, 69, 133):
            outcomes = _random_outcomes(rng, 200)
            assert vec.simulate_array(pc, outcomes) == ref.simulate(
                pc, outcomes.tolist()
            )
        _assert_same_state(vec, ref)


class TestGShareEquivalence:
    @pytest.mark.parametrize("n", [0, 1, 2, 11, 12, 13, 100, 4096])
    def test_lengths_around_history_depth(self, n):
        rng = np.random.default_rng(n + 100)
        outcomes = _random_outcomes(rng, n)
        vec, ref = GSharePredictor(), GSharePredictor()
        assert vec.simulate_array(0x40, outcomes) == ref.simulate(
            0x40, outcomes.tolist()
        )
        _assert_same_state(vec, ref)

    @pytest.mark.parametrize(
        "n", [_SORT_CHUNK - 1, _SORT_CHUNK, _SORT_CHUNK + 1, _SORT_CHUNK + 7]
    )
    def test_sort_chunk_boundaries(self, n):
        rng = np.random.default_rng(n)
        outcomes = _random_outcomes(rng, n, 0.3)
        vec, ref = GSharePredictor(), GSharePredictor()
        assert vec.simulate_array(0xACE, outcomes) == ref.simulate(
            0xACE, outcomes.tolist()
        )
        _assert_same_state(vec, ref)

    @pytest.mark.parametrize("table_size,history_bits", [(64, 4), (256, 8), (16384, 12)])
    def test_small_tables_alias_heavily(self, table_size, history_bits):
        rng = np.random.default_rng(table_size)
        outcomes = _random_outcomes(rng, 3000, 0.6)
        vec = GSharePredictor(table_size, history_bits)
        ref = GSharePredictor(table_size, history_bits)
        assert vec.simulate_array(0x7abc, outcomes) == ref.simulate(
            0x7abc, outcomes.tolist()
        )
        _assert_same_state(vec, ref)

    def test_multi_site_interleaving_shares_table_and_history(self):
        # the paper's kernels run several static branches through one
        # predictor; state must thread through in call order
        rng = np.random.default_rng(21)
        vec, ref = GSharePredictor(), GSharePredictor()
        for trial in range(8):
            pc = int(rng.integers(0, 1 << 20))
            outcomes = _random_outcomes(rng, int(rng.integers(1, 800)))
            assert vec.simulate_array(pc, outcomes) == ref.simulate(
                pc, outcomes.tolist()
            )
            _assert_same_state(vec, ref)

    def test_nonzero_initial_history(self):
        rng = np.random.default_rng(5)
        warm = _random_outcomes(rng, 37)
        probe = _random_outcomes(rng, 500)
        vec, ref = GSharePredictor(), GSharePredictor()
        vec.simulate_array(0x10, warm)
        ref.simulate(0x10, warm.tolist())
        assert vec.simulate_array(0x20, probe) == ref.simulate(
            0x20, probe.tolist()
        )
        _assert_same_state(vec, ref)


@settings(max_examples=60, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), max_size=600),
    pc=st.integers(min_value=0, max_value=(1 << 30) - 1),
)
def test_property_gshare_bit_identical(outcomes, pc):
    outcomes = np.asarray(outcomes, dtype=bool)
    vec, ref = GSharePredictor(), GSharePredictor()
    assert vec.simulate_array(pc, outcomes) == ref.simulate(pc, outcomes.tolist())
    assert bytes(vec._counters) == bytes(ref._counters)
    assert vec._history == ref._history


@settings(max_examples=60, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), max_size=600),
    pc=st.integers(min_value=0, max_value=(1 << 30) - 1),
)
def test_property_bimodal_bit_identical(outcomes, pc):
    outcomes = np.asarray(outcomes, dtype=bool)
    vec, ref = BimodalPredictor(), BimodalPredictor()
    assert vec.simulate_array(pc, outcomes) == ref.simulate(pc, outcomes.tolist())
    assert bytes(vec._counters) == bytes(ref._counters)


@settings(max_examples=25, deadline=None)
@given(
    chunks=st.lists(st.lists(st.booleans(), max_size=120), min_size=2, max_size=6)
)
def test_property_gshare_split_calls_match_one_call(chunks):
    # simulate_array must carry counter + history state across calls
    # exactly as one long scalar replay would
    split, whole = GSharePredictor(), GSharePredictor()
    total_split = sum(
        split.simulate_array(0x5, np.asarray(chunk, dtype=bool))
        for chunk in chunks
    )
    flat = [bit for chunk in chunks for bit in chunk]
    total_whole = whole.simulate(0x5, flat)
    assert total_split == total_whole
    assert bytes(split._counters) == bytes(whole._counters)
    assert split._history == whole._history


def _scalar_sites(sites, predictor, max_simulated=BRANCH_SAMPLE):
    """``simulate_sites`` written against the scalar oracle loop."""
    total = 0.0
    for site in sites:
        if len(site.outcomes) == 0:
            continue
        sample = site.outcomes[:max_simulated]
        rate = predictor.simulate(site.pc, sample.tolist()) / len(sample)
        total += rate * site.count
    return total


class TestBackendDispatch:
    def test_simulate_sites_backends_agree(self):
        rng = np.random.default_rng(13)
        sites = [
            BranchSite(
                name=f"b{i}",
                pc=0x400 + 64 * i,
                outcomes=_random_outcomes(rng, 2000, 0.4),
                count=50_000,
            )
            for i in range(4)
        ]
        vector = simulate_sites(sites, GSharePredictor())
        scalar = _scalar_sites(sites, GSharePredictor())
        assert vector == scalar

    def test_scalar_backend_without_simulate_array(self):
        # a predictor lacking simulate_array silently takes the scalar path
        class Plain:
            def __init__(self):
                self._inner = GSharePredictor()

            def simulate(self, pc, outcomes):
                return self._inner.simulate(pc, outcomes)

        rng = np.random.default_rng(19)
        sites = [
            BranchSite(name="b", pc=0x80, outcomes=_random_outcomes(rng, 300))
        ]
        assert simulate_sites(sites, Plain()) == _scalar_sites(
            sites, GSharePredictor()
        )
