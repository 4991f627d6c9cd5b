"""Tests for bin geometry and the binning primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pb import BinSpec, bin_counts, bin_offsets, bin_updates, group_order


class TestBinSpec:
    def test_num_bins(self):
        spec = BinSpec(num_indices=1000, bin_range=256)
        assert spec.num_bins == 4

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            BinSpec(1000, 100)

    def test_from_num_bins(self):
        spec = BinSpec.from_num_bins(1 << 16, 256)
        assert spec.bin_range == 256
        assert spec.num_bins == 256

    def test_from_num_bins_rounds_range_up(self):
        spec = BinSpec.from_num_bins(1000, 3)
        assert spec.bin_range == 512  # ceil(1000/3)=334 -> 512
        assert spec.num_bins == 2

    def test_shift_matches_range(self):
        spec = BinSpec(1 << 12, 64)
        assert spec.shift == 6
        assert spec.bin_of(63) == 0
        assert spec.bin_of(64) == 1

    def test_bin_of_bounds(self):
        spec = BinSpec(100, 32)
        with pytest.raises(IndexError):
            spec.bin_of(100)

    def test_bins_of_vectorized(self):
        spec = BinSpec(256, 16)
        indices = np.arange(256)
        assert np.array_equal(spec.bins_of(indices), indices // 16)


class TestBinCounts:
    def test_counts(self):
        spec = BinSpec(64, 16)
        counts = bin_counts(np.array([0, 1, 17, 63]), spec)
        assert np.array_equal(counts, [2, 1, 0, 1])

    def test_offsets_exclusive(self):
        offsets = bin_offsets(np.array([2, 0, 3]))
        assert np.array_equal(offsets, [0, 2, 2, 5])


class TestGroupOrder:
    """group_order is exactly the stable argsort it stands in for."""

    GROUP_COUNTS = [1, 2, 256, 257, 1 << 16, (1 << 16) + 1]

    @given(
        st.sampled_from(GROUP_COUNTS),
        st.sampled_from([np.int64, np.uint8, np.uint16, np.uint32, np.uint64]),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_stable_argsort(self, num_groups, dtype, data):
        top = min(num_groups, np.iinfo(dtype).max + 1) - 1
        raw = data.draw(st.lists(st.integers(0, top), max_size=400))
        keys = np.array(raw, dtype=dtype)
        assert np.array_equal(
            group_order(keys, num_groups), np.argsort(keys, kind="stable")
        )

    def test_empty_keys(self):
        assert len(group_order(np.array([], dtype=np.int64), 256)) == 0

    def test_one_group_keeps_stream_order(self):
        keys = np.zeros(1000, dtype=np.int64)
        assert np.array_equal(group_order(keys, 1), np.arange(1000))

    @pytest.mark.parametrize("num_groups", GROUP_COUNTS)
    def test_largest_key_is_not_narrowed_away(self, num_groups):
        top = num_groups - 1
        keys = np.array([top, 0, top, top // 2, 0, top], dtype=np.int64)
        assert np.array_equal(
            group_order(keys, num_groups), np.argsort(keys, kind="stable")
        )


class TestBinUpdates:
    def test_bin_major_order(self):
        spec = BinSpec(64, 16)
        indices = np.array([40, 3, 20, 5, 60])
        binned, vals, offsets = bin_updates(indices, np.arange(5), spec)
        assert np.array_equal(binned, [3, 5, 20, 40, 60])
        assert np.array_equal(vals, [1, 3, 2, 0, 4])

    def test_fifo_within_bin(self):
        spec = BinSpec(64, 64)  # everything in one bin
        indices = np.array([9, 2, 7, 2])
        binned, vals, _ = bin_updates(indices, np.arange(4), spec)
        assert np.array_equal(binned, indices)  # order preserved
        assert np.array_equal(vals, np.arange(4))

    def test_values_none(self):
        spec = BinSpec(64, 16)
        binned, vals, offsets = bin_updates(np.array([20, 3]), None, spec)
        assert vals is None
        assert np.array_equal(binned, [3, 20])

    def test_offsets_partition_stream(self):
        spec = BinSpec(64, 16)
        indices = np.array([40, 3, 20, 5, 60, 61])
        binned, _, offsets = bin_updates(indices, None, spec)
        for b in range(spec.num_bins):
            chunk = binned[offsets[b] : offsets[b + 1]]
            assert np.all(chunk >> spec.shift == b)

    def test_out_of_range_rejected(self):
        spec = BinSpec(64, 16)
        with pytest.raises(ValueError, match="beyond"):
            bin_updates(np.array([64]), None, spec)

    def test_value_length_checked(self):
        spec = BinSpec(64, 16)
        with pytest.raises(ValueError, match="parallel"):
            bin_updates(np.array([1, 2]), np.array([1.0]), spec)

    @given(
        st.lists(st.integers(0, 1023), min_size=0, max_size=500),
        st.sampled_from([16, 64, 256, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_binning_is_a_permutation(self, raw, bin_range):
        indices = np.array(raw, dtype=np.int64)
        spec = BinSpec(1024, bin_range)
        values = np.arange(len(indices))
        binned, vals, offsets = bin_updates(indices, values, spec)
        # Same multiset of (index, value) pairs.
        assert sorted(zip(binned, vals)) == sorted(zip(indices, values))
        # Offsets end at the stream length and bins are range-disjoint.
        assert offsets[-1] == len(indices)
        assert np.all(np.diff(binned >> spec.shift) >= 0)
