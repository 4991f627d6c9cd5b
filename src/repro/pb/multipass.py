"""Multi-pass radix partitioning: the software alternative to COBRA.

PB is an instance of radix partitioning (the paper's footnote 2), and the
partitioning literature it cites avoids the many-bins performance cliff in
software by partitioning in *multiple passes*: first into sqrt(B) coarse
bins (C-Buffers stay cache-resident), then refining each coarse bin into
sqrt(B) sub-bins. The price is re-reading and re-writing every tuple per
pass. COBRA's hierarchy achieves the same cache residency in one pass —
this module exists to make that trade-off measurable (see the
``test_ablation_multipass`` benchmark).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_index_array, check_power_of_two, next_power_of_two
from repro.pb.bins import BinSpec, group_order

__all__ = ["MultiPassPartitioner"]


class MultiPassPartitioner:
    """Partition updates into ``num_bins`` bins over multiple passes.

    Each pass partitions by the next group of high-order index bits; the
    final layout is identical to a single-pass :func:`bin_updates` with the
    same total bin count (stable passes compose into a stable radix sort by
    bin ID).
    """

    def __init__(self, num_indices, num_bins, passes=2):
        check_power_of_two("num_bins", num_bins)
        if passes < 1:
            raise ValueError("passes must be at least 1")
        self.num_indices = num_indices
        self.num_bins = num_bins
        self.passes = passes
        self.spec = BinSpec(
            num_indices, next_power_of_two(-(-num_indices // num_bins))
        )
        total_bits = num_bins.bit_length() - 1
        base = total_bits // passes
        remainder = total_bits % passes
        #: Bits resolved per pass (earlier passes take the extras).
        self.bits_per_pass = [
            base + (1 if i < remainder else 0) for i in range(passes)
        ]

    def pass_bin_counts(self):
        """Bins each pass partitions its input into (per parent bin)."""
        return [1 << bits for bits in self.bits_per_pass]

    def partition(self, indices, values=None):
        """Run all passes; returns (indices, values, offsets) bin-major.

        The result is identical to single-pass binning with
        ``self.spec`` — asserted by the tests — while every individual
        pass only ever appends to a cache-friendly number of buffers.
        """
        indices = as_index_array(indices)
        values_arr = None if values is None else np.asarray(values)
        order = np.arange(len(indices), dtype=np.int64)
        current = indices
        # LSD radix over bin-ID bit groups: stable passes from the least
        # significant group upward compose into a stable sort by bin ID.
        shift = self.spec.shift
        for bits in reversed(self.bits_per_pass):
            if bits == 0:
                continue
            keys = (current >> shift) & ((1 << bits) - 1)
            pass_order = group_order(keys, 1 << bits)
            current = current[pass_order]
            order = order[pass_order]
            shift += bits
        binned_values = None if values_arr is None else values_arr[order]
        bins = self.spec.bins_of(current)
        counts = np.bincount(bins, minlength=self.spec.num_bins)
        offsets = np.zeros(self.spec.num_bins + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return current, binned_values, offsets

    def tuple_moves(self, num_updates):
        """Tuples written across all passes (the multi-pass tax).

        Single-pass binning moves each tuple once; ``passes`` passes move
        it ``passes`` times — the extra memory traffic COBRA's hierarchy
        avoids.
        """
        effective = sum(1 for bits in self.bits_per_pass if bits)
        return num_updates * max(1, effective)

    def max_live_buffers(self):
        """The largest per-pass buffer count (what must stay cache-resident)."""
        return max(self.pass_bin_counts())
