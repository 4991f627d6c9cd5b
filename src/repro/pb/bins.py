"""Bin geometry and the binning primitive of Propagation Blocking.

A :class:`BinSpec` fixes the number of bins and the power-of-two bin range
(Section III-C: practical PB uses power-of-two ranges so computing a
tuple's bin is a bit shift). :func:`bin_updates` reorders an update stream
into bin-major order exactly as a PB execution does: bins are FIFO, so a
stable partition by bin ID reproduces the order in which the Accumulate
phase replays updates. :func:`group_order` is that stable partition, and
every planner that groups updates by bin goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import (
    as_index_array,
    check_positive,
    is_power_of_two,
    next_power_of_two,
)

__all__ = ["BinSpec", "bin_updates", "bin_counts", "bin_offsets", "group_order"]


@dataclass(frozen=True)
class BinSpec:
    """Geometry of a PB binning configuration.

    ``bin_range`` is the number of consecutive indices mapped to one bin;
    ``num_bins`` is derived so bins cover ``[0, num_indices)``.
    """

    num_indices: int
    bin_range: int

    def __post_init__(self):
        check_positive("num_indices", self.num_indices)
        check_positive("bin_range", self.bin_range)
        if not is_power_of_two(self.bin_range):
            raise ValueError(
                f"bin_range must be a power of two, got {self.bin_range}"
            )

    @classmethod
    def from_num_bins(cls, num_indices, num_bins):
        """Spec with the smallest power-of-two range giving <= num_bins bins."""
        check_positive("num_bins", num_bins)
        bin_range = next_power_of_two(-(-num_indices // num_bins))
        return cls(num_indices, bin_range)

    @property
    def num_bins(self):
        """Number of bins covering the index namespace."""
        return -(-self.num_indices // self.bin_range)

    @property
    def shift(self):
        """log2(bin_range): tuples are binned with ``index >> shift``."""
        return self.bin_range.bit_length() - 1

    def bin_of(self, index):
        """Bin ID of a single index."""
        if not 0 <= index < self.num_indices:
            raise IndexError(f"index {index} outside [0, {self.num_indices})")
        return index >> self.shift

    def bins_of(self, indices):
        """Vectorized bin IDs for an index array."""
        return np.asarray(indices, dtype=np.int64) >> self.shift


def bin_counts(indices, spec: BinSpec):
    """Tuples destined to each bin (the Init phase's per-bin sizing pass)."""
    indices = as_index_array(indices)
    return np.bincount(spec.bins_of(indices), minlength=spec.num_bins).astype(
        np.int64
    )


def bin_offsets(counts):
    """Exclusive prefix sum of bin counts — the BinOffset array.

    Software PB precomputes this to lay bins out contiguously in memory;
    COBRA loads the same offsets into LLC C-Buffer tags (Figure 9).
    """
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def group_order(keys, num_groups):
    """Stable grouping permutation of ``keys`` (each in ``[0, num_groups)``).

    Equal to ``np.argsort(keys, kind="stable")``: the order in which PB's
    Binning, a counting sort into FIFO bins, emits the stream. Keys are
    narrowed to ``uint8``/``uint16`` when ``num_groups`` allows, which sends
    numpy's stable sort down its linear radix path instead of a comparison
    sort; wider key spaces fall back to the comparison sort.
    """
    keys = np.asarray(keys)
    if num_groups <= 1 << 8:
        keys = keys.astype(np.uint8)
    elif num_groups <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def bin_updates(indices, values, spec: BinSpec):
    """Reorder an update stream into bin-major (PB Accumulate) order.

    Returns ``(binned_indices, binned_values, offsets)`` where
    ``binned_indices[offsets[b]:offsets[b + 1]]`` are bin ``b``'s updates in
    original stream order (bins are FIFO). ``values`` may be None for
    kernels whose update carries no payload.
    """
    indices = as_index_array(indices)
    if len(indices) and indices.max() >= spec.num_indices:
        raise ValueError("update stream contains indices beyond num_indices")
    bins = spec.bins_of(indices)
    order = group_order(bins, spec.num_bins)
    offsets = bin_offsets(np.bincount(bins, minlength=spec.num_bins))
    binned_indices = indices[order]
    if values is None:
        return binned_indices, None, offsets
    values = np.asarray(values)
    if len(values) != len(indices):
        raise ValueError("values must parallel indices")
    return binned_indices, values[order], offsets
