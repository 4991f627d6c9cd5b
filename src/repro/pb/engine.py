"""Functional Propagation Blocking executor (the public PB API).

This is the library users call to run PB on their own update streams: it
performs the Binning and Accumulate phases functionally and returns the
updated data. Correctness of the reordering (including for non-commutative
kernels, Section III-B) is what the test suite verifies against direct
execution.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_index_array, check_positive
from repro.pb.bins import BinSpec, bin_updates, group_order

__all__ = ["PropagationBlocker", "apply_updates_direct"]


def apply_updates_direct(indices, values, out, op="add"):
    """Apply an update stream directly, in order (the unblocked baseline).

    ``op`` is one of ``'add'``, ``'or'``, ``'store'`` (last-writer-wins),
    ``'min'``, or a callable ``op(out, index, value)`` invoked per update
    for arbitrary non-commutative kernels.
    """
    indices = as_index_array(indices)
    if callable(op):
        if values is None:
            for idx in indices.tolist():
                op(out, idx, None)
        else:
            for idx, val in zip(indices.tolist(), np.asarray(values).tolist()):
                op(out, idx, val)
        return out
    values_arr = None if values is None else np.asarray(values)
    if op == "add":
        np.add.at(out, indices, values_arr)
    elif op == "or":
        np.bitwise_or.at(out, indices, values_arr)
    elif op == "min":
        np.minimum.at(out, indices, values_arr)
    elif op == "store":
        out[indices] = values_arr  # numpy assignment keeps the last writer
    else:
        raise ValueError(f"unknown op {op!r}")
    return out


class PropagationBlocker:
    """Runs PB (bin, then accumulate bin-by-bin) over update streams.

    Parameters
    ----------
    num_indices:
        Size of the updated index namespace.
    num_bins / bin_range:
        Exactly one may be given; ``num_bins`` picks the smallest
        power-of-two range yielding at most that many bins. Defaults to 256
        bins when neither is given.
    """

    def __init__(self, num_indices, num_bins=None, bin_range=None):
        check_positive("num_indices", num_indices)
        if num_bins is not None and bin_range is not None:
            raise ValueError("pass num_bins or bin_range, not both")
        if bin_range is not None:
            self.spec = BinSpec(num_indices, bin_range)
        else:
            self.spec = BinSpec.from_num_bins(num_indices, num_bins or 256)

    @property
    def num_bins(self):
        """Bins the executor partitions updates into."""
        return self.spec.num_bins

    def bin(self, indices, values=None):
        """Binning phase: returns (binned_indices, binned_values, offsets)."""
        return bin_updates(indices, values, self.spec)

    def execute(self, indices, values, out, op="add"):
        """Full PB execution: bin updates, then apply them bin-major.

        Semantics match :func:`apply_updates_direct` for commutative ``op``
        and for any kernel with unordered parallelism; within a bin, the
        original stream order is preserved (bins are FIFO).
        """
        binned_indices, binned_values, offsets = self.bin(indices, values)
        if callable(op):
            # Generic (possibly non-commutative) kernels walk bins in order.
            for b in range(len(offsets) - 1):
                lo, hi = offsets[b], offsets[b + 1]
                chunk_vals = (
                    None if binned_values is None else binned_values[lo:hi]
                )
                apply_updates_direct(
                    binned_indices[lo:hi], chunk_vals, out, op
                )
            return out
        # Vectorized ops apply the whole binned stream at once: bin-major
        # order is just a permutation, and these ops are order-insensitive
        # per index ('store' keeps last-writer order because the stable
        # binning preserves per-index ordering).
        return apply_updates_direct(binned_indices, binned_values, out, op)

    def accumulate_order(self, indices):
        """The order Accumulate replays updates in (for trace generation)."""
        bins = self.spec.bins_of(as_index_array(indices))
        return group_order(bins, self.spec.num_bins)
