"""Software coalescing-buffer (C-Buffer) model.

Software PB amortizes bin writes with one cacheline-sized buffer per bin
(Section III-C / IV): tuples append to the bin's C-Buffer, and a full
C-Buffer is bulk-transferred to the in-memory bin with non-temporal stores.
This module computes, for a given update stream, everything the
performance model needs about that process: the per-tuple C-Buffer access
trace, the per-tuple "did the buffer just fill?" branch outcomes, and the
full/partial line transfer counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_index_array, check_positive
from repro.pb.bins import BinSpec, bin_offsets, group_order

__all__ = ["CBufferModel"]


@dataclass(frozen=True)
class CBufferModel:
    """C-Buffers for one :class:`BinSpec` and tuple size."""

    spec: BinSpec
    tuple_bytes: int
    line_bytes: int = 64

    def __post_init__(self):
        check_positive("tuple_bytes", self.tuple_bytes)
        check_positive("line_bytes", self.line_bytes)
        if self.line_bytes % self.tuple_bytes:
            raise ValueError("tuple size must divide the line size")

    @property
    def tuples_per_line(self):
        """Tuples a C-Buffer holds before it must be drained."""
        return self.line_bytes // self.tuple_bytes

    @property
    def num_buffers(self):
        """One C-Buffer per bin."""
        return self.spec.num_bins

    @property
    def footprint_bytes(self):
        """Total C-Buffer storage (what must fit in cache for fast Binning)."""
        return self.num_buffers * self.line_bytes

    def occupancy_before(self, indices):
        """Per-update running occupancy of its C-Buffer, pre-insertion.

        Vectorized group cumulative count: update ``k`` of bin ``b`` sees
        occupancy ``k mod tuples_per_line``.
        """
        indices = as_index_array(indices)
        bins = self.spec.bins_of(indices)
        order = group_order(bins, self.spec.num_bins)
        starts = bin_offsets(np.bincount(bins, minlength=self.spec.num_bins))
        position_sorted = np.arange(len(indices), dtype=np.int64) - starts[
            bins[order]
        ]
        position = np.empty(len(indices), dtype=np.int64)
        position[order] = position_sorted
        return position % self.tuples_per_line

    def full_events(self, indices):
        """Boolean per update: did this insertion fill its C-Buffer?

        These are the outcomes of software PB's per-tuple "buffer full?"
        branch — the branch COBRA eliminates (Figure 12, bottom).
        """
        return self.occupancy_before(indices) == self.tuples_per_line - 1

    def transfer_counts(self, indices):
        """(full_lines, partial_lines) moved to in-memory bins.

        ``full_lines`` are the bulk non-temporal transfers during Binning;
        ``partial_lines`` are the residual flushes at the end of Binning
        (non-empty buffers drained before Accumulate starts).
        """
        indices = as_index_array(indices)
        per_bin = np.bincount(
            self.spec.bins_of(indices), minlength=self.spec.num_bins
        )
        full_lines = int(np.sum(per_bin // self.tuples_per_line))
        partial_lines = int(np.count_nonzero(per_bin % self.tuples_per_line))
        return full_lines, partial_lines

    def bin_write_lines(self, num_updates):
        """Total DRAM lines occupied by the binned update stream."""
        total_bytes = num_updates * self.tuple_bytes
        return -(-total_bytes // self.line_bytes)
