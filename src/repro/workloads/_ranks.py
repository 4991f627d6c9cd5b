"""Vectorized group-rank helpers shared by the placement-style kernels.

Neighbor-Populate, Integer Sort, Transpose, and SymPerm all place elements
at ``cursor[key]++`` slots. Under any *stable* grouping (which both the
sequential loop and PB's FIFO bins preserve per key), element ``e``'s slot
is ``group_start[key[e]] + rank_of_e_within_its_key_group``; these helpers
compute that without a Python loop.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_index_array
from repro.pb.bins import group_order

__all__ = ["group_ranks", "placement_slots"]


def group_ranks(keys, num_groups):
    """Appearance-order rank of each element within its key group."""
    keys = as_index_array(keys, "keys")
    counts = np.bincount(keys, minlength=num_groups)
    starts = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    order = group_order(keys, num_groups)
    ranks_sorted = np.arange(len(keys), dtype=np.int64) - starts[keys[order]]
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def placement_slots(keys, num_groups, group_starts=None):
    """Final slot of each element under stable grouping by ``keys``.

    ``group_starts`` defaults to the exclusive prefix sum of group counts
    (contiguous packing).
    """
    keys = as_index_array(keys, "keys")
    if group_starts is None:
        counts = np.bincount(keys, minlength=num_groups)
        group_starts = np.zeros(num_groups, dtype=np.int64)
        np.cumsum(counts[:-1], out=group_starts[1:])
    return group_starts[keys] + group_ranks(keys, num_groups)
