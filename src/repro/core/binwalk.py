"""Counts-only Binning: a stream through a COBRA machine's C-Buffers.

PHI and COBRA-COMM points read only how many updates the C-Buffers merged
and how many lines reached the in-memory bins. :func:`binning_counts`
walks the stream through the machine's three levels in one C call
(``cnative``), the binning engine of Section V-D as a tight loop over
fixed-capacity lines, and returns those counts without building a tuple.
The Python machine (:class:`~repro.core.machine.CobraMachine` and its
coalescing variants) is the specification: without a compiler it runs
the stream itself, and the equivalence tests hold the two to identical
counts.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.cache.kernels import cnative
from repro.core.comm import CoalescingCBufferArray
from repro.core.machine import BinningStats, CobraMachine

__all__ = ["binning_counts"]


def binning_counts(machine: CobraMachine, indices) -> BinningStats:
    """Counts of ``binupdate`` over ``indices`` followed by ``binflush``.

    ``machine`` must be freshly ``bininit()``-ed; its levels supply the
    geometry (buffers, shift and tuples per line, and whether a level
    coalesces). The C walk leaves the machine untouched; the fallback
    runs the stream through it. Counts do not depend on values, so none
    are taken. Raises ``IndexError`` for an index outside the namespace,
    as ``binupdate`` does.
    """
    if machine.levels is None:
        raise RuntimeError("bininit must run before binning_counts")
    if machine.stats.tuples or machine.buffered_tuples:
        raise ValueError("binning_counts needs a freshly bininit()-ed machine")
    stream = np.ascontiguousarray(indices, dtype=np.int64)
    if not cnative.available():
        # A constant value every REDUCE_OPS entry accepts.
        machine.binupdate_many(stream.tolist(), itertools.repeat(1))
        machine.binflush()
        return dataclasses.replace(machine.stats)
    num_indices = machine.config.num_indices
    bad = (stream < 0) | (stream >= num_indices)
    if bad.any():
        index = int(stream[np.argmax(bad)])
        raise IndexError(f"index {index} outside [0, {num_indices})")
    geometry = []
    for level in machine.levels:
        if ((num_indices - 1) >> level.shift) >= level.num_buffers:
            raise ValueError(
                f"level {level.name!r} has {level.num_buffers} buffers, too "
                f"few for {num_indices} indices at shift {level.shift}"
            )
        geometry.append((
            level.num_buffers,
            level.shift,
            level.tuples_per_line,
            isinstance(level, CoalescingCBufferArray),
        ))
    tuples, l1, l2, llc, flush, coalesced = cnative.cbuffer_walk_counts(
        stream, geometry
    )
    return BinningStats(tuples, l1, l2, llc, flush, coalesced)
