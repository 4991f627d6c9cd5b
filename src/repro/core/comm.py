"""COBRA-COMM: the commutativity specialization (Section VII-C).

For kernels with commutative updates, COBRA-COMM adds an atomic reduction
unit at the (shared) LLC, coalescing updates destined to the same index
while they sit in LLC C-Buffers. The paper shows coalescing only at the LLC
captures essentially all of PHI's traffic reduction (PHI itself coalesces
97% of its updates at the LLC) while keeping COBRA's optimal Accumulate bin
count.
"""

from __future__ import annotations

import operator

from repro.core.cbuffer import CBufferArray
from repro.core.machine import CobraMachine

__all__ = ["REDUCE_OPS", "CoalescingCBufferArray", "CobraCommMachine"]

#: Reduction operators commutative kernels may coalesce with.
REDUCE_OPS = {
    "add": operator.add,
    "or": operator.or_,
    "min": min,
    "max": max,
}


class CoalescingCBufferArray(CBufferArray):
    """C-Buffers that merge same-index tuples with a reduction operator.

    A buffer line holds up to ``tuples_per_line`` *distinct* indices; an
    update hitting an index already buffered coalesces in place and
    consumes no new slot (and, downstream, no DRAM traffic).
    """

    def __init__(self, num_buffers, bin_range, tuples_per_line, reduce_op, name=""):
        super().__init__(num_buffers, bin_range, tuples_per_line, name=name)
        self.reduce_op = (
            REDUCE_OPS[reduce_op] if isinstance(reduce_op, str) else reduce_op
        )
        self.coalesced = 0
        self._maps = {}

    def insert(self, index, value):
        """Insert or coalesce; returns (buffer_id, tuples) on line fill."""
        buffer_id = index >> self.shift
        entries = self._maps.setdefault(buffer_id, {})
        self.inserts += 1
        if index in entries:
            entries[index] = self.reduce_op(entries[index], value)
            self.coalesced += 1
            return None
        entries[index] = value
        if len(entries) == self.tuples_per_line:
            self.evictions += 1
            self._maps[buffer_id] = {}
            return buffer_id, list(entries.items())
        return None

    def drain_all(self):
        """Drain partial buffers in ID order (binflush)."""
        drained = []
        for buffer_id in sorted(self._maps):
            entries = self._maps[buffer_id]
            if entries:
                drained.append((buffer_id, list(entries.items())))
        self._maps.clear()
        return drained

    @property
    def occupancy(self):
        """Distinct buffered indices across the level."""
        return sum(len(entries) for entries in self._maps.values())

    def occupancies(self):
        """Per-buffer distinct-index counts."""
        return {b: len(e) for b, e in self._maps.items() if e}


class CobraCommMachine(CobraMachine):
    """COBRA with LLC-level update coalescing.

    Only valid for commutative kernels; using it for a non-commutative
    update stream silently merges updates whose order matters, which is
    exactly the correctness hazard Section III-B describes (tests assert
    the divergence).
    """

    def __init__(self, config, reduce_op="add"):
        super().__init__(config)
        self.reduce_op = reduce_op

    def _make_level(self, binning, tuples_per_line, name):
        if name != "llc":
            return super()._make_level(binning, tuples_per_line, name)
        return CoalescingCBufferArray(
            binning.num_buffers,
            binning.bin_range,
            tuples_per_line,
            self.reduce_op,
            name=name,
        )
