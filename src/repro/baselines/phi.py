"""PHI baseline (Mukkara et al.): hierarchical commutative coalescing.

PHI adds reduction units at every private cache level and an atomic
reduction unit at the LLC, coalescing commutative updates wherever they
are buffered. Following Section VII-C we model an *idealized* PHI with
zero buffer-management overhead. Two properties distinguish it from COBRA:

* it only works for commutative updates, and
* its in-memory bin count is the software compromise (PHI does not solve
  the bin-count tension), so its Accumulate runs at PB-SW's locality.
"""

from __future__ import annotations

from repro.core.comm import CoalescingCBufferArray
from repro.core.config import LevelBinning
from repro.core.machine import CobraMachine
from repro.pb.bins import BinSpec

__all__ = ["PhiMachine"]


class PhiMachine(CobraMachine):
    """Functional PHI model: coalescing C-Buffers at L1, L2, and LLC.

    ``memory_spec`` fixes the in-memory bin layout (normally the software
    compromise plan); the L1/L2 buffer geometry follows the machine's cache
    capacities like COBRA's.
    """

    def __init__(self, config, memory_spec: BinSpec, reduce_op="add"):
        if memory_spec.num_indices != config.num_indices:
            raise ValueError("memory_spec must cover the config's namespace")
        self.memory_spec = memory_spec
        self.reduce_op = reduce_op
        super().__init__(config)

    def _level_binnings(self):
        l1 = self.config.level_binning("l1")
        l2 = self.config.level_binning("l2")
        # Memory bins (and hence the LLC reduction buffers) follow the
        # software-chosen compromise spec rather than LLC capacity.
        bin_range = max(self.memory_spec.bin_range, 1)
        if bin_range > l2.bin_range:
            # Keep ranges monotone down the hierarchy for the scatter logic.
            l2 = LevelBinning(
                "l2",
                l2.reserved_ways,
                l2.ways_used,
                -(-self.config.num_indices // bin_range),
                bin_range,
            )
            l1 = l1 if l1.bin_range >= bin_range else LevelBinning(
                "l1", l1.reserved_ways, l1.ways_used, l2.num_buffers, bin_range
            )
        llc = LevelBinning(
            "llc",
            self.config.llc_reserved_ways,
            0,
            self.memory_spec.num_bins,
            bin_range,
        )
        return [l1, l2, llc]

    def _make_level(self, binning, tuples_per_line, name):
        return CoalescingCBufferArray(
            binning.num_buffers,
            binning.bin_range,
            tuples_per_line,
            self.reduce_op,
            name=name,
        )

    @property
    def coalesced_per_level(self):
        """Updates merged at each level (PHI coalesces ~97% at the LLC)."""
        return {level.name: level.coalesced for level in self.levels}
