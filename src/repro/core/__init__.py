"""COBRA: the paper's primary contribution.

Hardware-assisted Propagation Blocking — hierarchical cache-pinned
C-Buffers, the bininit/binupdate/binflush ISA extension, eviction
scattering, the commutativity specialization (COBRA-COMM), and the
context-switch waste model.
"""

from repro.core.binlayout import SequentialBins
from repro.core.binwalk import binning_counts
from repro.core.cbuffer import CBufferArray, CBufferLine
from repro.core.comm import REDUCE_OPS, CoalescingCBufferArray, CobraCommMachine
from repro.core.config import CobraConfig, LevelBinning
from repro.core.context_switch import (
    ContextSwitchResult,
    simulate_context_switches,
)
from repro.core.machine import BinningStats, CobraMachine, MemoryBins

__all__ = [
    "BinningStats",
    "CBufferArray",
    "CBufferLine",
    "CoalescingCBufferArray",
    "CobraCommMachine",
    "CobraConfig",
    "CobraMachine",
    "ContextSwitchResult",
    "LevelBinning",
    "MemoryBins",
    "REDUCE_OPS",
    "SequentialBins",
    "binning_counts",
    "simulate_context_switches",
]
