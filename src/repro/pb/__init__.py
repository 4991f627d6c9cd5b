"""Software Propagation Blocking: bins, C-Buffers, executor, planner."""

from repro.pb.bins import BinSpec, bin_counts, bin_offsets, bin_updates, group_order
from repro.pb.cbuffer import CBufferModel
from repro.pb.engine import PropagationBlocker, apply_updates_direct
from repro.pb.multipass import MultiPassPartitioner
from repro.pb.planner import BinPlan, auto_blocker, plan_bins

__all__ = [
    "BinPlan",
    "BinSpec",
    "CBufferModel",
    "MultiPassPartitioner",
    "PropagationBlocker",
    "apply_updates_direct",
    "auto_blocker",
    "bin_counts",
    "bin_offsets",
    "bin_updates",
    "group_order",
    "plan_bins",
]
