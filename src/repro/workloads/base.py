"""Workload abstraction and the phase builders shared by every kernel.

A workload is characterized by its *irregular update stream* — the
(index, value) pairs it scatters into a data structure — plus per-element
instruction costs and streaming volumes. From that description the builders
here construct the :class:`PhaseSpec` lists for each execution mode:

* ``baseline``   — one main phase applying updates directly,
* ``pb``         — Init / Binning / Accumulate with software C-Buffers,
* ``cobra``      — Init / Binning (hardware C-Buffers) / Accumulate.

The harness runner turns PhaseSpecs into cycles, misses, and traffic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro._util import as_index_array, check_positive
from repro.core import costs
from repro.core.config import CobraConfig
from repro.cpu.branch import BRANCH_SAMPLE, BranchSite
from repro.pb.bins import BinSpec, group_order
from repro.pb.cbuffer import CBufferModel

__all__ = [
    "PHASE_ACCUMULATE",
    "PHASE_BINNING",
    "PHASE_INIT",
    "PHASE_MAIN",
    "PhaseSpec",
    "RegionSpec",
    "Segment",
    "Workload",
    "site_pc",
]

#: Phase names used across the harness.
PHASE_MAIN = "main"
PHASE_INIT = "init"
PHASE_BINNING = "binning"
PHASE_ACCUMULATE = "accumulate"


def site_pc(workload_name, site_name):
    """Stable pseudo-PC for a branch site (keyed by workload and site).

    Uses CRC-32 rather than ``hash()``: the built-in hash is salted per
    process (``PYTHONHASHSEED``), which would make pseudo-PCs — and thus
    GShare aliasing and misprediction counts — differ across runs and
    across the sweep executor's worker processes.
    """
    return zlib.crc32(f"{workload_name}:{site_name}".encode("utf-8"))


@dataclass(frozen=True)
class RegionSpec:
    """A named array touched by irregular accesses."""

    name: str
    element_bytes: int
    num_elements: int

    def __post_init__(self):
        check_positive("element_bytes", self.element_bytes)
        check_positive("num_elements", self.num_elements)


@dataclass
class Segment:
    """One irregular access stream into a region.

    Within a phase, segments are interleaved element-wise (they correspond
    to the accesses of one loop body).
    """

    region: RegionSpec
    indices: np.ndarray
    write: bool = True

    def __post_init__(self):
        self.indices = as_index_array(self.indices, "segment indices")


@dataclass
class PhaseSpec:
    """Everything the runner needs to cost one phase."""

    name: str
    instructions: float
    branches: int = 0
    branch_sites: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    streaming_bytes: int = 0
    nt_write_lines: int = 0  # software non-temporal bin writes
    hw_write_lines: int = 0  # COBRA hardware bin writes (LLC evictions)
    des_trace: np.ndarray = None  # tuple trace for eviction-stall modeling
    reserved_ways: tuple = None  # (l1, l2, llc) partition active this phase
    num_bins: int = 0  # parallel Accumulate dispatch granularity
    trace_scale: float = 1.0  # segments represent 1/trace_scale of reality
    #: LLC hits of this phase go to the *shared* NUCA LLC (remote-bank
    #: average latency) rather than the core-local bank — set by phases
    #: whose working set spans all banks, like tiling's segments.
    shared_llc: bool = False
    #: Irregular accesses removed by update coalescing (PHI/COBRA-COMM).
    #: Coalesced updates are duplicates within a short buffer window, i.e.
    #: accesses that would have hit the L1 — the runner deducts them there.
    coalesced_discount: int = 0

    @property
    def irregular_accesses(self):
        """Total irregular accesses across segments."""
        return sum(len(segment.indices) for segment in self.segments)

    def sampled_segments(self, budget):
        """Per-segment ``(region, indices, write)`` truncated to ``budget``.

        This is the sampling contract shared by the runner's full and
        chunked trace pipelines: both consume exactly these index arrays,
        which keeps their interleavings (and therefore their counters)
        bit-identical.
        """
        return [
            (segment.region, segment.indices[:budget], bool(segment.write))
            for segment in self.segments
        ]


class Workload:
    """Base class: subclasses provide the update stream and cost knobs.

    Required attributes (set in ``__init__`` of subclasses):

    ``name``, ``commutative`` (bool), ``reduce_op`` (str or None),
    ``tuple_bytes``, ``element_bytes``, ``num_indices``,
    ``update_indices`` (int64 array), ``update_values`` (array or None),
    ``stream_bytes_per_update``, ``data_region`` (RegionSpec).
    """

    baseline_instr_per_update = costs.BASELINE_UPDATE_INSTRS
    accum_instr_per_update = costs.ACCUMULATE_TUPLE_INSTRS
    reduce_op = None

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #

    def extra_baseline_segments(self):
        """Additional irregular streams of the baseline loop body."""
        return []

    def extra_accumulate_segments(self, order):
        """Additional irregular streams of Accumulate, given the replay
        permutation ``order`` (positions into the original stream)."""
        return []

    def extra_branch_sites(self, phase_name):
        """Workload-specific unpredictable branches for ``phase_name``."""
        return []

    def run_reference(self):
        """Functional result of the kernel (for correctness tests)."""
        raise NotImplementedError

    def run_pb_functional(self, num_bins=256):
        """Functional result computed via Propagation Blocking."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Common derived values
    # ------------------------------------------------------------------ #

    @property
    def num_updates(self):
        """Dynamic size of the update stream."""
        return len(self.update_indices)

    def characterization_phases(self):
        """Phases used for the Figure 2 locality characterization.

        Defaults to :meth:`baseline_phases`; workloads whose performance
        baseline is not the irregular loop (Integer Sort's comparison sort)
        override this to still expose the irregular-update variant.
        """
        return self.baseline_phases()

    # ------------------------------------------------------------------ #
    # Phase builders
    # ------------------------------------------------------------------ #

    def baseline_phases(self):
        """Direct (unblocked) execution."""
        n = self.num_updates
        segments = [
            Segment(self.data_region, self.update_indices, True)
        ] + self.extra_baseline_segments()
        return [
            PhaseSpec(
                name=PHASE_MAIN,
                instructions=n * self.baseline_instr_per_update,
                branches=n,
                branch_sites=self.extra_branch_sites(PHASE_MAIN),
                segments=segments,
                streaming_bytes=n * self.stream_bytes_per_update,
            )
        ]

    def _init_phase(self, spec: BinSpec, bin_ids=None):
        """Per-bin size precomputation (Table I's Init)."""
        n = self.num_updates
        if bin_ids is None:
            bin_ids = spec.bins_of(self.update_indices)
        offsets_region = RegionSpec(
            f"{self.name}.binoffsets", 8, max(spec.num_bins, 1)
        )
        index_bytes = min(self.tuple_bytes, 8) // 2 * 2
        return PhaseSpec(
            name=PHASE_INIT,
            instructions=n * costs.INIT_COUNT_INSTRS + 2 * spec.num_bins,
            branches=n,
            segments=[Segment(offsets_region, bin_ids, True)],
            streaming_bytes=n * index_bytes,
        )

    def _binning_phase(self, spec: BinSpec, bin_ids=None):
        """Software Binning: tuples append to per-bin C-Buffers.

        The "buffer full?" outcomes are built for the first
        ``BRANCH_SAMPLE`` updates only, the prefix the predictor reads: a
        prefix's C-Buffer occupancy depends on that prefix alone, and the
        site's ``count`` scales the sampled rate to the whole stream.
        """
        n = self.num_updates
        if bin_ids is None:
            bin_ids = spec.bins_of(self.update_indices)
        cbuffers = CBufferModel(spec, self.tuple_bytes)
        full_events = cbuffers.full_events(self.update_indices[:BRANCH_SAMPLE])
        full_lines, partial_lines = cbuffers.transfer_counts(self.update_indices)
        cbuf_region = RegionSpec(
            f"{self.name}.cbuffers", 64, max(spec.num_bins, 1)
        )
        return PhaseSpec(
            name=PHASE_BINNING,
            instructions=(
                n * costs.PB_BIN_TUPLE_INSTRS
                + (full_lines + partial_lines)
                * cbuffers.tuples_per_line
                * costs.PB_FLUSH_PER_TUPLE_INSTRS
            ),
            branches=2 * n,
            branch_sites=[
                BranchSite(
                    "cbuffer_full",
                    site_pc(self.name, "cbuffer_full"),
                    full_events,
                    count=n,
                )
            ]
            + self.extra_branch_sites(PHASE_BINNING),
            segments=[Segment(cbuf_region, bin_ids, True)],
            streaming_bytes=n * self.stream_bytes_per_update,
            nt_write_lines=full_lines + partial_lines,
        )

    def _accumulate_phase(self, spec: BinSpec, order=None):
        """Bin-major replay of the update stream.

        ``order`` is the stream's stable grouping by ``spec``'s bins, when
        the caller has already computed it.
        """
        n = self.num_updates
        if order is None:
            order = group_order(spec.bins_of(self.update_indices), spec.num_bins)
        segments = [
            Segment(self.data_region, self.update_indices[order], True)
        ] + self.extra_accumulate_segments(order)
        return PhaseSpec(
            name=PHASE_ACCUMULATE,
            instructions=n * self.accum_instr_per_update,
            branches=n,
            branch_sites=self.extra_branch_sites(PHASE_ACCUMULATE),
            segments=segments,
            streaming_bytes=n * self.tuple_bytes,
            num_bins=spec.num_bins,
        )

    def pb_phases(self, spec: BinSpec, include_init=True):
        """Software PB: Init, Binning, Accumulate.

        The bin ids are computed once and shared by the phases, and the
        stream is grouped once, for Accumulate.
        """
        bin_ids = spec.bins_of(self.update_indices)
        phases = [
            self._binning_phase(spec, bin_ids),
            self._accumulate_phase(spec, group_order(bin_ids, spec.num_bins)),
        ]
        if include_init:
            phases.insert(0, self._init_phase(spec, bin_ids))
        return phases

    def cobra_phases(self, cobra: CobraConfig, include_init=True):
        """COBRA: Init, hardware Binning, Accumulate at LLC bin count."""
        if cobra.num_indices != self.num_indices:
            raise ValueError("CobraConfig namespace must match the workload")
        if cobra.tuple_bytes != self.tuple_bytes:
            raise ValueError("CobraConfig tuple size must match the workload")
        n = self.num_updates
        spec = cobra.memory_bin_spec
        per_line = cobra.tuples_per_line
        bin_ids = spec.bins_of(self.update_indices)
        per_bin = np.bincount(bin_ids, minlength=spec.num_bins)
        hw_lines = int(np.sum(-(-per_bin // per_line)))  # ceil per bin
        setup = (
            costs.COBRA_SETUP_BASE_INSTRS
            + cobra.llc.num_buffers * costs.COBRA_SETUP_PER_BUFFER_INSTRS
        )
        flush_walk = (
            cobra.l1.num_buffers + cobra.l2.num_buffers + cobra.llc.num_buffers
        ) * costs.COBRA_FLUSH_PER_BUFFER_INSTRS
        binning = PhaseSpec(
            name=PHASE_BINNING,
            instructions=n * costs.COBRA_BIN_TUPLE_INSTRS + setup + flush_walk,
            branches=n,
            branch_sites=self.extra_branch_sites(PHASE_BINNING),
            segments=[],  # C-Buffers are pinned: no cache-visible irregularity
            streaming_bytes=n * self.stream_bytes_per_update,
            hw_write_lines=hw_lines,
            des_trace=self.update_indices,
            reserved_ways=(
                cobra.l1_reserved_ways,
                cobra.l2_reserved_ways,
                cobra.llc_reserved_ways,
            ),
        )
        phases = [
            binning,
            self._accumulate_phase(spec, group_order(bin_ids, spec.num_bins)),
        ]
        if include_init:
            phases.insert(0, self._init_phase(spec, bin_ids))
        return phases

    def __repr__(self):
        return (
            f"{type(self).__name__}(updates={self.num_updates}, "
            f"indices={self.num_indices}, commutative={self.commutative})"
        )
