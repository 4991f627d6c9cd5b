"""Functional model of the COBRA machine (Sections IV and V).

Feeds ``binupdate`` tuples through the hierarchy of hardware C-Buffers:
L1 C-Buffer fills scatter into L2 C-Buffers, L2 fills into LLC C-Buffers,
and LLC fills append a full line of tuples to the in-memory bin pointed to
by the tag-resident BinOffset cursor. ``binflush`` drains residual tuples
top-down. The model verifies functional equivalence with software PB (each
memory bin receives exactly its bin's updates) and produces the eviction
and traffic statistics the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import check_positive
from repro.core.cbuffer import CBufferArray
from repro.core.config import CobraConfig

__all__ = ["MemoryBins", "BinningStats", "CobraMachine"]


class MemoryBins:
    """In-memory bins written by LLC C-Buffer evictions (Figure 9).

    Tuples of bin ``b`` land contiguously; the per-bin cursor the hardware
    keeps in the LLC tag entry is modeled by the per-bin list length. Line
    accounting distinguishes full-line writes (normal evictions) from
    partial-line writes (binflush and context switches), whose unused bytes
    are the bandwidth waste of Figure 13c.
    """

    def __init__(self, num_bins, tuple_bytes, line_bytes=64):
        check_positive("num_bins", num_bins)
        self.num_bins = num_bins
        self.tuple_bytes = tuple_bytes
        self.line_bytes = line_bytes
        self.bins = [[] for _ in range(num_bins)]
        self.full_lines = 0
        self.partial_lines = 0
        self.wasted_bytes = 0

    def write_line(self, bin_id, tuples):
        """Append one evicted C-Buffer line's tuples to bin ``bin_id``."""
        if not 0 <= bin_id < self.num_bins:
            raise IndexError(f"bin {bin_id} out of range")
        self.bins[bin_id].extend(tuples)
        used = len(tuples) * self.tuple_bytes
        if used >= self.line_bytes:
            self.full_lines += 1
        else:
            # DRAM is written at line granularity; a partial line still
            # moves line_bytes over the bus.
            self.partial_lines += 1
            self.wasted_bytes += self.line_bytes - used

    @property
    def lines_written(self):
        """All DRAM lines written into bins."""
        return self.full_lines + self.partial_lines

    @property
    def total_tuples(self):
        """Tuples across all bins."""
        return sum(len(b) for b in self.bins)

    @property
    def bytes_written(self):
        """Total DRAM write traffic in bytes (line granularity)."""
        return self.lines_written * self.line_bytes


@dataclass
class BinningStats:
    """Eviction/insert counts of one COBRA Binning run."""

    tuples: int = 0
    l1_evictions: int = 0
    l2_evictions: int = 0
    llc_evictions: int = 0
    flush_lines: int = 0
    coalesced: int = 0  # updates merged in coalescing C-Buffers

    @property
    def lines_written(self):
        """DRAM lines written into bins: full evictions plus flushed lines
        (what :meth:`MemoryBins.write_line` counts)."""
        return self.llc_evictions + self.flush_lines


class CobraMachine:
    """Behavioural COBRA model driven by the ISA extension (Section V-B).

    Typical use::

        machine = CobraMachine(CobraConfig(num_indices=n, tuple_bytes=8))
        machine.bininit()
        for index, value in stream:
            machine.binupdate(index, value)
        machine.binflush()
        machine.memory_bins.bins  # bin-major updates, ready for Accumulate
    """

    def __init__(self, config: CobraConfig):
        config.validate_monotone()
        self.config = config
        self.levels = None
        self.memory_bins = None
        self._stats = BinningStats()
        self._initialized = False

    # ------------------------------------------------------------------ #
    # ISA extension
    # ------------------------------------------------------------------ #

    def bininit(self, bin_counts=None):
        """Configure C-Buffers at every level (one bininit per level).

        With ``bin_counts`` (the Init phase's per-bin tuple counts), memory
        bins use the sequential Figure 9 layout — contiguous per-bin
        storage addressed through tag-resident BinOffset cursors — instead
        of the default growable per-bin lists.
        """
        cfg = self.config
        per_line = cfg.tuples_per_line
        binnings = self._level_binnings()
        self.levels = [
            self._make_level(binning, per_line, binning.level)
            for binning in binnings
        ]
        if bin_counts is not None:
            from repro.core.binlayout import SequentialBins

            if len(bin_counts) != binnings[-1].num_buffers:
                raise ValueError(
                    "bin_counts must have one entry per LLC C-Buffer "
                    f"({binnings[-1].num_buffers}), got {len(bin_counts)}"
                )
            self.memory_bins = SequentialBins(
                bin_counts, cfg.tuple_bytes, cfg.hierarchy.line_bytes
            )
        else:
            self.memory_bins = MemoryBins(
                binnings[-1].num_buffers,
                cfg.tuple_bytes,
                cfg.hierarchy.line_bytes,
            )
        self._stats = BinningStats()
        self._initialized = True
        return self

    def _level_binnings(self):
        """The three per-level binning configurations (overridable)."""
        return [self.config.level_binning(name) for name in ("l1", "l2", "llc")]

    def _make_level(self, binning, tuples_per_line, name):
        return CBufferArray(
            binning.num_buffers, binning.bin_range, tuples_per_line, name=name
        )

    def binupdate(self, index, value=None):
        """Insert one (index, value) tuple into the L1 C-Buffers."""
        if not self._initialized:
            raise RuntimeError("bininit must run before binupdate")
        if not 0 <= index < self.config.num_indices:
            raise IndexError(
                f"index {index} outside [0, {self.config.num_indices})"
            )
        self._stats.tuples += 1
        full = self.levels[0].insert(index, value)
        if full is not None:
            self._stats.l1_evictions += 1
            self._scatter(1, full[1])

    def binupdate_many(self, indices, values=None):
        """Bulk :meth:`binupdate` over parallel arrays."""
        if values is None:
            for index in indices:
                self.binupdate(int(index), None)
        else:
            for index, value in zip(indices, values):
                self.binupdate(int(index), value)

    def binflush(self):
        """Drain every level top-down so all tuples reach memory bins."""
        if not self._initialized:
            raise RuntimeError("bininit must run before binflush")
        for tier in range(3):
            for _buffer_id, tuples in self.levels[tier].drain_all():
                if tier < 2:
                    self._scatter(tier + 1, tuples)
                else:
                    self._write_llc_line(tuples, partial_ok=True)

    # ------------------------------------------------------------------ #
    # Binning engine (fixed-function scatter, Section V-D)
    # ------------------------------------------------------------------ #

    def _scatter(self, tier, tuples):
        """Insert each tuple of an evicted line into level ``tier``."""
        level = self.levels[tier]
        for index, value in tuples:
            full = level.insert(index, value)
            if full is not None:
                if tier == 1:
                    self._stats.l2_evictions += 1
                    self._scatter(2, full[1])
                else:
                    self._write_llc_line(full[1])

    def _write_llc_line(self, tuples, partial_ok=False):
        """Move an LLC C-Buffer line to its in-memory bin."""
        if not tuples:
            return
        bin_id = tuples[0][0] >> self.levels[2].shift
        if not partial_ok:
            self._stats.llc_evictions += 1
        else:
            self._stats.flush_lines += 1
        self.memory_bins.write_line(bin_id, tuples)

    # ------------------------------------------------------------------ #
    # Context-switch behaviour (Section V-E, Figure 13c)
    # ------------------------------------------------------------------ #

    def evict_llc_partial(self):
        """Model a context switch evicting every (partial) LLC C-Buffer.

        Another process scheduled after preemption can displace pinned
        C-Buffer lines; partially filled LLC lines then burn DRAM bandwidth
        (a full line is written regardless of occupancy). Returns the lines
        written.
        """
        drained = self.levels[2].drain_all()
        for _buffer_id, tuples in drained:
            self._write_llc_line(tuples, partial_ok=True)
        return len(drained)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def stats(self):
        """Counts so far; ``coalesced`` mirrors :attr:`coalesced`."""
        self._stats.coalesced = self.coalesced
        return self._stats

    @property
    def coalesced(self):
        """Updates merged in coalescing C-Buffers (DRAM tuples saved)."""
        return sum(level.coalesced for level in self.levels or ())

    @property
    def buffered_tuples(self):
        """Tuples currently resident in C-Buffers (not yet in memory)."""
        return sum(level.occupancy for level in self.levels)

    def bin_contents(self, bin_id):
        """Tuples of one memory bin, in arrival order."""
        return list(self.memory_bins.bins[bin_id])
