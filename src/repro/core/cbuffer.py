"""Hardware C-Buffer lines with repurposed-metadata offset counters.

Section V-C: a C-Buffer is a pinned cache line receiving append-only tuple
insertions; its insertion offset lives in repurposed line metadata (PLRU +
dirty + coherence bits at L1/L2, tag bits at the LLC for bin offsets). This
module models those structures bit-faithfully enough to check the paper's
claims: counters wrap at ``tuples_per_line``, and LLC tags carry the
in-memory bin cursor.
"""

from __future__ import annotations

from repro._util import check_positive

__all__ = ["CBufferLine", "CBufferArray"]


class CBufferLine:
    """One cacheline-sized hardware C-Buffer.

    The offset counter is ``ceil(log2(tuples_per_line))`` bits wide — for
    8-tuple lines, the 3 bits the paper scavenges from PLRU/dirty/MESI
    metadata. The counter wraps to zero exactly when the line fills.
    """

    __slots__ = ("tuples_per_line", "counter_bits", "_counter", "_tuples")

    def __init__(self, tuples_per_line):
        check_positive("tuples_per_line", tuples_per_line)
        self.tuples_per_line = tuples_per_line
        self.counter_bits = max(1, (tuples_per_line - 1).bit_length())
        self._counter = 0
        self._tuples = []

    @property
    def offset(self):
        """Current insertion offset (the metadata counter value)."""
        return self._counter

    @property
    def occupancy(self):
        """Tuples currently buffered."""
        return len(self._tuples)

    @property
    def is_empty(self):
        """True when no tuples are buffered."""
        return not self._tuples

    def insert(self, index, value):
        """Append a tuple; returns the full line's tuples when it fills.

        Returns None while the line still has room. The counter wraps to
        zero on fill (Section V-C), signalling the controller to evict.
        """
        if self._counter >= (1 << self.counter_bits):
            raise AssertionError("offset counter exceeded its bit width")
        self._tuples.append((index, value))
        self._counter = (self._counter + 1) % self.tuples_per_line
        if self._counter == 0:
            full = self._tuples
            self._tuples = []
            return full
        return None

    def drain(self):
        """Remove and return buffered tuples (binflush of a partial line)."""
        tuples = self._tuples
        self._tuples = []
        self._counter = 0
        return tuples


class CBufferArray:
    """All C-Buffers of one cache level.

    Buffers are materialized lazily (a dict keyed by buffer ID) — the
    hardware pins one line per buffer; the model only tracks non-empty
    ones.
    """

    #: Updates merged in place; a plain level never merges.
    coalesced = 0

    def __init__(self, num_buffers, bin_range, tuples_per_line, name=""):
        check_positive("num_buffers", num_buffers)
        check_positive("bin_range", bin_range)
        self.num_buffers = num_buffers
        self.bin_range = bin_range
        self.shift = bin_range.bit_length() - 1
        self.tuples_per_line = tuples_per_line
        self.name = name
        self._buffers = {}
        self.inserts = 0
        self.evictions = 0

    def buffer_id(self, index):
        """C-Buffer an index maps to (a bit shift, Section V-B)."""
        return index >> self.shift

    def insert(self, index, value):
        """Insert a tuple; returns (buffer_id, tuples) if a line filled."""
        buffer_id = index >> self.shift
        line = self._buffers.get(buffer_id)
        if line is None:
            line = CBufferLine(self.tuples_per_line)
            self._buffers[buffer_id] = line
        self.inserts += 1
        full = line.insert(index, value)
        if full is not None:
            self.evictions += 1
            return buffer_id, full
        return None

    def drain_all(self):
        """binflush walk: yield (buffer_id, tuples) for non-empty buffers.

        Buffers are walked in ID order, matching the controller's serial
        walk of C-Buffer lines (Section V-E).
        """
        drained = []
        for buffer_id in sorted(self._buffers):
            line = self._buffers[buffer_id]
            if not line.is_empty:
                drained.append((buffer_id, line.drain()))
        self._buffers.clear()
        return drained

    @property
    def occupancy(self):
        """Total buffered tuples across the level."""
        return sum(line.occupancy for line in self._buffers.values())

    def occupancies(self):
        """Per-buffer occupancy (buffer_id -> tuples buffered)."""
        return {
            buffer_id: line.occupancy
            for buffer_id, line in self._buffers.items()
            if not line.is_empty
        }
