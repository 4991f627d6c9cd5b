"""Batched trace simulation engine.

:class:`FastHierarchy` replays a trace one access at a time, walking all
three levels per access. This module instead simulates a whole line-trace
as NumPy arrays with a *level-decomposed, set-partitioned* sweep, in the
spirit of propagation blocking itself (and of the cache-aware restructuring
in GraphIt/Cagra and PCPM): process one cache level at a time over the whole
trace, and within a level partition the event stream by set so each
partition runs a tight specialized kernel over contiguous state.

The decomposition is exact because level state only flows *downward*:

* The L1 outcome of every access depends only on the access stream, so the
  L1 is simulated first over the full trace.
* The L2 sees the L1 demand misses plus the L1's dirty evictions; both are
  emitted with a global sequence key while the L1 runs, merged with
  ``searchsorted``, and replayed.
* The LLC likewise consumes the L2 misses and dirty evictions; its own
  dirty victims are DRAM writebacks.

Three couplings used to force a scalar fallback; each now has a dedicated
kernel treatment (see :mod:`repro.cache.kernels`):

* **DRRIP set dueling** couples sets through the global PSEL counter, so
  DRRIP levels skip the per-set partition and run one PSEL-threaded scan
  over the level's seq-ordered event stream instead.
* **Stream prefetching** is upward-dependent: prefetch fills into the L2
  are gated on L2 residency, and their DRAM accounting on LLC residency,
  both *at the time of the access*. But the prefetcher observes only the
  L1-miss stream and its own state depends on nothing else, so issuance is
  computed in one pre-pass and the fills/probes are interleaved into the
  L2/LLC event streams as dedicated event kinds (``KIND_PREFETCH`` /
  ``KIND_PROBE``) at the right sequence slots.
* **Reserved ways** (COBRA way partitioning) shrink each set's usable
  capacity; the kernels simply replay with ``ways - reserved`` capacity,
  exactly like the scalar engine's ``usable`` range.

Within one level, events interleave on a fixed per-access slot budget: the
demand event takes slot 0, every eviction fires one slot after its cause
(an L1 victim lands at slot 1, the victim of *that* fill at slot 2), and
prefetch ``j`` occupies slots ``3 + 2j`` (fill and LLC probe) and
``4 + 2j`` (the fill's own victim). Equivalence on identical counters is
asserted by the test suite against both ``FastHierarchy`` and the
reference ``CacheHierarchy`` for every policy/prefetch/reservation
combination (``tests/cache/test_kernel_backends.py``).

Kernels come in two bit-identical tiers (see :mod:`repro.cache.kernels`):
flat-array C kernels (``cnative``) whenever the C library builds, else
pure-Python dict kernels (``numpy``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.cache.kernels import cnative, select_backend
from repro.cache.kernels.cnative import (
    drrip_level_replay_flat,
    lru_level_replay,
    plru_level_replay,
)
from repro.cache.kernels.prefetch import prefetch_scan
from repro.cache.kernels.setreplay import (
    KIND_PROBE,
    KIND_WRITE,
    DrripLevelState,
    drrip_level_replay,
    drrip_roles,
    lru_set_replay,
    plru_set_replay,
)
from repro.cache.prefetcher import StreamPrefetcher
from repro.cache.stats import ServiceCounts

__all__ = ["BatchHierarchy"]

_LRU, _PLRU, _DRRIP = 0, 1, 2
_POLICY_CODES = {"lru": _LRU, "plru": _PLRU, "drrip": _DRRIP}

#: Sub-event slots per access when no prefetcher is configured (slots 0-2;
#: prefetching widens the window, see :meth:`BatchHierarchy._stride`).
_SEQ_STRIDE = 4


class _FlatLevelState:
    """Per-level flat arrays backing the ``cnative`` kernel tier."""

    __slots__ = (
        "way_line",
        "dirty",
        "occ",
        "stamp",
        "clock",
        "mru",
        "mru_cnt",
        "rrpv",
        "role",
        "duel",
    )

    def __init__(self, sets, ways, policy):
        total = sets * ways
        self.way_line = np.full(total, -1, dtype=np.int64)
        self.dirty = np.zeros(total, dtype=np.uint8)
        self.occ = np.zeros(sets, dtype=np.int64)
        if policy == _LRU:
            self.stamp = np.zeros(total, dtype=np.int64)
            self.clock = np.zeros(1, dtype=np.int64)
        elif policy == _PLRU:
            self.mru = np.zeros(total, dtype=np.uint8)
            self.mru_cnt = np.zeros(sets, dtype=np.int64)
        else:
            self.rrpv = np.full(total, 3, dtype=np.uint8)
            self.role = np.asarray(drrip_roles(sets), dtype=np.uint8)
            self.duel = np.array([512, 0], dtype=np.int64)


class BatchHierarchy:
    """Batched three-level simulator, equivalent to :class:`FastHierarchy`.

    Only constructible for configurations :meth:`supports` accepts (today:
    every configuration whose policies are LRU/PLRU/DRRIP — including
    prefetching and reserved ways). State persists across :meth:`simulate`
    calls exactly as FastHierarchy's does across
    :meth:`~FastHierarchy.access` calls.

    ``backend`` records the kernel tier :func:`select_backend` chose
    (``"cnative"`` or ``"numpy"``; see :mod:`repro.cache.kernels`).
    """

    def __init__(self, config: HierarchyConfig):
        reason = self.reject_reason(config)
        if reason is not None:
            raise ValueError(
                f"BatchHierarchy cannot express this configuration "
                f"({reason}); use FastHierarchy"
            )
        self.config = config
        self.backend = select_backend()
        self._native = self.backend == "cnative"
        self._sets = []
        self._ways = []
        self._caps = []  # usable ways (full ways minus reservation)
        self._pol = []
        self._state = []
        for name in ("l1", "l2", "llc"):
            sets = config.sets(name)
            ways = getattr(config, f"{name}_ways")
            usable = ways - getattr(config, f"{name}_reserved_ways")
            policy = _POLICY_CODES[getattr(config, f"{name}_policy")]
            self._sets.append(sets)
            self._ways.append(ways)
            self._caps.append(usable)
            self._pol.append(policy)
            if self._native:
                self._state.append(_FlatLevelState(sets, ways, policy))
            elif policy == _DRRIP:
                self._state.append(DrripLevelState(sets, ways, usable))
            else:
                self._state.append({})  # set index -> kernel state
        self.prefetcher = (
            StreamPrefetcher(
                config.prefetch_streams,
                config.prefetch_degree,
                config.prefetch_threshold,
            )
            if config.prefetch
            else None
        )
        # Slot window per access: demand + two victim slots, plus a fill
        # and victim slot per potential prefetch.
        self._stride = (
            _SEQ_STRIDE
            if self.prefetcher is None
            else _SEQ_STRIDE + 2 * config.prefetch_degree
        )
        self.hits = [0, 0, 0]
        self.misses = [0, 0, 0]
        self.dram_reads = 0
        self.dram_writes = 0
        self.dram_prefetch_reads = 0

    @staticmethod
    def reject_reason(config: HierarchyConfig):
        """Why the batched decomposition cannot express ``config``, or
        ``None`` when it can. The runner forwards this reason in its
        ``scalar_fallback`` telemetry event."""
        for name in ("l1", "l2", "llc"):
            policy = getattr(config, f"{name}_policy")
            if policy not in _POLICY_CODES:
                return f"unknown {name} replacement policy {policy!r}"
        return None

    @classmethod
    def supports(cls, config: HierarchyConfig) -> bool:
        """True when the batched decomposition is exact for ``config``."""
        return cls.reject_reason(config) is None

    # ------------------------------------------------------------------ #
    # Level replay
    # ------------------------------------------------------------------ #

    def _set_index(self, level, line):
        sets = self._sets[level]
        if sets & (sets - 1) == 0:  # power-of-two set count: bitmask index
            return line & (sets - 1)
        return line % sets

    def _replay_level(self, level, seq, line, kind):
        """Replay one level's merged event stream.

        ``kind`` holds the per-event kind codes (see
        :mod:`repro.cache.kernels.setreplay`). Returns ``(hit, evict_seq,
        evict_line)``: per-event hit flags and the level's dirty evictions
        tagged with their sequence keys (an eviction fires one sequence
        slot after its cause).
        """
        count = line.size
        empty_seq = np.empty(0, dtype=np.int64)
        if not count:
            return np.empty(0, dtype=bool), empty_seq, []
        if self._native:
            return self._replay_level_flat(level, seq, line, kind)
        policy = self._pol[level]
        if policy == _DRRIP:
            return self._replay_level_drrip(level, seq, line, kind)
        return self._replay_level_sets(level, seq, line, kind)

    def _replay_level_flat(self, level, seq, line, kind):
        """One C-kernel call over the whole level (``cnative`` tier)."""
        count = line.size
        state = self._state[level]
        set_idx = np.ascontiguousarray(
            self._set_index(level, line), dtype=np.int64
        )
        kind = np.ascontiguousarray(kind, dtype=np.uint8)
        hit = np.zeros(count, dtype=np.uint8)
        evict_mask = np.zeros(count, dtype=np.uint8)
        evict_line = np.zeros(count, dtype=np.int64)
        ways = self._ways[level]
        usable = self._caps[level]
        policy = self._pol[level]
        if policy == _LRU:
            lru_level_replay(
                line, kind, set_idx, ways, usable,
                state.way_line, state.dirty, state.stamp, state.occ,
                state.clock, hit, evict_mask, evict_line,
            )
        elif policy == _PLRU:
            plru_level_replay(
                line, kind, set_idx, ways, usable,
                state.way_line, state.dirty, state.mru, state.mru_cnt,
                state.occ, hit, evict_mask, evict_line,
            )
        else:
            drrip_level_replay_flat(
                line, kind, set_idx, ways, usable,
                state.way_line, state.dirty, state.rrpv, state.role,
                state.occ, state.duel, hit, evict_mask, evict_line,
            )
        fired = evict_mask.view(bool)
        return hit.view(bool), seq[fired] + 1, evict_line[fired]

    def _replay_level_drrip(self, level, seq, line, kind):
        """PSEL-threaded whole-level scan (``numpy`` tier, DRRIP levels)."""
        count = line.size
        set_idx = self._set_index(level, line)
        evict_pos, evict_line = [], []
        miss_pos = drrip_level_replay(
            self._state[level],
            np.ascontiguousarray(set_idx).tolist(),
            line.tolist(),
            np.ascontiguousarray(kind, dtype=np.uint8).tolist(),
            evict_pos,
            evict_line,
        )
        hit = np.ones(count, dtype=bool)
        if miss_pos:
            hit[miss_pos] = False
        evict_seq = (
            seq[evict_pos] + 1
            if evict_pos
            else np.empty(0, dtype=np.int64)
        )
        return hit, evict_seq, evict_line

    def _replay_level_sets(self, level, seq, line, kind):
        """Per-set partitioned replay (``numpy`` tier, LRU/PLRU levels)."""
        count = line.size
        hit = np.empty(count, dtype=bool)
        empty_seq = np.empty(0, dtype=np.int64)
        sets = self._sets[level]
        cap = self._caps[level]
        policy = self._pol[level]
        kernel = lru_set_replay if policy == _LRU else plru_set_replay
        states = self._state[level]
        set_idx = self._set_index(level, line)
        # stable per-set grouping: set counts are small, so a narrow-dtype
        # stable argsort hits numpy's radix path — ~3x faster than a
        # comparison sort of packed (set, position) keys
        if sets <= 1 << 16:
            narrow = np.uint8 if sets <= 1 << 8 else np.uint16
            set_idx = set_idx.astype(narrow)
            order = np.argsort(set_idx, kind="stable")
        else:  # huge set counts: generic value sort on packed keys
            shift = int(count).bit_length()
            key = (set_idx.astype(np.int64) << shift) | np.arange(
                count, dtype=np.int64
            )
            key.sort()
            order = key & ((1 << shift) - 1)
        counts = np.bincount(set_idx, minlength=sets)
        starts = np.cumsum(counts[:-1])
        kind = np.ascontiguousarray(kind, dtype=np.uint8)
        evict_seq_parts, evict_line = [], []
        for set_id, group in enumerate(np.split(order, starts)):
            if not group.size:
                continue
            state = states.get(set_id)
            if state is None:
                if policy == _LRU:
                    state = OrderedDict()
                else:
                    state = [{}, [None] * cap, 0, 0, 0, 0]
                states[set_id] = state
            evict_pos = []
            miss_pos = kernel(
                state,
                cap,
                line[group].tolist(),
                kind[group].tolist(),
                evict_pos,
                evict_line,
            )
            group_hit = np.ones(group.size, dtype=bool)
            if miss_pos:
                group_hit[miss_pos] = False
            hit[group] = group_hit
            if evict_pos:
                # an eviction fires one sequence slot after its cause
                evict_seq_parts.append(seq[group[evict_pos]] + 1)
        evict_seq = (
            np.concatenate(evict_seq_parts) if evict_seq_parts else empty_seq
        )
        return hit, evict_seq, evict_line

    # ------------------------------------------------------------------ #
    # Stream merging
    # ------------------------------------------------------------------ #

    @staticmethod
    def _sorted_evictions(evict_seq, evict_line):
        """Sort an eviction stream by sequence key.

        Eviction seq keys are unique (each cause is a distinct event), so
        pack (seq, index) into one int64 and value-sort — cheaper than
        argsort's indirection. C-tier streams arrive already sorted and
        pass through the cheap ``key.sort()`` unchanged.
        """
        ev_seq = np.asarray(evict_seq, dtype=np.int64)
        ev_line = np.asarray(evict_line, dtype=np.int64)
        if not ev_seq.size:
            return ev_seq, ev_line
        shift = int(ev_seq.size).bit_length()
        if int(ev_seq.max()) < 1 << (62 - shift):
            key = (ev_seq << shift) | np.arange(ev_seq.size, dtype=np.int64)
            key.sort()
            ev_order = key & ((1 << shift) - 1)
            ev_seq = key >> shift
        else:  # pathological seq range: keep the exact slow path
            ev_order = np.argsort(ev_seq, kind="stable")
            ev_seq = ev_seq[ev_order]
        return ev_seq, ev_line[ev_order]

    @staticmethod
    def _merge_sorted(seq_a, line_a, kind_a, seq_b, line_b, kind_b):
        """Merge two seq-sorted event streams into one.

        Sequence keys are unique across streams (the per-access slot
        discipline guarantees it), so two ``searchsorted`` calls place
        both sides without tie-breaking. ``kind_a``/``kind_b`` may be
        scalars or per-event arrays.
        """
        na, nb = seq_a.size, seq_b.size
        if not nb:
            kind = np.broadcast_to(
                np.asarray(kind_a, dtype=np.uint8), (na,)
            ).copy() if np.isscalar(kind_a) else kind_a
            return seq_a, line_a, kind
        seq = np.empty(na + nb, dtype=np.int64)
        line = np.empty(na + nb, dtype=np.int64)
        kind = np.empty(na + nb, dtype=np.uint8)
        apos = np.searchsorted(seq_b, seq_a) + np.arange(na, dtype=np.int64)
        bpos = np.searchsorted(seq_a, seq_b) + np.arange(nb, dtype=np.int64)
        seq[apos] = seq_a
        line[apos] = line_a
        kind[apos] = kind_a
        seq[bpos] = seq_b
        line[bpos] = line_b
        kind[bpos] = kind_b
        return seq, line, kind

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #

    def simulate(self, lines, writes=None):
        """Simulate a whole trace; returns the per-access servicing levels.

        ``lines`` is an int array of line numbers; ``writes`` a parallel
        boolean array (or a single bool / None applied to every access).
        The returned int8 array holds 1 (L1) .. 4 (DRAM) per access, and
        the hit/miss/DRAM counters are updated, mirroring what repeated
        :meth:`FastHierarchy.access` calls would produce.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.size
        if writes is None or isinstance(writes, bool):
            writes = np.full(n, bool(writes))
        else:
            writes = np.ascontiguousarray(writes, dtype=bool)
        served = np.full(n, 1, dtype=np.int8)
        if not n:
            return served
        stride = self._stride

        # L1: every access, in order; a demand write dirties the line.
        seq = np.arange(n, dtype=np.int64) * stride
        l1_hit, ev_seq, ev_line = self._replay_level(
            0, seq, lines, writes.view(np.uint8)
        )
        l1_miss = np.flatnonzero(~l1_hit)
        self.hits[0] += int(l1_hit.sum())
        self.misses[0] += int(l1_miss.size)
        served[l1_miss] = 2
        miss_seq = seq[l1_miss]
        miss_lines = lines[l1_miss]

        # L2: demand lookups for L1 misses, merged with L1 dirty evictions
        # (a dirty victim cascading down fills dirty; demand fills are
        # clean) and with the prefetcher's issued fills.
        seq2, line2, kind2 = self._merge_sorted(
            miss_seq, miss_lines, 0,
            *self._sorted_evictions(ev_seq, ev_line), KIND_WRITE,
        )
        if self.prefetcher is not None and miss_seq.size:
            scan = cnative.prefetch_scan_native if self._native else prefetch_scan
            pf_seq, pf_line = scan(self.prefetcher, miss_seq, miss_lines)
            if pf_seq.size:
                seq2, line2, kind2 = self._merge_sorted(
                    seq2, line2, kind2, pf_seq, pf_line, 2
                )
        l2_hit, ev_seq, ev_line = self._replay_level(1, seq2, line2, kind2)
        demand2 = kind2 == 0
        l2_miss = demand2 & ~l2_hit
        self.hits[1] += int((demand2 & l2_hit).sum())
        self.misses[1] += int(l2_miss.sum())
        served[seq2[l2_miss] // stride] = 3
        pf_fired = (kind2 == 2) & ~l2_hit

        # LLC: demand lookups for L2 misses, merged with L2 dirty
        # evictions and residency probes for the prefetch fills that fired
        # (a probe shares its fill's sequence slot; the fill's own victim
        # lands one slot later, preserving the scalar engine's ordering).
        seq3, line3, kind3 = self._merge_sorted(
            seq2[l2_miss], line2[l2_miss], 0,
            *self._sorted_evictions(ev_seq, ev_line), KIND_WRITE,
        )
        if pf_fired.any():
            seq3, line3, kind3 = self._merge_sorted(
                seq3, line3, kind3,
                seq2[pf_fired], line2[pf_fired], KIND_PROBE,
            )
        llc_hit, _dram_seq, dram_line = self._replay_level(
            2, seq3, line3, kind3
        )
        demand3 = kind3 == 0
        llc_miss = demand3 & ~llc_hit
        self.hits[2] += int((demand3 & llc_hit).sum())
        misses3 = int(llc_miss.sum())
        self.misses[2] += misses3
        self.dram_reads += misses3
        probes = kind3 == KIND_PROBE
        if probes.any():
            self.dram_prefetch_reads += int((probes & ~llc_hit).sum())
        self.dram_writes += len(dram_line)
        served[seq3[llc_miss] // stride] = 4
        return served

    def run_trace(self, lines, writes=None):
        """Simulate a whole trace; returns :class:`ServiceCounts`."""
        counts = np.bincount(self.simulate(lines, writes), minlength=5)
        return ServiceCounts(
            int(counts[1]), int(counts[2]), int(counts[3]), int(counts[4])
        )

    def simulate_stream(self, chunks):
        """Replay an iterable of ``(lines, writes)`` chunks lazily.

        Yields the per-chunk served-level array from :meth:`simulate`.
        Replacement state persists across calls, so consuming the generator
        is bit-identical to one :meth:`simulate` over the concatenated
        trace while holding only a chunk in memory at a time.
        """
        for lines, writes in chunks:
            yield self.simulate(lines, writes)

    # ------------------------------------------------------------------ #
    # Maintenance (FastHierarchy API parity)
    # ------------------------------------------------------------------ #

    def contains(self, level, line):
        """True when ``line`` is resident at ``level`` (0-indexed)."""
        line = int(line)
        state = self._state[level]
        if self._native:
            base = self._set_index(level, line) * self._ways[level]
            way_line = state.way_line
            return any(
                way_line[base + w] == line
                for w in range(self._caps[level])
            )
        if self._pol[level] == _DRRIP:
            return line in state.table
        set_state = state.get(self._set_index(level, line))
        if set_state is None:
            return False
        resident = set_state if self._pol[level] == _LRU else set_state[0]
        return line in resident

    def reset_stats(self):
        """Zero hit/miss and DRAM counters (contents unchanged)."""
        self.hits = [0, 0, 0]
        self.misses = [0, 0, 0]
        self.dram_reads = 0
        self.dram_writes = 0
        self.dram_prefetch_reads = 0
        if self.prefetcher is not None:
            self.prefetcher.reset()

    def write_through_dram(self, num_lines):
        """Account non-temporal full-line writes (bypass the caches)."""
        self.dram_writes += num_lines

    def read_through_dram(self, num_lines):
        """Account streaming reads served straight from DRAM."""
        self.dram_reads += num_lines
