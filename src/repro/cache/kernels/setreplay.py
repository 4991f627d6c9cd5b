"""Pure-Python per-set replay kernels (the ``numpy`` backend tier).

These are the scalar hearts of :class:`~repro.cache.batchsim.BatchHierarchy`:
one tight dict-based loop per replacement policy, replaying one cache set's
(or, for DRRIP, one whole level's) event stream. Every operation on the hot
path is a C-level dict/int primitive; the surrounding vectorized machinery
(set partitioning, stream merging) lives in :mod:`repro.cache.batchsim`.

Events carry a *kind* code instead of a plain dirty flag so the kernels can
express the full configuration space, including the modes that previously
forced the scalar engine:

``KIND_READ`` (0)
    Demand read: hit touches replacement state, miss fills clean.
``KIND_WRITE`` (1)
    Demand write or dirty-victim fill: hit touches and dirties, miss fills
    dirty.
``KIND_PREFETCH`` (2)
    Prefetch fill into the L2: resident lines are left untouched (no
    replacement-state update — mirroring ``FastHierarchy``'s
    ``pf_line not in map`` guard), misses fill clean. A prefetch miss is
    how the caller learns the fill actually happened (and therefore that
    the LLC must be probed).
``KIND_PROBE`` (3)
    LLC residency probe for a prefetch fill: reports hit/miss without
    touching any state, so ``dram_prefetch_reads`` can be gated on LLC
    residency *at the probe's position in the stream* — the upward
    dependency that used to break the level decomposition.

Each kernel returns the positions that *missed* (for probes: that were not
resident); dirty evictions are appended to the caller's ``evict_pos`` /
``evict_line`` lists as they fire.

The flat-array C twins of the ``cnative`` tier live in
:mod:`repro.cache.kernels.cnative`; equivalence between the tiers (and
against :class:`~repro.cache.fastsim.FastHierarchy` and the reference
hierarchy) is asserted by ``tests/cache/test_kernel_backends.py``.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = [
    "SCALAR_ORACLE",
    "KIND_READ",
    "KIND_WRITE",
    "KIND_PREFETCH",
    "KIND_PROBE",
    "lru_set_replay",
    "plru_set_replay",
    "drrip_level_replay",
    "DrripLevelState",
]

#: Scalar engine these kernels are equivalence-tested against (the
#: ``backend-pairing`` lint rule keys off this marker).
SCALAR_ORACLE = "FastHierarchy"

KIND_READ = 0
KIND_WRITE = 1
KIND_PREFETCH = 2
KIND_PROBE = 3


def lru_set_replay(state, cap, ev_line, ev_kind, evict_pos, evict_line):
    """Replay one set's events under LRU; returns miss positions.

    ``state`` is an :class:`OrderedDict` mapping resident lines (LRU first)
    to their dirty flag. Victim choice by least-recent touch matches
    FastHierarchy's stamp-based LRU exactly (every hit and fill touches;
    prefetch no-ops and probes never touch).
    """
    resident = state
    miss_pos = []
    miss = miss_pos.append
    move_to_end = resident.move_to_end
    popitem = resident.popitem
    for pos, line in enumerate(ev_line):
        kind = ev_kind[pos]
        if line in resident:
            if kind < KIND_PREFETCH:
                move_to_end(line)
                if kind == KIND_WRITE:
                    resident[line] = True
            continue
        miss(pos)
        if kind == KIND_PROBE:
            continue
        resident[line] = kind == KIND_WRITE
        if len(resident) > cap:
            victim, victim_dirty = popitem(last=False)
            if victim_dirty:
                evict_pos.append(pos)
                evict_line.append(victim)
    return miss_pos


def plru_set_replay(state, cap, ev_line, ev_kind, evict_pos, evict_line):
    """Replay one set's events under bit-PLRU; returns miss positions.

    ``state`` is ``[table, way_line, mru, count, occupied, dirty]`` — a
    line→way-bit dict, its way→line inverse, and the MRU/dirty bits packed
    into ints: the same scheme FastHierarchy keeps in its flat arrays,
    replicated bit for bit (reset-on-saturation, first clear-MRU-bit
    victim, first free way on cold fills). The table stores ``1 << way``
    rather than the way index so the hot hit path never shifts.
    """
    table, way_line = state[0], state[1]
    mru, count, occupied, dirty = state[2], state[3], state[4], state[5]
    full_mask = (1 << cap) - 1
    miss_pos = []
    miss = miss_pos.append
    lookup = table.get
    for pos, line in enumerate(ev_line):
        kind = ev_kind[pos]
        bit = lookup(line)
        if bit is not None:
            if kind >= KIND_PREFETCH:
                continue
            if not mru & bit:
                count += 1
                if count >= cap:
                    mru, count = bit, 1
                else:
                    mru |= bit
            if kind == KIND_WRITE:
                dirty |= bit
            continue
        miss(pos)
        if kind == KIND_PROBE:
            continue
        if occupied < cap:
            way = way_line.index(None)
            bit = 1 << way
            occupied += 1
        else:
            inverted = ~mru & full_mask
            bit = inverted & -inverted if inverted else 1
            way = bit.bit_length() - 1
            old = way_line[way]
            del table[old]
            if dirty & bit:
                evict_pos.append(pos)
                evict_line.append(old)
        table[line] = bit
        way_line[way] = line
        if kind == KIND_WRITE:
            dirty |= bit
        else:
            dirty &= ~bit
        if not mru & bit:
            count += 1
            if count >= cap:
                mru, count = bit, 1
            else:
                mru |= bit
    state[2], state[3], state[4], state[5] = mru, count, occupied, dirty
    return miss_pos


class DrripLevelState:
    """Whole-level DRRIP state: set dueling couples sets through PSEL.

    Per-set replay would reorder leader updates, so DRRIP levels run one
    PSEL-threaded scan over the level's full seq-ordered event stream
    instead. Layout mirrors :class:`~repro.cache.fastsim.FastHierarchy`:
    positions are ``set_idx * ways + way``; ``role`` marks the SRRIP/BRRIP
    leader sets with the same stride pattern.
    """

    __slots__ = (
        "sets",
        "ways",
        "usable",
        "table",
        "way_line",
        "rrpv",
        "dirty",
        "occ",
        "role",
        "psel",
        "brrip_tick",
    )

    FOLLOWER, SRRIP_LEADER, BRRIP_LEADER = 0, 1, 2

    def __init__(self, sets, ways, usable):
        self.sets = sets
        self.ways = ways
        self.usable = usable
        self.table = {}  # line -> set_idx * ways + way
        self.way_line = [-1] * (sets * ways)
        self.rrpv = bytearray([3] * (sets * ways))
        self.dirty = bytearray(sets * ways)
        self.occ = [0] * sets
        self.role = drrip_roles(sets)
        self.psel = 512
        self.brrip_tick = 0


def drrip_roles(sets):
    """Per-set dueling roles, identical to FastHierarchy's assignment."""
    role = [DrripLevelState.FOLLOWER] * sets
    leaders = min(32, max(2, sets // 2) & ~1)
    stride = max(1, sets // max(1, leaders))
    for s in range(0, sets, stride * 2):
        role[s] = DrripLevelState.SRRIP_LEADER
    for s in range(stride, sets, stride * 2):
        role[s] = DrripLevelState.BRRIP_LEADER
    return role


def drrip_level_replay(state, set_idx, ev_line, ev_kind, evict_pos, evict_line):
    """Replay a whole level's events (seq order) under DRRIP set dueling.

    ``set_idx`` is the per-event set index (parallel to ``ev_line``).
    Returns miss positions; PSEL and the BRRIP throttle tick thread through
    the scan in event order, exactly as FastHierarchy's per-access updates
    would.
    """
    ways = state.ways
    usable = state.usable
    table = state.table
    way_line = state.way_line
    rrpv = state.rrpv
    dirty = state.dirty
    occ = state.occ
    role = state.role
    psel = state.psel
    brrip_tick = state.brrip_tick
    lookup = table.get
    miss_pos = []
    miss = miss_pos.append
    for pos, line in enumerate(ev_line):
        kind = ev_kind[pos]
        slot = lookup(line)
        if slot is not None:
            if kind >= KIND_PREFETCH:
                continue
            rrpv[slot] = 0
            if kind == KIND_WRITE:
                dirty[slot] = 1
            continue
        miss(pos)
        if kind == KIND_PROBE:
            continue
        sidx = set_idx[pos]
        base = sidx * ways
        if occ[sidx] < usable:
            way = 0
            for w in range(usable):
                if way_line[base + w] == -1:
                    way = w
                    break
            occ[sidx] += 1
        else:
            while True:
                way = -1
                for w in range(usable):
                    if rrpv[base + w] >= 3:
                        way = w
                        break
                if way >= 0:
                    break
                for w in range(usable):
                    rrpv[base + w] += 1
            old = way_line[base + way]
            del table[old]
            if dirty[base + way]:
                evict_pos.append(pos)
                evict_line.append(old)
        slot = base + way
        table[line] = slot
        way_line[slot] = line
        dirty[slot] = 1 if kind == KIND_WRITE else 0
        set_role = role[sidx]
        if set_role == DrripLevelState.SRRIP_LEADER:
            if psel < 1023:
                psel += 1
        elif set_role == DrripLevelState.BRRIP_LEADER:
            if psel > 0:
                psel -= 1
        if set_role == DrripLevelState.BRRIP_LEADER or (
            set_role == DrripLevelState.FOLLOWER and psel < 512
        ):
            brrip_tick += 1
            rrpv[slot] = 2 if brrip_tick % 32 == 0 else 3
        else:
            rrpv[slot] = 2
    state.psel = psel
    state.brrip_tick = brrip_tick
    return miss_pos
