"""Branch predictor models.

Figure 12 (bottom) of the paper reports branch misprediction reductions:
software PB's per-tuple "is this C-Buffer full?" checks mispredict often
(the interleaving across bins is data-dependent), while COBRA moves buffer
management into cache controllers and eliminates those branches. We model
this by simulating real predictor structures over the kernels' actual
branch outcome streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_power_of_two

__all__ = [
    "BimodalPredictor",
    "GSharePredictor",
    "BranchSite",
    "simulate_sites",
    "BRANCH_SAMPLE",
]

#: Outcomes per branch site that reach the predictor. Longer streams are
#: simulated on this prefix and their misprediction rate scaled to the
#: site's dynamic count, so a workload need only build this many outcomes.
BRANCH_SAMPLE = 200_000

# The vectorized predictor kernel replays a 2-bit saturating counter over
# packed symbol streams: each symbol is 0 (not taken), 1 (taken), or 2
# (padding, which must leave the counter and misprediction count alone).
# _PACK symbols are folded base-3 into one integer so a single table lookup
# advances the counter across _PACK branches at once.
_PACK = 8
_NPACK = 3**_PACK
_PAD_SYM = 2
_IDENTITY_PACK = _NPACK - 1  # all-padding pack: no state change, no misses
# simulate_array sorts (table index, time, outcome) triples packed into one
# uint32 per branch, so streams are processed in chunks small enough for the
# time stamp to fit the spare bits. State carries across chunks exactly.
_SORT_CHUNK = 1 << 17


def _build_step_tables():
    """LUTs mapping (counter state, symbol pack) -> next state / misses."""
    packs = np.arange(_NPACK, dtype=np.int64)
    symbols = np.empty((_NPACK, _PACK), np.uint8)
    tmp = packs.copy()
    for j in range(_PACK):
        symbols[:, j] = tmp % 3
        tmp //= 3
    state = np.tile(np.arange(4, dtype=np.int64), (_NPACK, 1)).T  # (4, npack)
    misses = np.zeros((4, _NPACK), np.int64)
    for j in range(_PACK):
        sym = symbols[:, j]
        taken = sym == 1
        not_taken = sym == 0
        prediction = state >= 2
        misses += (prediction != taken[None, :]) & (taken | not_taken)[None, :]
        up = taken[None, :] & (state < 3)
        down = not_taken[None, :] & (state > 0)
        state = state + up.astype(np.int64) - down.astype(np.int64)
    return state.reshape(-1).astype(np.intp), misses.reshape(-1).astype(np.int32)


_NEXT_LUT, _MISS_LUT = _build_step_tables()


def _scan_grouped(padded, group_starts, entry_states, max_columns=2048):
    """Exact saturating-counter replay over concatenated symbol groups.

    ``padded`` holds base-3 symbols with each group padded to a multiple of
    ``_PACK`` so groups never share a pack; ``group_starts`` are the padded
    start offsets (``group_starts[0] == 0``) and ``entry_states`` the known
    2-bit counter each group starts from.  The pack stream is folded into
    ``C`` columns scanned row-by-row with all four candidate column-entry
    states tracked as lanes; group starts reset the lanes to the known entry
    state, and a cheap sequential stitch over the C columns afterwards picks
    the true lane.  Returns ``(total_mispredicts, exit_state_per_group)``.
    """
    num_packs = len(padded) // _PACK
    num_groups = len(group_starts)
    view = padded.reshape(num_packs, _PACK)
    packs = view[:, _PACK - 1].astype(np.intp)
    for j in range(_PACK - 2, -1, -1):
        packs *= 3
        packs += view[:, j]
    cols = max(1, min(max_columns, num_packs))
    rows = -(-num_packs // cols)
    if rows * cols > num_packs:
        packs = np.concatenate(
            [packs, np.full(rows * cols - num_packs, _IDENTITY_PACK, dtype=np.intp)]
        )
    pack_rows = np.ascontiguousarray(packs.reshape(cols, rows).T)
    start_pack = group_starts // _PACK
    event_col = (start_pack // rows).astype(np.intp)
    event_row = (start_pack % rows).astype(np.intp)
    order = np.argsort(event_row, kind="stable")
    row_sorted = event_row[order]
    row_events = {}
    uniq_rows, first = np.unique(row_sorted, return_index=True)
    bounds = np.append(first, num_groups)
    for i, r in enumerate(uniq_rows):
        span = order[bounds[i] : bounds[i + 1]]
        row_events[int(r)] = (event_col[span], span)
    entry_states = np.asarray(entry_states, dtype=np.intp)
    state = np.tile(np.arange(4, dtype=np.intp), (cols, 1))  # (cols, 4) lanes
    misses = np.zeros((cols, 4), np.int32)
    exit_lanes = np.zeros((num_groups, 4), np.uint8)
    for r in range(rows):
        event = row_events.get(r)
        if event is not None:
            at_cols, groups = event
            if r > 0:
                # a group starting mid-column ends the previous group here;
                # capture its (lane-dependent) exit state before resetting
                has_prev = groups > 0
                exit_lanes[groups[has_prev] - 1] = state[at_cols[has_prev]]
            state[at_cols] = entry_states[groups][:, None]
        key = state * _NPACK + pack_rows[r][:, None]
        misses += _MISS_LUT[key]
        state = _NEXT_LUT[key]
    # stitch: resolve each column's true entry state sequentially
    state_list = state.tolist()
    miss_list = misses.tolist()
    column_entry = np.empty(cols, np.intp)
    total = 0
    s = 0  # group 0 resets lanes at (row 0, col 0), so col 0's lane is moot
    for c in range(cols):
        column_entry[c] = s
        total += miss_list[c][s]
        s = state_list[c][s]
    exits = np.empty(num_groups, np.uint8)
    exits[num_groups - 1] = s  # last group runs to the end of the stream
    if num_groups > 1:
        lanes = column_entry[event_col[1:]]
        captured = exit_lanes[np.arange(num_groups - 1), lanes]
        # groups ending exactly on a column boundary exit with that
        # column's stitched entry state instead of a captured lane
        exits[:-1] = np.where(event_row[1:] == 0, lanes.astype(np.uint8), captured)
    return int(total), exits


class BimodalPredictor:
    """Classic 2-bit saturating-counter table indexed by PC."""

    def __init__(self, table_size=4096):
        check_power_of_two("table_size", table_size)
        self.table_size = table_size
        self._counters = bytearray([2] * table_size)  # weakly taken

    def predict_and_update(self, pc, taken):
        """Predict the branch at ``pc``, update state, return correctness."""
        idx = pc & (self.table_size - 1)
        counter = self._counters[idx]
        prediction = counter >= 2
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        return prediction == taken

    def simulate(self, pc, outcomes):
        """Mispredictions over a boolean outcome sequence for one PC."""
        counters = self._counters
        mask = self.table_size - 1
        idx = pc & mask
        mispredicts = 0
        counter = counters[idx]
        for taken in outcomes:
            if (counter >= 2) != taken:
                mispredicts += 1
            if taken:
                if counter < 3:
                    counter += 1
            elif counter > 0:
                counter -= 1
        counters[idx] = counter
        return mispredicts

    def simulate_array(self, pc, outcomes):
        """Vectorized :meth:`simulate`: same counts, same final state.

        Bimodal touches a single table entry per PC, so the whole outcome
        array is one symbol group replayed through the packed-LUT scan.
        """
        outcomes = np.asarray(outcomes, dtype=bool)
        n = len(outcomes)
        if n == 0:
            return 0
        idx = pc & (self.table_size - 1)
        symbols = outcomes.view(np.uint8)
        tail = (-n) % _PACK
        if tail:
            symbols = np.concatenate([symbols, np.full(tail, _PAD_SYM, np.uint8)])
        else:
            symbols = symbols.copy()
        counters = np.frombuffer(self._counters, dtype=np.uint8)
        total, exits = _scan_grouped(
            symbols, np.zeros(1, np.int64), counters[idx : idx + 1]
        )
        counters[idx] = exits[0]
        return total


class GSharePredictor:
    """GShare: 2-bit counters indexed by PC xor global history."""

    def __init__(self, table_size=16384, history_bits=12):
        check_power_of_two("table_size", table_size)
        if history_bits <= 0 or (1 << history_bits) > table_size:
            raise ValueError("history_bits must be positive and fit the table")
        self.table_size = table_size
        self.history_bits = history_bits
        self._counters = bytearray([2] * table_size)
        self._history = 0

    def predict_and_update(self, pc, taken):
        """Predict the branch at ``pc``, update state, return correctness."""
        mask = self.table_size - 1
        idx = (pc ^ self._history) & mask
        counter = self._counters[idx]
        prediction = counter >= 2
        if taken:
            if counter < 3:
                self._counters[idx] = counter + 1
        else:
            if counter > 0:
                self._counters[idx] = counter - 1
        hist_mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & hist_mask
        return prediction == taken

    def simulate(self, pc, outcomes):
        """Mispredictions over a boolean outcome sequence for one PC."""
        counters = self._counters
        mask = self.table_size - 1
        hist_mask = (1 << self.history_bits) - 1
        history = self._history
        mispredicts = 0
        for taken in outcomes:
            idx = (pc ^ history) & mask
            counter = counters[idx]
            if (counter >= 2) != taken:
                mispredicts += 1
            if taken:
                if counter < 3:
                    counters[idx] = counter + 1
            elif counter > 0:
                counters[idx] = counter - 1
            history = ((history << 1) | 1) & hist_mask if taken else (history << 1) & hist_mask
        self._history = history
        return mispredicts

    def _history_stream(self, bits):
        """Per-branch global history values for a uint8 0/1 outcome array."""
        n = len(bits)
        hist_mask = (1 << self.history_bits) - 1
        history = np.zeros(n, np.uint16)
        wide = bits.astype(np.uint16)
        shifted = np.empty(n, np.uint16)
        for j in range(self.history_bits):
            span = n - 1 - j
            if span <= 0:
                break
            np.left_shift(wide[:span], j, out=shifted[:span])
            history[j + 1 :] |= shifted[:span]
        initial = self._history
        for t in range(min(self.history_bits, n)):
            history[t] |= (initial << t) & hist_mask
        return history

    def simulate_array(self, pc, outcomes):
        """Vectorized :meth:`simulate`: same counts, same final state.

        The table index stream ``(pc ^ history) & mask`` depends only on the
        outcome array, so it is precomputed, branches are grouped by index
        (each group is an independent counter walk from a known state), and
        the groups are replayed together through the packed-LUT scan.
        Branches are sorted by ``(index, time)`` folded into one uint32, so
        the stream is consumed in ``_SORT_CHUNK`` slices with table/history
        state carried across slices exactly as the scalar loop would.
        """
        outcomes = np.asarray(outcomes, dtype=bool)
        n = len(outcomes)
        if n == 0:
            return 0
        mask = self.table_size - 1
        hist_mask = (1 << self.history_bits) - 1
        bits = outcomes.view(np.uint8)
        index = self._history_stream(bits)
        # history < 2^history_bits <= table_size, so xor-then-mask reduces
        # to masking pc first
        index ^= np.uint16(pc & mask)
        counters = np.frombuffer(self._counters, dtype=np.uint8)
        total = 0
        for lo in range(0, n, _SORT_CHUNK):
            hi = min(n, lo + _SORT_CHUNK)
            span = hi - lo
            key = index[lo:hi].astype(np.uint32) << np.uint32(18)
            key |= np.arange(span, dtype=np.uint32) << np.uint32(1)
            key |= bits[lo:hi]
            key.sort()
            sorted_syms = (key & np.uint32(1)).astype(np.uint8)
            counts = np.bincount(index[lo:hi], minlength=self.table_size)
            present = np.nonzero(counts)[0]
            group_len = counts[present].astype(np.int64)
            padded_len = -(-group_len // _PACK) * _PACK
            num_groups = len(present)
            padded_starts = np.zeros(num_groups, np.int64)
            np.cumsum(padded_len[:-1], out=padded_starts[1:])
            starts = np.zeros(num_groups, np.int64)
            np.cumsum(group_len[:-1], out=starts[1:])
            shift = np.repeat(padded_starts - starts, group_len)
            padded = np.full(int(padded_len.sum()), _PAD_SYM, np.uint8)
            padded[np.arange(span, dtype=np.int64) + shift] = sorted_syms
            chunk_total, exits = _scan_grouped(
                padded, padded_starts, counters[present]
            )
            counters[present] = exits
            total += chunk_total
        # final history: last history_bits outcomes over the initial value
        history = self._history
        for bit in bits[max(0, n - self.history_bits) :].tolist():
            history = ((history << 1) | bit) & hist_mask
        self._history = history
        return total


@dataclass
class BranchSite:
    """One static branch and its dynamic outcome stream.

    ``outcomes`` may be shorter than ``count`` when the workload sampled
    the stream; the simulated misprediction *rate* is then scaled to
    ``count`` dynamic executions.
    """

    name: str
    pc: int
    outcomes: np.ndarray
    count: int = 0

    def __post_init__(self):
        self.outcomes = np.asarray(self.outcomes, dtype=bool)
        if self.count == 0:
            self.count = len(self.outcomes)
        if self.count < len(self.outcomes):
            raise ValueError("count cannot be below the sampled outcome length")


def simulate_sites(sites, predictor=None, max_simulated=BRANCH_SAMPLE):
    """Total (scaled) mispredictions across branch sites.

    Simulates up to ``max_simulated`` outcomes per site through a shared
    predictor (default GShare) and scales the observed misprediction rate
    to the site's full dynamic count. Uses the predictor's vectorized
    ``simulate_array`` when it has one, else its scalar ``simulate`` loop
    (the oracle ``simulate_array`` is equivalence-tested against).
    """
    predictor = predictor or GSharePredictor()
    vectorized = hasattr(predictor, "simulate_array")
    total = 0.0
    for site in sites:
        outcomes = site.outcomes
        if len(outcomes) == 0:
            continue
        sample = outcomes[:max_simulated]
        if vectorized:
            mispredicts = predictor.simulate_array(site.pc, sample)
        else:
            mispredicts = predictor.simulate(site.pc, sample.tolist())
        rate = mispredicts / len(sample)
        total += rate * site.count
    return total
