"""Native C replay kernels built with the system compiler (``cnative``).

The batched cache engine's flat-array kernels, the eviction-buffer DES and
the counts-only C-Buffer walk live here as a single C translation unit,
compiled once with
``cc -O2 -shared`` into a content-addressed shared object (keyed by the
SHA-256 of the source, so a kernel change rebuilds and an unchanged source
reuses the cached build), and bound through :mod:`ctypes`. No third-party
packages, no setuptools — just the compiler.

The cache kernels are equivalence-tested to bit-identical counters against
the scalar oracle :class:`~repro.cache.fastsim.FastHierarchy`
(``tests/cache/test_kernel_backends.py``), and the DES against the
generator-engine oracle (``tests/des/test_fastloop.py``), and the C-Buffer
walk against the Python COBRA machines (``tests/core/test_binwalk.py``).
:func:`available` gates the tier: no compiler, a failed build, or an
unloadable object all report ``False``, and callers fall back to the
``numpy`` tier (cache), the generator oracle (DES) or the Python machine
(C-Buffer walk).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "available",
    "build_error",
    "load",
    "lru_level_replay",
    "plru_level_replay",
    "drrip_level_replay_flat",
    "prefetch_scan_native",
    "eviction_pipeline_native",
    "cbuffer_walk_counts",
]

#: Scalar twin the C kernels are equivalence-tested against (the
#: ``backend-pairing`` lint rule cross-checks that such a test exists).
SCALAR_ORACLE = "FastHierarchy"

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Event kinds (mirror repro.cache.kernels.setreplay):
   0 demand read, 1 demand write / dirty-victim fill,
   2 prefetch fill (no-op when resident), 3 LLC residency probe. */

void lru_level_replay(
    int64_t n, const int64_t *ev_line, const uint8_t *ev_kind,
    const int64_t *ev_set, int64_t ways, int64_t usable,
    int64_t *way_line, uint8_t *dirty, int64_t *stamp, int64_t *occ,
    int64_t *clock, uint8_t *hit_out, uint8_t *evict_mask,
    int64_t *evict_line_out)
{
    int64_t tick = clock[0];
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t line = ev_line[pos];
        uint8_t kind = ev_kind[pos];
        int64_t sidx = ev_set[pos];
        int64_t base = sidx * ways;
        int64_t way = -1;
        for (int64_t w = 0; w < usable; w++) {
            if (way_line[base + w] == line) { way = w; break; }
        }
        if (way >= 0) {
            hit_out[pos] = 1;
            if (kind < 2) {
                stamp[base + way] = ++tick;
                if (kind == 1) dirty[base + way] = 1;
            }
            continue;
        }
        hit_out[pos] = 0;
        if (kind == 3) continue;
        if (occ[sidx] < usable) {
            way = 0;
            for (int64_t w = 0; w < usable; w++) {
                if (way_line[base + w] == -1) { way = w; break; }
            }
            occ[sidx] += 1;
        } else {
            way = 0;
            int64_t best = stamp[base];
            for (int64_t w = 1; w < usable; w++) {
                if (stamp[base + w] < best) { way = w; best = stamp[base + w]; }
            }
            if (dirty[base + way]) {
                evict_mask[pos] = 1;
                evict_line_out[pos] = way_line[base + way];
            }
        }
        way_line[base + way] = line;
        dirty[base + way] = (kind == 1) ? 1 : 0;
        stamp[base + way] = ++tick;
    }
    clock[0] = tick;
}

static inline void plru_touch(
    uint8_t *mru, int64_t *mru_cnt, int64_t base, int64_t sidx,
    int64_t way, int64_t usable)
{
    if (mru[base + way] == 0) {
        int64_t count = mru_cnt[sidx] + 1;
        if (count >= usable) {
            for (int64_t w = 0; w < usable; w++) mru[base + w] = 0;
            mru[base + way] = 1;
            mru_cnt[sidx] = 1;
        } else {
            mru[base + way] = 1;
            mru_cnt[sidx] = count;
        }
    }
}

void plru_level_replay(
    int64_t n, const int64_t *ev_line, const uint8_t *ev_kind,
    const int64_t *ev_set, int64_t ways, int64_t usable,
    int64_t *way_line, uint8_t *dirty, uint8_t *mru, int64_t *mru_cnt,
    int64_t *occ, uint8_t *hit_out, uint8_t *evict_mask,
    int64_t *evict_line_out)
{
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t line = ev_line[pos];
        uint8_t kind = ev_kind[pos];
        int64_t sidx = ev_set[pos];
        int64_t base = sidx * ways;
        int64_t way = -1;
        for (int64_t w = 0; w < usable; w++) {
            if (way_line[base + w] == line) { way = w; break; }
        }
        if (way >= 0) {
            hit_out[pos] = 1;
            if (kind < 2) {
                plru_touch(mru, mru_cnt, base, sidx, way, usable);
                if (kind == 1) dirty[base + way] = 1;
            }
            continue;
        }
        hit_out[pos] = 0;
        if (kind == 3) continue;
        if (occ[sidx] < usable) {
            way = 0;
            for (int64_t w = 0; w < usable; w++) {
                if (way_line[base + w] == -1) { way = w; break; }
            }
            occ[sidx] += 1;
        } else {
            way = 0;
            for (int64_t w = 0; w < usable; w++) {
                if (mru[base + w] == 0) { way = w; break; }
            }
            if (dirty[base + way]) {
                evict_mask[pos] = 1;
                evict_line_out[pos] = way_line[base + way];
            }
        }
        way_line[base + way] = line;
        dirty[base + way] = (kind == 1) ? 1 : 0;
        plru_touch(mru, mru_cnt, base, sidx, way, usable);
    }
}

void drrip_level_replay_flat(
    int64_t n, const int64_t *ev_line, const uint8_t *ev_kind,
    const int64_t *ev_set, int64_t ways, int64_t usable,
    int64_t *way_line, uint8_t *dirty, uint8_t *rrpv, const uint8_t *role,
    int64_t *occ, int64_t *duel, uint8_t *hit_out, uint8_t *evict_mask,
    int64_t *evict_line_out)
{
    int64_t psel = duel[0];
    int64_t brrip_tick = duel[1];
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t line = ev_line[pos];
        uint8_t kind = ev_kind[pos];
        int64_t sidx = ev_set[pos];
        int64_t base = sidx * ways;
        int64_t way = -1;
        for (int64_t w = 0; w < usable; w++) {
            if (way_line[base + w] == line) { way = w; break; }
        }
        if (way >= 0) {
            hit_out[pos] = 1;
            if (kind < 2) {
                rrpv[base + way] = 0;
                if (kind == 1) dirty[base + way] = 1;
            }
            continue;
        }
        hit_out[pos] = 0;
        if (kind == 3) continue;
        if (occ[sidx] < usable) {
            way = 0;
            for (int64_t w = 0; w < usable; w++) {
                if (way_line[base + w] == -1) { way = w; break; }
            }
            occ[sidx] += 1;
        } else {
            way = -1;
            while (way < 0) {
                for (int64_t w = 0; w < usable; w++) {
                    if (rrpv[base + w] >= 3) { way = w; break; }
                }
                if (way < 0) {
                    for (int64_t w = 0; w < usable; w++) rrpv[base + w] += 1;
                }
            }
            if (dirty[base + way]) {
                evict_mask[pos] = 1;
                evict_line_out[pos] = way_line[base + way];
            }
        }
        way_line[base + way] = line;
        dirty[base + way] = (kind == 1) ? 1 : 0;
        uint8_t set_role = role[sidx];
        if (set_role == 1) {            /* SRRIP leader */
            if (psel < 1023) psel += 1;
        } else if (set_role == 2) {     /* BRRIP leader */
            if (psel > 0) psel -= 1;
        }
        if (set_role == 2 || (set_role == 0 && psel < 512)) {
            brrip_tick += 1;
            rrpv[base + way] = (brrip_tick % 32 == 0) ? 2 : 3;
        } else {
            rrpv[base + way] = 2;
        }
    }
    duel[0] = psel;
    duel[1] = brrip_tick;
}

/* Stream-prefetcher scan over the L1-miss stream. The stream table is the
   dict of repro.cache.prefetcher.StreamPrefetcher flattened to parallel
   arrays: keys (next expected line, -1 = free slot), confidence, and an
   insertion stamp replicating dict order (upserts keep the stamp, new
   streams take ++tick, eviction drops the minimum = dict-first).
   meta = [active_count, tick]. Returns the number of issued events. */
int64_t prefetch_scan_native(
    int64_t n, const int64_t *miss_seq, const int64_t *miss_line,
    int64_t num_streams, int64_t degree, int64_t threshold,
    int64_t *keys, int64_t *conf, int64_t *stamps, int64_t *meta,
    int64_t *pf_seq_out, int64_t *pf_line_out)
{
    int64_t capacity = num_streams + 1;  /* one overflow slot pre-evict */
    int64_t active = meta[0];
    int64_t tick = meta[1];
    int64_t out = 0;
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t line = miss_line[pos];
        int64_t found = -1;
        for (int64_t s = 0; s < capacity; s++) {
            if (keys[s] == line) { found = s; break; }
        }
        if (found >= 0) {
            /* extend: pop, then upsert line+1 (keep an existing slot's
               stamp; otherwise reuse the popped slot with a fresh one) */
            int64_t confidence = conf[found] + 1;
            keys[found] = -1;
            active -= 1;
            int64_t dest = -1;
            for (int64_t s = 0; s < capacity; s++) {
                if (keys[s] == line + 1) { dest = s; break; }
            }
            if (dest >= 0) {
                conf[dest] = confidence;
            } else {
                keys[found] = line + 1;
                conf[found] = confidence;
                stamps[found] = ++tick;
                active += 1;
            }
            if (confidence >= threshold) {
                int64_t slot = miss_seq[pos] + 3;
                for (int64_t offset = 1; offset <= degree; offset++) {
                    pf_seq_out[out] = slot;
                    pf_line_out[out] = line + offset;
                    out += 1;
                    slot += 2;
                }
            }
            continue;
        }
        /* allocate: upsert line+1 at confidence 0, then evict the oldest
           stream if over capacity */
        int64_t dest = -1;
        for (int64_t s = 0; s < capacity; s++) {
            if (keys[s] == line + 1) { dest = s; break; }
        }
        if (dest >= 0) {
            conf[dest] = 0;
        } else {
            for (int64_t s = 0; s < capacity; s++) {
                if (keys[s] == -1) { dest = s; break; }
            }
            keys[dest] = line + 1;
            conf[dest] = 0;
            stamps[dest] = ++tick;
            active += 1;
            if (active > num_streams) {
                int64_t victim = -1;
                int64_t best = 0;
                for (int64_t s = 0; s < capacity; s++) {
                    if (keys[s] != -1 && (victim < 0 || stamps[s] < best)) {
                        victim = s;
                        best = stamps[s];
                    }
                }
                keys[victim] = -1;
                active -= 1;
            }
        }
    }
    meta[0] = active;
    meta[1] = tick;
    return out;
}

/* Eviction-pipeline DES (repro.des.eviction_model) as one C call. Replays the
   exact schedule of repro.des.engine.Simulator: four processes (core,
   two binning engines, memory writer), three SPSC FIFOs, events ordered
   by (time, seq) with one global sequence number per schedule call, a
   completed put scheduling the waiting getter before the putter, and
   queue max-occupancy growing only on append. Cache lines are fixed
   per_line-int64 rows copied by value between buffer stores, FIFO rings,
   and per-process incoming-value slots. */

enum { P_START = 0, P_AFTER_TIMEOUT = 1, P_AFTER_PUT = 2, P_AFTER_GET = 3 };

typedef struct {
    /* four-slot scheduler */
    double run_time[4];
    int64_t run_seq[4];
    int runnable[4];
    int state[4];
    int64_t seq;
    double now;
    /* three FIFOs (ring of lines + one optional waiting putter/getter) */
    int64_t caps[3];
    int64_t *ring[3];
    int64_t head[3];
    int64_t count[3];
    int64_t occ_max[3];
    int waiter_flag[3];
    int waiter_pid[3];
    int64_t *waiter_line[3];
    int get_waiter[3];
    int64_t *val[4];          /* incoming line per process */
    /* model state */
    const int64_t *trace;
    int64_t n, pos;
    int64_t r1, r2, r3, per_line;
    double core_dt, engine_dt, mem_dt;
    int64_t *counts1, *store1;
    int64_t *counts2, *store2;
    int64_t *counts3, *store3;
    int64_t ev[3];
    double stall;
    double core_put_start;
    int64_t eng_pos[2];
} Pipe;

static void pipe_schedule(Pipe *p, int pid, double delay)
{
    p->seq += 1;
    p->run_time[pid] = p->now + delay;
    p->run_seq[pid] = p->seq;
    p->runnable[pid] = 1;
}

static void pipe_complete_put(Pipe *p, int q, int pid, const int64_t *line)
{
    int getter = p->get_waiter[q];
    if (getter >= 0) {
        p->get_waiter[q] = -1;
        memcpy(p->val[getter], line, p->per_line * sizeof(int64_t));
        pipe_schedule(p, getter, 0.0);
    } else {
        int64_t slot = (p->head[q] + p->count[q]) % p->caps[q];
        memcpy(p->ring[q] + slot * p->per_line, line,
               p->per_line * sizeof(int64_t));
        p->count[q] += 1;
        if (p->count[q] > p->occ_max[q]) p->occ_max[q] = p->count[q];
    }
    pipe_schedule(p, pid, 0.0);
}

static void pipe_put(Pipe *p, int q, int pid, const int64_t *line)
{
    if (p->count[q] >= p->caps[q]) {
        memcpy(p->waiter_line[q], line, p->per_line * sizeof(int64_t));
        p->waiter_pid[q] = pid;
        p->waiter_flag[q] = 1;
    } else {
        pipe_complete_put(p, q, pid, line);
    }
}

static void pipe_get(Pipe *p, int q, int pid)
{
    if (p->count[q] > 0) {
        memcpy(p->val[pid], p->ring[q] + p->head[q] * p->per_line,
               p->per_line * sizeof(int64_t));
        p->head[q] = (p->head[q] + 1) % p->caps[q];
        p->count[q] -= 1;
        if (p->waiter_flag[q] && p->count[q] < p->caps[q]) {
            p->waiter_flag[q] = 0;
            pipe_complete_put(p, q, p->waiter_pid[q], p->waiter_line[q]);
        }
        pipe_schedule(p, pid, 0.0);
    } else {
        p->get_waiter[q] = pid;
    }
}

static void pipe_core_advance(Pipe *p)
{
    if (p->pos < p->n) {
        pipe_schedule(p, 0, p->core_dt);
        p->state[0] = P_AFTER_TIMEOUT;
    }
}

static void pipe_resume_core(Pipe *p)
{
    int st = p->state[0];
    if (st == P_AFTER_TIMEOUT) {
        int64_t idx = p->trace[p->pos++];
        int64_t b = idx / p->r1;
        int64_t c = p->counts1[b];
        p->store1[b * p->per_line + c] = idx;
        c += 1;
        if (c == p->per_line) {
            p->ev[0] += 1;
            p->counts1[b] = 0;
            p->core_put_start = p->now;
            p->state[0] = P_AFTER_PUT;
            pipe_put(p, 0, 0, p->store1 + b * p->per_line);
        } else {
            p->counts1[b] = c;
            pipe_core_advance(p);
        }
    } else if (st == P_AFTER_PUT) {
        p->stall += p->now - p->core_put_start;
        pipe_core_advance(p);
    } else {
        pipe_core_advance(p);
    }
}

static void pipe_resume_engine(Pipe *p, int pid)
{
    int eng = pid - 1;
    int st = p->state[pid];
    if (st == P_AFTER_GET) {
        p->eng_pos[eng] = 0;
        pipe_schedule(p, pid, p->engine_dt);
        p->state[pid] = P_AFTER_TIMEOUT;
        return;
    }
    if (st == P_AFTER_TIMEOUT) {
        int64_t idx = p->val[pid][p->eng_pos[eng]];
        p->eng_pos[eng] += 1;
        int64_t range = eng ? p->r3 : p->r2;
        int64_t *counts = eng ? p->counts3 : p->counts2;
        int64_t *store = eng ? p->store3 : p->store2;
        int64_t b = idx / range;
        int64_t c = counts[b];
        store[b * p->per_line + c] = idx;
        c += 1;
        if (c == p->per_line) {
            p->ev[1 + eng] += 1;
            counts[b] = 0;
            p->state[pid] = P_AFTER_PUT;
            pipe_put(p, eng + 1, pid, store + b * p->per_line);
            return;
        }
        counts[b] = c;
    }
    if (st != P_START && p->eng_pos[eng] < p->per_line) {
        pipe_schedule(p, pid, p->engine_dt);
        p->state[pid] = P_AFTER_TIMEOUT;
    } else {
        p->state[pid] = P_AFTER_GET;
        pipe_get(p, eng, pid);
    }
}

static void pipe_resume_mem(Pipe *p)
{
    if (p->state[3] == P_AFTER_GET) {
        pipe_schedule(p, 3, p->mem_dt);
        p->state[3] = P_AFTER_TIMEOUT;
    } else {
        p->state[3] = P_AFTER_GET;
        pipe_get(p, 2, 3);
    }
}

int64_t eviction_pipeline_replay(
    const int64_t *trace, int64_t n,
    int64_t r1, int64_t r2, int64_t r3, int64_t per_line,
    double core_dt, double engine_dt, double mem_dt,
    int64_t cap0, int64_t cap1, int64_t cap2,
    int64_t nb1, int64_t nb2, int64_t nb3,
    double *out_f, int64_t *out_i)
{
    Pipe pipe;
    Pipe *p = &pipe;
    memset(p, 0, sizeof(Pipe));
    int64_t buffers = nb1 + nb2 + nb3;
    int64_t rings = cap0 + cap1 + cap2;
    int64_t words = buffers * (1 + per_line) + (rings + 3 + 4) * per_line;
    int64_t *arena = (int64_t *)calloc((size_t)words, sizeof(int64_t));
    if (arena == NULL) return 1;
    int64_t *cursor = arena;
    p->counts1 = cursor; cursor += nb1;
    p->counts2 = cursor; cursor += nb2;
    p->counts3 = cursor; cursor += nb3;
    p->store1 = cursor; cursor += nb1 * per_line;
    p->store2 = cursor; cursor += nb2 * per_line;
    p->store3 = cursor; cursor += nb3 * per_line;
    p->caps[0] = cap0; p->caps[1] = cap1; p->caps[2] = cap2;
    for (int q = 0; q < 3; q++) {
        p->ring[q] = cursor; cursor += p->caps[q] * per_line;
        p->waiter_line[q] = cursor; cursor += per_line;
        p->get_waiter[q] = -1;
    }
    for (int pid = 0; pid < 4; pid++) {
        p->val[pid] = cursor; cursor += per_line;
        p->run_seq[pid] = pid + 1;   /* initial wakeups, registration order */
        p->runnable[pid] = 1;
        p->state[pid] = P_START;
    }
    p->seq = 4;
    p->trace = trace;
    p->n = n;
    p->r1 = r1; p->r2 = r2; p->r3 = r3;
    p->per_line = per_line;
    p->core_dt = core_dt; p->engine_dt = engine_dt; p->mem_dt = mem_dt;

    while (1) {
        int pid = -1;
        double best_time = 0.0;
        int64_t best_seq = 0;
        for (int c = 0; c < 4; c++) {
            if (p->runnable[c]) {
                double t = p->run_time[c];
                if (pid < 0 || t < best_time ||
                    (t == best_time && p->run_seq[c] < best_seq)) {
                    pid = c;
                    best_time = t;
                    best_seq = p->run_seq[c];
                }
            }
        }
        if (pid < 0) break;
        p->runnable[pid] = 0;
        p->now = best_time;
        if (pid == 0) pipe_resume_core(p);
        else if (pid == 3) pipe_resume_mem(p);
        else pipe_resume_engine(p, pid);
    }

    out_f[0] = p->now;
    out_f[1] = p->stall;
    for (int i = 0; i < 3; i++) {
        out_i[i] = p->ev[i];
        out_i[3 + i] = p->occ_max[i];
    }
    free(arena);
    return 0;
}

/* Counts-only walk of the COBRA C-Buffer hierarchy (the behaviour of
   repro.core.machine.CobraMachine, whose PHI and COBRA-COMM variants use
   repro.core.comm.CoalescingCBufferArray levels). Each level holds
   num_buffers fixed-capacity lines of per_line indices. A coalescing
   level merges an index already in its line (a linear search over the
   distinct-index slots); a plain level appends. A line that fills is
   evicted and its indices are scattered into the next level depth-first,
   exactly as CobraMachine._scatter recurses; a full LLC line goes to
   memory. The flush drains levels 0 -> 2 in buffer-id order. A scatter
   only touches deeper levels, so an evicted line is read in place.
   geometry = per level [num_buffers, shift, per_line, coalesce];
   slots (sum num_buffers * per_line) and fill (sum num_buffers) are
   caller-zeroed scratch. out = [tuples, l1_evictions, l2_evictions,
   llc_evictions, flush_lines, coalesced]. */
typedef struct {
    int64_t num_buffers, shift, per_line, coalesce;
    int64_t *slots, *fill;
} cb_level_t;

typedef struct {
    cb_level_t level[3];
    int64_t evictions[3];
    int64_t coalesced;
} cb_walk_t;

/* Hidden rather than static: gcc emits static functions ahead of the
   exported ones, which would shift the replay kernels above and change
   their code alignment (on an x86-64 host, that shift slowed DRRIP
   replay by about 7%). Hidden also keeps the recursion off the PLT. */
__attribute__((visibility("hidden")))
void cbuffer_walk_insert(cb_walk_t *w, int tier, int64_t index)
{
    cb_level_t *lv = &w->level[tier];
    int64_t buffer = index >> lv->shift;
    int64_t *line = lv->slots + buffer * lv->per_line;
    int64_t count = lv->fill[buffer];
    if (lv->coalesce) {
        for (int64_t s = 0; s < count; s++) {
            if (line[s] == index) { w->coalesced++; return; }
        }
    }
    line[count++] = index;
    if (count < lv->per_line) { lv->fill[buffer] = count; return; }
    lv->fill[buffer] = 0;
    w->evictions[tier]++;
    if (tier < 2) {
        for (int64_t s = 0; s < count; s++) cbuffer_walk_insert(w, tier + 1, line[s]);
    }
}

int64_t cbuffer_walk_counts(
    int64_t n, const int64_t *indices, const int64_t *geometry,
    int64_t *slots, int64_t *fill, int64_t *out)
{
    cb_walk_t w;
    memset(&w, 0, sizeof w);
    for (int tier = 0; tier < 3; tier++) {
        cb_level_t *lv = &w.level[tier];
        lv->num_buffers = geometry[4 * tier];
        lv->shift = geometry[4 * tier + 1];
        lv->per_line = geometry[4 * tier + 2];
        lv->coalesce = geometry[4 * tier + 3];
        lv->slots = slots;
        lv->fill = fill;
        slots += lv->num_buffers * lv->per_line;
        fill += lv->num_buffers;
    }
    for (int64_t i = 0; i < n; i++) cbuffer_walk_insert(&w, 0, indices[i]);
    int64_t flush_lines = 0;
    for (int tier = 0; tier < 3; tier++) {
        cb_level_t *lv = &w.level[tier];
        for (int64_t b = 0; b < lv->num_buffers; b++) {
            int64_t count = lv->fill[b];
            if (count == 0) continue;
            lv->fill[b] = 0;
            if (tier == 2) { flush_lines++; continue; }
            const int64_t *line = lv->slots + b * lv->per_line;
            for (int64_t s = 0; s < count; s++) {
                cbuffer_walk_insert(&w, tier + 1, line[s]);
            }
        }
    }
    out[0] = n;
    out[1] = w.evictions[0];
    out[2] = w.evictions[1];
    out[3] = w.evictions[2];
    out[4] = flush_lines;
    out[5] = w.coalesced;
    return 0;
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_F64 = ctypes.POINTER(ctypes.c_double)

#: argtypes per exported symbol (int64 scalars everywhere else).
_SIGNATURES = {
    "lru_level_replay": (
        ctypes.c_int64, _I64, _U8, _I64, ctypes.c_int64, ctypes.c_int64,
        _I64, _U8, _I64, _I64, _I64, _U8, _U8, _I64,
    ),
    "plru_level_replay": (
        ctypes.c_int64, _I64, _U8, _I64, ctypes.c_int64, ctypes.c_int64,
        _I64, _U8, _U8, _I64, _I64, _U8, _U8, _I64,
    ),
    "drrip_level_replay_flat": (
        ctypes.c_int64, _I64, _U8, _I64, ctypes.c_int64, ctypes.c_int64,
        _I64, _U8, _U8, _U8, _I64, _I64, _U8, _U8, _I64,
    ),
    "prefetch_scan_native": (
        ctypes.c_int64, _I64, _I64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I64, _I64, _I64, _I64, _I64, _I64,
    ),
    "eviction_pipeline_replay": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _F64, _I64,
    ),
    "cbuffer_walk_counts": (ctypes.c_int64, _I64, _I64, _I64, _I64, _I64),
}

_lib = None
_build_error: Optional[str] = None
_attempted = False


def _cache_dir() -> Path:
    """Build cache for the shared object (XDG cache, tmp as fallback)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    try:
        path = base / "repro-kernels"
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError:
        return Path(tempfile.gettempdir())


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        for directory in os.environ.get("PATH", "").split(os.pathsep):
            candidate = Path(directory) / name
            if candidate.is_file() and os.access(candidate, os.X_OK):
                return str(candidate)
    return None


def _build() -> Optional[ctypes.CDLL]:
    """Compile (or reuse) the kernel library; None with a recorded reason
    on any failure — selection then falls back to the numpy tier."""
    global _build_error
    compiler = _compiler()
    if compiler is None:
        _build_error = "no C compiler (cc/gcc/clang) on PATH"
        return None
    digest = hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()[:16]
    library = _cache_dir() / f"repro_cache_kernels_{digest}.so"
    if not library.exists():
        with tempfile.TemporaryDirectory() as workdir:
            source = Path(workdir) / "kernels.c"
            source.write_text(_SOURCE, encoding="utf-8")
            built = Path(workdir) / "kernels.so"
            try:
                subprocess.run(
                    [compiler, "-O2", "-shared", "-fPIC",
                     str(source), "-o", str(built)],
                    check=True, capture_output=True, timeout=120,
                )
            except (subprocess.SubprocessError, OSError) as error:
                detail = getattr(error, "stderr", b"") or b""
                _build_error = (
                    f"kernel build failed: {error} "
                    f"{detail.decode('utf-8', 'replace')[:200]}"
                )
                return None
            try:
                os.replace(built, library)  # atomic vs concurrent builders
            except OSError as error:
                _build_error = f"kernel install failed: {error}"
                return None
    try:
        lib = ctypes.CDLL(str(library))
    except OSError as error:
        _build_error = f"kernel load failed: {error}"
        return None
    for symbol, argtypes in _SIGNATURES.items():
        func = getattr(lib, symbol)
        func.argtypes = argtypes
        func.restype = ctypes.c_int64
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, building it on first use (None if unbuildable)."""
    global _lib, _attempted
    if not _attempted:
        _attempted = True
        _lib = _build()
    return _lib


def available() -> bool:
    """True when the native tier compiled and loaded successfully."""
    return load() is not None


def build_error() -> Optional[str]:
    """Why the native tier is unavailable (None when it is, or untried)."""
    load()
    return _build_error


def _ptr(array, ctype):
    return array.ctypes.data_as(ctype)


def lru_level_replay(ev_line, ev_kind, ev_set, ways, usable, way_line,
                     dirty, stamp, occ, clock, hit_out, evict_mask,
                     evict_line_out):
    """ctypes shim matching the flat-kernel signature (LRU)."""
    load().lru_level_replay(
        ev_line.shape[0], _ptr(ev_line, _I64), _ptr(ev_kind, _U8),
        _ptr(ev_set, _I64), ways, usable, _ptr(way_line, _I64),
        _ptr(dirty, _U8), _ptr(stamp, _I64), _ptr(occ, _I64),
        _ptr(clock, _I64), _ptr(hit_out, _U8), _ptr(evict_mask, _U8),
        _ptr(evict_line_out, _I64),
    )


def plru_level_replay(ev_line, ev_kind, ev_set, ways, usable, way_line,
                      dirty, mru, mru_cnt, occ, hit_out, evict_mask,
                      evict_line_out):
    """ctypes shim matching the flat-kernel signature (bit-PLRU)."""
    load().plru_level_replay(
        ev_line.shape[0], _ptr(ev_line, _I64), _ptr(ev_kind, _U8),
        _ptr(ev_set, _I64), ways, usable, _ptr(way_line, _I64),
        _ptr(dirty, _U8), _ptr(mru, _U8), _ptr(mru_cnt, _I64),
        _ptr(occ, _I64), _ptr(hit_out, _U8), _ptr(evict_mask, _U8),
        _ptr(evict_line_out, _I64),
    )


def drrip_level_replay_flat(ev_line, ev_kind, ev_set, ways, usable,
                            way_line, dirty, rrpv, role, occ, duel,
                            hit_out, evict_mask, evict_line_out):
    """ctypes shim matching the flat-kernel signature (DRRIP)."""
    load().drrip_level_replay_flat(
        ev_line.shape[0], _ptr(ev_line, _I64), _ptr(ev_kind, _U8),
        _ptr(ev_set, _I64), ways, usable, _ptr(way_line, _I64),
        _ptr(dirty, _U8), _ptr(rrpv, _U8), _ptr(role, _U8),
        _ptr(occ, _I64), _ptr(duel, _I64), _ptr(hit_out, _U8),
        _ptr(evict_mask, _U8), _ptr(evict_line_out, _I64),
    )


def prefetch_scan_native(prefetcher, miss_seq, miss_lines):
    """Native :func:`~repro.cache.kernels.prefetch.prefetch_scan` twin.

    Flattens the prefetcher's insertion-ordered stream table to parallel
    arrays (key/confidence/stamp; upserts keep their slot's stamp, so
    stamp order reproduces dict order), runs the C scan, and writes the
    surviving streams back in stamp order.
    """
    capacity = prefetcher.num_streams + 1
    keys = np.full(capacity, -1, dtype=np.int64)
    conf = np.zeros(capacity, dtype=np.int64)
    stamps = np.zeros(capacity, dtype=np.int64)
    for slot, (key, confidence) in enumerate(prefetcher._expect.items()):
        keys[slot] = key
        conf[slot] = confidence
        stamps[slot] = slot + 1
    meta = np.array([len(prefetcher._expect), capacity], dtype=np.int64)
    count = miss_seq.shape[0]
    pf_seq = np.empty(count * prefetcher.degree, dtype=np.int64)
    pf_line = np.empty(count * prefetcher.degree, dtype=np.int64)
    issued = load().prefetch_scan_native(
        count, _ptr(miss_seq, _I64), _ptr(miss_lines, _I64),
        prefetcher.num_streams, prefetcher.degree, prefetcher.threshold,
        _ptr(keys, _I64), _ptr(conf, _I64), _ptr(stamps, _I64),
        _ptr(meta, _I64), _ptr(pf_seq, _I64), _ptr(pf_line, _I64),
    )
    prefetcher.issued += int(issued)
    live = np.flatnonzero(keys != -1)
    order = live[np.argsort(stamps[live], kind="stable")]
    prefetcher._expect = {
        int(keys[slot]): int(conf[slot]) for slot in order
    }
    return pf_seq[:issued].copy(), pf_line[:issued].copy()


def eviction_pipeline_native(trace, cfg):
    """Native twin of :meth:`EvictionBufferModel.run_reference
    <repro.des.eviction_model.EvictionBufferModel.run_reference>`.

    Runs the whole DES in one C call. Returns ``(total, stall, evictions,
    max_occ)`` where ``evictions`` is ``[l1, l2, llc]`` and ``max_occ`` is
    ``[l1_evict, l2_evict, mem]``, or ``None`` when the C run could not
    allocate its arena — the caller then falls back to the oracle.
    """
    trace = np.ascontiguousarray(trace, dtype=np.int64)
    out_f = np.zeros(2, dtype=np.float64)
    out_i = np.zeros(6, dtype=np.int64)
    status = load().eviction_pipeline_replay(
        _ptr(trace, _I64), trace.shape[0],
        cfg.bin_range(cfg.l1_buffers), cfg.bin_range(cfg.l2_buffers),
        cfg.bin_range(cfg.llc_buffers), cfg.tuples_per_line,
        cfg.core_cycles_per_tuple, cfg.engine_cycles_per_tuple,
        cfg.mem_cycles_per_line,
        cfg.l1_evict_queue, cfg.l2_evict_queue, cfg.mem_queue,
        cfg.l1_buffers, cfg.l2_buffers, cfg.llc_buffers,
        _ptr(out_f, _F64), _ptr(out_i, _I64),
    )
    if status != 0:
        return None
    return (
        float(out_f[0]),
        float(out_f[1]),
        [int(out_i[0]), int(out_i[1]), int(out_i[2])],
        [int(out_i[3]), int(out_i[4]), int(out_i[5])],
    )


def cbuffer_walk_counts(indices, geometry):
    """Counts of one C-Buffer hierarchy walk plus its flush.

    ``indices`` is a contiguous int64 array already checked against the
    namespace; ``geometry`` holds ``(num_buffers, shift, tuples_per_line,
    coalesces)`` per level, L1 first. Returns ``[tuples, l1_evictions,
    l2_evictions, llc_evictions, flush_lines, coalesced]``.
    """
    levels = np.array(geometry, dtype=np.int64)
    slots = np.zeros(int((levels[:, 0] * levels[:, 2]).sum()), dtype=np.int64)
    fill = np.zeros(int(levels[:, 0].sum()), dtype=np.int64)
    out = np.zeros(6, dtype=np.int64)
    load().cbuffer_walk_counts(
        indices.shape[0], _ptr(indices, _I64), _ptr(levels, _I64),
        _ptr(slots, _I64), _ptr(fill, _I64), _ptr(out, _I64),
    )
    return [int(count) for count in out]
