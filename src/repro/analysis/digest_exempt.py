"""Digest-purity allowlist: state that may legitimately stay out of
result-cache digests.

Every :class:`~repro.harness.runner.Runner` constructor parameter and
every ``REPRO_*`` environment knob must either be serialized into
:func:`~repro.harness.resultcache.run_digest` (so changing it changes the
cache key) or be registered here with a justification explaining why two
runs differing only in that state still produce bit-identical counters.
The ``digest-purity`` lint rule enforces the dichotomy, flags entries with
empty justifications, and flags stale entries naming parameters or knobs
that no longer exist.

This module must stay a **pure literal**: the analyzer parses it with
:mod:`ast` (it never imports the tree it lints), so computed keys or
imported values would be invisible to the rule. A unit test cross-checks
the knob entries against :mod:`repro.harness.knobs` at import time
instead.
"""

from __future__ import annotations

__all__ = ["DIGEST_EXEMPT"]

#: ``"Runner.<param>"`` / ``"<REPRO_* name>"`` -> justification.
DIGEST_EXEMPT = {
    "Runner.engine": (
        "engine selection is counter-equivalent: the batched and scalar "
        "trace engines are equivalence-tested to identical counters "
        "(tests/cache/test_batchsim.py), so either may serve a digest"
    ),
    "Runner.result_cache": (
        "storage plumbing: decides where results persist, never what "
        "counters a simulation produces"
    ),
    "Runner.telemetry": (
        "observability sink: events describe the run; counters are "
        "computed identically with or without a sink attached"
    ),
    "Runner.fault_policy": (
        "execution strategy: crashed/hung attempts are retried to "
        "bit-identical counters (tests/harness/test_faults.py)"
    ),
    "Runner.trace_chunk": (
        "bit-identical by test across every chunk size, including 0, the "
        "whole trace as one chunk (tests/harness/test_chunked_pipeline.py)"
    ),
    "REPRO_RESULT_CACHE": (
        "chooses where results are stored, never what they contain; "
        "entries are addressed by content digest regardless of location"
    ),
    "REPRO_CHECKPOINT_DIR": (
        "chooses where run journals live; journaled counters are verified "
        "against per-point digests on resume"
    ),
    "REPRO_FAULT_INJECT": (
        "injected faults abort attempts before counters exist; retried "
        "points produce identical counters (tests/harness/test_faults.py)"
    ),
    "REPRO_GOLDEN_DIR": (
        "chooses where golden-run entries live; entries are "
        "content-addressed by machine digest + point + mode and replay "
        "verifies them against per-point digests regardless of location"
    ),
    "REPRO_REPLAY_TIME_BAND": (
        "tolerance band for the wall-clock columns of replay reports "
        "only; simulated counters are compared bit-exact and never "
        "scaled or filtered by it (tests/golden/test_replay.py)"
    ),
    "REPRO_SERVICE_PORT": (
        "transport plumbing: selects where the sweep-service daemon "
        "listens; jobs execute through the same Runner and produce the "
        "same counters regardless of port"
    ),
    "REPRO_SERVICE_QUEUE_MAX": (
        "admission control only decides when a job runs, never what its "
        "points simulate; shed submissions retry onto the same "
        "content-addressed job id (tests/service/test_jobqueue.py)"
    ),
    "REPRO_SERVICE_DRAIN_DEADLINE": (
        "shutdown timing only; drained or interrupted jobs resume from "
        "their sweep checkpoints bit-identically "
        "(tests/service/test_jobqueue.py)"
    ),
    "REPRO_DATASET_DIR": (
        "chooses where downloaded dataset files live; every file is "
        "verified against its pinned sha256 before parsing "
        "(tests/graphs/test_ingest.py), so location never changes the "
        "ingested edges"
    ),
    "REPRO_REPLAY_PERTURB": (
        "fault-injection drill that perturbs only the in-memory copy "
        "`repro replay` diffs; simulation, result caches, and golden "
        "entries never see the perturbed counters "
        "(tests/golden/test_replay.py)"
    ),
}
