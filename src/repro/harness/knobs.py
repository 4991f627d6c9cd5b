"""Central registry of every ``REPRO_*`` environment knob.

Reproduction lives and dies by knowing exactly which environment state can
influence a run. Every ``REPRO_*`` variable the package reads is declared
here — name, default, one-line docstring, and its digest disposition — and
read through :func:`read` (or :meth:`Knob.read`), never through a raw
``os.environ`` lookup at the call site. The ``repro lint`` knob-registry
rule (:mod:`repro.analysis`) enforces this statically: an ``os.environ`` /
``os.getenv`` read of a ``REPRO_*`` name outside this module, a knob
missing from this registry, or a registered knob undocumented in
EXPERIMENTS.md is a lint error.

None of the registered knobs may affect simulated counters (that is what
keeps them out of the result-cache digest); each entry's
``digest_exempt_reason`` says why, and the digest-purity lint rule
cross-checks the claim against :mod:`repro.analysis.digest_exempt`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["Knob", "KNOBS", "get", "read", "registered_names"]


@dataclass(frozen=True)
class Knob:
    """One environment knob: its name, default, and contract."""

    #: Environment variable name (``REPRO_*``).
    name: str
    #: Default used when the variable is unset (documentation; call sites
    #: that need a non-string default apply it after :meth:`read`).
    default: Optional[str]
    #: One-line contract, mirrored in EXPERIMENTS.md.
    doc: str
    #: Why the knob is allowed to stay out of result-cache digests.
    digest_exempt_reason: str

    def read(self, environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
        """The knob's raw string value, or ``None`` when unset.

        ``environ`` overrides ``os.environ`` (used by tests and by call
        sites that take an explicit environment mapping).
        """
        source = os.environ if environ is None else environ
        return source.get(self.name)


def _knob(name: str, default: Optional[str], doc: str, reason: str) -> Knob:
    return Knob(name=name, default=default, doc=doc, digest_exempt_reason=reason)


#: Every ``REPRO_*`` knob the package reads, keyed by variable name.
KNOBS: Mapping[str, Knob] = {
    knob.name: knob
    for knob in (
        _knob(
            "REPRO_RESULT_CACHE",
            None,
            "Result-cache directory override (default: the in-repo "
            "benchmarks/results/.cache/, or the XDG user cache for "
            "installed copies).",
            "chooses where results are stored, never what they contain; "
            "entries are addressed by content digest regardless of "
            "location",
        ),
        _knob(
            "REPRO_CHECKPOINT_DIR",
            None,
            "Sweep-checkpoint root override (default: the in-repo "
            "benchmarks/results/.runs/, or the XDG user cache for "
            "installed copies).",
            "chooses where run journals live; journaled counters are "
            "verified against per-point digests on resume",
        ),
        _knob(
            "REPRO_GOLDEN_DIR",
            None,
            "Golden-run store root override (default: the in-repo "
            "benchmarks/results/.golden/, or the XDG user cache for "
            "installed copies).",
            "chooses where golden entries live; entries are "
            "content-addressed by machine digest + point + mode and "
            "verified against per-point digests on replay",
        ),
        _knob(
            "REPRO_REPLAY_TIME_BAND",
            "0.5",
            "Relative wall-clock tolerance band for `repro replay` timing "
            "comparisons (0.5 = ±50%); counters are always compared "
            "bit-exact regardless of this knob.",
            "applies only to the wall-clock columns of replay reports; "
            "simulated counters are never scaled or filtered by it",
        ),
        _knob(
            "REPRO_REPLAY_PERTURB",
            None,
            "Fault-injection drill for the replay gate: an integer added "
            "to the first phase's instruction count of every replayed "
            "result before diffing, so CI can prove counter drift fails "
            "loudly.",
            "perturbs only the in-memory copy diffed by `repro replay`; "
            "simulation, caches, and golden entries never see the "
            "perturbed counters (tests/golden/test_replay.py)",
        ),
        _knob(
            "REPRO_FAULT_INJECT",
            None,
            "Deterministic worker kill/stall/torn-write directives for "
            "fault drills "
            "(kill=...;stall=...;torn=...;stall_seconds=...;state=...).",
            "injected faults abort attempts before counters exist; "
            "retried points produce identical counters "
            "(tests/harness/test_faults.py)",
        ),
        _knob(
            "REPRO_SERVICE_PORT",
            "8377",
            "Default TCP port for the `repro serve` sweep-service daemon "
            "(0 picks a free port, published in endpoint.json).",
            "transport plumbing: selects where the daemon listens; jobs "
            "execute through the same Runner regardless of port",
        ),
        _knob(
            "REPRO_SERVICE_QUEUE_MAX",
            "64",
            "Bounded job-queue depth of the sweep service; submissions "
            "beyond it are shed with 429 + Retry-After (fully-cached "
            "jobs are still served read-through).",
            "admission control only decides when a job runs, never what "
            "its points simulate; shed jobs are retried to the same "
            "content-addressed id (tests/service/test_jobqueue.py)",
        ),
        _knob(
            "REPRO_DATASET_DIR",
            None,
            "Ingested-dataset cache directory override (default: "
            "benchmarks/results/.datasets/, or the XDG user cache for "
            "installed copies); datasets are sha256-pinned regardless of "
            "where the files sit.",
            "chooses where downloaded dataset files live; every file is "
            "verified against its pinned sha256 before parsing "
            "(tests/graphs/test_ingest.py), so location never changes the "
            "ingested edges",
        ),
        _knob(
            "REPRO_SERVICE_DRAIN_DEADLINE",
            "30",
            "Seconds a SIGTERM'd sweep service waits for the in-flight "
            "job to drain before journaling it interrupted and exiting.",
            "shutdown timing only; drained or interrupted jobs resume "
            "from their sweep checkpoints bit-identically "
            "(tests/service/test_jobqueue.py)",
        ),
    )
}


def get(name: str) -> Knob:
    """The registered :class:`Knob` for ``name``; raises ``KeyError`` with
    the registered names when unknown (catches typo'd knob reads)."""
    try:
        return KNOBS[name]
    except KeyError:
        known = ", ".join(sorted(KNOBS))
        raise KeyError(
            f"unregistered repro knob {name!r}; registered knobs: {known}"
        ) from None


def read(
    name: str, environ: Optional[Mapping[str, str]] = None
) -> Optional[str]:
    """Read a registered knob from the environment (``None`` when unset)."""
    return get(name).read(environ)


def registered_names() -> tuple[str, ...]:
    """All registered knob names, sorted (the lint rule's ground truth)."""
    return tuple(sorted(KNOBS))
