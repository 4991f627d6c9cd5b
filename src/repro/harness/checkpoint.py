"""Sweep checkpoint/resume: run manifests + append-only completion journals.

The fault layer (:mod:`repro.harness.faults`) lets a sweep survive the death
of a *worker*; this module lets it survive the death of the *parent*. A
full figure campaign is a multi-hour job, and a Ctrl-C, OOM-kill, or machine
preemption must never throw away completed simulation work.

Every checkpointed sweep gets a run directory ``<root>/<run_id>/`` holding:

``manifest.json``
    The immutable identity of the sweep: the machine/runner config digest,
    and one spec per point (``cache_key``, mode, and the point's full
    :func:`~repro.harness.resultcache.run_digest`). The ``run_id`` is a
    content hash of exactly these specs, so re-running the same sweep with
    the same configuration *attaches to the same run* and resumes it, while
    any config change produces a fresh run (stale journals can never be
    spliced into the wrong sweep).

``journal.jsonl``
    Append-only record of completed points. Each line is one point's
    counters (via :func:`~repro.harness.resultcache.counters_to_dict`) plus
    its digest, written with a single ``os.write`` on an ``O_APPEND``
    descriptor — atomic at the line level, so a ``kill -9`` can at worst
    tear the final line, which :meth:`SweepCheckpoint.completed_counters`
    skips (with a telemetry warning) instead of crashing.

``status.json``
    Atomically replaced ``running`` / ``interrupted`` / ``failed`` /
    ``completed`` marker used by ``repro runs``.

Resuming (``repro resume <run-id>``) rebuilds the workloads from the
manifest's cache keys, splices journaled counters back bit-identically
(ints are exact; float repr round-trips), and re-executes only the points
the journal does not cover.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.harness import knobs
from repro.harness.resultcache import (
    FORMAT_VERSION,
    _is_repo_checkout,
    counters_from_dict,
    counters_to_dict,
)
from repro.harness.telemetry import NULL_TELEMETRY

__all__ = [
    "SweepCheckpoint",
    "content_id",
    "default_checkpoint_dir",
    "list_runs",
    "format_runs",
    "run_summary",
    "runs_payload",
]

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
STATUS_NAME = "status.json"

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_FAILED = "failed"
STATUS_COMPLETED = "completed"


def default_checkpoint_dir(package_file=None):
    """Run-checkpoint root: ``$REPRO_CHECKPOINT_DIR``, the in-repo default
    (``benchmarks/results/.runs/``), or a per-user dir for installed copies.

    ``package_file`` is this module's path (overridable for tests).
    """
    env = knobs.read("REPRO_CHECKPOINT_DIR")
    if env:
        return Path(env)
    source = Path(package_file if package_file else __file__).resolve()
    try:
        repo_root = source.parents[3]
    except IndexError:
        repo_root = None
    if repo_root is not None and _is_repo_checkout(repo_root):
        return repo_root / "benchmarks" / "results" / ".runs"
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runs"


def _atomic_write_json(path, payload):
    """Write ``payload`` as JSON via tmp file + fsync + rename (never torn).

    The fsync before the rename matters: ``os.replace`` makes the *name*
    switch atomic, but without flushing the tmp file's data first a power
    loss can journal the rename while the blocks are still in the page
    cache — publishing a zero-length (or partial) file under the final
    name. Durability requires flush + fsync, then rename.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def content_id(payload, length=12):
    """Deterministic short id of a JSON-safe payload (sweep/job ids).

    The canonical serialization (sorted keys) makes the id content-addressed:
    identical payloads — machine digest plus point specs — always map to the
    same id, in any process, ever. Shared by :meth:`SweepCheckpoint.attach`
    and the sweep service's job ids (:mod:`repro.service.jobqueue`).
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


class SweepCheckpoint:
    """One sweep's manifest + journal under ``<root>/<run_id>/``."""

    def __init__(self, run_dir, manifest, telemetry=None):
        self.run_dir = Path(run_dir)
        self.manifest = manifest
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._journal_fd = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _specs_for(runner, points):
        specs = []
        for workload, mode in points:
            cache_key = getattr(workload, "cache_key", None)
            if cache_key is None:
                raise ValueError(
                    f"workload {workload.name!r} has no cache_key; "
                    "checkpointed sweeps rebuild workloads from keys"
                )
            specs.append(
                {
                    "point": cache_key,
                    "mode": mode,
                    "digest": runner.point_digest(cache_key, mode),
                }
            )
        return specs

    @classmethod
    def attach(cls, root, runner, points, label=None, telemetry=None):
        """Create — or resume — the checkpoint for exactly this sweep.

        The run id is a content hash of the machine digest and the ordered
        point specs, so attaching twice with an identical configuration
        reuses the existing run directory (and its journal), while any
        change to the machine, runner knobs, or point list lands in a
        fresh run.
        """
        specs = cls._specs_for(runner, list(points))
        return cls.attach_specs(
            root,
            runner.machine_digest(),
            specs,
            label=label,
            telemetry=telemetry,
        )

    @classmethod
    def attach_specs(cls, root, machine_digest, specs, label=None, telemetry=None):
        """Attach by pre-computed point specs, no workload objects needed.

        The sweep service admits jobs from ``(cache_key, mode, digest)``
        specs alone — building the actual workload arrays is deferred to
        the executor — so checkpoint attachment must not force a workload
        build either. :meth:`attach` derives the specs from live
        ``(workload, mode)`` points and lands here; both produce the same
        content-addressed ``run_id``.
        """
        specs = [dict(spec) for spec in specs]
        run_id = content_id({"machine": machine_digest, "points": specs})
        run_dir = Path(root) / run_id
        manifest_path = run_dir / MANIFEST_NAME
        if manifest_path.is_file():
            manifest = json.loads(manifest_path.read_text("utf-8"))
        else:
            manifest = {
                "version": FORMAT_VERSION,
                "run_id": run_id,
                "label": label,
                # repro: noqa[nondet] creation stamp is operator metadata;
                # the run id hashes machine digest + point specs only
                "created": time.time(),
                "machine_digest": machine_digest,
                "points": specs,
            }
            run_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write_json(manifest_path, manifest)
        checkpoint = cls(run_dir, manifest, telemetry)
        checkpoint.mark(STATUS_RUNNING)
        return checkpoint

    @classmethod
    def load(cls, root, run_id, telemetry=None):
        """Open an existing run (``repro resume``); raises if absent."""
        run_dir = Path(root) / run_id
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(
                f"no checkpointed run {run_id!r} under {root}"
            )
        return cls(run_dir, json.loads(manifest_path.read_text("utf-8")), telemetry)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    @property
    def run_id(self):
        return self.manifest["run_id"]

    @property
    def label(self):
        return self.manifest.get("label")

    @property
    def total(self):
        """Number of points in the sweep."""
        return len(self.manifest["points"])

    def verify(self, runner):
        """Raise ``ValueError`` when ``runner`` would not reproduce the
        manifest's digests (machine or simulation knobs changed)."""
        for spec in self.manifest["points"]:
            digest = runner.point_digest(spec["point"], spec["mode"])
            if digest != spec["digest"]:
                raise ValueError(
                    f"run {self.run_id}: digest mismatch for "
                    f"{spec['point']} ({spec['mode']}); the machine or "
                    "runner configuration changed since this run was "
                    "checkpointed — journaled counters cannot be spliced"
                )

    def points(self):
        """Rebuild the ``(workload, mode)`` list from the manifest."""
        from repro.workloads.registry import resolve_point

        rebuilt = []
        for spec in self.manifest["points"]:
            rebuilt.append((resolve_point(spec["point"]), spec["mode"]))
        return rebuilt

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #

    def _descriptor(self):
        if self._journal_fd is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._journal_fd = os.open(
                self.run_dir / JOURNAL_NAME,
                os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                0o644,
            )
        return self._journal_fd

    def record(self, index, counters):
        """Journal one completed point (atomic single-line append)."""
        spec = self.manifest["points"][index]
        entry = {
            "index": index,
            "point": spec["point"],
            "mode": spec["mode"],
            "digest": spec["digest"],
            # repro: noqa[nondet] journal timestamp is observability
            # metadata; resume splices only "counters", verified by digest
            "ts": time.time(),
            "counters": counters_to_dict(counters),
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        os.write(self._descriptor(), line.encode("utf-8"))

    def completed_counters(self):
        """``{index: RunResult}`` journaled so far (``provenance="journal"``).

        Corrupt or truncated lines (a torn final write from a ``kill -9``),
        out-of-range indices, and entries whose digest does not match the
        manifest are *skipped* with a ``journal_corrupt`` telemetry warning
        — resume then simply re-runs those points.
        """
        path = self.run_dir / JOURNAL_NAME
        completed = {}
        if not path.is_file():
            return completed
        specs = self.manifest["points"]
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    index = entry["index"]
                    if entry["digest"] != specs[index]["digest"]:
                        raise ValueError("digest mismatch vs manifest")
                    counters = counters_from_dict(
                        entry["counters"], provenance="journal"
                    )
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.telemetry.emit(
                        "journal_corrupt",
                        run_id=self.run_id,
                        line=lineno,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    continue
                completed[index] = counters
        return completed

    def flush(self):
        """fsync the journal (called on graceful shutdown)."""
        if self._journal_fd is not None:
            try:
                os.fsync(self._journal_fd)
            except OSError:
                pass

    def close(self):
        if self._journal_fd is not None:
            self.flush()
            os.close(self._journal_fd)
            self._journal_fd = None

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #

    def mark(self, status):
        _atomic_write_json(
            self.run_dir / STATUS_NAME,
            # repro: noqa[nondet] status stamp is operator metadata only
            {"status": status, "updated": time.time()},
        )

    def mark_completed(self):
        self.mark(STATUS_COMPLETED)

    def mark_interrupted(self):
        self.mark(STATUS_INTERRUPTED)

    def mark_failed(self):
        self.mark(STATUS_FAILED)

    @property
    def status(self):
        """Last marked status; a parent killed with ``kill -9`` leaves
        ``running`` behind, which ``repro runs`` still lists as resumable."""
        try:
            payload = json.loads(
                (self.run_dir / STATUS_NAME).read_text("utf-8")
            )
            return payload["status"]
        except (OSError, ValueError, KeyError):
            return STATUS_RUNNING

    @property
    def updated(self):
        try:
            payload = json.loads(
                (self.run_dir / STATUS_NAME).read_text("utf-8")
            )
            return float(payload["updated"])
        except (OSError, ValueError, KeyError, TypeError):
            return self.manifest.get("created", 0.0)


# ---------------------------------------------------------------------- #
# Run listing (``repro runs``)
# ---------------------------------------------------------------------- #


def run_summary(checkpoint):
    """One checkpointed run's machine-readable summary dict.

    The single serializer behind ``repro runs`` (table and ``--json``)
    and the sweep service's ``/jobs`` endpoint, so every surface agrees
    on field names and on the completed-but-unmarked repair below.
    """
    done = len(checkpoint.completed_counters())
    status = checkpoint.status
    if done >= checkpoint.total and status == STATUS_RUNNING:
        # Every point journaled but the parent died before marking.
        status = STATUS_COMPLETED
    return {
        "run_id": checkpoint.run_id,
        "label": checkpoint.label or "-",
        "status": status,
        "completed": done,
        "total": checkpoint.total,
        "updated": checkpoint.updated,
    }


def runs_payload(runs):
    """The versioned JSON payload wrapping :func:`run_summary` dicts."""
    return {"version": FORMAT_VERSION, "runs": list(runs)}


def list_runs(root=None):
    """Summaries of every checkpointed run under ``root``, newest first."""
    root = Path(root) if root is not None else default_checkpoint_dir()
    runs = []
    if not root.is_dir():
        return runs
    try:
        manifest_paths = sorted(root.glob(f"*/{MANIFEST_NAME}"))
    except OSError:
        return runs
    for manifest_path in manifest_paths:
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, ValueError):
            continue
        runs.append(run_summary(SweepCheckpoint(manifest_path.parent, manifest)))
    runs.sort(key=lambda r: -r["updated"])
    return runs


def format_runs(runs):
    """Render :func:`list_runs` output as the ``repro runs`` table."""
    from repro.harness.report import format_table

    if not runs:
        return "no checkpointed runs"
    return format_table(
        ["run", "label", "status", "progress", "updated"],
        [
            [
                r["run_id"],
                r["label"],
                r["status"],
                f"{r['completed']}/{r['total']}",
                time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(r["updated"])
                ),
            ]
            for r in runs
        ],
        title="Checkpointed sweep runs",
    )
