"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.runner import Runner

__all__ = [
    "ExperimentResult",
    "shared_runner",
    "phase_cycles",
    "prefetch_runs",
]


@dataclass
class ExperimentResult:
    """Structured output of one experiment driver.

    ``runs`` carries the :class:`~repro.api.RunResult` of every simulation
    point the figure consumed, in the order the driver ran them, so
    programmatic consumers get the full structured counters — not just the
    rendered ``rows``/``text``.
    """

    name: str
    rows: list = field(default_factory=list)
    text: str = ""
    extras: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)

    def __str__(self):
        return self.text


_RUNNER = None


def shared_runner(**kwargs):
    """Process-wide runner so experiments reuse memoized runs.

    Passing kwargs creates a fresh, unshared runner (sweeps that change
    machine parameters must not pollute the shared cache).
    """
    global _RUNNER
    if kwargs:
        return Runner(**kwargs)
    if _RUNNER is None:
        _RUNNER = Runner()
    return _RUNNER


def phase_cycles(counters, name):
    """Cycles of one phase (0.0 when the phase is absent).

    Accepts a :class:`~repro.api.RunResult` or any object exposing a
    ``phases`` iterable of named phase counters.
    """
    for phase in counters.phases:
        if phase.name == name:
            return phase.cycles
    return 0.0


def prefetch_runs(runner, points, jobs=None, label=None, checkpoint_dir=None):
    """Warm the runner's memo for ``(workload, mode)`` points in parallel.

    Experiment drivers keep their readable serial loops; calling this first
    with ``jobs`` > 1 computes every independent point through the sweep
    executor, so the subsequent serial loop is all memo hits. A no-op when
    ``jobs`` is ``None``/``<= 1`` and no checkpoint directory is given.

    ``label`` tags the sweep in the telemetry log with the experiment it
    warms, so ``repro report`` can attribute wall-clock per figure. A
    crashed or hung worker costs only a retry of its point, never the
    figure.

    ``checkpoint_dir`` attaches a :class:`SweepCheckpoint` under that
    directory: completed points are journaled as they finish, SIGINT/SIGTERM
    drain in flight work and raise
    :class:`~repro.harness.faults.SweepInterrupted`, and re-running the same
    figure resumes from the journal instead of starting over.
    """
    if checkpoint_dir is None and (jobs is None or jobs <= 1):
        return
    points = list(points)
    if label is not None and runner.telemetry.enabled:
        runner.telemetry.emit(
            "experiment_prefetch", experiment=label, points=len(points)
        )
    checkpoint = None
    if checkpoint_dir is not None:
        from repro.harness.checkpoint import SweepCheckpoint

        checkpoint = SweepCheckpoint.attach(
            checkpoint_dir,
            runner,
            points,
            label=label,
            telemetry=runner.telemetry,
        )
    runner.run_many(
        points,
        jobs=jobs if jobs is not None else 1,
        checkpoint=checkpoint,
        handle_signals=checkpoint is not None,
    )
