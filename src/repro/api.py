"""Stable public facade: structured results for programmatic consumers.

This module is the supported entry point for driving the reproduction from
Python. Every execution path — :meth:`Runner.run`, :meth:`Runner.run_many`,
:func:`~repro.harness.parallel.run_sweep`, the persistent result
cache, checkpoint journals, and the ``fig*`` experiment drivers — returns
:class:`RunResult` objects: frozen dataclasses carrying the per-phase
counters, the simulation engine that produced each phase, and where the
result came from (``provenance``).

Quick tour::

    from repro.api import ExecutionMode, Runner, RunResult, resolve_workload

    runner = Runner()
    workload = resolve_workload("degree-count/KRON@20")
    result = runner.run(workload, ExecutionMode.COBRA)
    result.cycles, result.mpki, result.phase("binning").ipc
    legacy = result.as_dict()   # deprecation shim: the on-disk JSON shape

Compatibility: :meth:`RunResult.as_dict` emits exactly the result-cache
JSON layout, and :meth:`RunResult.as_counters` rebuilds the legacy mutable
:class:`~repro.cpu.counters.RunCounters`, so pre-existing dict/counter
consumers keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.stats import MemoryTraffic, ServiceCounts
from repro.cpu.counters import PhaseCounters, RunCounters

__all__ = [
    "ExecutionMode",
    "PhaseResult",
    "RunResult",
    "Runner",
    "resolve_workload",
    "workload_instances",
    "run_experiment",
    "PROVENANCE_SIMULATED",
    "PROVENANCE_DISK",
    "PROVENANCE_JOURNAL",
]

#: The result was freshly simulated in this process.
PROVENANCE_SIMULATED = "simulated"
#: The result was read back from the persistent on-disk result cache.
PROVENANCE_DISK = "disk"
#: The result was spliced from a sweep checkpoint journal.
PROVENANCE_JOURNAL = "journal"


@dataclass(frozen=True)
class PhaseResult:
    """Immutable counters for one phase of one execution.

    Field-compatible with the legacy mutable
    :class:`~repro.cpu.counters.PhaseCounters`, plus ``engine`` — which
    trace simulator produced the phase (``"batch"``, ``"fast"``, or
    ``None`` for phases with no irregular trace). ``engine`` is excluded
    from equality: the engines are equivalence-tested to produce identical
    counters, so results may be compared across them.
    """

    name: str
    instructions: int = 0
    branches: int = 0
    branch_mispredicts: float = 0.0
    irregular_service: ServiceCounts = field(default_factory=ServiceCounts)
    streaming_service: ServiceCounts = field(default_factory=ServiceCounts)
    streaming_bytes: int = 0
    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    cycles: float = 0.0
    engine: str = field(default=None, compare=False)

    @property
    def ipc(self):
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self):
        """Branch mispredictions per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.instructions

    @property
    def demand_service(self):
        """Irregular + streaming service counts combined."""
        return self.irregular_service.merged(self.streaming_service)

    @classmethod
    def from_counters(cls, counters, engine=None):
        """Freeze a legacy :class:`PhaseCounters` (or any field-compatible
        object) into a :class:`PhaseResult`."""
        return cls(
            name=counters.name,
            instructions=counters.instructions,
            branches=counters.branches,
            branch_mispredicts=counters.branch_mispredicts,
            irregular_service=counters.irregular_service,
            streaming_service=counters.streaming_service,
            streaming_bytes=counters.streaming_bytes,
            traffic=counters.traffic,
            cycles=counters.cycles,
            engine=getattr(counters, "engine", None) if engine is None else engine,
        )

    def as_counters(self):
        """Deprecation shim: the legacy mutable :class:`PhaseCounters`."""
        return PhaseCounters(
            name=self.name,
            instructions=self.instructions,
            branches=self.branches,
            branch_mispredicts=self.branch_mispredicts,
            irregular_service=self.irregular_service,
            streaming_service=self.streaming_service,
            streaming_bytes=self.streaming_bytes,
            traffic=self.traffic,
            cycles=self.cycles,
        )


@dataclass(frozen=True)
class RunResult:
    """Immutable result of one (workload, mode) execution.

    Drop-in superset of the legacy :class:`~repro.cpu.counters.RunCounters`
    surface (``phases``, ``phase()``, aggregate properties), plus
    ``provenance`` — one of :data:`PROVENANCE_SIMULATED`,
    :data:`PROVENANCE_DISK`, :data:`PROVENANCE_JOURNAL` — recording whether
    the counters were computed fresh or restored from a cache/journal.
    ``provenance`` is excluded from equality: a warm read must compare
    equal to the run that produced it (bit-identity is test-asserted).
    """

    workload: str
    mode: str
    phases: tuple = ()
    provenance: str = field(default=PROVENANCE_SIMULATED, compare=False)

    def phase(self, name):
        """Phase result by name (raises ``KeyError`` if absent)."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no phase named {name!r} in {self.workload}/{self.mode}")

    def has_phase(self, name):
        """True when a phase with ``name`` was recorded."""
        return any(phase.name == name for phase in self.phases)

    @property
    def engine(self):
        """The trace engine that produced the phases.

        ``"batch"`` or ``"fast"`` when every traced phase agrees,
        ``"mixed"`` when they differ, ``None`` when no phase ran a trace.
        """
        engines = {p.engine for p in self.phases if p.engine is not None}
        if not engines:
            return None
        if len(engines) == 1:
            return next(iter(engines))
        return "mixed"

    @property
    def cycles(self):
        """Total cycles across phases."""
        return sum(phase.cycles for phase in self.phases)

    @property
    def instructions(self):
        """Total dynamic instructions across phases."""
        return sum(phase.instructions for phase in self.phases)

    @property
    def branch_mispredicts(self):
        """Total (possibly scaled) branch mispredictions."""
        return sum(phase.branch_mispredicts for phase in self.phases)

    @property
    def traffic(self):
        """Total DRAM traffic across phases."""
        total = MemoryTraffic()
        for phase in self.phases:
            total = total.merged(phase.traffic)
        return total

    @property
    def irregular_service(self):
        """Combined irregular service counts across phases."""
        total = ServiceCounts()
        for phase in self.phases:
            total = total.merged(phase.irregular_service)
        return total

    @property
    def demand_service(self):
        """Combined demand (irregular + streaming) counts across phases."""
        total = ServiceCounts()
        for phase in self.phases:
            total = total.merged(phase.demand_service)
        return total

    @property
    def mpki(self):
        """Branch MPKI over the whole run."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.instructions

    @classmethod
    def from_counters(cls, counters, provenance=PROVENANCE_SIMULATED):
        """Freeze a legacy :class:`RunCounters` (or any field-compatible
        object) into a :class:`RunResult`."""
        return cls(
            workload=counters.workload,
            mode=str(counters.mode),
            phases=tuple(
                p if isinstance(p, PhaseResult) else PhaseResult.from_counters(p)
                for p in counters.phases
            ),
            provenance=provenance,
        )

    def as_counters(self):
        """Deprecation shim: the legacy mutable :class:`RunCounters`."""
        return RunCounters(
            workload=self.workload,
            mode=self.mode,
            phases=[phase.as_counters() for phase in self.phases],
        )

    def as_dict(self):
        """Deprecation shim: the result-cache JSON dict layout."""
        from repro.harness.resultcache import counters_to_dict

        return counters_to_dict(self)

    @classmethod
    def from_dict(cls, payload, provenance=PROVENANCE_DISK):
        """Rebuild from :meth:`as_dict` / result-cache JSON output."""
        from repro.harness.resultcache import counters_from_dict

        return counters_from_dict(payload, provenance=provenance)


def resolve_workload(spec):
    """Resolve a canonical ``workload/input[@scale]`` spec string.

    The registry-native entry point::

        from repro.api import resolve_workload

        workload = resolve_workload("degree-count/KRON@18")
        workload.cache_key  # "degree-count:KRON:18"

    Omitting ``@scale`` uses the input's fixed scale (ingested real
    graphs) or the suite default. See
    :mod:`repro.workloads.registry` for the full registry surface.
    """
    from repro.workloads.registry import resolve_spec

    return resolve_spec(spec)


def workload_instances(workloads=None, scale=None, include_extensions=False):
    """Iterate ``(workload_name, input_name, workload)`` triples."""
    from repro.workloads.registry import workload_instances as _instances

    return _instances(
        workloads=workloads, scale=scale, include_extensions=include_extensions
    )


def run_experiment(name, **kwargs):
    """Run one named experiment driver (``fig02`` ... ``table1``).

    Returns its :class:`~repro.harness.experiments.common.ExperimentResult`,
    whose ``runs`` carry the :class:`RunResult` of every point the figure
    consumed. Keyword arguments are forwarded to the driver (``runner``,
    ``scale``, ``jobs``, ...).
    """
    from repro.cli import EXPERIMENTS

    try:
        driver, _description = EXPERIMENTS[name]
    except KeyError:
        valid = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(
            f"unknown experiment {name!r}; valid experiments: {valid}"
        ) from None
    return driver(**kwargs)


def __getattr__(name):
    # resolved lazily: the harness import chain converts payloads into the
    # RunResult defined above, so importing it eagerly would be circular
    if name == "Runner":
        from repro.harness.runner import Runner

        return Runner
    if name == "ExecutionMode":
        from repro.harness.modes import ExecutionMode

        return ExecutionMode
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
