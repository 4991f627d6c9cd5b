"""The benchmark's workloads, their inputs, one timed pass, and its checks.

Importing this module imports neither ``repro`` nor numpy: ``setup_s``
starts before the program's first import.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_SEED",
    "FINGERPRINTS",
    "WORKLOADS",
    "Pass",
    "Workload",
    "environment",
    "fingerprint",
    "load_fingerprints",
    "resolve_inputs",
    "run_pass",
    "seeded_inputs",
    "setup",
    "verify",
]

#: The seed that keeps the registry's pinned inputs (and is fingerprinted).
DEFAULT_SEED = 0

#: Scale every spec runs at under ``--tiny`` (smoke tests only).
TINY_SCALE = 10

#: sha256 of every point's counters on the default seed, per workload.
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

_FIG10_MODES = ("baseline", "pb-sw", "pb-sw-ideal", "cobra")
_FIG14_MODES = ("baseline", "phi", "cobra-comm", "cobra")


@dataclass(frozen=True)
class Workload:
    """A set of ``(spec, mode)`` points run as one pass."""

    name: str
    specs: tuple
    modes: tuple
    #: Sweep workers; above 1 the pass goes through ``Runner.run_many``
    #: into an empty result cache and is read back warm.
    jobs: int = 1

    def scaled_specs(self, tiny=False):
        if not tiny:
            return self.specs
        return tuple(
            f"{spec.split('@')[0]}@{TINY_SCALE}" for spec in self.specs
        )

    def points(self, tiny=False):
        """``(spec, mode)`` pairs in pass order."""
        return [
            (spec, mode)
            for spec in self.scaled_specs(tiny)
            for mode in self.modes
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fig10-s16",
            (
                "neighbor-populate/KRON@16",
                "transpose/ROPT@16",
                "integer-sort/U64@16",
            ),
            _FIG10_MODES,
        ),
        Workload(
            "fig10-s18",
            ("degree-count/KRON@18", "pagerank/KRON@18"),
            _FIG10_MODES,
        ),
        Workload(
            "fig14-jobs2",
            ("pagerank/KRON@16", "spmv/ROPT@16"),
            _FIG14_MODES,
            jobs=2,
        ),
    )
}


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

#: What a held-out seed adds to every pinned seed, per unit of seed.
_SEED_STRIDE = 7919


def _registry_generators(registry):
    """The generator functions the registry imports, by name."""
    return {
        name: value
        for name, value in vars(registry).items()
        if callable(value)
        and getattr(value, "__module__", "")
        in ("repro.graphs.generators", "repro.sparse.generators")
    }


@contextlib.contextmanager
def seeded_inputs(seed):
    """Draw the registry's synthetic inputs from ``seed``.

    The default seed leaves the pinned inputs alone. Any other seed maps
    each pinned seed ``s`` the registry passes to a generator of
    :mod:`repro.graphs.generators` / :mod:`repro.sparse.generators`, or to
    ``numpy.random.default_rng`` (integer-sort keys), to
    ``s + 7919 * seed`` while the context is open. The registry's own
    builders run unchanged, so every input keeps its shape but is drawn
    afresh. Sweep workers forked inside the context inherit the draw.
    """
    if seed == DEFAULT_SEED:
        yield
        return
    from repro.workloads import registry

    def derived(pinned):
        return pinned + _SEED_STRIDE * seed

    def reseeded(generator):
        def generate(*args, seed, **kwargs):
            return generator(*args, seed=derived(seed), **kwargs)

        return generate

    generators = _registry_generators(registry)
    numpy = registry.np
    reseeded_numpy = types.ModuleType(numpy.__name__)
    reseeded_numpy.__dict__.update(vars(numpy))
    reseeded_numpy.random = types.SimpleNamespace(
        default_rng=lambda pinned: numpy.random.default_rng(derived(pinned))
    )
    try:
        for name, generator in generators.items():
            setattr(registry, name, reseeded(generator))
        registry.np = reseeded_numpy
        yield
    finally:
        registry.np = numpy
        for name, generator in generators.items():
            setattr(registry, name, generator)


def resolve_inputs(specs):
    """Resolve every spec through the registry, starting from a cold memo."""
    from repro.workloads import registry

    registry._cache.clear()
    return {spec: registry.resolve_spec(spec) for spec in specs}


def setup(specs):
    """The work ``setup_s`` times: imports, kernel-tier load, resolution.

    Returns ``(kernel tier, {spec: workload})``. Call it inside
    :func:`seeded_inputs`.
    """
    from repro.cache.kernels import select_backend
    from repro.harness import Runner  # noqa: F401 - import cost is set-up

    tier = select_backend()
    return tier, resolve_inputs(specs)


def environment(tier):
    """Provenance recorded with every result."""
    import platform

    import numpy

    return {
        "kernel_tier": tier,
        # numba is preferred over cnative when installed; only the numpy
        # tier means the C kernels could not be built.
        "tier_fallback": tier == "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------- #


@dataclass
class Pass:
    """One pass over a workload's points."""

    seconds: float
    #: Host seconds of each point (serial workloads only).
    point_seconds: list
    #: ``RunResult`` per point, ``None`` where the point raised.
    results: list
    #: Failure message per point, ``None`` where it ran clean.
    errors: list


def run_pass(workload, instances, tiny, scratch):
    """Run every point cold on a fresh default ``Runner``."""
    from repro.harness import Runner

    points = [
        (instances[spec], mode) for spec, mode in workload.points(tiny)
    ]
    results = [None] * len(points)
    errors = [None] * len(points)
    point_seconds = []
    if workload.jobs == 1:
        runner = Runner()
        start = time.perf_counter()
        for index, (instance, mode) in enumerate(points):
            began = time.perf_counter()
            try:
                results[index] = runner.run(instance, mode)
            except Exception as error:  # a failed point is counted, not fatal
                errors[index] = f"{type(error).__name__}: {error}"
            point_seconds.append(time.perf_counter() - began)
        return Pass(time.perf_counter() - start, point_seconds, results, errors)

    from repro.harness.resultcache import ResultCache

    with tempfile.TemporaryDirectory(dir=scratch) as cache_dir:
        start = time.perf_counter()
        try:
            cold = Runner(result_cache=ResultCache(cache_dir)).run_many(
                points, jobs=workload.jobs
            )
            reader = Runner(result_cache=ResultCache(cache_dir))
            warm = [reader.run(instance, mode) for instance, mode in points]
        except Exception as error:  # the whole sweep failed
            seconds = time.perf_counter() - start
            message = f"{type(error).__name__}: {error}"
            return Pass(seconds, [], results, [message] * len(points))
        seconds = time.perf_counter() - start
    for index, (cold_result, warm_result) in enumerate(zip(cold, warm)):
        results[index] = cold_result
        if warm_result != cold_result or warm_result.provenance != "disk":
            errors[index] = "warm read differs from its cold result"
    return Pass(seconds, point_seconds, results, errors)


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


def fingerprint(result):
    """sha256 of a ``RunResult``'s counters, engine tags removed."""
    from repro.harness.resultcache import counters_to_dict

    payload = counters_to_dict(result)
    for phase in payload["phases"]:
        del phase["engine"]
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sane(result):
    """Every counter finite and non-negative, and some cycles simulated."""
    from repro.harness.resultcache import counters_to_dict

    values = []
    for phase in counters_to_dict(result)["phases"]:
        for key, value in phase.items():
            if key in ("name", "engine"):
                continue
            values.extend(value if isinstance(value, list) else [value])
    return result.cycles > 0 and all(
        math.isfinite(value) and value >= 0 for value in values
    )


def load_fingerprints(workload_name):
    """Recorded ``{"spec mode": sha256}`` for a workload (may be empty)."""
    if not FINGERPRINTS.exists():
        return {}
    recorded = json.loads(FINGERPRINTS.read_text("utf-8"))
    return recorded.get(workload_name, {})


def verify(passes, keys, expected):
    """Check every point of every pass.

    A point fails if it raised, if its counters are not sane, if they
    differ from the point's result in the first pass, or — when
    ``expected`` (``{"spec mode": sha256}``) is given — if they differ from
    the recorded fingerprint. Returns ``(failures, first-pass
    fingerprints)`` with one message per failed point evaluation.
    """
    failures = []
    first = {}
    for number, one_pass in enumerate(passes):
        for key, result, error in zip(keys, one_pass.results, one_pass.errors):
            label = f"pass {number} {key}"
            if error is not None:
                failures.append(f"{label}: {error}")
                continue
            if not _sane(result):
                failures.append(f"{label}: counters out of range")
                continue
            digest = fingerprint(result)
            first.setdefault(key, digest)
            if digest != first[key]:
                failures.append(f"{label}: differs from the first pass")
            elif expected is not None and digest != expected.get(key):
                failures.append(f"{label}: fingerprint mismatch")
    return failures, first
