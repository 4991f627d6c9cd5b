"""Declarative workload registry: one table from names to runnable points.

Every workload and every input the harness knows is *declared* here as a
spec object — like :mod:`repro.harness.knobs`, the table is the single
entry point, and everything else (CLI, sweep executor, checkpoint specs,
service job ids, golden canaries) resolves through it instead of growing
its own ``if workload_name == ...`` ladder.

Identity contract
-----------------

A resolved point has exactly one identity, spelled two ways:

* the **cache key** ``workload:input:scale`` — the wire form, feeding
  ``run_digest``, result-cache paths, checkpoint specs, and service job
  ids. Its bytes are frozen: they must match the pre-registry format, or
  every warm cache and golden digest on disk silently invalidates (pinned
  by ``tests/harness/test_digest_pins``).
* the **spec string** ``workload/input@scale`` — the canonical
  user-facing form accepted by ``repro point --spec`` and friends.

:func:`parse_spec` / :func:`format_spec` / :func:`cache_key_for` convert
between them; :func:`resolve` (and its ``resolve_spec`` / ``resolve_point``
wrappers) is the only constructor path.

Inputs are typed by *kind* (``graph``, ``matrix``, ``keys``, ``perm``,
``sym``); a workload declares which kinds it consumes, so ingested real
graphs (see :mod:`repro.graphs.ingest`) run under any graph workload even
when they are not part of that workload's canonical suite tuple. Ingested
inputs arrive at one size and therefore carry a *fixed* scale
(``ceil(log2(|V|))``); resolving them at any other explicit scale is an
error rather than a silent resample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.graphs import build_csr, mesh2d, rmat, uniform_random
from repro.graphs.ingest import DATASETS, load_dataset, natural_scale
from repro.sparse import (
    poisson2d,
    random_permutation,
    random_sparse,
    random_symmetric,
)
from repro.workloads.csr_build import CSRBuild
from repro.workloads.degree_count import DegreeCount
from repro.workloads.histogram import Histogram
from repro.workloads.intsort import IntegerSort
from repro.workloads.neighbor_populate import NeighborPopulate
from repro.workloads.pagerank import Pagerank
from repro.workloads.pinv import PInv
from repro.workloads.radii import Radii
from repro.workloads.spmv import SpMV
from repro.workloads.symperm import SymPerm
from repro.workloads.transpose import Transpose
from repro.workloads.validate import verify_workload

__all__ = [
    "DEFAULT_SCALE",
    "GRAPH_NAMES",
    "MATRIX_NAMES",
    "DATASET_NAMES",
    "INPUTS",
    "WORKLOADS",
    "WORKLOAD_INPUTS",
    "InputSpec",
    "WorkloadSpec",
    "cache_key_for",
    "default_bin_counts",
    "describe_inputs",
    "describe_workloads",
    "effective_scale",
    "format_spec",
    "load_csr",
    "load_graph",
    "load_matrix",
    "parse_spec",
    "resolve",
    "resolve_point",
    "resolve_spec",
    "workload_instances",
]

DEFAULT_SCALE = 18  # log2 of the vertex-namespace size
_DEG = 8  # average degree of the synthetic graphs

#: Input kinds — the type system connecting inputs to workloads.
KIND_GRAPH = "graph"
KIND_MATRIX = "matrix"
KIND_KEYS = "keys"
KIND_PERM = "perm"
KIND_SYM = "sym"

#: Workload classes only the registry may construct (outside the
#: workloads package itself). Pure literal: the ``workload-registry``
#: lint rule parses this tuple statically, and a unit test cross-checks
#: it against the live registry.
REGISTERED_CLASSES = (
    "CSRBuild",
    "DegreeCount",
    "Histogram",
    "IntegerSort",
    "NeighborPopulate",
    "Pagerank",
    "PInv",
    "Radii",
    "SpMV",
    "SymPerm",
    "Transpose",
)

#: Synthetic graph inputs (paper analogs in parentheses): KRON (KRON/TWIT
#: — heavy power-law skew), WEB (milder power-law), URND (uniform
#: random), EURO (bounded-degree road-style mesh).
GRAPH_NAMES = ("KRON", "WEB", "URND", "EURO")

#: Matrix inputs: POIS (simulation stencil), ROPT (random optimization).
MATRIX_NAMES = ("POIS", "ROPT")

#: Ingested real-graph inputs (see repro.graphs.ingest).
DATASET_NAMES = tuple(sorted(DATASETS))

# The shared instance cache. Key shapes are part of the identity contract
# (unchanged from the pre-registry module): graphs (name, scale), CSR
# ("csr", name, scale), matrices (name, scale), the shared symmetric
# matrix ("sym", scale), workload instances ("wl", workload, input, scale).
_cache = {}


def _cached(key, builder):
    if key not in _cache:
        _cache[key] = builder()
    return _cache[key]


# --------------------------------------------------------------------- #
# Input registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class InputSpec:
    """One named input: its kind, how to load it, and its scale rules."""

    name: str
    #: ``graph`` / ``matrix`` / ``keys`` / ``perm`` / ``sym``.
    kind: str
    description: str
    #: ``load(scale)`` builds the underlying object (EdgeList or CSR
    #: matrix). ``None`` for declarative-only inputs (keys/perm/sym) that
    #: the workload builder materializes itself.
    load: Optional[Callable[[int], object]] = None
    #: Dataset name in :data:`repro.graphs.ingest.DATASETS` for ingested
    #: inputs; their scale is fixed at ``ceil(log2(|V|))``.
    dataset: Optional[str] = None


def _synthetic_graph(name, scale):
    n = 1 << scale
    m = n * _DEG
    if name == "KRON":
        return rmat(n, m, seed=101)
    if name == "WEB":
        return rmat(n, m, seed=202, a=0.45, b=0.22, c=0.22)
    if name == "URND":
        return uniform_random(n, m, seed=303)
    if name == "EURO":
        return mesh2d(int(np.sqrt(n)), seed=404)
    raise KeyError(name)


def _matrix(name, scale):
    if name == "POIS":
        return poisson2d(int(np.sqrt(1 << scale)), seed=505).to_csr()
    if name == "ROPT":
        n = 1 << scale
        return random_sparse(n, n, n * 6, seed=606).to_csr()
    raise KeyError(name)


def _make_inputs():
    specs = []
    graph_notes = {
        "KRON": "RMAT power-law graph (KRON/TWIT analog)",
        "WEB": "milder power-law RMAT graph (WEB analog)",
        "URND": "uniform random graph",
        "EURO": "bounded-degree 2-D road-style mesh",
    }
    for name in GRAPH_NAMES:
        specs.append(
            InputSpec(
                name=name,
                kind=KIND_GRAPH,
                description=graph_notes[name],
                load=lambda scale, name=name: _synthetic_graph(name, scale),
            )
        )
    matrix_notes = {
        "POIS": "5-point Poisson stencil matrix (simulation analog)",
        "ROPT": "random sparse matrix (optimization analog)",
    }
    for name in MATRIX_NAMES:
        specs.append(
            InputSpec(
                name=name,
                kind=KIND_MATRIX,
                description=matrix_notes[name],
                load=lambda scale, name=name: _matrix(name, scale),
            )
        )
    specs.append(
        InputSpec(
            "U16",
            KIND_KEYS,
            "uniform keys, narrow range (per-workload max-key ladder)",
        )
    )
    specs.append(
        InputSpec(
            "U64",
            KIND_KEYS,
            "uniform keys, wide range (per-workload max-key ladder)",
        )
    )
    specs.append(
        InputSpec("PERM", KIND_PERM, "random permutation of 2^(scale+1)")
    )
    specs.append(
        InputSpec(
            "SYM", KIND_SYM, "random symmetric matrix + permutation pair"
        )
    )
    for name in DATASET_NAMES:
        specs.append(
            InputSpec(
                name=name,
                kind=KIND_GRAPH,
                description=DATASETS[name].description,
                load=lambda scale, name=name: load_dataset(name),
                dataset=name,
            )
        )
    return {spec.name: spec for spec in specs}


#: Every named input, keyed by name.
INPUTS = _make_inputs()


def input_fixed_scale(name):
    """The pinned scale of an ingested input, or ``None`` if free."""
    spec = INPUTS[name]
    if spec.dataset is None:
        return None
    return _cached(
        ("natscale", name), lambda: natural_scale(load_dataset(spec.dataset))
    )


def effective_scale(input_name, scale=None):
    """Resolve ``scale`` against the input's scale rules.

    ``None`` means the input's fixed scale (ingested graphs) or the suite
    default; an explicit scale that contradicts a fixed-scale input is a
    :class:`ValueError` rather than a silent resample.
    """
    if input_name not in INPUTS:
        return DEFAULT_SCALE if scale is None else scale
    fixed = input_fixed_scale(input_name)
    if fixed is not None:
        if scale is not None and scale != fixed:
            raise ValueError(
                f"input {input_name!r} is an ingested dataset fixed at "
                f"scale {fixed}; cannot resolve it at scale {scale}"
            )
        return fixed
    return DEFAULT_SCALE if scale is None else scale


def load_graph(name, scale=None):
    """Edge list for a named graph input (synthetic or ingested; cached)."""
    spec = INPUTS.get(name)
    if spec is None or spec.kind != KIND_GRAPH:
        known = GRAPH_NAMES + DATASET_NAMES
        raise KeyError(f"unknown graph {name!r}; expected one of {known}")
    scale = effective_scale(name, scale)
    return _cached((name, scale), lambda: spec.load(scale))


def load_csr(name, scale=None):
    """CSR of a named graph input (cached)."""
    scale = effective_scale(name, scale)
    return _cached(
        ("csr", name, scale), lambda: build_csr(load_graph(name, scale))
    )


def load_matrix(name, scale=None):
    """CSR matrix for a named matrix input (cached)."""
    spec = INPUTS.get(name)
    if spec is None or spec.kind != KIND_MATRIX:
        raise KeyError(
            f"unknown matrix {name!r}; expected one of {MATRIX_NAMES}"
        )
    scale = effective_scale(name, scale)
    return _cached((name, scale), lambda: spec.load(scale))


# --------------------------------------------------------------------- #
# Workload registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: its suite, builder, and verification."""

    name: str
    description: str
    #: Canonical suite inputs — what ``workload_instances`` iterates and
    #: what the digest pins cover.
    inputs: tuple
    #: Input kinds this workload can consume; any registered input of a
    #: matching kind resolves even when outside the canonical suite
    #: (ingested graphs under the paper's graph kernels, for example).
    kinds: tuple
    #: ``build(input_name, scale)`` constructs the workload instance.
    build: Callable[[str, int], object]
    #: ``bin_counts(scale)`` — the default bin-count sweep for bin-count
    #: sensitivity experiments at this scale.
    bin_counts: Callable[[int], tuple]
    #: ``oracle(workload)`` verifies functional correctness (raises on
    #: mismatch). Defaults to :func:`repro.workloads.verify_workload`.
    oracle: Callable[[object], object]
    #: Extension workloads ride outside the paper's nine-kernel suite:
    #: excluded from ``workload_instances`` (and thus digest pins and
    #: default sweeps) unless explicitly requested.
    extension: bool = False


def default_bin_counts(scale):
    """Power-of-two bin counts from 16 up to ~namespace/64 (paper sweep).

    At the suite's scale 18 this is the Figure 4 sweep (16..4096);
    smaller scales — ingested graphs especially — clip the top so bins
    never outnumber indices.
    """
    top_log2 = max(4, min(12, scale - 6))
    return tuple(1 << b for b in range(4, top_log2 + 1))


def _build_degree_count(input_name, scale):
    return DegreeCount(load_graph(input_name, scale))


def _build_neighbor_populate(input_name, scale):
    return NeighborPopulate(load_graph(input_name, scale))


def _build_pagerank(input_name, scale):
    return Pagerank(load_csr(input_name, scale))


def _build_radii(input_name, scale):
    return Radii(load_csr(input_name, scale))


def _build_integer_sort(input_name, scale):
    max_key = 1 << (scale - 3) if input_name == "U16" else 1 << (scale - 1)
    rng = np.random.default_rng(707)
    keys = rng.integers(0, max_key, size=(1 << scale) * 4, dtype=np.int64)
    return IntegerSort(keys, max_key)


def _build_spmv(input_name, scale):
    return SpMV(load_matrix(input_name, scale))


def _build_pinv(input_name, scale):
    return PInv(random_permutation(1 << (scale + 1), seed=808))


def _build_transpose(input_name, scale):
    return Transpose(load_matrix(input_name, scale))


def _build_symperm(input_name, scale):
    n = 1 << scale
    sym = _cached(("sym", scale), lambda: random_symmetric(n, n * 4, seed=909))
    return SymPerm(sym, random_permutation(n, seed=910))


def _build_histogram(input_name, scale):
    # Radix-partition counting (64-wide buckets). The key range is wider
    # than integer-sort's so the bucket array scales with the suite's
    # other update namespaces: U16 buckets span 2^(scale-3) entries
    # (outgrowing the LLC at full scale), U64 spans 2^(scale-1) — the
    # same footprint as degree-count's counts.
    max_key = 1 << (scale + 3) if input_name == "U16" else 1 << (scale + 5)
    rng = np.random.default_rng(1011)
    keys = rng.integers(0, max_key, size=(1 << scale) * 4, dtype=np.int64)
    return Histogram(keys, max_key)


def _build_csr_build(input_name, scale):
    return CSRBuild(load_graph(input_name, scale))


def _build_workloads():
    entries = (
        WorkloadSpec(
            name="degree-count",
            description="count out-degrees (commutative add, 4 B tuple)",
            inputs=GRAPH_NAMES,
            kinds=(KIND_GRAPH,),
            build=_build_degree_count,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="neighbor-populate",
            description="place neighbors at cursor slots (non-commutative)",
            inputs=GRAPH_NAMES,
            kinds=(KIND_GRAPH,),
            build=_build_neighbor_populate,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="pagerank",
            description="push-style rank propagation (commutative add)",
            inputs=GRAPH_NAMES,
            kinds=(KIND_GRAPH,),
            build=_build_pagerank,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="radii",
            description="multi-source radii estimation (commutative or)",
            inputs=("KRON", "WEB", "URND"),  # the paper skips EURO
            kinds=(KIND_GRAPH,),
            build=_build_radii,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="integer-sort",
            description="counting sort of uniform keys (non-commutative)",
            inputs=("U16", "U64"),  # max-key variants
            kinds=(KIND_KEYS,),
            build=_build_integer_sort,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="spmv",
            description="sparse matrix-vector product (commutative add)",
            inputs=MATRIX_NAMES,
            kinds=(KIND_MATRIX,),
            build=_build_spmv,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="pinv",
            description="permutation inversion (scatter, non-commutative)",
            inputs=("PERM",),
            kinds=(KIND_PERM,),
            build=_build_pinv,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="transpose",
            description="sparse matrix transpose (non-commutative)",
            inputs=MATRIX_NAMES,
            kinds=(KIND_MATRIX,),
            build=_build_transpose,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="symperm",
            description="symmetric permutation of a sparse matrix",
            inputs=("SYM",),
            kinds=(KIND_SYM,),
            build=_build_symperm,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
        ),
        WorkloadSpec(
            name="histogram",
            description="bucket-count shifted keys (commutative add)",
            inputs=("U16", "U64"),
            kinds=(KIND_KEYS,),
            build=_build_histogram,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
            extension=True,
        ),
        WorkloadSpec(
            name="csr-build",
            description="fused edge-list-to-CSR build (non-commutative)",
            inputs=GRAPH_NAMES + DATASET_NAMES,
            kinds=(KIND_GRAPH,),
            build=_build_csr_build,
            bin_counts=default_bin_counts,
            oracle=verify_workload,
            extension=True,
        ),
    )
    return {spec.name: spec for spec in entries}


#: Every registered workload, keyed by name. Registration order is
#: iteration order: the paper's nine kernels first (their order fixes the
#: suite's sweep/digest enumeration), extensions after.
WORKLOADS = _build_workloads()

#: The paper suite (workload name -> canonical input names) — the exact
#: mapping the pre-registry module exported; extensions excluded.
WORKLOAD_INPUTS = {
    spec.name: spec.inputs
    for spec in WORKLOADS.values()
    if not spec.extension
}


# --------------------------------------------------------------------- #
# Identity: spec strings and cache keys
# --------------------------------------------------------------------- #


def format_spec(workload_name, input_name, scale):
    """The canonical spec string ``workload/input@scale``."""
    return f"{workload_name}/{input_name}@{scale}"


def parse_spec(text):
    """Parse ``workload/input[@scale]`` into ``(workload, input, scale)``.

    ``scale`` is ``None`` when omitted (meaning: the input's fixed scale,
    or the suite default). Malformed specs raise :class:`ValueError`.
    """
    body, sep, scale_text = text.partition("@")
    workload_name, slash, input_name = body.partition("/")
    if not slash or not workload_name or not input_name or "/" in input_name:
        raise ValueError(
            f"bad workload spec {text!r}; expected workload/input[@scale]"
        )
    if not sep:
        return workload_name, input_name, None
    try:
        scale = int(scale_text)
    except ValueError:
        raise ValueError(
            f"bad scale {scale_text!r} in workload spec {text!r}"
        ) from None
    if scale <= 0:
        raise ValueError(f"scale must be positive in workload spec {text!r}")
    return workload_name, input_name, scale


def cache_key_for(workload_name, input_name, scale=None):
    """The wire identity ``workload:input:scale`` of a resolved point.

    These bytes feed ``run_digest`` and the result cache: they are frozen
    to the pre-registry format (colon-separated, integer scale).
    """
    scale = effective_scale(input_name, scale)
    return f"{workload_name}:{input_name}:{scale}"


# --------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------- #


def _workload_spec(workload_name):
    try:
        return WORKLOADS[workload_name]
    except KeyError:
        raise KeyError(f"unknown workload {workload_name!r}") from None


def resolve(workload_name, input_name, scale=None):
    """Instantiate a registered workload on a registered input (cached).

    The single constructor path: validates the names, checks kind
    compatibility, applies the input's scale rules, builds (or returns
    the cached instance), and stamps ``cache_key``.
    """
    spec = _workload_spec(workload_name)
    input_spec = INPUTS.get(input_name)
    if input_spec is None:
        known = ", ".join(sorted(INPUTS))
        raise KeyError(
            f"unknown input {input_name!r}; registered inputs: {known}"
        )
    if input_spec.kind not in spec.kinds:
        raise KeyError(
            f"workload {workload_name!r} consumes {spec.kinds} inputs; "
            f"{input_name!r} is a {input_spec.kind!r} input"
        )
    scale = effective_scale(input_name, scale)
    key = ("wl", workload_name, input_name, scale)
    workload = _cached(key, lambda: spec.build(input_name, scale))
    workload.cache_key = cache_key_for(workload_name, input_name, scale)
    return workload


def resolve_spec(text):
    """Resolve a canonical ``workload/input[@scale]`` spec string."""
    workload_name, input_name, scale = parse_spec(text)
    return resolve(workload_name, input_name, scale)


def resolve_point(cache_key):
    """Resolve a wire-form ``workload:input:scale`` cache key.

    The inverse of ``workload.cache_key`` — what the sweep executor's
    workers, checkpoint attach, and the service job queue use to rebuild
    a workload from its serialized identity.
    """
    pieces = cache_key.split(":")
    if len(pieces) != 3:
        raise ValueError(
            f"bad cache key {cache_key!r}; expected workload:input:scale"
        )
    workload_name, input_name, scale_text = pieces
    try:
        scale = int(scale_text)
    except ValueError:
        raise ValueError(
            f"bad scale {scale_text!r} in cache key {cache_key!r}"
        ) from None
    return resolve(workload_name, input_name, scale)


def workload_instances(scale=None, workloads=None, include_extensions=False):
    """Yield ``(workload_name, input_name, workload)`` over the suite.

    The paper's nine kernels by default; ``include_extensions=True`` adds
    the extension workloads (their ingested inputs resolve at their own
    fixed scales regardless of ``scale``).
    """
    for name, spec in WORKLOADS.items():
        if spec.extension and not include_extensions:
            continue
        if workloads is not None and name not in workloads:
            continue
        for input_name in spec.inputs:
            point_scale = (
                None if input_fixed_scale(input_name) is not None else scale
            )
            yield name, input_name, resolve(name, input_name, point_scale)


# --------------------------------------------------------------------- #
# Listings
# --------------------------------------------------------------------- #


def describe_workloads():
    """Rows describing every registered workload (``repro workloads``)."""
    rows = []
    for spec in WORKLOADS.values():
        rows.append(
            {
                "workload": spec.name,
                "inputs": list(spec.inputs),
                "kinds": list(spec.kinds),
                "extension": spec.extension,
                "description": spec.description,
                "specs": [
                    format_spec(
                        spec.name,
                        input_name,
                        effective_scale(input_name, None)
                        if input_fixed_scale(input_name) is not None
                        else DEFAULT_SCALE,
                    )
                    for input_name in spec.inputs
                ],
            }
        )
    return rows


def describe_inputs(scale=None, include_datasets=False):
    """Rows describing the input suite (the Table III analog).

    Synthetic graphs and matrices at ``scale``; with
    ``include_datasets=True``, ingested real graphs at their fixed
    natural scales join the table.
    """
    rows = []
    for name in GRAPH_NAMES:
        edges = load_graph(name, scale)
        rows.append(
            {
                "input": name,
                "kind": "graph",
                "vertices": edges.num_vertices,
                "edges": edges.num_edges,
            }
        )
    for name in MATRIX_NAMES:
        matrix = load_matrix(name, scale)
        rows.append(
            {
                "input": name,
                "kind": "matrix",
                "rows": matrix.num_rows,
                "nnz": matrix.nnz,
            }
        )
    if include_datasets:
        for name in DATASET_NAMES:
            edges = load_graph(name)
            rows.append(
                {
                    "input": name,
                    "kind": "graph",
                    "vertices": edges.num_vertices,
                    "edges": edges.num_edges,
                    "scale": input_fixed_scale(name),
                    "dataset": INPUTS[name].dataset,
                }
            )
    return rows
