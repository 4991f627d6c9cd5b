"""The ``repro lint`` rule set: ten repo-specific determinism checkers.

Each rule is a callable ``rule(ctx) -> iterable[Finding]`` over a parsed
:class:`~repro.analysis.core.LintContext`. The first seven are
file-local; the last three run over the project call graph
(:mod:`repro.analysis.callgraph`) and data-flow framework
(:mod:`repro.analysis.dataflow`), so they reason about reachability
across module boundaries. Rules encode the reproduction invariants the
earlier PRs established informally:

``unseeded-random``
    Module-level randomness in simulation packages must flow from an
    explicitly seeded generator.
``digest-purity``
    Runner/machine configuration and env knobs must be digested or
    allowlisted in :mod:`repro.analysis.digest_exempt` with justification.
``knob-registry``
    Every ``REPRO_*`` environment read goes through
    :mod:`repro.harness.knobs` and is documented in EXPERIMENTS.md, and
    every ``REPRO_*`` row of the EXPERIMENTS.md knob table is registered.
``backend-pairing``
    Vector kernels keep their scalar reference path and an equivalence
    test referencing both; compiled-kernel modules (a ``kernels/``
    package, ``@njit``/``@maybe_jit`` functions, or a declared
    ``SCALAR_ORACLE``) name their scalar oracle and are equivalence-
    tested against it.
``nondet``
    Nondeterminism hazards: mutable default arguments, wall-clock reads
    and wall-clock *subtraction* in digest/journal and golden/replay
    modules (durations must come from monotonic clocks), float equality
    on counters, bare set iteration, ``id()``-keyed caches.
``worker-safety``
    Process-pool submissions take module-level, lambda-free functions;
    only documented initializer hooks may touch process-global state.
``workload-registry``
    Workload kernels named in the registry's ``REGISTERED_CLASSES``
    literal are constructed only through
    :mod:`repro.workloads.registry` (outside the workloads package
    itself), and raw dataset files (``.mtx``/``.snap``/``.el``) are read
    only by the digest-pinned ingester in :mod:`repro.graphs.ingest`.
``concurrency-safety``
    Every function is classified by execution context (main, asyncio
    loop, worker thread, executor thread, pool process, signal handler)
    via call-graph reachability; instance state written from one
    concurrent context and touched from another must hold a lock,
    blocking calls (fsync/sleep/subprocess) must not be reachable from
    the event loop, and signal handlers must only set flags.
``digest-flow``
    Interprocedural digest purity: environment/knob values must not
    flow into ``run_digest``/``content_id`` through helper chains —
    digests are pure functions of declared config.
``telemetry-schema``
    Every statically-extractable ``telemetry.emit``/``emit_timed``
    event name and field set is cross-checked against the
    EXPERIMENTS.md event table in both directions (undocumented
    emissions and documented-but-never-emitted rows both flag).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.analysis.core import Finding, LintContext, SourceFile

__all__ = ["Rule", "RULES", "RULE_IDS"]

#: Both function-definition node flavours (rules treat them alike).
FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Simulation subpackages where module-level randomness is forbidden.
RANDOM_CHECKED_PACKAGES = (
    "cache",
    "cpu",
    "core",
    "pb",
    "sparse",
    "dram",
    "noc",
    "des",
    "graphs",
    "workloads",
)

#: Seeded-generator constructors: fine *with* an explicit seed argument.
_SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "random.Random",
}

#: Modules on digest/journal paths where wall-clock reads are hazards.
_CLOCK_SENSITIVE_MODULES = (
    "src/repro/harness/resultcache.py",
    "src/repro/harness/checkpoint.py",
    "src/repro/harness/telemetry.py",
    "src/repro/harness/benchhistory.py",
)

#: Package prefixes with the same clock sensitivity (every module under
#: the golden capture/replay subsystem compares runs across time, so a
#: wall-clock-derived duration there silently corrupts drift verdicts;
#: the sweep service journals job state across restarts, so wall-clock
#: there must stay display-only).
_CLOCK_SENSITIVE_PREFIXES = ("src/repro/golden/", "src/repro/service/")

#: Attribute/subscript names that hold wall-clock stamps; subtracting two
#: of them derives a duration from a steppable clock.
_WALLCLOCK_FIELDS = frozenset({"ts", "recorded", "updated", "created"})

#: Float-valued counter attributes that must never be compared with ==.
_FLOAT_COUNTER_ATTRS = frozenset(
    {
        "cycles",
        "total_cycles",
        "branch_mispredicts",
        "stall_fraction",
        "coherence_cycles",
        "parallel_cycles",
        "single_core_cycles",
    }
)

#: Cross-module vector/scalar engine pairs (module, vector class,
#: scalar module, scalar class).
_BACKEND_PAIRS = (
    ("cache/batchsim.py", "BatchHierarchy", "cache/fastsim.py", "FastHierarchy"),
    ("des/eviction_model.py", "EvictionBufferModel", "des/engine.py", "Simulator"),
)

#: Directory name marking a compiled-kernel package: every module inside
#: one is held to the SCALAR_ORACLE contract even without jit decorators
#: (the C tier, for instance, has no Python-visible kernel functions).
_KERNEL_PACKAGE_DIR = "kernels"

#: Module attribute through which a compiled-kernel module names the
#: scalar engine it is equivalence-tested against.
_ORACLE_MARKER = "SCALAR_ORACLE"

#: Decorators that mark a function as a compiled kernel (alias-resolved;
#: matched on the trailing attribute so package-qualified imports count).
_KERNEL_JIT_DECORATORS = frozenset({"maybe_jit", "njit", "numba.njit"})

#: Initializer hooks documented as the one sanctioned way to reset
#: per-process global state in pool workers.
_RESET_HOOK_SUFFIXES = ("_worker_init",)

#: Package prefix inside which workload classes may be constructed
#: directly (the registry's builders and the kernels themselves).
_WORKLOADS_PACKAGE_PREFIX = "src/repro/workloads/"

#: The one module allowed to open raw dataset files: every read there is
#: sha256-verified against the DATASETS pin table before parsing.
_INGEST_MODULE = "src/repro/graphs/ingest.py"

#: File suffixes of raw graph datasets (Matrix Market, SNAP edge lists).
_DATASET_SUFFIXES = (".mtx", ".snap", ".el")

#: Attribute-call names that read file contents (``Path.read_text`` and
#: friends); paired with a dataset-suffixed literal they bypass the
#: ingester's checksum gate.
_DATASET_READERS = frozenset({"read_text", "read_bytes", "open"})


# ------------------------------------------------------------------ #
# Shared AST helpers
# ------------------------------------------------------------------ #


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _alias_map(tree: ast.Module) -> Dict[str, str]:
    """Import alias -> fully qualified name, for the whole module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def _qualified(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Fully qualified dotted name of a call target, alias-resolved."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    first, _, rest = dotted.partition(".")
    if first in aliases:
        resolved = aliases[first]
        return f"{resolved}.{rest}" if rest else resolved
    return dotted


def _str_arg(
    call: ast.Call, consts: Dict[str, str], index: int = 0
) -> Optional[str]:
    """The call's ``index``-th positional argument as a string, resolving
    module-level string constants."""
    if len(call.args) <= index:
        return None
    arg = call.args[index]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.Name):
        return consts.get(arg.id)
    return None


@dataclass(frozen=True)
class EnvRead:
    """One environment-variable read site found in the tree."""

    source: SourceFile
    line: int
    name: Optional[str]  # resolved variable name, None if dynamic
    via: str  # "os" (raw read) or "knobs" (registry read)


def _env_reads(ctx: LintContext) -> List[EnvRead]:
    """Every ``os.environ``/``os.getenv``/knob-registry read in the tree."""
    reads: List[EnvRead] = []
    for source in ctx.package_files():
        aliases = _alias_map(source.tree)
        consts = source.string_constants()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                target = _qualified(node.func, aliases)
                if target in ("os.environ.get", "os.getenv"):
                    reads.append(
                        EnvRead(
                            source,
                            node.lineno,
                            _str_arg(node, consts),
                            "os",
                        )
                    )
                elif target is not None and (
                    target.endswith("knobs.read") or target.endswith("knobs.get")
                ):
                    reads.append(
                        EnvRead(
                            source,
                            node.lineno,
                            _str_arg(node, consts),
                            "knobs",
                        )
                    )
            elif isinstance(node, ast.Subscript):
                if _qualified(node.value, aliases) == "os.environ":
                    name = None
                    if isinstance(node.slice, ast.Constant) and isinstance(
                        node.slice.value, str
                    ):
                        name = node.slice.value
                    elif isinstance(node.slice, ast.Name):
                        name = consts.get(node.slice.id)
                    reads.append(EnvRead(source, node.lineno, name, "os"))
    return reads


def _registered_knobs(ctx: LintContext) -> Dict[str, int]:
    """Knob names declared in the tree's ``harness/knobs.py`` -> line."""
    source = ctx.module("harness/knobs.py")
    if source is None:
        return {}
    names: Dict[str, int] = {}
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted(node.func)
        if callee is None or callee.split(".")[-1] not in ("Knob", "_knob"):
            continue
        name: Optional[str] = None
        first = node.args[0] if node.args else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = first.value
        for keyword in node.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                if isinstance(keyword.value.value, str):
                    name = keyword.value.value
        if name is not None:
            names[name] = node.lineno
    return names


def _class_methods(klass: ast.ClassDef) -> Dict[str, FuncDef]:
    return {
        stmt.name: stmt
        for stmt in klass.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _init_params(klass: ast.ClassDef) -> Tuple[List[str], int]:
    """``__init__`` parameter names (minus self) and its line number."""
    init = _class_methods(klass).get("__init__")
    if init is None:
        return [], klass.lineno
    args = init.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [name for name in names if name != "self"], init.lineno


# ------------------------------------------------------------------ #
# Rule 1: unseeded-random
# ------------------------------------------------------------------ #


def check_unseeded_random(ctx: LintContext) -> Iterator[Finding]:
    hint = (
        "thread an explicitly seeded generator through the call site "
        "(np.random.default_rng(seed) / random.Random(seed)); "
        "module-level randomness breaks bit-identical reproduction"
    )
    for source in ctx.package_files(RANDOM_CHECKED_PACKAGES):
        aliases = _alias_map(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _qualified(node.func, aliases)
            if target is None:
                continue
            stdlib_random = target.startswith("random.")
            numpy_random = target.startswith("numpy.random.")
            if not (stdlib_random or numpy_random):
                continue
            if target in _SEEDED_CONSTRUCTORS:
                if node.args or any(k.arg == "seed" for k in node.keywords):
                    continue
                yield Finding(
                    rule="unseeded-random",
                    path=source.rel,
                    line=node.lineno,
                    message=f"{target}() constructed without an explicit seed",
                    hint=hint,
                )
                continue
            yield Finding(
                rule="unseeded-random",
                path=source.rel,
                line=node.lineno,
                message=(
                    f"call to {target} uses module-level random state"
                ),
                hint=hint,
            )


# ------------------------------------------------------------------ #
# Rule 2: digest-purity
# ------------------------------------------------------------------ #


def _digest_exempt_entries(
    ctx: LintContext,
) -> Tuple[Dict[str, Tuple[int, str]], List[Finding]]:
    """Parse the tree's allowlist: key -> (line, justification)."""
    source = ctx.module("analysis/digest_exempt.py")
    if source is None:
        return {}, []
    entries: Dict[str, Tuple[int, str]] = {}
    findings: List[Finding] = []
    for node in source.tree.body:
        if not (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "DIGEST_EXEMPT"
                for t in node.targets
            )
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            findings.append(
                Finding(
                    rule="digest-purity",
                    path=source.rel,
                    line=node.lineno,
                    message="DIGEST_EXEMPT must be a literal dict "
                    "(the analyzer parses it statically)",
                )
            )
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                findings.append(
                    Finding(
                        rule="digest-purity",
                        path=source.rel,
                        line=(key or node).lineno,
                        message="DIGEST_EXEMPT entries must be literal "
                        "string -> string pairs",
                    )
                )
                continue
            entries[key.value] = (key.lineno, value.value)
            if not value.value.strip():
                findings.append(
                    Finding(
                        rule="digest-purity",
                        path=source.rel,
                        line=key.lineno,
                        message=(
                            f"allowlist entry {key.value!r} has an empty "
                            "justification"
                        ),
                        hint="say why the state cannot change counters "
                        "(cite the equivalence test)",
                    )
                )
    return entries, findings


def _digest_keys(runner_class: ast.ClassDef) -> set:
    """String keys of the dict ``_digest_params`` returns."""
    keys = set()
    method = _class_methods(runner_class).get("_digest_params")
    if method is None:
        return keys
    for node in ast.walk(method):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
    return keys


def check_digest_purity(ctx: LintContext) -> Iterator[Finding]:
    exempt, parse_findings = _digest_exempt_entries(ctx)
    yield from parse_findings

    runner_params: List[str] = []
    runner_src = ctx.module("harness/runner.py")
    if runner_src is not None:
        for node in runner_src.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Runner":
                params, line = _init_params(node)
                runner_params = params
                digested = _digest_keys(node) | {"machine"}
                for param in params:
                    if param in digested:
                        continue
                    if f"Runner.{param}" in exempt:
                        continue
                    yield Finding(
                        rule="digest-purity",
                        path=runner_src.rel,
                        line=line,
                        message=(
                            f"Runner parameter {param!r} is neither part of "
                            "the run_digest serialization nor allowlisted "
                            "in analysis/digest_exempt.py"
                        ),
                        hint="add it to _digest_params() if it can change "
                        "counters, or register it with a justification",
                    )

    machine_src = ctx.module("harness/machine.py")
    if machine_src is not None:
        for node in machine_src.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "MachineConfig":
                decorated = any(
                    (_dotted(d) or _dotted(getattr(d, "func", ast.Pass())))
                    in ("dataclass", "dataclasses.dataclass")
                    for d in node.decorator_list
                )
                if not decorated:
                    yield Finding(
                        rule="digest-purity",
                        path=machine_src.rel,
                        line=node.lineno,
                        message=(
                            "MachineConfig is not a dataclass: run_digest "
                            "serializes the machine with dataclasses.asdict, "
                            "so ad-hoc attributes would silently escape the "
                            "digest"
                        ),
                    )

    registry = _registered_knobs(ctx)
    seen_knobs = set()
    for read in _env_reads(ctx):
        name = read.name
        if name is None or not name.startswith("REPRO_"):
            continue
        seen_knobs.add(name)
        if read.source.rel == "src/repro/harness/knobs.py":
            continue
        if name not in exempt:
            yield Finding(
                rule="digest-purity",
                path=read.source.rel,
                line=read.line,
                message=(
                    f"environment knob {name!r} is read but not "
                    "digest-allowlisted in analysis/digest_exempt.py"
                ),
                hint="knobs must provably not change counters; register "
                "the knob with a justification citing its equivalence test",
            )

    exempt_src = ctx.module("analysis/digest_exempt.py")
    if exempt_src is None:
        return
    for key, (line, _justification) in exempt.items():
        if key.startswith("Runner."):
            if runner_src is not None and key[len("Runner."):] not in runner_params:
                yield Finding(
                    rule="digest-purity",
                    path=exempt_src.rel,
                    line=line,
                    message=f"stale allowlist entry {key!r}: no such "
                    "Runner parameter",
                )
        elif key.startswith("REPRO_"):
            if key not in seen_knobs and key not in registry:
                yield Finding(
                    rule="digest-purity",
                    path=exempt_src.rel,
                    line=line,
                    message=f"stale allowlist entry {key!r}: the knob is "
                    "neither read nor registered anywhere",
                )
        else:
            yield Finding(
                rule="digest-purity",
                path=exempt_src.rel,
                line=line,
                message=(
                    f"allowlist key {key!r} is neither 'Runner.<param>' "
                    "nor a 'REPRO_*' knob name"
                ),
            )


# ------------------------------------------------------------------ #
# Rule 3: knob-registry
# ------------------------------------------------------------------ #

_BACKTICKED = re.compile(r"`([^`]+)`")

#: Header of the EXPERIMENTS.md environment-knob table.
_KNOB_TABLE_HEADER = re.compile(
    r"\|\s*variable\s*\|\s*default\s*\|.*\|", re.IGNORECASE
)


def _markdown_table(
    ctx: LintContext, header: "re.Pattern[str]"
) -> Iterator[Tuple[int, List[str]]]:
    """``(lineno, cells)`` for each body row of the first EXPERIMENTS.md
    table whose header row fully matches ``header``."""
    in_table = False
    for lineno, line in enumerate(
        ctx.experiments_text.splitlines(), start=1
    ):
        stripped = line.strip()
        if not in_table:
            in_table = header.fullmatch(stripped) is not None
            continue
        if not stripped.startswith("|"):
            return
        if set(stripped) <= set("|-: "):
            continue  # the header separator row
        yield lineno, [cell.strip() for cell in stripped.strip("|").split("|")]


def check_knob_registry(ctx: LintContext) -> Iterator[Finding]:
    registry = _registered_knobs(ctx)
    documented = ctx.experiments_text
    for read in _env_reads(ctx):
        name = read.name
        if name is None or not name.startswith("REPRO_"):
            continue
        if read.source.rel == "src/repro/harness/knobs.py":
            continue
        if read.via == "os":
            yield Finding(
                rule="knob-registry",
                path=read.source.rel,
                line=read.line,
                message=(
                    f"raw environment read of {name!r} outside the knob "
                    "registry"
                ),
                hint="read it through repro.harness.knobs.read(...) so the "
                "registry stays the single source of truth",
            )
        if name not in registry:
            yield Finding(
                rule="knob-registry",
                path=read.source.rel,
                line=read.line,
                message=(
                    f"environment knob {name!r} is not registered in "
                    "harness/knobs.py"
                ),
                hint="declare it in the KNOBS registry with a default and "
                "a one-line contract",
            )
        elif name not in documented:
            yield Finding(
                rule="knob-registry",
                path=read.source.rel,
                line=read.line,
                message=(
                    f"environment knob {name!r} is not documented in "
                    "EXPERIMENTS.md"
                ),
                hint="add it to the environment-knob table",
            )
    knobs_src = ctx.module("harness/knobs.py")
    if knobs_src is None:
        return
    for name, line in registry.items():
        if name not in documented:
            yield Finding(
                rule="knob-registry",
                path=knobs_src.rel,
                line=line,
                message=(
                    f"registered knob {name!r} is not documented in "
                    "EXPERIMENTS.md"
                ),
                hint="add it to the environment-knob table",
            )
    for lineno, cells in _markdown_table(ctx, _KNOB_TABLE_HEADER):
        for name in _BACKTICKED.findall(cells[0]):
            if name.startswith("REPRO_") and name not in registry:
                yield Finding(
                    rule="knob-registry",
                    path="EXPERIMENTS.md",
                    line=lineno,
                    message=(
                        f"documented knob {name!r} is not registered in "
                        "harness/knobs.py"
                    ),
                    hint="remove the stale row, or register the knob it "
                    "documents",
                )


# ------------------------------------------------------------------ #
# Rule 4: backend-pairing
# ------------------------------------------------------------------ #


def _compiled_kernel_line(source: SourceFile) -> Optional[int]:
    """Line of the first compiled-kernel marker in ``source``, else None.

    A module is a compiled-kernel module when it defines a function
    decorated with a jit decorator (``maybe_jit``/``njit``), or when it
    lives inside a ``kernels/`` package directory.
    """
    aliases = _alias_map(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _qualified(target, aliases) or _dotted(target)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            if name in _KERNEL_JIT_DECORATORS or tail in _KERNEL_JIT_DECORATORS:
                return node.lineno
    if _KERNEL_PACKAGE_DIR in source.rel.split("/")[:-1]:
        return 1
    return None


def _module_str_constant(
    tree: ast.Module, name: str
) -> Tuple[Optional[str], Optional[int]]:
    """``(value, lineno)`` of a module-level string assignment, else Nones."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
            value = node.value
        else:
            continue
        if name in targets and isinstance(value, ast.Constant) and isinstance(
            value.value, str
        ):
            return value.value, node.lineno
    return None, None


def check_backend_pairing(ctx: LintContext) -> Iterator[Finding]:
    for source in ctx.package_files():
        for node in source.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _class_methods(node)
            if "simulate_array" not in methods:
                continue
            vector = methods["simulate_array"]
            if "simulate" not in methods:
                yield Finding(
                    rule="backend-pairing",
                    path=source.rel,
                    line=vector.lineno,
                    message=(
                        f"{node.name}.simulate_array has no scalar "
                        "reference path ({0}.simulate)".format(node.name)
                    ),
                    hint="keep the scalar loop as the oracle; digest "
                    "purity rests on the engines being interchangeable",
                )
                continue
            tests = [
                rel
                for rel in ctx.tests_mentioning(node.name, "simulate_array")
                if ".simulate(" in ctx.test_texts[rel]
            ]
            if not tests:
                yield Finding(
                    rule="backend-pairing",
                    path=source.rel,
                    line=vector.lineno,
                    message=(
                        f"no test under tests/ exercises both "
                        f"{node.name}.simulate_array and {node.name}"
                        ".simulate (equivalence is unasserted)"
                    ),
                    hint="add an equivalence test that replays one stream "
                    "through both paths and asserts identical output",
                )
    for module_rel, vector_cls, scalar_rel, scalar_cls in _BACKEND_PAIRS:
        source = ctx.module(module_rel)
        if source is None:
            continue
        class_names = {
            node.name
            for node in source.tree.body
            if isinstance(node, ast.ClassDef)
        }
        if vector_cls not in class_names:
            continue
        line = next(
            node.lineno
            for node in source.tree.body
            if isinstance(node, ast.ClassDef) and node.name == vector_cls
        )
        scalar_src = ctx.module(scalar_rel)
        scalar_names = (
            {
                node.name
                for node in scalar_src.tree.body
                if isinstance(node, ast.ClassDef)
            }
            if scalar_src is not None
            else set()
        )
        if scalar_cls not in scalar_names:
            yield Finding(
                rule="backend-pairing",
                path=source.rel,
                line=line,
                message=(
                    f"vector backend {vector_cls} lost its scalar "
                    f"reference engine {scalar_cls} ({scalar_rel})"
                ),
            )
            continue
        if not ctx.tests_mentioning(vector_cls, scalar_cls):
            yield Finding(
                rule="backend-pairing",
                path=source.rel,
                line=line,
                message=(
                    f"no test under tests/ references both {vector_cls} "
                    f"and {scalar_cls} (engine equivalence is unasserted)"
                ),
                hint="add an equivalence test replaying one trace through "
                "both engines and asserting identical counters",
            )
    for source in ctx.package_files():
        if source.rel.endswith("/__init__.py"):
            continue
        kernel_line = _compiled_kernel_line(source)
        oracle, oracle_line = _module_str_constant(source.tree, _ORACLE_MARKER)
        if kernel_line is None and oracle is None:
            continue
        if oracle is None:
            yield Finding(
                rule="backend-pairing",
                path=source.rel,
                line=kernel_line,
                message=(
                    f"compiled-kernel module {source.rel} names no "
                    f"scalar oracle ({_ORACLE_MARKER} is missing)"
                ),
                hint=(
                    f'declare {_ORACLE_MARKER} = "<ScalarEngine>" naming '
                    "the scalar engine these kernels are equivalence-"
                    "tested against"
                ),
            )
            continue
        stem = source.rel.rsplit("/", 1)[-1][: -len(".py")]
        anchors = [stem]
        if _KERNEL_PACKAGE_DIR in source.rel.split("/")[:-1]:
            anchors.append(_KERNEL_PACKAGE_DIR)
        if not any(ctx.tests_mentioning(oracle, a) for a in anchors):
            yield Finding(
                rule="backend-pairing",
                path=source.rel,
                line=oracle_line or kernel_line or 1,
                message=(
                    f"no test under tests/ references both the compiled-"
                    f"kernel module {stem!r} (or its kernels package) and "
                    f"its scalar oracle {oracle} (equivalence is "
                    "unasserted)"
                ),
                hint="add an equivalence test replaying one stream "
                "through the compiled kernels and the oracle and "
                "asserting identical counters",
            )


# ------------------------------------------------------------------ #
# Rule 5: nondet hazards
# ------------------------------------------------------------------ #


def _mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = _dotted(node.func)
        return callee in ("list", "dict", "set", "bytearray")
    return False


def _wallclock_operand(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Why ``node`` carries a wall-clock value, or None.

    Flags ``time.time()`` calls and reads of stamp-named fields
    (``.ts`` attributes, ``["ts"]`` subscripts, and friends): subtracting
    any of them derives a duration from a clock that steps.
    """
    if isinstance(node, ast.Call) and _qualified(node.func, aliases) == "time.time":
        return "time.time()"
    if isinstance(node, ast.Attribute) and node.attr in _WALLCLOCK_FIELDS:
        return f"a .{node.attr} wall-clock stamp"
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value in _WALLCLOCK_FIELDS
    ):
        return f"a [{node.slice.value!r}] wall-clock stamp"
    return None


def check_nondet(ctx: LintContext) -> Iterator[Finding]:
    for source in ctx.package_files():
        aliases = _alias_map(source.tree)
        clock_sensitive = source.rel in _CLOCK_SENSITIVE_MODULES or source.rel.startswith(
            _CLOCK_SENSITIVE_PREFIXES
        )
        for node in ast.walk(source.tree):
            if clock_sensitive and isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Sub
            ):
                for operand in (node.left, node.right):
                    reason = _wallclock_operand(operand, aliases)
                    if reason is not None:
                        yield Finding(
                            rule="nondet",
                            path=source.rel,
                            line=node.lineno,
                            message=(
                                f"wall-clock subtraction ({reason}) in a "
                                "golden/replay or journal module: wall "
                                "clocks step, so ts-derived durations are "
                                "non-monotonic"
                            ),
                            hint="measure durations with time.perf_counter"
                            " / time.monotonic pairs (emit_timed's "
                            "duration_s); ts stamps are display-only",
                        )
                        break
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _mutable_default(default):
                        yield Finding(
                            rule="nondet",
                            path=source.rel,
                            line=default.lineno,
                            message=(
                                f"mutable default argument in "
                                f"{node.name}() is shared across calls"
                            ),
                            hint="default to None and initialize inside "
                            "the function (or use an immutable tuple/"
                            "frozenset)",
                        )
            elif isinstance(node, ast.Call):
                target = _qualified(node.func, aliases)
                if clock_sensitive and target == "time.time":
                    yield Finding(
                        rule="nondet",
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            "wall-clock time.time() in a digest/journal "
                            "module"
                        ),
                        hint="timestamps must never reach digested "
                        "payloads; if this is observability metadata "
                        "only, suppress with a justification",
                    )
                elif target == "id" and not node.keywords and len(node.args) == 1:
                    yield Finding(
                        rule="nondet",
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            "id() used as identity: CPython reuses "
                            "addresses after collection, so id-keyed "
                            "state can silently alias distinct objects"
                        ),
                        hint="key caches/memos by content (hash the "
                        "bytes) or by a stable identifier",
                    )
            elif isinstance(node, ast.Compare):
                if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                    continue
                for side in [node.left] + list(node.comparators):
                    if (
                        isinstance(side, ast.Attribute)
                        and side.attr in _FLOAT_COUNTER_ATTRS
                    ):
                        yield Finding(
                            rule="nondet",
                            path=source.rel,
                            line=node.lineno,
                            message=(
                                f"float equality on counter attribute "
                                f"'.{side.attr}'"
                            ),
                            hint="compare via math.isclose / a tolerance, "
                            "or compare the exact integer inputs instead",
                        )
                        break
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterator = node.iter
                is_set = isinstance(iterator, ast.Set) or (
                    isinstance(iterator, ast.Call)
                    and _dotted(iterator.func) in ("set", "frozenset")
                )
                if is_set:
                    line = (
                        node.lineno
                        if isinstance(node, ast.For)
                        else iterator.lineno
                    )
                    yield Finding(
                        rule="nondet",
                        path=source.rel,
                        line=line,
                        message=(
                            "iteration over a set feeds order-sensitive "
                            "output"
                        ),
                        hint="wrap in sorted(...) to fix the order",
                    )


# ------------------------------------------------------------------ #
# Rule 6: worker-safety
# ------------------------------------------------------------------ #


def _module_level_callables(source: SourceFile) -> Dict[str, FuncDef]:
    return {
        node.name: node
        for node in source.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def check_worker_safety(ctx: LintContext) -> Iterator[Finding]:
    for source in ctx.package_files():
        if not source.rel.startswith(
            ("src/repro/harness/", "src/repro/service/")
        ):
            continue
        module_defs = _module_level_callables(source)
        aliases = _alias_map(source.tree)
        imported = set(aliases)
        submitted: List[Tuple[ast.AST, int]] = []
        initializers: List[Tuple[ast.AST, int]] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                submitted.append((node.args[0], node.lineno))
            callee = _qualified(node.func, aliases) or ""
            if callee.endswith("ProcessPoolExecutor"):
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        initializers.append((keyword.value, node.lineno))

        def _validate(target: ast.AST, line: int, role: str) -> Iterator[Finding]:
            if isinstance(target, ast.Lambda):
                yield Finding(
                    rule="worker-safety",
                    path=source.rel,
                    line=line,
                    message=f"lambda passed as pool {role}",
                    hint="process pools pickle by qualified name; use a "
                    "module-level function",
                )
                return
            if isinstance(target, ast.Name):
                if target.id in module_defs or target.id in imported:
                    return
                yield Finding(
                    rule="worker-safety",
                    path=source.rel,
                    line=line,
                    message=(
                        f"pool {role} {target.id!r} is not a module-level "
                        "function (nested functions and closures do not "
                        "survive pickling)"
                    ),
                )
                return
            yield Finding(
                rule="worker-safety",
                path=source.rel,
                line=line,
                message=(
                    f"pool {role} is not a plain module-level function "
                    "reference (bound methods capture unpicklable or "
                    "process-local state)"
                ),
            )

        for target, line in submitted:
            yield from _validate(target, line, "worker")
        for target, line in initializers:
            yield from _validate(target, line, "initializer")

        worker_names = {
            target.id
            for target, _ in submitted
            if isinstance(target, ast.Name) and target.id in module_defs
        }
        for name in worker_names:
            func = module_defs[name]
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    yield Finding(
                        rule="worker-safety",
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            f"pool worker {name!r} mutates module-global "
                            "state"
                        ),
                        hint="global telemetry/counters in workers are "
                        "invisible to the parent and unsafe under fork; "
                        "reset per-process state only in a documented "
                        "*_worker_init initializer hook",
                    )


# ------------------------------------------------------------------ #
# Rule 7: workload-registry
# ------------------------------------------------------------------ #


def _registered_workload_classes(ctx: LintContext) -> Dict[str, int]:
    """Class names in the registry's ``REGISTERED_CLASSES`` literal -> line.

    The tuple in ``workloads/registry.py`` is kept a pure literal so this
    parse stays static; a unit test cross-checks it against the live
    registry so the two cannot drift.
    """
    source = ctx.module("workloads/registry.py")
    if source is None:
        return {}
    names: Dict[str, int] = {}
    for node in source.tree.body:
        if not (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "REGISTERED_CLASSES"
                for t in node.targets
            )
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                    elt.value, str
                ):
                    names[elt.value] = elt.lineno
    return names


def _dataset_path_literal(
    call: ast.Call, consts: Dict[str, str]
) -> Optional[str]:
    """A dataset-suffixed string literal anywhere in ``call``, else None.

    Walks the whole call (arguments *and* the receiver chain) so both
    ``open("karate.mtx")`` and ``Path("karate.mtx").read_text()`` match.
    """
    for sub in ast.walk(call):
        value: Optional[str] = None
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            value = sub.value
        elif isinstance(sub, ast.Name):
            value = consts.get(sub.id)
        if value is not None and value.endswith(_DATASET_SUFFIXES):
            return value
    return None


def check_workload_registry(ctx: LintContext) -> Iterator[Finding]:
    registered = _registered_workload_classes(ctx)
    for source in ctx.package_files():
        consts = source.string_constants()
        aliases = _alias_map(source.tree)
        in_workloads = source.rel.startswith(_WORKLOADS_PACKAGE_PREFIX)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if not in_workloads:
                target = _qualified(node.func, aliases)
                tail = target.rsplit(".", 1)[-1] if target else None
                if tail in registered:
                    yield Finding(
                        rule="workload-registry",
                        path=source.rel,
                        line=node.lineno,
                        message=(
                            f"workload class {tail} constructed outside "
                            "the registry; ad-hoc instances carry no "
                            "canonical cache_key, so their results dodge "
                            "the result cache and golden pins"
                        ),
                        hint="resolve the point through "
                        "repro.workloads.registry (resolve / resolve_spec "
                        "/ workload_instances), or register a new "
                        "WorkloadSpec if this is a genuinely new kernel",
                    )
                    continue
            if source.rel == _INGEST_MODULE:
                continue
            reader: Optional[str] = None
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                reader = "open()"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _DATASET_READERS
            ):
                reader = f".{node.func.attr}()"
            if reader is None:
                continue
            path_literal = _dataset_path_literal(node, consts)
            if path_literal is not None:
                yield Finding(
                    rule="workload-registry",
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"raw dataset read of {path_literal!r} via "
                        f"{reader} bypasses the digest-pinned ingester"
                    ),
                    hint="load datasets through repro.graphs.ingest."
                    "load_dataset so the bytes are sha256-verified "
                    "against the DATASETS pin table first",
                )


# ------------------------------------------------------------------ #
# Interprocedural rules (call-graph / data-flow layer)
# ------------------------------------------------------------------ #
#
# The three rules below run on the project call graph built by
# :mod:`repro.analysis.callgraph` (one lazy build per lint context,
# shared), so they see *reachability*, not just file-local syntax: which
# execution context a function runs in, which helper chains an env value
# flows through, which telemetry events a call tree can emit.

#: Context labels that share the process address space concurrently.
#: Pool workers run in their own process and "main" is where everything
#: else is sequenced from, so neither joins a shared-state conflict.
_CONCURRENT_CONTEXTS = frozenset({"async", "thread", "executor", "signal"})

#: Methods that run before the instance is published to another context
#: (or during pickling, when no other context holds a reference), so
#: their unguarded writes are construction, not races.
_CONSTRUCTION_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__post_init__",
        "__setstate__",
        "__getstate__",
        "__reduce__",
    }
)

#: Fully-qualified callables that block the calling thread long enough
#: to stall an event loop or wedge a signal handler. ``os.write`` is
#: deliberately absent: single buffered-line writes to journal fds are
#: sub-millisecond, while fsync waits on the disk.
_BLOCKING_EXACT = frozenset(
    {"time.sleep", "os.fsync", "os.fdatasync", "select.select"}
)
_BLOCKING_PREFIXES = ("subprocess.",)


def _blocking_callable(raw: str) -> Optional[str]:
    if raw in _BLOCKING_EXACT:
        return raw
    for prefix in _BLOCKING_PREFIXES:
        if raw.startswith(prefix):
            return raw
    return None


def _short(qname: str) -> str:
    """Drop the ``repro.`` prefix for readable call chains."""
    return qname[len("repro."):] if qname.startswith("repro.") else qname


def _shared_state_findings(ctx: LintContext, graph) -> Iterator[Finding]:
    """Instance attributes written from one concurrent context and
    touched from another without a consistent lock."""
    # A class participates when a spawn target is one of its methods,
    # when it declares its own lock attributes, or when a participating
    # class holds an instance of it in an attribute (closure below).
    shared = {
        fn.cls
        for spawn in graph.spawns
        if spawn.target is not None
        and (fn := graph.functions.get(spawn.target)) is not None
        and fn.cls is not None
    }
    shared |= {
        info.qname for info in graph.classes.values() if info.lock_attrs
    }
    changed = True
    while changed:
        changed = False
        for info in graph.classes.values():
            if info.qname not in shared:
                continue
            for typ in info.attr_types.values():
                if typ in graph.classes and typ not in shared:
                    shared.add(typ)
                    changed = True

    for class_qname in sorted(shared):
        info = graph.classes.get(class_qname)
        if info is None:
            continue
        # attr -> (contexts, has_write, first unguarded access)
        table: Dict[str, list] = {}
        for method_qname in info.methods.values():
            fn = graph.functions.get(method_qname)
            if fn is None or fn.name in _CONSTRUCTION_METHODS:
                continue
            contexts = graph.context_of(method_qname) & _CONCURRENT_CONTEXTS
            locked_caller = method_qname in graph.always_locked
            for access in fn.self_accesses:
                if access.attr in info.lock_attrs:
                    continue
                entry = table.setdefault(access.attr, [set(), False, None])
                entry[0] |= contexts
                if access.kind == "write":
                    entry[1] = True
                if not access.guarded and not locked_caller:
                    if entry[2] is None or access.line < entry[2][1]:
                        entry[2] = (fn.source.rel, access.line)
        for attr in sorted(table):
            contexts, has_write, unguarded = table[attr]
            if len(contexts) < 2 or not has_write or unguarded is None:
                continue
            path, line = unguarded
            yield Finding(
                rule="concurrency-safety",
                path=path,
                line=line,
                message=(
                    f"{info.name}.{attr} is written in one of the "
                    f"{'+'.join(sorted(contexts))} contexts and accessed "
                    "from another without a consistent lock"
                ),
                hint="guard every access with the owning lock (or a "
                "locked accessor); display-only state can be suppressed "
                "with '# repro: noqa[concurrency-safety]'",
            )


def _blocking_async_findings(ctx: LintContext, graph) -> Iterator[Finding]:
    """Blocking calls whose enclosing function runs on the event loop."""
    for site in graph.calls:
        blocking = _blocking_callable(site.raw)
        if blocking is None:
            continue
        caller = graph.functions.get(site.caller)
        if caller is None:
            continue
        if "async" not in graph.context_of(site.caller):
            continue
        roots = graph.async_roots_reaching(site.caller)
        chain = ""
        if roots:
            path = graph.call_path(roots[0], site.caller)
            if path:
                chain = " via " + " -> ".join(_short(q) for q in path)
        yield Finding(
            rule="concurrency-safety",
            path=site.path,
            line=site.line,
            message=(
                f"blocking call {blocking} is reachable on the asyncio "
                f"event loop{chain}"
            ),
            hint="hand the blocking work to a thread with "
            "loop.run_in_executor(...) / asyncio.to_thread(...), or cut "
            "the call edge from the coroutine",
        )


def _signal_reentrancy_findings(ctx: LintContext, graph) -> Iterator[Finding]:
    """Non-reentrant work (locks, blocking IO) inside signal handlers.

    A signal handler interrupts the main thread at an arbitrary bytecode
    boundary: taking a non-reentrant lock there deadlocks if the
    interrupted frame holds it, and blocking IO stretches the window in
    which a second signal kills the process.
    """
    for qname, fn in sorted(graph.functions.items()):
        if "signal" not in graph.context_of(qname):
            continue
        if fn.acquires_lock:
            yield Finding(
                rule="concurrency-safety",
                path=fn.source.rel,
                line=fn.node.lineno,
                message=(
                    f"{_short(qname)} acquires a lock but is reachable "
                    "from a signal handler"
                ),
                hint="signal handlers must only set flags; move the "
                "locked work to the interrupted loop's next iteration",
            )
        for site in graph.calls_by_caller.get(qname, ()):
            blocking = _blocking_callable(site.raw)
            tail = site.raw.rsplit(".", maxsplit=1)[-1]
            if blocking is None and tail != "acquire":
                continue
            what = blocking or site.raw
            yield Finding(
                rule="concurrency-safety",
                path=site.path,
                line=site.line,
                message=(
                    f"non-reentrant call {what} in {_short(qname)} is "
                    "reachable from a signal handler"
                ),
                hint="signal handlers must only set flags; defer the "
                "work to the interrupted loop",
            )


def check_concurrency_safety(ctx: LintContext) -> Iterator[Finding]:
    graph = ctx.callgraph()
    yield from _shared_state_findings(ctx, graph)
    yield from _blocking_async_findings(ctx, graph)
    yield from _signal_reentrancy_findings(ctx, graph)


# ------------------------------------------------------------------ #
# Rule 9: digest-flow (interprocedural digest purity)
# ------------------------------------------------------------------ #

#: Call tails that name a digest sink anywhere in the tree.
_DIGEST_SINKS = ("run_digest", "content_id")


def _digest_sink_label(qname: Optional[str], raw: str) -> Optional[str]:
    for name in _DIGEST_SINKS:
        if qname is not None and qname.rsplit(".", 1)[-1] == name:
            return name
        if raw == name or raw.endswith("." + name):
            return name
    return None


def _env_arg_label(fn, call: ast.Call) -> str:
    """``env:<NAME>`` for the first argument of an env/knob read."""
    if call.args:
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return f"env:{arg.value}"
        if isinstance(arg, ast.Name):
            consts = fn.source.string_constants()
            if arg.id in consts:
                return f"env:{consts[arg.id]}"
    return "env:?"


def _digest_source_of_call(fn, call: ast.Call, raw: str) -> Optional[str]:
    if raw == "os.getenv" or raw.endswith(".environ.get"):
        return _env_arg_label(fn, call)
    if raw in ("knobs.read", "knobs.get") or raw.endswith(
        (".knobs.read", ".knobs.get")
    ):
        return _env_arg_label(fn, call)
    return None


def _digest_source_of_subscript(fn, sub: ast.Subscript, raw: str) -> Optional[str]:
    if raw == "os.environ" or raw.endswith(".environ"):
        key = sub.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            return f"env:{key.value}"
        return "env:?"
    return None


def check_digest_flow(ctx: LintContext) -> Iterator[Finding]:
    from repro.analysis.dataflow import TaintAnalysis, TaintSpec

    exempt, _parse_findings = _digest_exempt_entries(ctx)
    spec = TaintSpec(
        name="digest-flow",
        source_of_call=_digest_source_of_call,
        source_of_subscript=_digest_source_of_subscript,
        sink_label=_digest_sink_label,
    )
    graph = ctx.callgraph()
    for hit in TaintAnalysis(graph, spec).run():
        sources = ", ".join(hit.sources)
        chain = (
            " via " + " -> ".join(_short(q) for q in hit.via)
            if hit.via
            else ""
        )
        exempted = sorted(
            s[len("env:"):]
            for s in hit.sources
            if s.startswith("env:") and s[len("env:"):] in exempt
        )
        contradiction = (
            f"; {', '.join(exempted)} is digest-allowlisted as unable to "
            "affect digests" if exempted else ""
        )
        yield Finding(
            rule="digest-flow",
            path=hit.path,
            line=hit.line,
            message=(
                f"environment input ({sources}) flows into {hit.sink} in "
                f"{_short(hit.function)}{chain}{contradiction}"
            ),
            hint="digests must be pure functions of declared config "
            "(machine, _digest_params, cache_key, mode); break the flow "
            "or justify with '# repro: noqa[digest-flow]'",
        )


# ------------------------------------------------------------------ #
# Rule 10: telemetry-schema
# ------------------------------------------------------------------ #

#: Method names that emit a telemetry event.
_EMIT_METHODS = ("emit", "emit_timed")

#: Fields every ``emit_timed`` event carries implicitly (the monotonic
#: duration and its legacy alias), documented once in the prose above
#: the EXPERIMENTS.md table rather than per row.
_IMPLICIT_TIMED_FIELDS = frozenset({"duration_s", "seconds"})

_EVENT_TABLE_HEADER = re.compile(r"\|\s*event\s*\|\s*fields\s*\|")


def _telemetry_table(ctx: LintContext):
    """Rows of the EXPERIMENTS.md event-schema table.

    Returns ``[(lineno, [event, ...], {field token, ...}), ...]`` — the
    second cell's backticked tokens include enum *values* as well as
    field names, which is fine: the checker only requires emitted fields
    to appear among them (a superset check), so extra tokens never flag.
    """
    rows = []
    for lineno, cells in _markdown_table(ctx, _EVENT_TABLE_HEADER):
        if len(cells) < 2:
            continue
        events = _BACKTICKED.findall(cells[0])
        fields = set(_BACKTICKED.findall(cells[1]))
        if events:
            rows.append((lineno, events, fields))
    return rows


def _emit_sites(ctx: LintContext):
    """Every static telemetry emission in the package.

    Yields ``(source, node, method, name, prefix, fields)`` where
    exactly one of ``name`` (a literal event name) and ``prefix`` (the
    literal head of a concatenated/f-string name) is set; fully dynamic
    names yield neither and are skipped by the caller.
    """
    for source in ctx.package_files():
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _EMIT_METHODS:
                continue
            receiver = _dotted(func.value)
            if receiver is None:
                continue
            if receiver.rsplit(".", maxsplit=1)[-1] != "telemetry":
                continue
            if not node.args:
                continue
            event = node.args[0]
            name: Optional[str] = None
            prefix: Optional[str] = None
            if isinstance(event, ast.Constant) and isinstance(
                event.value, str
            ):
                name = event.value
            elif (
                isinstance(event, ast.BinOp)
                and isinstance(event.op, ast.Add)
                and isinstance(event.left, ast.Constant)
                and isinstance(event.left.value, str)
            ):
                prefix = event.left.value
            elif (
                isinstance(event, ast.JoinedStr)
                and event.values
                and isinstance(event.values[0], ast.Constant)
                and isinstance(event.values[0].value, str)
            ):
                prefix = event.values[0].value
            fields = {kw.arg for kw in node.keywords if kw.arg is not None}
            yield source, node, func.attr, name, prefix, fields


def check_telemetry_schema(ctx: LintContext) -> Iterator[Finding]:
    rows = _telemetry_table(ctx)
    if not rows:
        return  # no event table to check against (e.g. fixture trees)
    documented: Dict[str, set] = {}
    for _lineno, events, fields in rows:
        for event in events:
            documented.setdefault(event, set()).update(fields)

    emitted_names: set = set()
    emitted_prefixes: set = set()
    for source, node, method, name, prefix, fields in _emit_sites(ctx):
        if method == "emit_timed":
            fields = fields - _IMPLICIT_TIMED_FIELDS
        if name is not None:
            emitted_names.add(name)
            if name not in documented:
                yield Finding(
                    rule="telemetry-schema",
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"telemetry event {name!r} is not documented in "
                        "the EXPERIMENTS.md event table"
                    ),
                    hint="add a `| event | fields |` row (the table is "
                    "machine-checked against the emitting code)",
                )
                continue
            for field_name in sorted(
                fields - documented[name] - _IMPLICIT_TIMED_FIELDS
            ):
                yield Finding(
                    rule="telemetry-schema",
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"field {field_name!r} of telemetry event "
                        f"{name!r} is missing from its EXPERIMENTS.md row"
                    ),
                    hint="document the field (or drop it from the "
                    "emission)",
                )
        elif prefix is not None:
            emitted_prefixes.add(prefix)
            if not any(event.startswith(prefix) for event in documented):
                yield Finding(
                    rule="telemetry-schema",
                    path=source.rel,
                    line=node.lineno,
                    message=(
                        f"telemetry events {prefix!r}* are not documented "
                        "in the EXPERIMENTS.md event table"
                    ),
                    hint="add rows for every concrete event name this "
                    "site can emit",
                )

    for lineno, events, _fields in rows:
        for event in events:
            if event in emitted_names:
                continue
            if any(event.startswith(p) for p in emitted_prefixes):
                continue
            yield Finding(
                rule="telemetry-schema",
                path="EXPERIMENTS.md",
                line=lineno,
                message=(
                    f"documented telemetry event {event!r} is never "
                    "emitted by the package"
                ),
                hint="remove the stale row, or restore the emission it "
                "documents",
            )


# ------------------------------------------------------------------ #
# Registry
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Rule:
    """One registered checker."""

    id: str
    summary: str
    check: Callable[[LintContext], Iterable[Finding]]


RULES: Tuple[Rule, ...] = (
    Rule(
        "unseeded-random",
        "randomness in simulation packages must flow from explicit seeds",
        check_unseeded_random,
    ),
    Rule(
        "digest-purity",
        "runner/machine config and env knobs are digested or allowlisted",
        check_digest_purity,
    ),
    Rule(
        "knob-registry",
        "REPRO_* reads go through harness/knobs.py and EXPERIMENTS.md",
        check_knob_registry,
    ),
    Rule(
        "backend-pairing",
        "vector kernels keep a scalar oracle and an equivalence test",
        check_backend_pairing,
    ),
    Rule(
        "nondet",
        "nondeterminism hazards (mutable defaults, clocks, wall-clock "
        "subtraction, float ==, set order, id() keys)",
        check_nondet,
    ),
    Rule(
        "worker-safety",
        "pool workers are module-level, lambda-free, and global-clean",
        check_worker_safety,
    ),
    Rule(
        "workload-registry",
        "workload kernels resolve through the registry; raw dataset "
        "reads go through the digest-pinned ingester",
        check_workload_registry,
    ),
    Rule(
        "concurrency-safety",
        "call-graph contexts: no unlocked cross-context state, no "
        "blocking calls on the event loop, flag-only signal handlers",
        check_concurrency_safety,
    ),
    Rule(
        "digest-flow",
        "env/knob values must not flow into run_digest/content_id, "
        "even through helper chains",
        check_digest_flow,
    ),
    Rule(
        "telemetry-schema",
        "emitted telemetry events/fields match the EXPERIMENTS.md "
        "event table in both directions",
        check_telemetry_schema,
    ),
)

RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in RULES)
