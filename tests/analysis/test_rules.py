"""Per-rule fixture tests: each rule fires on a seeded violation, stays
quiet when the violation is suppressed (``# repro: noqa[rule]``) or
allowlisted, and stays quiet on compliant code."""

from tests.analysis.conftest import lint_findings


class TestUnseededRandom:
    def test_unseeded_default_rng_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cpu/jitter.py": """\
                    import numpy as np

                    def jitter():
                        return np.random.default_rng().random()
                    """
            }
        )
        findings = lint_findings(root, "unseeded-random")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/cpu/jitter.py"
        assert "default_rng" in findings[0].message
        assert findings[0].hint  # every finding ships a fix hint

    def test_module_level_random_state_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/pb/shuffle.py": """\
                    import random

                    def pick(items):
                        return random.choice(items)
                    """
            }
        )
        findings = lint_findings(root, "unseeded-random")
        assert len(findings) == 1
        assert "module-level random state" in findings[0].message

    def test_seeded_constructors_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/graphs/gen.py": """\
                    import random

                    import numpy as np

                    def generators(seed):
                        return np.random.default_rng(seed), random.Random(seed)
                    """
            }
        )
        assert lint_findings(root, "unseeded-random") == []

    def test_outside_checked_packages_ignored(self, mini_tree):
        # The harness may use wall-clock randomness (e.g. retry jitter);
        # the rule only polices the simulation subpackages.
        root = mini_tree(
            {
                "src/repro/harness/retry.py": """\
                    import random

                    def backoff():
                        return random.random()
                    """
            }
        )
        assert lint_findings(root, "unseeded-random") == []

    def test_suppressed_with_noqa(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cpu/jitter.py": """\
                    import numpy as np

                    def jitter():
                        return np.random.default_rng().random()  # repro: noqa[unseeded-random] fixture
                    """
            }
        )
        assert lint_findings(root, "unseeded-random") == []


RUNNER_WITH_UNDIGESTED_PARAM = """\
    class Runner:
        def __init__(self, machine=None, max_sim_events=0, engine=None):
            self.machine = machine
            self.max_sim_events = max_sim_events
            self.engine = engine

        def _digest_params(self):
            return {"max_sim_events": self.max_sim_events}
    """


class TestDigestPurity:
    def test_undigested_runner_param_flagged(self, mini_tree):
        root = mini_tree(
            {"src/repro/harness/runner.py": RUNNER_WITH_UNDIGESTED_PARAM}
        )
        findings = lint_findings(root, "digest-purity")
        assert len(findings) == 1
        assert "'engine'" in findings[0].message
        assert "digest_exempt" in findings[0].message

    def test_allowlisted_runner_param_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/runner.py": RUNNER_WITH_UNDIGESTED_PARAM,
                "src/repro/analysis/digest_exempt.py": """\
                    DIGEST_EXEMPT = {
                        "Runner.engine": "engines are equivalence-tested",
                    }
                    """,
            }
        )
        assert lint_findings(root, "digest-purity") == []

    def test_empty_justification_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/runner.py": RUNNER_WITH_UNDIGESTED_PARAM,
                "src/repro/analysis/digest_exempt.py": """\
                    DIGEST_EXEMPT = {
                        "Runner.engine": "",
                    }
                    """,
            }
        )
        findings = lint_findings(root, "digest-purity")
        assert any("empty" in f.message for f in findings)

    def test_stale_allowlist_entry_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/runner.py": RUNNER_WITH_UNDIGESTED_PARAM,
                "src/repro/analysis/digest_exempt.py": """\
                    DIGEST_EXEMPT = {
                        "Runner.engine": "engines are equivalence-tested",
                        "Runner.ghost": "removed two PRs ago",
                    }
                    """,
            }
        )
        findings = lint_findings(root, "digest-purity")
        assert len(findings) == 1
        assert "stale" in findings[0].message
        assert "Runner.ghost" in findings[0].message

    def test_non_literal_allowlist_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/analysis/digest_exempt.py": """\
                    DIGEST_EXEMPT = dict(x="built dynamically")
                    """
            }
        )
        findings = lint_findings(root, "digest-purity")
        assert any("literal dict" in f.message for f in findings)

    def test_unallowlisted_env_knob_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/cachecfg.py": """\
                    import os

                    def cache_dir():
                        return os.environ.get("REPRO_FIXTURE_DIR")
                    """
            }
        )
        findings = lint_findings(root, "digest-purity")
        assert len(findings) == 1
        assert "REPRO_FIXTURE_DIR" in findings[0].message


KNOBS_MODULE = """\
    KNOBS = {}

    def _knob(name, default, doc, reason):
        return (name, default, doc, reason)

    KNOBS["REPRO_FIXTURE_KNOB"] = _knob(
        "REPRO_FIXTURE_KNOB", None, "fixture", "fixture"
    )

    def read(name, environ=None):
        return None
    """


class TestKnobRegistry:
    def test_raw_environ_read_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/pb/tuning.py": """\
                    import os

                    def chunk():
                        return os.getenv("REPRO_FIXTURE_KNOB")
                    """
            }
        )
        findings = lint_findings(root, "knob-registry")
        messages = [f.message for f in findings]
        assert any("raw environment read" in m for m in messages)
        assert any("not registered" in m for m in messages)

    def test_registry_read_documented_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/knobs.py": KNOBS_MODULE,
                "src/repro/pb/tuning.py": """\
                    from repro.harness import knobs

                    def chunk():
                        return knobs.read("REPRO_FIXTURE_KNOB")
                    """,
                "src/repro/analysis/digest_exempt.py": """\
                    DIGEST_EXEMPT = {
                        "REPRO_FIXTURE_KNOB": "bit-exact by fixture decree",
                    }
                    """,
            },
            experiments="# knobs\n`REPRO_FIXTURE_KNOB` — fixture knob.\n",
        )
        assert lint_findings(root, "knob-registry") == []

    def test_registered_but_undocumented_flagged(self, mini_tree):
        # Regression shape for the real defect this rule caught on the
        # shipped tree: REPRO_RESULT_CACHE registered but absent from
        # EXPERIMENTS.md.
        root = mini_tree(
            {"src/repro/harness/knobs.py": KNOBS_MODULE},
            experiments="# knobs\n(nothing documented)\n",
        )
        findings = lint_findings(root, "knob-registry")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/harness/knobs.py"
        assert "not documented in EXPERIMENTS.md" in findings[0].message

    def test_documented_but_unregistered_flagged(self, mini_tree):
        # The reverse direction: a knob-table row outliving its knob.
        root = mini_tree(
            {"src/repro/harness/knobs.py": KNOBS_MODULE},
            experiments=(
                "# knobs\n"
                "\n"
                "| Variable | Default | Effect |\n"
                "|---|---|---|\n"
                "| `REPRO_FIXTURE_KNOB` | unset | fixture knob |\n"
                "| `REPRO_RETIRED_KNOB` | `0` | removed long ago |\n"
            ),
        )
        findings = lint_findings(root, "knob-registry")
        assert len(findings) == 1
        assert findings[0].path == "EXPERIMENTS.md"
        assert findings[0].line == 6
        assert "'REPRO_RETIRED_KNOB' is not registered" in findings[0].message

    def test_subscript_environ_read_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/dram/cfg.py": """\
                    import os

                    _NAME = "REPRO_FIXTURE_KNOB"

                    def rows():
                        return os.environ[_NAME]
                    """
            }
        )
        findings = lint_findings(root, "knob-registry")
        # Name resolved through the module-level string constant.
        assert any("REPRO_FIXTURE_KNOB" in f.message for f in findings)

    def test_non_repro_env_reads_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/paths.py": """\
                    import os

                    def xdg():
                        return os.environ.get("XDG_CACHE_HOME")
                    """
            }
        )
        assert lint_findings(root, "knob-registry") == []


VECTOR_ONLY = """\
    class Predictor:
        def simulate_array(self, outcomes):
            return outcomes
    """

VECTOR_AND_SCALAR = """\
    class Predictor:
        def simulate(self, outcomes):
            return list(outcomes)

        def simulate_array(self, outcomes):
            return outcomes
    """


class TestBackendPairing:
    def test_missing_scalar_path_flagged(self, mini_tree):
        root = mini_tree({"src/repro/cpu/pred.py": VECTOR_ONLY})
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "no scalar reference path" in findings[0].message

    def test_missing_equivalence_test_flagged(self, mini_tree):
        root = mini_tree({"src/repro/cpu/pred.py": VECTOR_AND_SCALAR})
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "equivalence is unasserted" in findings[0].message

    def test_equivalence_test_satisfies_rule(self, mini_tree):
        root = mini_tree(
            {"src/repro/cpu/pred.py": VECTOR_AND_SCALAR},
            tests={
                "cpu/test_pred.py": """\
                    def test_backends_agree():
                        p = Predictor()
                        assert p.simulate_array([1]) == p.simulate([1])
                    """
            },
        )
        assert lint_findings(root, "backend-pairing") == []

    def test_suppressed_with_noqa(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cpu/pred.py": """\
                    class Predictor:
                        # repro: noqa[backend-pairing] fixture: scalar twin
                        # lives out of tree
                        def simulate_array(self, outcomes):
                            return outcomes
                    """
            }
        )
        assert lint_findings(root, "backend-pairing") == []


JIT_KERNEL = """\
    from repro.cache.kernels import maybe_jit

    @maybe_jit
    def replay(stream):
        return stream
    """

ORACLE_KERNEL = """\
    SCALAR_ORACLE = "FastEngine"

    def replay(stream):
        return stream
    """


class TestCompiledKernelPairing:
    """The compiled-kernel arm of the ``backend-pairing`` rule."""

    def test_kernels_package_without_oracle_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cache/kernels/fancy.py": """\
                    def replay(stream):
                        return stream
                    """
            }
        )
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "names no scalar oracle" in findings[0].message

    def test_jit_decorated_module_without_oracle_flagged(self, mini_tree):
        """@maybe_jit marks a kernel module wherever it lives."""
        root = mini_tree({"src/repro/cpu/hotloop.py": JIT_KERNEL})
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "names no scalar oracle" in findings[0].message

    def test_njit_call_decorator_recognized(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cpu/hotloop.py": """\
                    import numba

                    @numba.njit(cache=True)
                    def replay(stream):
                        return stream
                    """
            }
        )
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "names no scalar oracle" in findings[0].message

    def test_oracle_without_test_flagged(self, mini_tree):
        root = mini_tree({"src/repro/cache/kernels/fancy.py": ORACLE_KERNEL})
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "equivalence is unasserted" in findings[0].message
        assert "FastEngine" in findings[0].message

    def test_module_stem_test_satisfies_rule(self, mini_tree):
        root = mini_tree(
            {"src/repro/des/fancy.py": ORACLE_KERNEL},
            tests={
                "des/test_fancy.py": """\
                    def test_matches_oracle():
                        from repro.des import fancy
                        assert fancy.replay([1]) == FastEngine().run([1])
                    """
            },
        )
        assert lint_findings(root, "backend-pairing") == []

    def test_kernels_package_test_satisfies_rule(self, mini_tree):
        """A suite exercising the kernels package as a whole counts for
        every module in it (tiers are selected behind one facade)."""
        root = mini_tree(
            {"src/repro/cache/kernels/fancy.py": ORACLE_KERNEL},
            tests={
                "cache/test_backends.py": """\
                    def test_all_tiers():
                        from repro.cache import kernels
                        assert kernels.select() == FastEngine()
                    """
            },
        )
        assert lint_findings(root, "backend-pairing") == []

    def test_package_init_exempt(self, mini_tree):
        """kernels/__init__.py is selection plumbing, not a kernel."""
        root = mini_tree(
            {
                "src/repro/cache/kernels/__init__.py": """\
                    def select_backend(name):
                        return name
                    """
            }
        )
        assert lint_findings(root, "backend-pairing") == []

    def test_self_declared_oracle_enforced_outside_kernels(self, mini_tree):
        """A module that declares SCALAR_ORACLE opts into the contract
        even without jit decorators (a standalone fast-path module)."""
        root = mini_tree({"src/repro/des/flat.py": ORACLE_KERNEL})
        findings = lint_findings(root, "backend-pairing")
        assert len(findings) == 1
        assert "equivalence is unasserted" in findings[0].message


class TestNondetHazards:
    def test_mutable_default_argument_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/core/collect.py": """\
                    def collect(value, acc=[]):
                        acc.append(value)
                        return acc
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "mutable default argument" in findings[0].message

    def test_wall_clock_in_journal_module_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/checkpoint.py": """\
                    import time

                    def stamp():
                        return {"created": time.time()}
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_wall_clock_elsewhere_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/watchdog.py": """\
                    import time

                    def now():
                        return time.time()
                    """
            }
        )
        assert lint_findings(root, "nondet") == []

    def test_id_keyed_memo_flagged(self, mini_tree):
        # Regression shape for the real defect this rule caught on the
        # shipped tree: the DES memo keyed by id(trace).
        root = mini_tree(
            {
                "src/repro/des/memo.py": """\
                    _MEMO = {}

                    def cached(trace):
                        return _MEMO.setdefault(id(trace), len(trace))
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "id()" in findings[0].message

    def test_float_equality_on_counter_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/noc/compare.py": """\
                    def same(a, b):
                        return a.cycles == b.cycles
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "float equality" in findings[0].message

    def test_set_iteration_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/sparse/order.py": """\
                    def rows(indices):
                        return [i for i in set(indices)]
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "iteration over a set" in findings[0].message

    def test_sorted_set_iteration_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/sparse/order.py": """\
                    def rows(indices):
                        return [i for i in sorted(set(indices))]
                    """
            }
        )
        assert lint_findings(root, "nondet") == []

    def test_ts_subtraction_in_golden_module_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/golden/replay.py": """\
                    def elapsed(first, last):
                        return last["ts"] - first["ts"]
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "wall-clock subtraction" in findings[0].message

    def test_stamp_attribute_subtraction_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/golden/store.py": """\
                    def age(entry, other):
                        return entry.recorded - other.recorded
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "wall-clock subtraction" in findings[0].message
        assert ".recorded" in findings[0].message

    def test_time_time_subtraction_flagged_twice(self, mini_tree):
        # time.time() in a clock-sensitive module already trips the call
        # check; deriving a duration from it adds the subtraction finding.
        root = mini_tree(
            {
                "src/repro/golden/replay.py": """\
                    import time

                    def timed(start):
                        return time.time() - start
                    """
            }
        )
        messages = [f.message for f in lint_findings(root, "nondet")]
        assert any("wall-clock subtraction" in m for m in messages)

    def test_monotonic_subtraction_in_golden_module_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/golden/replay.py": """\
                    import time

                    def timed(fn):
                        start = time.perf_counter()
                        fn()
                        return time.perf_counter() - start
                    """
            }
        )
        assert lint_findings(root, "nondet") == []

    def test_ts_subtraction_elsewhere_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/core/render.py": """\
                    def elapsed(first, last):
                        return last["ts"] - first["ts"]
                    """
            }
        )
        assert lint_findings(root, "nondet") == []

    def test_suppression_comment_above_line(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/telemetry.py": """\
                    import time

                    def emit(event):
                        # repro: noqa[nondet] observability metadata only;
                        # never read back into digests
                        return {"event": event, "ts": time.time()}
                    """
            }
        )
        assert lint_findings(root, "nondet") == []


class TestWorkerSafety:
    def test_lambda_submission_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/pool.py": """\
                    def run(pool):
                        return pool.submit(lambda: 1)
                    """
            }
        )
        findings = lint_findings(root, "worker-safety")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_closure_submission_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/pool.py": """\
                    def run(pool, point):
                        def work():
                            return point
                        return pool.submit(work)
                    """
            }
        )
        findings = lint_findings(root, "worker-safety")
        assert len(findings) == 1
        assert "not a module-level function" in findings[0].message

    def test_global_mutating_worker_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/pool.py": """\
                    _SINK = None

                    def _work(point):
                        global _SINK
                        _SINK = point
                        return point

                    def run(pool, point):
                        return pool.submit(_work, point)
                    """
            }
        )
        findings = lint_findings(root, "worker-safety")
        assert len(findings) == 1
        assert "module-global state" in findings[0].message
        assert "_worker_init" in findings[0].hint

    def test_module_level_worker_and_initializer_clean(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/pool.py": """\
                    from concurrent.futures import ProcessPoolExecutor

                    def _pool_worker_init():
                        pass

                    def _work(point):
                        return point

                    def run(points):
                        with ProcessPoolExecutor(
                            initializer=_pool_worker_init
                        ) as pool:
                            return [pool.submit(_work, p) for p in points]
                    """
            }
        )
        assert lint_findings(root, "worker-safety") == []

    def test_outside_harness_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/cache/pool.py": """\
                    def run(pool):
                        return pool.submit(lambda: 1)
                    """
            }
        )
        assert lint_findings(root, "worker-safety") == []


class TestServicePrefixCoverage:
    """The sweep service is clock-sensitive and worker-safety gated."""

    def test_wall_clock_subtraction_in_service_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/service/jobqueue.py": """\
                    import time

                    def age(record):
                        return time.time() - record.updated
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        messages = [f.message for f in findings]
        assert any("wall-clock subtraction" in m for m in messages)

    def test_time_call_in_service_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/service/journal.py": """\
                    import time

                    def stamp():
                        return {"ts": time.time()}
                    """
            }
        )
        findings = lint_findings(root, "nondet")
        assert len(findings) == 1
        assert "time.time()" in findings[0].message

    def test_lambda_submission_in_service_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/service/jobqueue.py": """\
                    def run(pool):
                        return pool.submit(lambda: 1)
                    """
            }
        )
        findings = lint_findings(root, "worker-safety")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_other_packages_keep_old_scope(self, mini_tree):
        # The service gate must not widen worker-safety to, say, cpu/.
        root = mini_tree(
            {
                "src/repro/cpu/pool.py": """\
                    def run(pool):
                        return pool.submit(lambda: 1)
                    """
            }
        )
        assert lint_findings(root, "worker-safety") == []


MINI_REGISTRY = """\
    REGISTERED_CLASSES = (
        "DegreeCount",
        "Histogram",
    )
    """


class TestWorkloadRegistry:
    def test_out_of_registry_construction_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/workloads/registry.py": MINI_REGISTRY,
                "src/repro/harness/adhoc.py": """\
                    from repro.workloads import DegreeCount

                    def point(edges):
                        return DegreeCount(edges)
                    """,
            }
        )
        findings = lint_findings(root, "workload-registry")
        assert len(findings) == 1
        assert findings[0].path == "src/repro/harness/adhoc.py"
        assert "DegreeCount" in findings[0].message
        assert "registry" in findings[0].hint

    def test_module_qualified_construction_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/workloads/registry.py": MINI_REGISTRY,
                "src/repro/harness/adhoc.py": """\
                    from repro.workloads import histogram

                    def point(keys):
                        return histogram.Histogram(keys, 64)
                    """,
            }
        )
        findings = lint_findings(root, "workload-registry")
        assert len(findings) == 1
        assert "Histogram" in findings[0].message

    def test_workloads_package_itself_exempt(self, mini_tree):
        # The registry's builders and kernel modules construct freely.
        root = mini_tree(
            {
                "src/repro/workloads/registry.py": """\
                    from repro.workloads.degree_count import DegreeCount

                    REGISTERED_CLASSES = (
                        "DegreeCount",
                        "Histogram",
                    )

                    def build(edges):
                        return DegreeCount(edges)
                    """,
            }
        )
        assert lint_findings(root, "workload-registry") == []

    def test_unregistered_classes_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/workloads/registry.py": MINI_REGISTRY,
                "src/repro/harness/other.py": """\
                    from repro.harness.runner import Runner

                    def runner():
                        return Runner()
                    """,
            }
        )
        assert lint_findings(root, "workload-registry") == []

    def test_suppressed_with_noqa(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/workloads/registry.py": MINI_REGISTRY,
                "src/repro/harness/adhoc.py": """\
                    from repro.workloads import DegreeCount

                    def point(edges):
                        return DegreeCount(edges)  # repro: noqa[workload-registry] fixture
                    """,
            }
        )
        assert lint_findings(root, "workload-registry") == []

    def test_raw_open_of_dataset_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/loader.py": """\
                    def load():
                        with open("data/karate.mtx") as handle:
                            return handle.read()
                    """
            }
        )
        findings = lint_findings(root, "workload-registry")
        assert len(findings) == 1
        assert "karate.mtx" in findings[0].message
        assert "ingest" in findings[0].hint

    def test_read_text_of_dataset_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/loader.py": """\
                    from pathlib import Path

                    def load():
                        return Path("web.snap").read_text()
                    """
            }
        )
        findings = lint_findings(root, "workload-registry")
        assert len(findings) == 1
        assert "web.snap" in findings[0].message

    def test_indirected_dataset_path_flagged(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/loader.py": """\
                    _FIXTURE = "florentine.el"

                    def load():
                        return open(_FIXTURE).read()
                    """
            }
        )
        findings = lint_findings(root, "workload-registry")
        assert len(findings) == 1
        assert "florentine.el" in findings[0].message

    def test_ingest_module_exempt(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/graphs/ingest.py": """\
                    def load():
                        return open("data/karate.mtx").read()
                    """
            }
        )
        assert lint_findings(root, "workload-registry") == []

    def test_non_dataset_reads_ignored(self, mini_tree):
        root = mini_tree(
            {
                "src/repro/harness/loader.py": """\
                    def load():
                        return open("README.md").read()
                    """
            }
        )
        assert lint_findings(root, "workload-registry") == []
