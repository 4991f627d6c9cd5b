"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import spans, suite  # noqa: E402

TINY = "degree-count/KRON@10"


@pytest.fixture(scope="module")
def tiny_result():
    from repro.harness import Runner

    instances = suite.resolve_inputs([TINY])
    return Runner().run(instances[TINY], "pb-sw")


def _pass(result):
    return suite.Pass(1.0, [], [result], [None])


def test_fingerprint_ignores_engine_tags(tiny_result):
    phases = tuple(
        dataclasses.replace(phase, engine="fast") for phase in tiny_result.phases
    )
    retagged = dataclasses.replace(tiny_result, phases=phases, provenance="disk")
    assert suite.fingerprint(retagged) == suite.fingerprint(tiny_result)


def test_perturbed_counter_is_caught(tiny_result):
    key = f"{TINY} pb-sw"
    expected = {key: suite.fingerprint(tiny_result)}
    failures, _ = suite.verify([_pass(tiny_result)], [key], expected)
    assert failures == []

    first, *rest = tiny_result.phases
    perturbed = dataclasses.replace(
        tiny_result,
        phases=(dataclasses.replace(first, instructions=first.instructions + 1), *rest),
    )
    failures, _ = suite.verify([_pass(perturbed)], [key], expected)
    assert failures == [f"pass 0 {key}: fingerprint mismatch"]


def test_nondeterminism_across_passes_is_caught(tiny_result):
    key = f"{TINY} pb-sw"
    first, *rest = tiny_result.phases
    drifted = dataclasses.replace(
        tiny_result,
        phases=(dataclasses.replace(first, cycles=first.cycles * 2), *rest),
    )
    failures, _ = suite.verify(
        [_pass(tiny_result), _pass(drifted)], [key], expected=None
    )
    assert failures == [f"pass 1 {key}: differs from the first pass"]


def test_raised_point_is_a_failure():
    failures, _ = suite.verify(
        [suite.Pass(1.0, [], [None], ["ValueError: boom"])], ["k"], None
    )
    assert failures == ["pass 0 k: ValueError: boom"]


@pytest.mark.parametrize("spec", [TINY, "integer-sort/U64@10"])
def test_seeded_inputs_redraw_and_restore(spec):
    from repro.workloads import registry

    pinned = suite.resolve_inputs([spec])[spec].update_indices.copy()
    generators = {name: getattr(registry, name) for name in ("rmat", "random_sparse")}
    with suite.seeded_inputs(3):
        first = suite.resolve_inputs([spec])[spec].update_indices.copy()
        again = suite.resolve_inputs([spec])[spec].update_indices.copy()
    assert first.shape == pinned.shape
    assert not np.array_equal(first, pinned)
    assert np.array_equal(first, again)
    for name, generator in generators.items():
        assert getattr(registry, name) is generator
    assert registry.np is np
    restored = suite.resolve_inputs([spec])[spec].update_indices
    assert np.array_equal(restored, pinned)


def test_only_the_numpy_tier_is_a_fallback():
    assert not suite.environment("cnative")["tier_fallback"]
    assert not suite.environment("numba")["tier_fallback"]
    assert suite.environment("numpy")["tier_fallback"]


def test_drift_counts_either_direction():
    from perfbench import steady

    assert steady.drift(1.0, 1.4) == pytest.approx(0.4)
    assert steady.drift(1.0, 0.6) == pytest.approx(0.4)


def test_tracer_installs_and_removes_cleanly(tmp_path):
    from repro.harness import runner

    workload = suite.Workload("tiny", (TINY,), ("baseline", "cobra"))
    tracer = spans.Tracer(tmp_path)
    with tracer.installed():
        assert getattr(runner.Runner._phases_for, "__perfbench_traced__", False)
        tracer.pass_id = "setup"
        with tracer.region("setup"):
            instances = suite.resolve_inputs([TINY])
        tracer.pass_id = 0
        with tracer.region("pass"):
            result = suite.run_pass(workload, instances, False, tmp_path)
    spans.assert_untraced()
    assert result.errors == [None, None]
    metrics = spans.layer_metrics(tracer.collect(), jobs=1)
    names = [name for name, _unit in spans.LAYER_METRICS]
    assert sorted(metrics) == sorted(set(names) - {"trace_overhead_s"})
    assert metrics["plan.calls"] == 2
    assert metrics["workloads.resolve_calls"] == 1
    assert metrics["replay.accesses"] > 0
    assert metrics["des.tuples"] > 0
    assert 0.0 <= metrics["unattributed_share"] < 1.0


def test_run_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10-s16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_steadiness_smoke():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "steady.py"), "--smoke",
         "--workloads", "fig14-jobs2"],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    rows = [line for line in completed.stdout.splitlines() if "run_s" in line]
    assert len(rows) >= 3  # one per set, plus the drift line
    assert "; 0 incorrect run(s)" in completed.stdout


def test_fingerprints_cover_every_point():
    recorded = json.loads(suite.FINGERPRINTS.read_text("utf-8"))
    for name, workload in suite.WORKLOADS.items():
        keys = {f"{spec} {mode}" for spec, mode in workload.points()}
        assert set(recorded[name]) == keys
