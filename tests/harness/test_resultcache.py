"""Tests for the persistent on-disk result cache."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.harness import Runner
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.modes import BASELINE, CHARACTERIZATION, PB_SW
from repro.harness.resultcache import (
    ResultCache,
    counters_from_dict,
    counters_to_dict,
    default_cache_dir,
    run_digest,
)
from repro.workloads.registry import resolve

SCALE = 13


@pytest.fixture()
def workload():
    return resolve("degree-count", "KRON", scale=SCALE)


def fresh_runner(tmp_path):
    return Runner(max_sim_events=20_000, result_cache=ResultCache(tmp_path))


class TestWarmRuns:
    def test_second_run_is_bit_identical(self, tmp_path, workload):
        """A brand-new runner (cold memo) must reproduce the exact counters
        from disk — every int and float equal, via dataclass equality."""
        first = fresh_runner(tmp_path).run(workload, BASELINE)
        warm_runner = fresh_runner(tmp_path)
        second = warm_runner.run(workload, BASELINE)
        assert second == first
        assert warm_runner.result_cache.hits == 1
        assert warm_runner.result_cache.misses == 0

    def test_characterization_cached_too(self, tmp_path, workload):
        first = fresh_runner(tmp_path).run_characterization(workload)
        second = fresh_runner(tmp_path).run_characterization(workload)
        assert second == first
        assert second.mode == CHARACTERIZATION

    def test_use_cache_false_skips_disk(self, tmp_path, workload):
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE, use_cache=False)
        assert len(runner.result_cache) == 0

    def test_roundtrip_preserves_every_field(self, tmp_path, workload):
        counters = fresh_runner(tmp_path).run(workload, PB_SW)
        rebuilt = counters_from_dict(
            json.loads(json.dumps(counters_to_dict(counters)))
        )
        for original, restored in zip(counters.phases, rebuilt.phases):
            for field in dataclasses.fields(original):
                assert getattr(original, field.name) == getattr(
                    restored, field.name
                ), field.name


class TestCacheStore:
    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path, workload):
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ truncated", "utf-8")
        assert fresh_runner(tmp_path).run(workload, BASELINE) is not None

    def test_clear_removes_entries(self, tmp_path, workload):
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        assert len(runner.result_cache) == 1
        assert runner.result_cache.clear() == 1
        assert len(runner.result_cache) == 0

    def test_version_mismatch_is_a_miss(self, tmp_path, workload):
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        (entry,) = tmp_path.glob("*.json")
        payload = json.loads(entry.read_text("utf-8"))
        payload["version"] = -1
        entry.write_text(json.dumps(payload), "utf-8")
        cache = ResultCache(tmp_path)
        assert cache.get(entry.stem) is None


class TestDigest:
    PARAMS = {"max_sim_events": 20_000}

    def digest(self, **overrides):
        kwargs = {
            "machine": DEFAULT_MACHINE,
            "runner_params": self.PARAMS,
            "cache_key": "degree-count:KRON:13",
            "mode": BASELINE,
        }
        kwargs.update(overrides)
        return run_digest(**kwargs)

    def test_digest_is_stable(self):
        assert self.digest() == self.digest()

    def test_mode_changes_digest(self):
        assert self.digest() != self.digest(mode=PB_SW)

    def test_workload_changes_digest(self):
        assert self.digest() != self.digest(cache_key="pagerank:KRON:13")

    def test_runner_params_change_digest(self):
        assert self.digest() != self.digest(
            runner_params={"max_sim_events": 10_000}
        )

    def test_machine_changes_digest(self):
        import dataclasses as dc

        hierarchy = dc.replace(DEFAULT_MACHINE.hierarchy, llc_ways=8)
        machine = dc.replace(DEFAULT_MACHINE, hierarchy=hierarchy)
        assert self.digest() != self.digest(machine=machine)

    def test_runner_digests_differ_across_machines(self, tmp_path, workload):
        """Two runners with different sim budgets must not share entries."""
        cache = ResultCache(tmp_path)
        a = Runner(max_sim_events=20_000, result_cache=cache)
        b = Runner(max_sim_events=10_000, result_cache=cache)
        a.run(workload, BASELINE)
        b.run(workload, BASELINE)
        assert len(cache) == 2


class TestDigestStrictness:
    """Regression tests for the ``default=repr`` digest bug: any payload
    object whose repr embeds a memory address made the digest unique per
    process, so a warm cache could never hit across invocations."""

    def test_object_with_default_repr_raises(self):
        class Opaque:
            pass

        params = {"max_sim_events": 20_000, "hook": Opaque()}
        with pytest.raises(TypeError, match="non-canonical"):
            run_digest(DEFAULT_MACHINE, params, "a:b:1", BASELINE)

    def test_numpy_scalars_digest_like_python_scalars(self):
        plain = run_digest(
            DEFAULT_MACHINE, {"max_sim_events": 20_000}, "a:b:1", BASELINE
        )
        numpied = run_digest(
            DEFAULT_MACHINE,
            {"max_sim_events": np.int64(20_000)},
            "a:b:1",
            BASELINE,
        )
        assert plain == numpied

    def test_numpy_arrays_and_floats_are_canonical(self):
        params = {
            "weights": np.array([1.0, 2.5]),
            "flag": np.bool_(True),
            "ratio": np.float64(0.5),
        }
        first = run_digest(DEFAULT_MACHINE, params, "a:b:1", BASELINE)
        second = run_digest(DEFAULT_MACHINE, dict(params), "a:b:1", BASELINE)
        assert first == second

    def test_digest_stable_across_processes(self):
        """The digest of the default configuration must be identical when
        computed in a fresh interpreter (this is what makes a warm cache
        hit across separate sweep invocations)."""
        local = run_digest(
            DEFAULT_MACHINE, {"max_sim_events": 20_000}, "a:b:1", BASELINE
        )
        script = (
            "from repro.harness.machine import DEFAULT_MACHINE\n"
            "from repro.harness.modes import BASELINE\n"
            "from repro.harness.resultcache import run_digest\n"
            "print(run_digest(DEFAULT_MACHINE, {'max_sim_events': 20_000},"
            " 'a:b:1', BASELINE))\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": _src_path()},
        ).stdout.strip()
        assert remote == local

    def test_warm_hit_rate_is_total_across_processes(self, tmp_path, workload):
        """Two identical runs in separate processes: the second must be
        100% cache hits (the acceptance bar for the digest-stability fix)."""
        script = (
            "import sys\n"
            "from repro.harness import Runner\n"
            "from repro.workloads.registry import resolve\n"
            "from repro.harness.modes import BASELINE, PB_SW\n"
            "from repro.harness.resultcache import ResultCache\n"
            f"cache = ResultCache({str(tmp_path)!r})\n"
            "runner = Runner(max_sim_events=20_000, result_cache=cache)\n"
            f"w = resolve('degree-count', 'KRON', scale={SCALE})\n"
            "runner.run(w, BASELINE)\n"
            "runner.run(w, PB_SW)\n"
            "print(cache.hits, cache.misses)\n"
        )
        env = {**os.environ, "PYTHONPATH": _src_path()}
        cold = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        warm = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        ).stdout.split()
        assert cold == ["0", "2"]
        assert warm == ["2", "0"]


class TestDefaultCacheDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_repo_checkout_uses_in_repo_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        repo_root = Path(__file__).resolve().parents[2]
        module = repo_root / "src" / "repro" / "harness" / "resultcache.py"
        assert default_cache_dir(module) == (
            repo_root / "benchmarks" / "results" / ".cache"
        )

    def test_installed_package_falls_back_to_user_cache(
        self, tmp_path, monkeypatch
    ):
        """Regression: ``parents[3]`` of a pip-installed module resolves
        into the environment's lib directory — cache entries must not be
        silently written there."""
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        site = tmp_path / "venv" / "lib" / "python3.11" / "site-packages"
        module = site / "repro" / "harness" / "resultcache.py"
        module.parent.mkdir(parents=True)
        module.write_text("# installed copy")
        resolved = default_cache_dir(module)
        assert resolved == tmp_path / "xdg" / "repro" / "results"
        assert not str(resolved).startswith(str(site.parents[1]))

    def test_shallow_path_falls_back_to_user_cache(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir(Path("/x.py")) == (
            tmp_path / "xdg" / "repro" / "results"
        )


class TestTmpFileHygiene:
    def test_failed_replace_leaves_no_tmp(self, tmp_path, workload, monkeypatch):
        """A failed store (e.g. disk full at rename time) must clean up its
        tmp file, count as a write error, and not raise."""
        runner = fresh_runner(tmp_path)
        counters = runner.run(workload, BASELINE, use_cache=False)
        cache = runner.result_cache

        def exploding_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", exploding_replace)
        assert cache.put("f" * 64, counters) is False
        assert cache.write_errors == 1
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get("f" * 64) is None  # nothing partially stored

    def test_failed_write_text_leaves_no_tmp(
        self, tmp_path, workload, monkeypatch
    ):
        runner = fresh_runner(tmp_path)
        counters = runner.run(workload, BASELINE, use_cache=False)
        cache = runner.result_cache

        def exploding_write_text(self, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", exploding_write_text)
        assert cache.put("f" * 64, counters) is False
        assert list(tmp_path.glob("*.tmp")) == []

    def test_len_and_clear_ignore_stray_tmp_files(self, tmp_path, workload):
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        stray = tmp_path / f"{'a' * 64}.12345.tmp"
        stray.write_text("{ partial")
        cache = runner.result_cache
        assert len(cache) == 1  # the stray does not count
        assert cache.clear() == 1  # ...nor inflate the removal total
        assert not stray.exists()  # ...but it is swept away

    def test_put_failure_never_aborts_the_run(
        self, tmp_path, workload, monkeypatch
    ):
        """A read-only cache directory degrades to write errors, not a
        crashed sweep."""
        runner = fresh_runner(tmp_path)
        monkeypatch.setattr(
            Path,
            "write_text",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError(30, "ro")),
        )
        counters = runner.run(workload, BASELINE)  # persists via put()
        assert counters is not None
        assert runner.result_cache.write_errors == 1


class TestConcurrentAccess:
    def test_len_and_clear_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_clear_survives_entries_vanishing_mid_scan(
        self, tmp_path, workload, monkeypatch
    ):
        """A concurrent clear may delete entries between glob and unlink;
        neither clear() nor len() may raise."""
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        cache = runner.result_cache
        real_glob = Path.glob

        def racing_glob(self, pattern):
            for path in list(real_glob(self, pattern)):
                path.unlink(missing_ok=True)  # the "other process" wins
                yield path

        monkeypatch.setattr(Path, "glob", racing_glob)
        assert cache.clear() == 0
        assert len(cache) >= 0

    def test_len_and_clear_survive_directory_removal_mid_scan(
        self, tmp_path, workload, monkeypatch
    ):
        """The directory itself vanishing mid-iteration (FileNotFoundError
        out of the glob generator) must count as empty, not raise."""
        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        cache = runner.result_cache

        def exploding_glob(self, pattern):
            raise FileNotFoundError(2, "gone", str(self))
            yield  # pragma: no cover

        monkeypatch.setattr(Path, "glob", exploding_glob)
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_concurrent_clears_never_raise(self, tmp_path, workload):
        """Two threads clearing the same directory race on every unlink."""
        import threading

        runner = fresh_runner(tmp_path)
        runner.run(workload, BASELINE)
        runner.run(workload, PB_SW)
        cache = runner.result_cache
        removed = []
        errors = []

        def clear():
            try:
                removed.append(cache.clear())
            except BaseException as exc:  # noqa: BLE001 - test assertion
                errors.append(exc)

        threads = [threading.Thread(target=clear) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert sum(removed) == 2
        assert len(cache) == 0

    def test_two_process_put_get_stress(self, tmp_path, workload):
        """Two processes hammering the same digests concurrently must never
        corrupt an entry: every get returns either None or a fully valid
        payload, and the survivors parse."""
        script = (
            "import json, sys\n"
            "from repro.harness import Runner\n"
            "from repro.workloads.registry import resolve\n"
            "from repro.harness.modes import BASELINE\n"
            "from repro.harness.resultcache import ResultCache,"
            " counters_to_dict, counters_from_dict\n"
            f"w = resolve('degree-count', 'KRON', scale={SCALE})\n"
            "runner = Runner(max_sim_events=20_000)\n"
            "counters = runner.run(w, BASELINE, use_cache=False)\n"
            f"cache = ResultCache({str(tmp_path)!r})\n"
            "digests = ['%064x' % d for d in range(8)]\n"
            "for round in range(25):\n"
            "    for digest in digests:\n"
            "        cache.put(digest, counters)\n"
            "        got = cache.get(digest)\n"
            "        assert got is None or got == counters\n"
            "print('ok')\n"
        )
        env = {**os.environ, "PYTHONPATH": _src_path()}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        cache = ResultCache(tmp_path)
        assert len(cache) == 8
        for digest in ["%064x" % d for d in range(8)]:
            assert cache.get(digest) is not None
        assert list(tmp_path.glob("*.tmp")) == []


def _src_path():
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


class TestReadThroughUnderPut:
    """Concurrent readers during put(): never a partial entry."""

    def test_threaded_readers_see_none_or_complete(self, tmp_path, workload):
        import threading

        result = Runner(result_cache=None, max_sim_events=20_000).run(
            workload, BASELINE, use_cache=False
        )
        reference = counters_to_dict(result)
        cache = ResultCache(tmp_path)
        digest = "ab" * 32
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                got = cache.get(digest)
                if got is None:
                    continue
                # Atomic os.replace publication: a hit is always complete.
                if counters_to_dict(got) != reference:
                    torn.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        # Republish the same entry repeatedly while the readers hammer it;
        # any in-progress tmp write must stay invisible.
        for _ in range(25):
            assert cache.put(digest, result)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert torn == []
        assert list(tmp_path.glob("*.tmp")) == []
        final = cache.get(digest)
        assert counters_to_dict(final) == reference
