"""Tests for the append-only BENCH_*.json history envelope."""

import json
import re

import pytest

from repro.harness.benchhistory import (
    FORMAT_VERSION,
    append_bench_record,
    bench_name_for,
    current_git_sha,
    iso_utc,
    load_history,
)


class TestNaming:
    def test_bench_name_strips_prefix(self):
        assert bench_name_for("results/BENCH_compiled_kernels.json") == (
            "compiled_kernels"
        )
        assert bench_name_for("odd.json") == "odd"


class TestStamps:
    def test_iso_utc_shape_and_determinism(self):
        assert iso_utc(0) == "1970-01-01T00:00:00Z"
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", iso_utc()
        )

    def test_git_sha_in_repo_and_out(self, tmp_path):
        assert re.fullmatch(r"[0-9a-f]{40}", current_git_sha())
        assert current_git_sha(tmp_path) == "unknown"


class TestAppend:
    def test_first_append_creates_envelope(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        history = append_bench_record(
            path, {"speedup": 2.0}, git_sha="abc", recorded="2026-08-08T00:00:00Z"
        )
        assert history["version"] == FORMAT_VERSION
        assert history["bench"] == "x"
        on_disk = json.loads(path.read_text("utf-8"))
        assert on_disk == history
        (entry,) = on_disk["entries"]
        assert entry == {
            "recorded": "2026-08-08T00:00:00Z",
            "git_sha": "abc",
            "record": {"speedup": 2.0},
        }

    def test_appends_never_overwrite(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_bench_record(path, {"run": 1}, git_sha="a")
        append_bench_record(path, {"run": 2}, git_sha="b")
        history = load_history(path)
        assert [e["record"]["run"] for e in history["entries"]] == [1, 2]
        assert [e["git_sha"] for e in history["entries"]] == ["a", "b"]

    def test_legacy_bare_record_migrates_as_entry_zero(self, tmp_path):
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps({"speedup": 9.0}), "utf-8")
        append_bench_record(path, {"speedup": 9.5}, git_sha="new")
        history = load_history(path)
        first, second = history["entries"]
        # The pre-schema measurement survives, minus the provenance the
        # old writers never recorded.
        assert first == {
            "recorded": None,
            "git_sha": None,
            "record": {"speedup": 9.0},
        }
        assert second["git_sha"] == "new"

    def test_defaults_fill_sha_and_stamp(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        append_bench_record(path, {"v": 1})
        (entry,) = load_history(path)["entries"]
        # tmp_path is no git checkout, so the sha degrades gracefully.
        assert entry["git_sha"] == "unknown"
        assert entry["recorded"].endswith("Z")

    def test_corrupt_history_restarts_envelope(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("torn{", "utf-8")
        append_bench_record(path, {"v": 1}, git_sha="a")
        history = load_history(path)
        assert [e["record"] for e in history["entries"]] == [{"v": 1}]


class TestLoad:
    def test_missing_file_is_empty_envelope(self, tmp_path):
        history = load_history(tmp_path / "BENCH_none.json")
        assert history == {
            "version": FORMAT_VERSION,
            "bench": "none",
            "entries": [],
        }

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("nope{", "utf-8")
        with pytest.raises(ValueError):
            load_history(path)

    def test_non_object_payload_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("[1, 2]", "utf-8")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_history(path)

    def test_version_drift_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            json.dumps({"version": 99, "entries": []}), "utf-8"
        )
        with pytest.raises(ValueError, match="version"):
            load_history(path)


class TestMigratedSeedFile:
    def test_surviving_bench_file_is_enveloped(self):
        """The one BENCH file that survived the overwrites was migrated."""
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "history"
            / "BENCH_compiled_kernels.json"
        )
        history = load_history(path)
        assert history["version"] == FORMAT_VERSION
        assert history["bench"] == "compiled_kernels"
        assert len(history["entries"]) >= 1
        assert history["entries"][0]["git_sha"]
