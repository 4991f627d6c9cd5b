"""The central REPRO_* knob registry (``repro.harness.knobs``).

Includes the regression tests for the defect the knob-registry lint rule
surfaced on the shipped tree: ``REPRO_RESULT_CACHE`` was read by the
result cache but documented nowhere.
"""

from pathlib import Path

import pytest

from repro.harness import knobs
from repro.harness.resultcache import default_cache_dir

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_read_prefers_explicit_environ(self):
        value = knobs.read(
            "REPRO_SERVICE_PORT", environ={"REPRO_SERVICE_PORT": "4096"}
        )
        assert value == "4096"

    def test_read_returns_none_when_unset(self):
        assert knobs.read("REPRO_SERVICE_PORT", environ={}) is None

    def test_read_uses_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_TIME_BAND", "0.25")
        assert knobs.read("REPRO_REPLAY_TIME_BAND") == "0.25"

    def test_unregistered_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="REPRO_SERVICE_PORT"):
            knobs.read("REPRO_TYPO")

    def test_registered_names_sorted(self):
        names = knobs.registered_names()
        assert list(names) == sorted(names)
        assert "REPRO_SERVICE_PORT" in names

    def test_every_knob_declares_a_contract(self):
        for knob in knobs.KNOBS.values():
            assert knob.name.startswith("REPRO_")
            assert knob.doc.strip()
            assert knob.digest_exempt_reason.strip()


class TestEveryKnobIsDocumented:
    """Dynamic twin of the static knob-registry lint rule."""

    def test_every_registered_knob_in_experiments_md(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        missing = [n for n in knobs.registered_names() if n not in text]
        assert not missing, f"undocumented knobs: {missing}"

    def test_result_cache_knob_registered(self):
        # The defect: REPRO_RESULT_CACHE was read by resultcache.py but
        # absent from any registry or documentation.
        assert "REPRO_RESULT_CACHE" in knobs.KNOBS

    def test_every_knob_is_digest_allowlisted(self):
        from repro.analysis.digest_exempt import DIGEST_EXEMPT

        for name in knobs.registered_names():
            assert name in DIGEST_EXEMPT, (
                f"{name} lacks a digest-purity justification"
            )


class TestResultCacheKnobStillWorks:
    def test_override_directs_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        assert default_cache_dir() == tmp_path / "cache"

    def test_unset_falls_back_to_checkout_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        expected = REPO_ROOT / "benchmarks" / "results" / ".cache"
        assert default_cache_dir() == expected
