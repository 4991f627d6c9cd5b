"""Tests for counter-pin capture/replay and its verdict buckets."""

import json

import pytest

from repro.golden.canary import canary_points
from repro.golden.replay import (
    PINS_PATH,
    STATUS_FAIL,
    STATUS_MISSING,
    STATUS_PASS,
    STATUS_STALE,
    STATUSES,
    capture_pins,
    load_pins,
    pin_key,
    replay_pins,
)
from repro.harness import Runner

from .conftest import fresh_runner


def tamper(path, key, mutate):
    """Rewrite the pin file at ``path`` after applying ``mutate`` to the
    pins (``key`` names the pin the mutation targets)."""
    pins = json.loads(path.read_text("utf-8"))
    mutate(pins, key)
    path.write_text(json.dumps(pins), "utf-8")


def _bump_counter(pins, key):
    pins[key]["counters"]["phases"][0]["instructions"] += 1


def _wrong_digest(pins, key):
    pins[key]["digest"] = "0" * 64


def _remove(pins, key):
    del pins[key]


class TestTrackedPins:
    """The tracked ``pins.json`` gates a clean clone with no capture step."""

    @pytest.fixture(scope="class")
    def tracked(self):
        return canary_points(), load_pins()

    def test_pins_cover_exactly_the_canary(self, tracked):
        points, pins = tracked
        keys = [pin_key(w.cache_key, mode) for w, mode in points]
        assert len(set(keys)) == len(keys)
        assert sorted(keys) == sorted(pins)

    def test_canary_replays_bit_identical_on_default_runner(self, tracked):
        points, _ = tracked
        # Pins are digest-bound to the default Runner's sample budgets.
        report = replay_pins(Runner(), points)
        assert [p.status for p in report.points] == [STATUS_PASS] * len(
            points
        )
        assert report.ok()

    def test_pins_hold_no_engine_tag_or_provenance(self, tracked):
        _, pins = tracked
        text = PINS_PATH.read_text("utf-8")
        assert text.endswith("}\n")
        for pin in pins.values():
            assert set(pin) == {"digest", "counters"}
            for phase in pin["counters"]["phases"]:
                assert "engine" not in phase


class TestCaptureReplayCycle:
    def test_honest_replay_passes(self, tmp_path, points, telemetry):
        path = tmp_path / "pins.json"
        pins = capture_pins(fresh_runner(), points, path, telemetry=telemetry)
        assert len(pins) == len(points)
        assert len(telemetry.of("golden_captured")) == len(points)

        report = replay_pins(fresh_runner(), points, path, telemetry=telemetry)
        assert [p.status for p in report.points] == [STATUS_PASS] * len(
            points
        )
        assert report.ok()
        assert report.summary[STATUS_PASS] == len(points)
        replayed = telemetry.of("replay_point")
        assert [e["drifts"] for e in replayed] == [0] * len(points)

    def test_capture_records_digests_and_counters(self, tmp_path, points):
        runner = fresh_runner()
        pins = capture_pins(runner, points, tmp_path / "pins.json")
        for workload, mode in points:
            pin = pins[pin_key(workload.cache_key, mode)]
            assert pin["digest"] == runner.point_digest(
                workload.cache_key, mode
            )
            assert pin["counters"]["phases"]
        assert load_pins(tmp_path / "pins.json") == pins

    def test_two_captures_are_byte_identical(self, tmp_path, points):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        capture_pins(fresh_runner(), points, first)
        capture_pins(fresh_runner(), list(reversed(points)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_counter_mismatch_fails(self, tmp_path, points):
        path = tmp_path / "pins.json"
        capture_pins(fresh_runner(), points, path)
        workload, mode = points[0]
        tamper(path, pin_key(workload.cache_key, mode), _bump_counter)
        report = replay_pins(fresh_runner(), points, path)
        first, second = report.points
        assert first.status == STATUS_FAIL
        (drift,) = first.counter_drift
        assert drift["field"] == "phases[0].instructions"
        assert drift["pinned"] == drift["replay"] + 1
        assert second.status == STATUS_PASS
        assert not report.ok()

    @pytest.mark.parametrize(
        "mutate, status",
        [
            (_bump_counter, STATUS_FAIL),
            (_wrong_digest, STATUS_STALE),
            (_remove, STATUS_MISSING),
        ],
        ids=["mutated-counter", "wrong-digest", "removed-pin"],
    )
    def test_tampered_pin_fails_the_gate(self, tmp_path, points, mutate, status):
        path = tmp_path / "pins.json"
        capture_pins(fresh_runner(), points, path)
        workload, mode = points[1]
        tamper(path, pin_key(workload.cache_key, mode), mutate)
        report = replay_pins(fresh_runner(), points, path)
        assert [p.status for p in report.points] == [STATUS_PASS, status]
        assert not report.ok()


class TestStaleAndMissing:
    def test_machine_drift_reports_stale_not_fail(self, tmp_path, points):
        path = tmp_path / "pins.json"
        capture_pins(fresh_runner(), points, path)
        # A different runner configuration changes every point digest:
        # the comparison is invalid, so the pins are stale — and a stale
        # pin fails the gate until it is re-recorded.
        drifted = fresh_runner(max_sim_events=10_000)
        report = replay_pins(drifted, points, path)
        assert [p.status for p in report.points] == [STATUS_STALE] * len(
            points
        )
        assert report.summary[STATUS_STALE] == len(points)
        assert report.summary[STATUS_FAIL] == 0
        assert not report.ok()

    def test_empty_store_reports_missing(self, tmp_path, points):
        report = replay_pins(fresh_runner(), points, tmp_path / "absent.json")
        assert [p.status for p in report.points] == [STATUS_MISSING] * len(
            points
        )
        # No pins is no gate: a missing pin fails, it never bootstraps.
        assert not report.ok()


class TestPerturbDrill:
    def test_perturbation_fails_the_gate(self, tmp_path, points, monkeypatch):
        path = tmp_path / "pins.json"
        pins = capture_pins(fresh_runner(), points, path)
        monkeypatch.setenv("REPRO_REPLAY_PERTURB", "7")
        report = replay_pins(fresh_runner(), points, path)
        assert all(p.status == STATUS_FAIL for p in report.points)
        for point in report.points:
            (drift,) = point.counter_drift
            assert drift["field"] == "phases[0].instructions"
            assert drift["replay"] - drift["pinned"] == 7
        # The drill perturbs only the differ's copy: the pins are
        # untouched and an unperturbed replay still passes.
        monkeypatch.delenv("REPRO_REPLAY_PERTURB")
        assert load_pins(path) == pins
        assert replay_pins(fresh_runner(), points, path).ok()

    def test_non_integer_perturb_rejected(self, tmp_path, points, monkeypatch):
        path = tmp_path / "pins.json"
        capture_pins(fresh_runner(), points, path)
        monkeypatch.setenv("REPRO_REPLAY_PERTURB", "lots")
        with pytest.raises(ValueError, match="REPRO_REPLAY_PERTURB"):
            replay_pins(fresh_runner(), points, path)


class TestReportShape:
    def test_as_dict_is_json_roundtrippable(self, tmp_path, points):
        path = tmp_path / "pins.json"
        capture_pins(fresh_runner(), points, path)
        report = replay_pins(fresh_runner(), points, path)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["machine_digest"] == report.machine_digest
        assert len(payload["points"]) == len(points)
        assert set(payload["summary"]) == set(STATUSES)
