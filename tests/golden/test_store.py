"""Tests for the pin file: its keys, its format, and malformed files."""

import json

import pytest

from repro.golden.replay import (
    STATUS_PASS,
    STATUS_STALE,
    capture_pins,
    load_pins,
    pin_key,
    replay_pins,
    write_pins,
)
from repro.harness.modes import BASELINE, COBRA

from .conftest import fresh_runner


def pin(instructions=1):
    return {
        "digest": "d" * 64,
        "counters": {"phases": [{"name": "main", "instructions": instructions}]},
    }


class TestAddressing:
    def test_golden_id_is_content_addressed(self):
        key = pin_key("degree-count:KRON:13", "cobra")
        assert key == pin_key("degree-count:KRON:13", "cobra")
        assert key != pin_key("degree-count:KRON:14", "cobra")
        assert key != pin_key("degree-count:KRON:13", "baseline")
        assert key == "degree-count:KRON:13|cobra"

    def test_mode_objects_stringify(self):
        assert pin_key("p", COBRA) == pin_key("p", "cobra")
        assert pin_key("p", BASELINE) == "p|baseline"


class TestRoundtrip:
    def test_put_get_roundtrip(self, tmp_path):
        path = tmp_path / "pins.json"
        pins = {"p|cobra": pin(3), "p|baseline": pin(4)}
        write_pins(pins, path)
        assert load_pins(path) == pins

    def test_missing_entry(self, tmp_path):
        assert load_pins(tmp_path / "absent.json") == {}
        write_pins({"p|cobra": pin()}, tmp_path / "pins.json")
        assert "p|baseline" not in load_pins(tmp_path / "pins.json")

    def test_entries_sorted_by_point_and_mode(self, tmp_path):
        forward, backward = tmp_path / "a.json", tmp_path / "b.json"
        keys = ["q|cobra", "p|cobra", "p|baseline"]
        write_pins({k: pin() for k in keys}, forward)
        write_pins({k: pin() for k in reversed(keys)}, backward)
        text = forward.read_text("utf-8")
        assert text == backward.read_text("utf-8")
        assert text.endswith("}\n")
        assert list(json.loads(text)) == sorted(keys)

    def test_put_rejects_missing_keys(self, tmp_path):
        bad = pin()
        del bad["counters"]
        with pytest.raises(ValueError, match="must hold exactly"):
            write_pins({"p|cobra": bad}, tmp_path / "pins.json")
        assert not (tmp_path / "pins.json").exists()


class TestCorruptEntries:
    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "pins.json"
        path.write_text("torn{", "utf-8")
        with pytest.raises(ValueError, match="unreadable pin file"):
            load_pins(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "pins.json"
        path.write_text(json.dumps({"p|cobra": {"digest": "d"}}), "utf-8")
        with pytest.raises(ValueError, match="must hold exactly"):
            load_pins(path)

    def test_id_address_mismatch(self, tmp_path, points):
        """A pin filed under another point's key carries that point's
        digest, so replay reports it stale instead of diffing it."""
        path = tmp_path / "pins.json"
        pins = capture_pins(fresh_runner(), points, path)
        (first, first_mode), (second, second_mode) = points
        pins[pin_key(second.cache_key, second_mode)] = pins[
            pin_key(first.cache_key, first_mode)
        ]
        write_pins(pins, path)
        report = replay_pins(fresh_runner(), points, path)
        assert [p.status for p in report.points] == [STATUS_PASS, STATUS_STALE]
        assert not report.ok()
