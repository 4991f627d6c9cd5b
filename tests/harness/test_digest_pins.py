"""Digest-stability pins across the registry refactor.

The fixture ``data/digest_pins.json`` was captured from the pre-registry
workload constructor ladder: the machine digest plus the baseline and COBRA
``point_digest`` of all 23 canonical suite points at scale 13. The
registry must reproduce every byte — these digests are the persistent
result cache's keys and the identity golden entries are stored under, so
any drift silently invalidates every warm cache and golden pin on disk.

The pins cover the full identity pipeline: cache-key bytes
(``workload:input:scale``), the machine-config serialization, and the
runner digest parameters. They intentionally do *not* require running a
simulation — point digests are pure functions of the identity.
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import Runner
from repro.workloads.registry import resolve_point

PINS_PATH = Path(__file__).parent / "data" / "digest_pins.json"

PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runner():
    return Runner(result_cache=None)


class TestDigestPins:
    def test_fixture_covers_the_full_suite(self):
        assert len(PINS["points"]) == 23
        assert all(key.count(":") == 2 for key in PINS["points"])

    def test_machine_digest_unchanged(self, runner):
        assert runner.machine_digest() == PINS["machine"]

    @pytest.mark.parametrize("cache_key", sorted(PINS["points"]))
    def test_point_digests_unchanged(self, runner, cache_key):
        # The registry must resolve the pinned wire identity verbatim...
        workload = resolve_point(cache_key)
        assert workload.cache_key == cache_key
        # ...and feed run_digest the exact same bytes as the old ladder.
        for mode, pinned in PINS["points"][cache_key].items():
            assert runner.point_digest(workload.cache_key, mode) == pinned
