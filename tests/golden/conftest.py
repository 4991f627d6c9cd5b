"""Shared fixtures for the golden capture/replay tests."""

import pytest

from repro.harness import Runner
from repro.harness.modes import BASELINE, PB_SW
from repro.workloads.registry import resolve

SCALE = 13


def fresh_runner(**kwargs):
    kwargs.setdefault("max_sim_events", 20_000)
    return Runner(**kwargs)


class RecordingTelemetry:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append({"event": event, **fields})

    def emit_timed(self, event, duration_s, **fields):
        self.emit(
            event,
            duration_s=float(duration_s),
            seconds=float(duration_s),
            **fields,
        )

    def of(self, name):
        return [e for e in self.events if e["event"] == name]

    def flush(self):
        pass

    def close(self):
        pass


@pytest.fixture(scope="module")
def points():
    graph = resolve("degree-count", "KRON", scale=SCALE)
    return [(graph, BASELINE), (graph, PB_SW)]


@pytest.fixture()
def runner():
    return fresh_runner()


@pytest.fixture()
def telemetry():
    return RecordingTelemetry()
