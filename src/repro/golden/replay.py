"""Capture the canary's counters into tracked pins and replay against them.

``pins.json``, shipped as package data next to this module, holds one pin
per canary point, keyed ``"<cache_key>|<mode>"``: the point's run digest
(:meth:`~repro.harness.runner.Runner.point_digest`) and its counters
(:func:`~repro.harness.resultcache.counters_to_dict` with the per-phase
``engine`` tag stripped). Nothing else goes in — no timestamps, git SHA
or wall-clock — so an unchanged tree captures a byte-identical file, and
any counter change shows up as a reviewed diff of it.

Counters are bit-exact: the engines are equivalence-tested, and
serialization round-trips ints and float reprs exactly, so *any* drift is
a regression, never noise. A replayed point lands in exactly one bucket:

``pass``
    Counters bit-identical to the pin.
``fail``
    Counter drift; per-field drifts are reported.
``stale``
    The pin's digest is not the point's digest on this runner: the
    machine or a digested runner setting changed since capture.
``missing``
    No pin for the point.

Only ``pass`` gates green. A stale or missing pin means the file no
longer describes the canary; re-recording it is a reviewed change.

``REPRO_REPLAY_PERTURB`` is the gate's fault-injection drill: it adds an
integer to the first phase's instruction count of every replayed result
*after* simulation, inside the differ only, so CI can prove end to end
that counter drift exits non-zero without ever corrupting caches or pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness import knobs
from repro.harness.benchhistory import current_git_sha, iso_utc
from repro.harness.checkpoint import _atomic_write_json
from repro.harness.resultcache import counters_to_dict
from repro.harness.telemetry import NULL_TELEMETRY

__all__ = [
    "PINS_PATH",
    "PointReport",
    "ReplayReport",
    "capture_pins",
    "load_pins",
    "pin_key",
    "replay_pins",
    "write_pins",
]

#: The tracked pin file.
PINS_PATH = Path(__file__).with_name("pins.json")

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"
STATUSES = (STATUS_PASS, STATUS_FAIL, STATUS_STALE, STATUS_MISSING)

#: The fields of every pin.
_PIN_FIELDS = frozenset({"digest", "counters"})

#: Cap on reported per-field drifts per point (the first drift already
#: fails the gate; the cap keeps reports readable when everything moved).
_MAX_DRIFTS = 16


def pin_key(cache_key, mode):
    """The pin file key of one ``(workload, mode)`` point."""
    return f"{cache_key}|{mode}"


def _check_pins(pins, path):
    if not isinstance(pins, dict):
        raise ValueError(f"pin file {path} is not a JSON object")
    for key, pin in pins.items():
        if not isinstance(pin, dict) or set(pin) != _PIN_FIELDS:
            raise ValueError(
                f"pin {key!r} in {path} must hold exactly "
                f"{sorted(_PIN_FIELDS)}"
            )


def load_pins(path=None):
    """The pins at ``path`` (default :data:`PINS_PATH`), ``{}`` if absent.

    Raises :class:`ValueError` on an unreadable or malformed file.
    """
    path = Path(path) if path is not None else PINS_PATH
    try:
        text = path.read_text("utf-8")
    except FileNotFoundError:
        return {}
    try:
        pins = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"unreadable pin file {path}: {exc}") from None
    _check_pins(pins, path)
    return pins


def write_pins(pins, path=None):
    """Publish ``pins`` atomically with sorted keys and a final newline."""
    path = Path(path) if path is not None else PINS_PATH
    _check_pins(pins, path)
    _atomic_write_json(path, pins)


def _pin_counters(result):
    """The pinned form of a run's counters: no per-phase engine tag."""
    counters = counters_to_dict(result)
    for phase in counters["phases"]:
        del phase["engine"]
    return counters


@dataclass(frozen=True)
class PointReport:
    """Replay verdict for one canary point."""

    point: str
    mode: str
    status: str
    #: Per-field counter drifts: ``{"field", "pinned", "replay"}`` dicts.
    counter_drift: tuple = ()

    def as_dict(self):
        return {
            "point": self.point,
            "mode": self.mode,
            "status": self.status,
            "counter_drift": list(self.counter_drift),
        }


@dataclass(frozen=True)
class ReplayReport:
    """Structured outcome of one ``repro replay`` invocation."""

    machine_digest: str
    points: tuple = ()
    recorded: str = field(default=None, compare=False)
    git_sha: str = field(default=None, compare=False)

    @property
    def summary(self):
        """Verdict counts, every bucket always present."""
        counts = dict.fromkeys(STATUSES, 0)
        for report in self.points:
            counts[report.status] += 1
        return counts

    def ok(self):
        """True when every point's counters match its pin."""
        return all(p.status == STATUS_PASS for p in self.points)

    def as_dict(self):
        return {
            "machine_digest": self.machine_digest,
            "recorded": self.recorded,
            "git_sha": self.git_sha,
            "summary": self.summary,
            "ok": self.ok(),
            "points": [p.as_dict() for p in self.points],
        }


def capture_pins(runner, points, path=None, telemetry=None):
    """Simulate ``points`` fresh and rewrite the pin file with them.

    ``use_cache=False``: a pin must come from a run that simulated, not
    from counters the result cache served. Returns the pins written.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    pins = {}
    for workload, mode in points:
        point = workload.cache_key
        result = runner.run(workload, mode, use_cache=False)
        digest = runner.point_digest(point, mode)
        pins[pin_key(point, mode)] = {
            "digest": digest,
            "counters": _pin_counters(result),
        }
        telemetry.emit(
            "golden_captured", point=point, mode=str(mode), digest=digest
        )
    write_pins(pins, path)
    return pins


def _diff_payload(pinned, replay, path, out):
    """Exact structural diff of two counter payloads (bounded)."""
    if len(out) >= _MAX_DRIFTS:
        return
    if isinstance(pinned, dict) and isinstance(replay, dict):
        for key in sorted(set(pinned) | set(replay)):
            _diff_payload(
                pinned.get(key), replay.get(key), f"{path}.{key}", out
            )
    elif (
        isinstance(pinned, list)
        and isinstance(replay, list)
        and len(pinned) == len(replay)
    ):
        for index, (a, b) in enumerate(zip(pinned, replay)):
            _diff_payload(a, b, f"{path}[{index}]", out)
    elif pinned != replay:
        # Exact comparison is the policy: ints are exact and float reprs
        # round-trip, so inequality here is drift, not representation.
        out.append(
            {"field": path.lstrip("."), "pinned": pinned, "replay": replay}
        )


def _perturb_delta():
    """The ``REPRO_REPLAY_PERTURB`` drill's integer (0 when unset)."""
    raw = knobs.read("REPRO_REPLAY_PERTURB")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_REPLAY_PERTURB must be an integer, got {raw!r}"
        ) from None


def replay_pins(runner, points, path=None, telemetry=None):
    """Re-simulate ``points`` and diff each against its pin."""
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    pins = load_pins(path)
    delta = _perturb_delta()
    reports = []
    for workload, mode in points:
        point = workload.cache_key
        pin = pins.get(pin_key(point, mode))
        drifts = []
        if pin is None:
            status = STATUS_MISSING
        elif pin["digest"] != runner.point_digest(point, mode):
            status = STATUS_STALE
        else:
            replayed = _pin_counters(runner.run(workload, mode, use_cache=False))
            if delta and replayed["phases"]:
                # The drill perturbs only this in-memory copy.
                replayed["phases"][0]["instructions"] += delta
            _diff_payload(pin["counters"], replayed, "", drifts)
            status = STATUS_FAIL if drifts else STATUS_PASS
        telemetry.emit(
            "replay_point",
            point=point,
            mode=str(mode),
            status=status,
            drifts=len(drifts),
        )
        reports.append(
            PointReport(
                point=point,
                mode=str(mode),
                status=status,
                counter_drift=tuple(drifts),
            )
        )
    return ReplayReport(
        machine_digest=runner.machine_digest(),
        points=tuple(reports),
        recorded=iso_utc(),
        git_sha=current_git_sha(),
    )
