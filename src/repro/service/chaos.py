"""Chaos drill: prove the sweep service's guarantees under injected faults.

The drill is the robustness acceptance test, runnable from CI
(``scripts/service_smoke.py``) and from the test suite at a small scale.
One run exercises every recovery path the service claims:

* **worker kill** — a ``kill=`` injector token SIGKILLs the pool worker
  simulating one point; the sweep executor rebuilds the pool and
  retries it;
* **worker stall** — a ``stall=`` token freezes a point long enough for
  the drill to ``kill -9`` the whole daemon mid-job;
* **journal torn-write** — ``torn=jobs`` tears a live job-journal
  append (seal-and-rewrite recovery), and the drill additionally
  appends a partial garbage line while the daemon is down, exactly what
  a death mid-``os.write`` leaves behind;
* **pool exhaustion / admission control** — the daemon runs with
  ``--queue-max 1``, so concurrent submissions are shed with 429 and
  must get in via the client's jittered-backoff retries;
* **crash recovery** — the daemon is SIGKILLed with jobs in flight and
  restarted; every job must complete without resubmission being
  *required* (retrying clients dedupe onto the same content-addressed
  job id);
* **graceful drain** — the surviving daemon gets SIGTERM and must exit
  0 with nothing lost.

The final assertion is the paper-repro invariant: every job's counters,
served from the service, are **bit-identical** to direct in-process
:class:`~repro.harness.runner.Runner` runs of the same points.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.faults import FaultInjector
from repro.harness.resultcache import counters_to_dict
from repro.harness.runner import Runner
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import JOURNAL_NAME
from repro.workloads.registry import resolve_point

__all__ = ["ChaosReport", "run_chaos_drill", "spawn_daemon", "wait_endpoint"]

_POLL = 0.05


@dataclass
class ChaosReport:
    """What the drill observed; ``ok`` is the pass/fail verdict."""

    jobs: int = 0
    completed: int = 0
    shed_responses: int = 0
    daemon_killed: bool = False
    journal_torn: bool = False
    drain_exit_code: int | None = None
    identical: bool = False
    errors: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors

    def as_dict(self):
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "shed_responses": self.shed_responses,
            "daemon_killed": self.daemon_killed,
            "journal_torn": self.journal_torn,
            "drain_exit_code": self.drain_exit_code,
            "identical": self.identical,
            "errors": list(self.errors),
            "ok": self.ok,
        }


def _repo_src():
    return str(Path(__file__).resolve().parents[2])


def spawn_daemon(state_dir, checkpoint_root, cache_dir, port, extra_env=None,
                 extra_args=None, telemetry=None):
    """Start a ``repro serve`` daemon subprocess (caller owns the Popen)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _repo_src()
    env["REPRO_RESULT_CACHE"] = str(cache_dir)
    env.pop("REPRO_FAULT_INJECT", None)
    env.pop("REPRO_CHECKPOINT_DIR", None)
    if extra_env:
        env.update(extra_env)
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--state-dir",
        str(state_dir),
        "--checkpoint-dir",
        str(checkpoint_root),
    ]
    if telemetry is not None:
        argv += ["--telemetry", str(telemetry)]
    if extra_args:
        argv += [str(arg) for arg in extra_args]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_endpoint(state_dir, process=None, timeout=60.0, after=0.0):
    """Wait for a fresh ``endpoint.json`` (mtime > ``after``); returns it."""
    endpoint = Path(state_dir) / "endpoint.json"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process is not None and process.poll() is not None:
            stdout, stderr = process.communicate()
            raise RuntimeError(
                f"daemon exited {process.returncode} before binding:\n"
                f"{stdout}\n{stderr}"
            )
        try:
            if endpoint.stat().st_mtime > after:
                return json.loads(endpoint.read_text("utf-8"))
        except (OSError, ValueError):
            pass
        time.sleep(_POLL)
    raise RuntimeError(f"no endpoint.json under {state_dir} within {timeout}s")


def _drill_points(scale):
    """Three jobs over canary-family points; returns [(label, [specs])]."""
    return [
        (
            "chaos-graph",
            [
                {"point": f"degree-count:KRON:{scale}", "mode": "baseline"},
                {"point": f"degree-count:KRON:{scale}", "mode": "cobra"},
            ],
        ),
        (
            "chaos-sort",
            [
                {"point": f"integer-sort:U16:{scale}", "mode": "baseline"},
                {"point": f"integer-sort:U16:{scale}", "mode": "pb-sw"},
            ],
        ),
        (
            "chaos-extra",
            [{"point": f"degree-count:KRON:{scale}", "mode": "pb-sw"}],
        ),
    ]


def _expected_counters(jobs):
    """Direct in-process runs — the bit-identity reference."""
    runner = Runner(result_cache=None)
    expected = {}
    for label, specs in jobs:
        rows = []
        for spec in specs:
            workload = resolve_point(spec["point"])
            rows.append(
                counters_to_dict(
                    runner.run(workload, spec["mode"], use_cache=False)
                )
            )
        expected[label] = rows
    return expected


def run_chaos_drill(work_dir, scale=10, stall_seconds=4.0, print_fn=None,
                    telemetry=None):
    """Run the full drill under ``work_dir``; returns a :class:`ChaosReport`."""
    say = print_fn if print_fn is not None else (lambda *_: None)
    work = Path(work_dir)
    state_dir = work / "service"
    checkpoint_root = work / "runs"
    cache_dir = work / "cache"
    fault_state = work / "fault-state"
    for directory in (work, state_dir, checkpoint_root, cache_dir):
        directory.mkdir(parents=True, exist_ok=True)
    report = ChaosReport()
    jobs = _drill_points(scale)
    report.jobs = len(jobs)

    say(f"chaos: computing direct-run reference counters (scale {scale})")
    expected = _expected_counters(jobs)

    stall_token = FaultInjector.token(f"degree-count:KRON:{scale}", "baseline")
    kill_token = FaultInjector.token(f"integer-sort:U16:{scale}", "baseline")
    inject = (
        f"stall={stall_token};kill={kill_token};"
        f"stall_seconds={stall_seconds};torn=jobs;state={fault_state}"
    )
    daemon_args = ["--queue-max", "1", "--jobs", "2", "--timeout", "120"]

    say("chaos: booting daemon A with fault injection")
    daemon = spawn_daemon(
        state_dir,
        checkpoint_root,
        cache_dir,
        port=0,
        extra_env={"REPRO_FAULT_INJECT": inject},
        extra_args=daemon_args,
        telemetry=telemetry,
    )
    job_ids = {}
    submitted_lock = threading.Lock()
    try:
        endpoint = wait_endpoint(state_dir, daemon)
        port = endpoint["port"]

        def client_for(name, seed):
            return ServiceClient(
                port=port,
                retries=40,
                backoff=0.5,
                backoff_cap=4.0,
                seed=seed,
                client_name=name,
            )

        main_client = client_for("chaos-main", 1)
        label0, specs0 = jobs[0]
        # repro: noqa[worker-safety] HTTP job submission, not a pool submit
        payload = main_client.submit(specs0, label=label0)
        with submitted_lock:
            job_ids[label0] = payload["job"]["job_id"]
        say(f"chaos: {label0} accepted as {job_ids[label0]}")

        # Concurrent submitters slam the queue_max=1 daemon; they must be
        # shed with 429 and get in later via backoff (through the kill
        # and restart below).
        shed_clients = []
        errors = []

        def submit_job(position):
            label, specs = jobs[position]
            client = client_for(f"chaos-{position}", seed=10 + position)
            shed_clients.append(client)
            try:
                # repro: noqa[worker-safety] HTTP submission, not a pool
                response = client.submit(specs, label=label)
                with submitted_lock:
                    job_ids[label] = response["job"]["job_id"]
            except ServiceError as exc:
                errors.append(f"{label}: {exc}")

        threads = [
            threading.Thread(target=submit_job, args=(position,))
            for position in (1, 2)
        ]
        for thread in threads:
            thread.start()

        # Wait until job 0 is running (its first point is mid-stall) and
        # SIGKILL the daemon with all three jobs in flight.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            state = main_client.job(job_ids[label0])
            if state is not None and state["job"]["state"] == "running":
                break
            time.sleep(_POLL)
        else:
            report.errors.append("job 0 never reached running before kill")
        endpoint_mtime = (Path(state_dir) / "endpoint.json").stat().st_mtime
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        report.daemon_killed = True
        say("chaos: daemon A SIGKILLed mid-job")

        # A death mid-append leaves a torn final line; fake one while the
        # daemon is down. Restart must seal and skip it.
        journal_path = state_dir / JOURNAL_NAME
        with open(journal_path, "ab") as handle:
            handle.write(b'{"job_id": "torn-mid-wri')
        report.journal_torn = True

        say("chaos: restarting daemon B on the same state")
        daemon = spawn_daemon(
            state_dir,
            checkpoint_root,
            cache_dir,
            port=port,
            extra_env={"REPRO_FAULT_INJECT": inject},
            extra_args=daemon_args,
            telemetry=telemetry,
        )
        wait_endpoint(state_dir, daemon, after=endpoint_mtime)

        for thread in threads:
            thread.join(timeout=240.0)
            if thread.is_alive():
                report.errors.append("a submitter thread never completed")
        report.errors.extend(errors)
        report.shed_responses = sum(
            client.shed_responses for client in shed_clients
        ) + main_client.shed_responses
        if report.shed_responses == 0:
            report.errors.append(
                "admission control never shed a submission (expected 429s)"
            )

        identical = True
        for label, _ in jobs:
            job_id = job_ids.get(label)
            if job_id is None:
                report.errors.append(f"{label}: never accepted")
                identical = False
                continue
            try:
                final = main_client.wait_job(job_id, timeout=300.0)
            except ServiceError as exc:
                report.errors.append(f"{label}: {exc}")
                identical = False
                continue
            if final["job"]["state"] != "completed":
                report.errors.append(
                    f"{label}: ended {final['job']['state']} "
                    f"({final['job'].get('error')})"
                )
                identical = False
                continue
            report.completed += 1
            results = final.get("results")
            if results != expected[label]:
                report.errors.append(
                    f"{label}: counters are not bit-identical to the "
                    "direct run"
                )
                identical = False
        report.identical = identical
        say(
            f"chaos: {report.completed}/{report.jobs} jobs completed, "
            f"{report.shed_responses} shed, identical={report.identical}"
        )

        say("chaos: SIGTERM drain of daemon B")
        daemon.send_signal(signal.SIGTERM)
        try:
            report.drain_exit_code = daemon.wait(timeout=120)
        except subprocess.TimeoutExpired:
            daemon.kill()
            report.errors.append("daemon B did not exit after SIGTERM")
        if report.drain_exit_code not in (0, None):
            report.errors.append(
                f"SIGTERM drain exited {report.drain_exit_code}, wanted 0"
            )
    except Exception as exc:  # noqa: BLE001 - the drill reports, never raises
        report.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)
    return report
