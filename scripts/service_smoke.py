#!/usr/bin/env python3
"""CI smoke test for the crash-safe sweep service (``repro serve``).

Two scenarios, both through real daemon subprocesses:

**A — crash recovery.** Boot a daemon, submit one fig10-sized job
(degree-count/KRON at scale 13 under all four execution modes) with a
fault injector stalling its first point so the job cannot finish, wait
until the job is running, ``kill -9`` the daemon, restart it on the same
state directory, and assert the job completes automatically — no
resubmission — with counters bit-identical to direct in-process runs.
A SIGTERM drain of the recovered daemon must then exit 0.

**B — chaos drill.** :func:`repro.service.chaos.run_chaos_drill` at a
smaller scale: concurrent submissions against a queue_max=1 daemon
(asserting 429 shedding), injected worker kill + stall + journal
torn-write, a daemon SIGKILL plus an externally torn journal tail,
restart, bit-identical completion of every job, graceful drain.

Telemetry JSONL logs from both scenarios land in the artifacts
directory (first argv, default a temp dir) for CI upload, alongside the
chaos report JSON.

Exit codes: 0 success; 2 boot/submission failure; 3 crash-recovery
failure (job lost or stuck after restart); 4 counters not bit-identical;
5 chaos drill failure; 1 infrastructure problems in the smoke itself.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.service.chaos import (  # noqa: E402
    run_chaos_drill,
    spawn_daemon,
    wait_endpoint,
)
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

SCALE = 13
MODES = ("baseline", "pb-sw", "pb-sw-ideal", "cobra")
POLL_SECONDS = 0.1

EXIT_BOOT = 2
EXIT_RECOVERY = 3
EXIT_NOT_IDENTICAL = 4
EXIT_CHAOS = 5


def fail(message, code=1):
    print(f"service-smoke FAILED: {message}", file=sys.stderr)
    sys.exit(code)


def expected_counters():
    from repro.harness.resultcache import counters_to_dict
    from repro.harness.runner import Runner
    from repro.workloads.registry import resolve

    runner = Runner(result_cache=None)
    workload = resolve("degree-count", "KRON", SCALE)
    return [
        counters_to_dict(runner.run(workload, mode, use_cache=False))
        for mode in MODES
    ]


def scenario_recovery(work, artifacts):
    state_dir = work / "service"
    checkpoint_root = work / "runs"
    cache_dir = work / "cache"
    telemetry = artifacts / "service_smoke.jsonl"
    inject = (
        f"stall=degree-count:KRON:{SCALE}|baseline;stall_seconds=600;"
        f"state={work / 'fault-state'}"
    )
    points = [
        {"point": f"degree-count:KRON:{SCALE}", "mode": mode}
        for mode in MODES
    ]

    print(f"service-smoke: direct reference runs (scale {SCALE}, 4 modes)")
    expected = expected_counters()

    print("service-smoke: booting daemon, submitting the fig10-sized job")
    daemon = spawn_daemon(
        state_dir,
        checkpoint_root,
        cache_dir,
        port=0,
        extra_env={"REPRO_FAULT_INJECT": inject},
        extra_args=["--jobs", "2", "--timeout", "120"],
        telemetry=telemetry,
    )
    try:
        endpoint = wait_endpoint(state_dir, daemon)
    except RuntimeError as exc:
        daemon.kill()
        fail(str(exc), code=EXIT_BOOT)
    port = endpoint["port"]
    client = ServiceClient(port=port, retries=20, client_name="smoke")
    try:
        payload = client.submit(points, label="smoke-fig10")
    except ServiceError as exc:
        daemon.kill()
        fail(f"submission refused: {exc}", code=EXIT_BOOT)
    job_id = payload["job"]["job_id"]
    print(f"service-smoke: job {job_id} accepted")

    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        state = client.job(job_id)
        if state is not None and state["job"]["state"] == "running":
            break
        if daemon.poll() is not None:
            fail(
                f"daemon died before the job ran:\n{daemon.communicate()[1]}",
                code=EXIT_BOOT,
            )
        time.sleep(POLL_SECONDS)
    else:
        daemon.kill()
        fail("job never reached running before the kill", code=EXIT_BOOT)

    endpoint_mtime = (state_dir / "endpoint.json").stat().st_mtime
    daemon.send_signal(signal.SIGKILL)
    daemon.wait(timeout=30)
    print("service-smoke: daemon SIGKILLed mid-job; restarting")

    daemon = spawn_daemon(
        state_dir,
        checkpoint_root,
        cache_dir,
        port=port,
        extra_env={"REPRO_FAULT_INJECT": inject},
        extra_args=["--jobs", "2", "--timeout", "120"],
        telemetry=telemetry,
    )
    try:
        try:
            wait_endpoint(state_dir, daemon, after=endpoint_mtime)
        except RuntimeError as exc:
            fail(str(exc), code=EXIT_RECOVERY)
        try:
            final = client.wait_job(job_id, timeout=300.0)
        except ServiceError as exc:
            fail(f"job did not finish after restart: {exc}", code=EXIT_RECOVERY)
        if final["job"]["state"] != "completed":
            fail(
                f"job ended {final['job']['state']} after restart "
                f"({final['job'].get('error')})",
                code=EXIT_RECOVERY,
            )
        if final.get("results") != expected:
            fail(
                "recovered job counters are not bit-identical to the "
                "direct runs",
                code=EXIT_NOT_IDENTICAL,
            )
        print("service-smoke: recovery OK, counters bit-identical")
        daemon.send_signal(signal.SIGTERM)
        try:
            code = daemon.wait(timeout=120)
        except subprocess.TimeoutExpired:
            fail("drain did not finish", code=EXIT_RECOVERY)
        if code != 0:
            fail(f"SIGTERM drain exited {code}, wanted 0", code=EXIT_RECOVERY)
        print("service-smoke: drain OK (exit 0)")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)


def scenario_chaos(work, artifacts):
    print("service-smoke: running the chaos drill (scale 10)")
    report = run_chaos_drill(
        work / "chaos",
        scale=10,
        print_fn=print,
        telemetry=artifacts / "chaos.jsonl",
    )
    report_path = artifacts / "chaos_report.json"
    report_path.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"service-smoke: chaos report at {report_path}")
    if not report.ok:
        for error in report.errors:
            print(f"  chaos: {error}", file=sys.stderr)
        fail("chaos drill failed", code=EXIT_CHAOS)
    print(
        f"service-smoke: chaos OK ({report.completed} jobs, "
        f"{report.shed_responses} shed, drain exit {report.drain_exit_code})"
    )


def main():
    work = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    artifacts = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else work / "artifacts"
    )
    artifacts.mkdir(parents=True, exist_ok=True)
    os.environ.pop("REPRO_FAULT_INJECT", None)
    scenario_recovery(work / "recovery", artifacts)
    scenario_chaos(work, artifacts)
    print("service-smoke PASSED")


if __name__ == "__main__":
    main()
