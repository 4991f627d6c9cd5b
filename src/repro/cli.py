"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list                      # available experiments
    python -m repro inputs                    # the scaled Table III
    python -m repro run fig10 --scale 16      # one experiment
    python -m repro run fig13a fig13b fig13c  # several
    python -m repro run fig10 --jobs 4        # parallel sweep executor
    python -m repro run fig10 --no-cache      # skip the persistent cache
    python -m repro run fig10 --jobs 4 --timeout 600 --retries 2 \
        --telemetry run.jsonl                 # hang budget + observable
    python -m repro run fig10 --jobs 4 --checkpoint-dir  # journal progress
    python -m repro point pagerank KRON --mode cobra  # one point, validated
    python -m repro runs                      # list checkpointed runs
    python -m repro runs --json               # machine-readable run list
    python -m repro resume 1f2e3d4c5b6a       # finish an interrupted run
    python -m repro serve --port 0            # crash-safe sweep daemon
    python -m repro submit degree-count:KRON:13:cobra --wait  # run via daemon
    python -m repro jobs                      # the daemon's job table
    python -m repro report --telemetry run.jsonl  # summarize a run log
    python -m repro machine                   # the simulated machine
    python -m repro lint                      # determinism static analysis
    python -m repro lint --json               # machine-readable findings
    python -m repro lint --baseline write     # regenerate lint_baseline.json
    python -m repro capture                   # re-record the counter pins
    python -m repro replay                    # diff canary vs counter pins
    python -m repro replay --report replay.json  # CI gate + artifact
    python -m repro report --replay replay.json  # render a saved report
    python -m repro trend                     # BENCH_*.json perf trajectory

Experiments print the same rows/series the paper's figures plot. Results
persist under ``benchmarks/results/.cache/`` (disable with ``--no-cache``),
so re-running a figure suite or resuming a killed sweep skips completed
simulations. With ``--checkpoint-dir``, sweeps additionally journal every
completed point under a run directory; SIGINT/SIGTERM drain in-flight work
and exit cleanly (code 130) with a ``repro resume`` hint instead of a stack
trace.
"""

from __future__ import annotations

import argparse

from repro.harness.experiments import (
    fig02,
    fig04,
    fig05,
    fig10,
    fig10x,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    mrc,
    scaling,
    table1,
)

__all__ = ["EXPERIMENTS", "build_parser", "main"]

#: Experiment name -> (callable, description).
EXPERIMENTS = {
    "fig02": (fig02.run, "LLC miss rates of baseline irregular updates"),
    "fig04": (fig04.run, "PB bin-count sensitivity (Binning vs Accumulate)"),
    "fig05": (fig05.run, "PB-SW-IDEAL headroom over software PB"),
    "table1": (table1.run, "PB phase breakup (Init/Binning/Accumulate)"),
    "fig10": (fig10.run, "headline speedups: PB-SW / PB-SW-IDEAL / COBRA"),
    "fig10x": (
        fig10x.run,
        "extension-suite speedups: histogram + csr-build, real graphs",
    ),
    "fig11": (fig11.run, "COBRA per-phase speedups over PB-SW"),
    "fig12": (fig12.run, "instruction & branch overheads of Binning"),
    "fig13a": (fig13.run_eviction_buffers, "eviction-buffer sizing (DES)"),
    "fig13b": (fig13.run_way_sensitivity, "reserved-way sensitivity"),
    "fig13c": (fig13.run_context_switch, "context-switch bandwidth waste"),
    "fig14": (fig14.run, "COBRA vs PHI / COBRA-COMM (commutative kernels)"),
    "fig15": (fig15.run, "PB vs CSR-Segmenting tiling (Pagerank)"),
    "mrc": (mrc.run, "miss-ratio curves, raw vs binned (supplemental)"),
    "scaling": (scaling.run, "multicore scalability (extension)"),
}


def _positive_int(text):
    """argparse type for ``--jobs``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def build_parser():
    """The argparse parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Improving Locality of Irregular Updates with "
            "Hardware Assisted Propagation Blocking' (HPCA 2022)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")
    commands.add_parser("inputs", help="describe the input suite (Table III)")
    commands.add_parser("machine", help="describe the simulated machine")

    run_parser = commands.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        metavar="experiment",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    run_parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="log2 of the input namespace (default: the full-scale suite)",
    )
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help=(
            "fan independent (workload, mode) points across this many "
            "worker processes (default: serial)"
        ),
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the persistent result cache under "
            "benchmarks/results/.cache/ (simulate everything fresh)"
        ),
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help=(
            "per-point wall-clock budget in seconds for parallel sweeps; "
            "hung workers are killed and their points retried"
        ),
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "retries per sweep point after a crash/timeout/error "
            "(default 2)"
        ),
    )
    run_parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "append a JSONL run-event log (sweep/point lifecycle, cache "
            "hits, engine choices, per-phase wall-clock) to PATH"
        ),
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        nargs="?",
        const=True,
        default=None,
        help=(
            "journal sweep progress under DIR (bare flag: the default run "
            "root, benchmarks/results/.runs/ or $REPRO_CHECKPOINT_DIR); "
            "interrupted sweeps exit cleanly and can be finished with "
            "`repro resume <run-id>`"
        ),
    )
    run_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "flag a parallel-sweep worker as stalled when its point emits "
            "no heartbeat for this long (catches wedged workers well "
            "before --timeout)"
        ),
    )

    point_parser = commands.add_parser(
        "point", help="simulate one (workload, input, mode) point"
    )
    point_parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help=(
            "workload name (see `workloads`); deprecated positional form — "
            "prefer --spec workload/input@scale"
        ),
    )
    point_parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="input name, e.g. KRON (deprecated positional form)",
    )
    point_parser.add_argument(
        "--spec",
        metavar="WORKLOAD/INPUT[@SCALE]",
        default=None,
        help=(
            "canonical point spec, e.g. degree-count/KRON@18 or "
            "csr-build/KARATE (ingested inputs pin their own scale)"
        ),
    )
    point_parser.add_argument(
        "--mode",
        default="baseline",
        help="execution mode (validated against ExecutionMode)",
    )
    point_parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="log2 of the input namespace (default: full scale)",
    )
    point_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the RunResult as JSON instead of a table",
    )
    point_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache",
    )

    workloads_parser = commands.add_parser(
        "workloads",
        help="list the registered workloads and their canonical specs",
        description=(
            "Every workload in the declarative registry with its input "
            "suite, accepted input kinds, and canonical "
            "workload/input@scale spec strings (the form `repro point "
            "--spec` and `repro submit` accept). Extension workloads "
            "(outside the paper's nine-kernel suite) are marked."
        ),
    )
    workloads_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable registry listing",
    )

    runs_parser = commands.add_parser(
        "runs", help="list checkpointed sweep runs"
    )
    runs_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="run root to list (default: the default run root)",
    )
    runs_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the machine-readable run list (the same serializer "
            "backs the sweep service's /jobs run summaries)"
        ),
    )

    serve_parser = commands.add_parser(
        "serve",
        help="run the crash-safe sweep-service daemon",
        description=(
            "Long-running daemon accepting sweep submissions over local "
            "HTTP/JSON. Jobs are journaled durably before acknowledgement "
            "and executed through the sweep executor with "
            "per-point checkpoints, so a kill -9 plus restart resumes "
            "every in-flight job bit-identically. SIGTERM drains "
            "gracefully within $REPRO_SERVICE_DRAIN_DEADLINE."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "TCP port (default $REPRO_SERVICE_PORT or 8377; 0 picks a "
            "free port, published in endpoint.json)"
        ),
    )
    serve_parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help=(
            "service state directory for the job journal and "
            "endpoint.json (default: 'service' under the checkpoint root)"
        ),
    )
    serve_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="sweep-checkpoint root (default: the default run root)",
    )
    serve_parser.add_argument(
        "--queue-max",
        type=int,
        default=None,
        help=(
            "bounded queue depth before submissions are shed with 429 "
            "(default $REPRO_SERVICE_QUEUE_MAX or 64)"
        ),
    )
    serve_parser.add_argument(
        "--client-max",
        type=int,
        default=None,
        help="per-client in-flight job cap (default 8)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=2,
        help="worker processes per sweep (default 2)",
    )
    serve_parser.add_argument(
        "--drain-deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "SIGTERM drain deadline "
            "(default $REPRO_SERVICE_DRAIN_DEADLINE or 30)"
        ),
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result-cache read-through tier",
    )
    serve_parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="append service + sweep events to a JSONL log at PATH",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per point after a crash/timeout/error",
    )
    serve_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="stall threshold for silent sweep workers (seconds)",
    )

    submit_parser = commands.add_parser(
        "submit",
        help="submit sweep points to a running sweep service",
        description=(
            "Points are 'workload/input[@scale][:mode]' canonical specs "
            "(or the legacy 'workload:input:scale[:mode]' form); mode "
            "defaults to baseline. The daemon is discovered through "
            "endpoint.json in its state directory unless --port is given. "
            "Refusals (429/503) are retried with jittered backoff."
        ),
    )
    submit_parser.add_argument(
        "points",
        nargs="+",
        metavar="point",
        help=(
            "one or more 'workload/input[@scale][:mode]' specs (legacy "
            "'workload:input:scale[:mode]' also accepted)"
        ),
    )
    submit_parser.add_argument(
        "--label", default=None, help="human-readable job label"
    )
    submit_parser.add_argument(
        "--client", default=None, help="client name for per-client caps"
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job leaves the pending states",
    )
    submit_parser.add_argument(
        "--wait-timeout",
        type=float,
        metavar="SECONDS",
        default=600.0,
        help="--wait deadline (default 600)",
    )

    jobs_parser = commands.add_parser(
        "jobs", help="list a running sweep service's jobs"
    )
    jobs_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw /jobs payload",
    )
    for sub in (submit_parser, jobs_parser):
        sub.add_argument(
            "--state-dir",
            metavar="DIR",
            default=None,
            help=(
                "service state directory holding endpoint.json "
                "(default: 'service' under the checkpoint root)"
            ),
        )
        sub.add_argument(
            "--checkpoint-dir",
            metavar="DIR",
            default=None,
            help="checkpoint root the daemon was started with",
        )
        sub.add_argument(
            "--host", default="127.0.0.1", help="daemon host (with --port)"
        )
        sub.add_argument(
            "--port",
            type=int,
            default=None,
            help="daemon port (skips endpoint.json discovery)",
        )

    resume_parser = commands.add_parser(
        "resume", help="finish an interrupted checkpointed sweep"
    )
    resume_parser.add_argument(
        "run_id", help="run id shown by `repro runs` / the interrupt message"
    )
    resume_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="run root holding the run (default: the default run root)",
    )
    resume_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for the remaining points (default: serial)",
    )
    resume_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache while resuming",
    )
    resume_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget in seconds",
    )
    resume_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="retries per point after a crash/timeout/error",
    )
    resume_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="stall threshold for silent workers (seconds)",
    )
    resume_parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="append a JSONL run-event log to PATH",
    )

    lint_parser = commands.add_parser(
        "lint",
        help="run the determinism/digest-purity static analysis",
        description=(
            "Runs the repo-specific static analysis over the checkout: "
            "file-local AST checkers (unseeded randomness, digest purity, "
            "knob registry, backend pairing, nondeterminism hazards, "
            "worker safety) plus the interprocedural call-graph rules "
            "(concurrency-safety, digest-flow, telemetry-schema). Exits 1 "
            "on findings not excused by the committed lint_baseline.json."
        ),
    )
    lint_parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="checkout root to lint (default: auto-detected)",
    )
    lint_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable findings report",
    )
    lint_parser.add_argument(
        "--baseline",
        choices=["write"],
        default=None,
        help="'write' (re)generates the committed baseline from the "
        "current findings instead of checking against it",
    )
    lint_parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined and suppressed findings",
    )
    lint_parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write the findings as a SARIF 2.1.0 log at PATH "
        "(for CI code-scanning upload)",
    )

    report_parser = commands.add_parser(
        "report", help="summarize a telemetry log or a saved replay report"
    )
    report_parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="telemetry file written by `repro run --telemetry PATH`",
    )
    report_parser.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help=(
            "ReplayReport JSON written by `repro replay --report PATH` "
            "(e.g. a CI artifact); rendered as the replay verdict table"
        ),
    )
    report_parser.add_argument(
        "--slowest",
        type=int,
        default=10,
        help="number of slowest points to list (default 10)",
    )

    capture_parser = commands.add_parser(
        "capture",
        help="re-record the canary's counter pins",
        description=(
            "Simulates every canary point fresh and rewrites the tracked "
            "pin file (src/repro/golden/pins.json) with each point's run "
            "digest and counters. An unchanged tree rewrites it "
            "byte-identically; any other diff is a counter change to "
            "review."
        ),
    )
    replay_parser = commands.add_parser(
        "replay",
        help="re-run the canary and diff it against the counter pins",
        description=(
            "Re-simulates every canary point and compares its counters "
            "bit-exactly to its pin. Exits non-zero on counter drift, on "
            "a missing pin, and on a stale pin (pinned digest differs "
            "from the point's digest)."
        ),
    )
    for sub in (capture_parser, replay_parser):
        sub.add_argument(
            "--telemetry",
            metavar="PATH",
            default=None,
            help="append capture/replay events to a JSONL log at PATH",
        )
    replay_parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also write the structured ReplayReport JSON to PATH",
    )
    replay_parser.add_argument(
        "--json",
        action="store_true",
        help="print the ReplayReport as JSON instead of the verdict table",
    )

    trend_parser = commands.add_parser(
        "trend",
        help="render the BENCH_*.json perf trajectory",
        description=(
            "Folds the accumulated, append-only BENCH_*.json histories "
            "(one entry per recorded run, keyed by git SHA + UTC date) "
            "into a per-bench table of tracked speedup metrics plus the "
            "net change from oldest to newest entry."
        ),
    )
    trend_parser.add_argument(
        "--results-dir",
        metavar="DIR",
        default=None,
        help="directory holding BENCH_*.json (default: benchmarks/history/)",
    )
    trend_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the structured trajectory instead of tables",
    )
    return parser


def _cmd_list(print_fn):
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print_fn(f"{name.ljust(width)}  {EXPERIMENTS[name][1]}")


def _cmd_inputs(print_fn, scale=None):
    from repro.harness.report import format_table
    from repro.workloads.registry import describe_inputs

    rows = describe_inputs(scale, include_datasets=True)
    print_fn(
        format_table(
            ["input", "kind", "size", "entries"],
            [
                [
                    row["input"],
                    row["kind"],
                    row.get("vertices", row.get("rows", 0)),
                    row.get("edges", row.get("nnz", 0)),
                ]
                for row in rows
            ],
            title="Input suite (scaled Table III + ingested datasets)",
        )
    )


def _cmd_workloads(print_fn, as_json=False):
    import json

    from repro.harness.report import format_table
    from repro.workloads.registry import describe_workloads

    rows = describe_workloads()
    if as_json:
        print_fn(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print_fn(
        format_table(
            ["workload", "inputs", "kinds", "ext", "description"],
            [
                [
                    row["workload"],
                    ",".join(row["inputs"]),
                    ",".join(row["kinds"]),
                    "yes" if row["extension"] else "-",
                    row["description"],
                ]
                for row in rows
            ],
            title="Workload registry (spec form: workload/input@scale)",
        )
    )
    return 0


def _cmd_machine(print_fn):
    from repro.harness.machine import DEFAULT_MACHINE

    hierarchy = DEFAULT_MACHINE.hierarchy
    core = DEFAULT_MACHINE.core
    print_fn("Simulated machine (scaled Table II; see DESIGN.md section 5)")
    print_fn(
        f"  L1D  {hierarchy.l1_bytes // 1024} KB, {hierarchy.l1_ways}-way, "
        f"{hierarchy.l1_policy}, load-to-use {core.l1_latency} cycles"
    )
    print_fn(
        f"  L2   {hierarchy.l2_bytes // 1024} KB, {hierarchy.l2_ways}-way, "
        f"{hierarchy.l2_policy}, {core.l2_latency} cycles, stream prefetcher"
    )
    print_fn(
        f"  LLC  {hierarchy.llc_bytes // 1024} KB/core bank, "
        f"{hierarchy.llc_ways}-way, {hierarchy.llc_policy}, "
        f"{core.llc_latency} cycles (remote {core.llc_remote_latency})"
    )
    print_fn(
        f"  core {core.issue_width}-wide @ {core.frequency_ghz} GHz, "
        f"DRAM {core.dram_latency} cycles, "
        f"stream {core.stream_bytes_per_cycle} B/cycle/core"
    )


def _cmd_report(print_fn, args):
    if (args.telemetry is None) == (args.replay is None):
        print_fn("report needs exactly one of --telemetry or --replay")
        return 2
    if args.replay is not None:
        import json

        from repro.harness.report import format_replay

        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            print_fn(f"cannot read replay report: {exc}")
            return 1
        print_fn(format_replay(payload))
        return 0
    from repro.harness.telemetry import format_summary, summarize

    try:
        summary = summarize(args.telemetry, slowest=args.slowest)
    except OSError as exc:
        print_fn(f"cannot read telemetry file: {exc}")
        return 1
    print_fn(format_summary(summary))
    return 0


def _parse_point_arg(raw):
    """Parse one point argument into ``{"point": cache_key, "mode": mode}``.

    Accepts the canonical spec form ``workload/input[@scale][:mode]`` and
    the legacy wire form ``workload:input:scale[:mode]``. Raises
    :class:`ValueError` on malformed or unregistered points.
    """
    from repro.workloads.registry import (
        INPUTS,
        WORKLOADS,
        cache_key_for,
        parse_spec,
    )

    if "/" in raw:
        body, _, mode = raw.partition(":")
        workload_name, input_name, scale = parse_spec(body)
    else:
        pieces = raw.split(":")
        if len(pieces) == 3:
            pieces.append("baseline")
        if len(pieces) != 4:
            raise ValueError(
                f"bad point {raw!r}: want workload:input:scale[:mode] or "
                "workload/input[@scale][:mode]"
            )
        workload_name, input_name, scale_text, mode = pieces
        try:
            scale = int(scale_text)
        except ValueError:
            raise ValueError(
                f"bad point {raw!r}: scale {scale_text!r} is not an integer"
            ) from None
    if workload_name not in WORKLOADS:
        raise ValueError(f"bad point {raw!r}: unknown workload {workload_name!r}")
    if input_name not in INPUTS:
        raise ValueError(f"bad point {raw!r}: unknown input {input_name!r}")
    return {
        "point": cache_key_for(workload_name, input_name, scale),
        "mode": mode or "baseline",
    }


def _pin_wiring(args):
    """Shared ``capture``/``replay`` wiring: runner, canary, telemetry."""
    from repro.golden.canary import canary_points
    from repro.harness.resultcache import ResultCache
    from repro.harness.runner import Runner
    from repro.harness.telemetry import NULL_TELEMETRY, JsonlTelemetry

    telemetry = (
        JsonlTelemetry(args.telemetry) if args.telemetry else NULL_TELEMETRY
    )
    # The cache is attached so canary simulation *writes through* (warm
    # for later runs), but capture/replay always simulate with
    # use_cache=False — a pin is only checked against a run that simulated.
    runner = Runner(result_cache=ResultCache(), telemetry=telemetry)
    return runner, canary_points(), telemetry


def _cmd_capture(print_fn, args):
    from repro.golden import replay

    runner, points, telemetry = _pin_wiring(args)
    pins = replay.capture_pins(runner, points, telemetry=telemetry)
    for key in pins:
        print_fn(f"pinned {key}")
    print_fn(
        f"{len(pins)} pin(s) in {replay.PINS_PATH} "
        f"(machine {runner.machine_digest()[:12]})"
    )
    return 0


def _cmd_replay(print_fn, args):
    import json

    from repro.golden.replay import replay_pins
    from repro.harness.report import format_replay

    runner, points, telemetry = _pin_wiring(args)
    try:
        report = replay_pins(runner, points, telemetry=telemetry)
    except ValueError as exc:
        print_fn(f"replay: {exc}")
        return 2
    payload = report.as_dict()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print_fn(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print_fn(format_replay(payload))
    return 0 if report.ok() else 1


def _cmd_trend(print_fn, args):
    import json

    from repro.golden.trend import HISTORY_DIR, bench_trend, format_trend

    results_dir = args.results_dir if args.results_dir is not None else HISTORY_DIR
    data = bench_trend(results_dir)
    if args.json:
        print_fn(json.dumps(data, indent=2, sort_keys=True))
    else:
        print_fn(format_trend(data))
    return 0


def _cmd_point(print_fn, args):
    """Simulate one point through the ``repro.api`` facade."""
    import json

    from repro.api import RunResult, Runner, resolve_workload
    from repro.harness.modes import ExecutionMode
    from repro.harness.report import format_table
    from repro.harness.resultcache import ResultCache
    from repro.workloads import registry

    try:
        mode = ExecutionMode.coerce(args.mode)
    except ValueError as exc:
        print_fn(str(exc))
        return 2
    if args.spec is not None and args.workload is not None:
        print_fn("point takes either --spec or positional workload/input")
        return 2
    if args.spec is None and (args.workload is None or args.input is None):
        print_fn(
            "point needs --spec workload/input[@scale] "
            "(or the deprecated positional workload + input)"
        )
        return 2
    try:
        if args.spec is not None:
            if args.scale is not None and "@" in args.spec:
                print_fn("pass the scale either in --spec or via --scale")
                return 2
            spec = args.spec
            if args.scale is not None:
                spec = f"{spec}@{args.scale}"
            workload = resolve_workload(spec)
        else:
            workload = registry.resolve(args.workload, args.input, args.scale)
    except (KeyError, ValueError) as exc:
        print_fn(str(exc))
        return 2
    runner = Runner(
        result_cache=None if args.no_cache else ResultCache()
    )
    if mode is ExecutionMode.CHARACTERIZATION:
        result = runner.run_characterization(workload)
    else:
        result = runner.run(workload, mode)
    assert isinstance(result, RunResult)
    if args.json:
        print_fn(json.dumps(result.as_dict(), indent=2))
        return 0
    print_fn(
        format_table(
            ["phase", "engine", "Mcycles", "IPC", "MPKI", "DRAM lines"],
            [
                [
                    p.name,
                    p.engine or "-",
                    p.cycles / 1e6,
                    p.ipc,
                    p.mpki,
                    p.traffic.total_lines,
                ]
                for p in result.phases
            ],
            title=(
                f"{result.workload} / {mode} "
                f"({result.provenance}, engine={result.engine or '-'})"
            ),
        )
    )
    print_fn(
        f"total: {result.cycles / 1e6:.3f} Mcycles, "
        f"MPKI {result.mpki:.3f}"
    )
    return 0


def _checkpoint_root(value):
    """Resolve a ``--checkpoint-dir`` value (bare flag => default root)."""
    from repro.harness.checkpoint import default_checkpoint_dir

    if value is None or value is True:
        return default_checkpoint_dir()
    return value


def _cmd_runs(print_fn, checkpoint_dir, as_json=False):
    from repro.harness.checkpoint import format_runs, list_runs, runs_payload

    runs = list_runs(_checkpoint_root(checkpoint_dir))
    if as_json:
        import json

        print_fn(json.dumps(runs_payload(runs), indent=2, sort_keys=True))
        return 0
    print_fn(format_runs(runs))
    return 0


def _service_state_dir(args):
    """Resolve a service ``--state-dir`` (default: under the run root)."""
    if args.state_dir is not None:
        return args.state_dir
    from pathlib import Path

    return Path(_checkpoint_root(args.checkpoint_dir)) / "service"


def _cmd_serve(print_fn, args):
    import asyncio

    from repro.harness import knobs
    from repro.service.jobqueue import SweepService
    from repro.service.server import DEFAULT_PORT, serve_forever

    runner = _configure_runner(args)
    port = args.port
    if port is None:
        raw = knobs.read("REPRO_SERVICE_PORT")
        port = int(raw) if raw and raw.strip() else DEFAULT_PORT
    service = SweepService(
        runner,
        _service_state_dir(args),
        queue_max=args.queue_max,
        client_max=args.client_max if args.client_max is not None else 8,
        sweep_jobs=args.jobs,
        checkpoint_root=_checkpoint_root(args.checkpoint_dir),
        drain_deadline=args.drain_deadline,
        telemetry=runner.telemetry if runner.telemetry.enabled else None,
    ).start()
    return asyncio.run(
        serve_forever(service, host=args.host, port=port, print_fn=print_fn)
    )


def _service_client(args, client_name=None):
    from repro.service.client import ServiceClient

    if args.port is not None:
        return ServiceClient(
            host=args.host, port=args.port, client_name=client_name
        )
    return ServiceClient.from_state_dir(
        _service_state_dir(args), client_name=client_name
    )


def _cmd_submit(print_fn, args):
    from repro.service.client import ServiceError

    specs = []
    for raw in args.points:
        try:
            specs.append(_parse_point_arg(raw))
        except ValueError as exc:
            print_fn(str(exc))
            return 2
    try:
        client = _service_client(args, client_name=args.client)
        payload = client.submit(specs, label=args.label)
    except (OSError, ValueError, ServiceError) as exc:
        print_fn(f"submit failed: {exc}")
        return 1
    job = payload["job"]
    print_fn(
        f"job {job['job_id']} {job['state']} "
        f"({len(job['points'])} point(s)"
        + (", from cache)" if job.get("from_cache") else ")")
    )
    if not args.wait or job["state"] == "completed":
        return 0
    try:
        final = client.wait_job(job["job_id"], timeout=args.wait_timeout)
    except ServiceError as exc:
        print_fn(str(exc))
        return 1
    state = final["job"]["state"]
    print_fn(f"job {job['job_id']} {state}")
    if final["job"].get("error"):
        print_fn(f"  {final['job']['error']}")
    return 0 if state == "completed" else 1


def _cmd_jobs(print_fn, args):
    import json

    from repro.harness.report import format_table
    from repro.service.client import ServiceError

    try:
        payload = _service_client(args).jobs()
    except (OSError, ValueError, ServiceError) as exc:
        print_fn(f"cannot reach the sweep service: {exc}")
        return 1
    if args.json:
        print_fn(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            job["job_id"],
            job["state"],
            len(job["points"]),
            (job["run"] or {}).get("completed", 0),
            job.get("label") or "-",
            job.get("client") or "-",
        ]
        for job in payload["jobs"]
    ]
    print_fn(
        format_table(
            ["job", "state", "points", "done", "label", "client"],
            rows,
            title=f"{len(rows)} job(s)",
        )
    )
    return 0


def _configure_runner(args):
    """Shared ``run``/``resume`` runner wiring (cache, telemetry, policy)."""
    from repro.harness.experiments.common import shared_runner
    from repro.harness.faults import FaultPolicy
    from repro.harness.resultcache import ResultCache
    from repro.harness.telemetry import JsonlTelemetry

    runner = shared_runner()
    if not args.no_cache and runner.result_cache is None:
        runner.result_cache = ResultCache()
    if args.telemetry:
        runner.telemetry = JsonlTelemetry(args.telemetry)
        if runner.result_cache is not None:
            runner.result_cache.telemetry = runner.telemetry
    if (
        args.timeout is not None
        or args.retries is not None
        or args.heartbeat_timeout is not None
    ):
        runner.fault_policy = FaultPolicy(
            timeout=args.timeout,
            retries=2 if args.retries is None else args.retries,
            heartbeat_timeout=args.heartbeat_timeout,
        )
    return runner


def _cmd_resume(print_fn, args):
    from repro.harness.checkpoint import SweepCheckpoint
    from repro.harness.parallel import run_sweep

    runner = _configure_runner(args)
    root = _checkpoint_root(args.checkpoint_dir)
    try:
        checkpoint = SweepCheckpoint.load(
            root, args.run_id, telemetry=runner.telemetry
        )
    except FileNotFoundError as exc:
        print_fn(str(exc))
        print_fn("known runs:")
        return _cmd_runs(print_fn, args.checkpoint_dir) or 1
    try:
        checkpoint.verify(runner)
    except ValueError as exc:
        print_fn(str(exc))
        return 1
    points = checkpoint.points()
    outcome = run_sweep(
        runner,
        points,
        jobs=args.jobs if args.jobs is not None else 1,
        policy=runner.fault_policy,
        checkpoint=checkpoint,
        handle_signals=True,
    )
    label = checkpoint.label or checkpoint.run_id
    if outcome.interrupted:
        done = sum(1 for r in outcome.results if r is not None)
        print_fn(
            f"run {checkpoint.run_id} ({label}) interrupted again: "
            f"{done}/{len(points)} points journaled; "
            f"resume with `repro resume {checkpoint.run_id}`"
        )
        return 130
    if outcome.failures:
        for failure in outcome.failures:
            print_fn(
                f"  failed: {failure.point} ({failure.mode}) — "
                f"{failure.reason}"
            )
        print_fn(
            f"run {checkpoint.run_id} ({label}): "
            f"{len(outcome.failures)} point(s) failed"
        )
        return 1
    print_fn(
        f"run {checkpoint.run_id} ({label}) completed: "
        f"{len(points)}/{len(points)} points"
    )
    return 0


def main(argv=None, print_fn=print):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        _cmd_list(print_fn)
        return 0
    if args.command == "inputs":
        _cmd_inputs(print_fn)
        return 0
    if args.command == "workloads":
        return _cmd_workloads(print_fn, as_json=args.json)
    if args.command == "machine":
        _cmd_machine(print_fn)
        return 0
    if args.command == "lint":
        from repro.analysis.lintcli import main as lint_main

        return lint_main(args, print_fn)
    if args.command == "report":
        return _cmd_report(print_fn, args)
    if args.command == "capture":
        return _cmd_capture(print_fn, args)
    if args.command == "replay":
        return _cmd_replay(print_fn, args)
    if args.command == "trend":
        return _cmd_trend(print_fn, args)
    if args.command == "point":
        return _cmd_point(print_fn, args)
    if args.command == "runs":
        return _cmd_runs(print_fn, args.checkpoint_dir, as_json=args.json)
    if args.command == "resume":
        return _cmd_resume(print_fn, args)
    if args.command == "serve":
        return _cmd_serve(print_fn, args)
    if args.command == "submit":
        return _cmd_submit(print_fn, args)
    if args.command == "jobs":
        return _cmd_jobs(print_fn, args)
    import inspect

    from repro.harness.faults import SweepInterrupted

    runner = _configure_runner(args)
    checkpoint_dir = (
        _checkpoint_root(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    for name in args.experiments:
        run_fn, _description = EXPERIMENTS[name]
        accepted = inspect.signature(run_fn).parameters
        kwargs = {}
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if "runner" in accepted:
            kwargs["runner"] = runner
        if args.jobs is not None and "jobs" in accepted:
            kwargs["jobs"] = args.jobs
        if checkpoint_dir is not None and "checkpoint_dir" in accepted:
            kwargs["checkpoint_dir"] = checkpoint_dir
        try:
            result = run_fn(**kwargs)
        except SweepInterrupted as exc:
            runner.telemetry.close()
            print_fn(str(exc))
            return 130
        print_fn(result.text)
        print_fn("")
    return 0
