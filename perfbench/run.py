"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig10-s16 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics
(``run_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it carries
the per-layer metrics of a separate traced run. The lines before it give
every metric with its unit, ``failed_share``, and the environment. See
``perfbench/README.md`` for the workloads and what each metric means.

Everything the run writes (the compiled kernel library, temporary result
caches, worker span files) stays under ``.bench_build/perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Set-ups per run; ``setup_s`` is their median. A run adds set-ups
#: until it has the fewest and they sum to ``SETUP_SECONDS``, so a short
#: set-up, which host noise moves most, gets more samples.
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 7
SETUP_SECONDS = 4.0
#: Fewest passes a run measures, however short ``--seconds`` is.
MIN_PASSES = 3
#: Fewest untraced and traced passes of a traced run, each.
MIN_TRACED_PASSES = 2
#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def _prepare_environment():
    """Point the program at this checkout alone: source, caches, temp."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]  # the default machine and engine, always
    for sub in ("xdg", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "xdg")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join((str(src), str(ROOT)))
    sys.path[:0] = [str(src), str(ROOT)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="run every spec at scale 10 (smoke tests; never fingerprinted)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="write this workload's fingerprints (default seed only)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _warm_up():
    """Compile the kernel tier once, outside every timed region."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.cache.kernels import select_backend; select_backend()",
        ],
        check=True,
        timeout=900,
    )


def _setup_probe(args):
    """One more set-up in a fresh process; its seconds as JSON."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload", args.workload,
            "--seed", str(args.seed),
            *(["--tiny"] if args.tiny else []),
        ],
        check=True,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(run_one, seconds, min_passes):
    """Passes until ``seconds`` have gone by and ``min_passes`` ran."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_one(len(passes)))
    return passes


def _run_s(passes):
    """Host seconds of one pass: the median over passes, per segment.

    A serial workload's segments are its points; the sweep workload, whose
    points run inside workers, has one segment, the whole pass. Host
    contention here comes in bursts of a second or two, so a median taken
    per point keeps a burst from spoiling a whole pass.
    """
    if passes[0].point_seconds:
        per_point = zip(*(p.point_seconds for p in passes))
        return sum(statistics.median(times) for times in per_point)
    return statistics.median(p.seconds for p in passes)


def _tail(values):
    """``(percentile, value)`` of the highest percentile with at least
    ``TAIL_SAMPLES`` samples beyond it, or ``None`` if there is none."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _timing_line(name, values, what):
    line = f"{name:<14}{statistics.median(values):10.4f} s   median of {len(values)} {what}"
    tail = _tail(values)
    if tail is None:
        return f"{line}; no percentile has {TAIL_SAMPLES} samples beyond it"
    percentile, value = tail
    return f"{line}; p{percentile:.0f} {value:.4f} s ({len(values)} samples)"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run(args, workload, specs, scratch):
    """Set up, then measure passes (and, with ``--trace 1``, traced ones).

    Returns ``(tier, setup seconds, untraced passes, traced passes,
    per-layer metrics or None)``.
    """
    from perfbench import spans, suite

    start = time.perf_counter()
    with suite.seeded_inputs(args.seed):
        tier, instances = suite.setup(specs)
        setup_s = time.perf_counter() - start
        spans.assert_untraced()

        def untraced(_number):
            return suite.run_pass(workload, instances, args.tiny, scratch)

        if not args.trace:
            passes = _measure(untraced, args.seconds, MIN_PASSES)
            return tier, setup_s, passes, [], None
        passes = _measure(untraced, args.seconds / 2, MIN_TRACED_PASSES)
        tracer = spans.Tracer(scratch)
        with tracer.installed():
            tracer.pass_id = "setup"
            with tracer.region("setup"):
                traced_instances = suite.resolve_inputs(specs)

            def traced(number):
                tracer.pass_id = number
                with tracer.region("pass"):
                    return suite.run_pass(
                        workload, traced_instances, args.tiny, scratch
                    )

            traced_passes = _measure(traced, args.seconds / 2, MIN_TRACED_PASSES)
    layers = spans.layer_metrics(tracer.collect(), workload.jobs)
    layers["trace_overhead_s"] = _run_s(traced_passes) - _run_s(passes)
    return tier, setup_s, passes, traced_passes, layers


def _record(workload_name, fingerprints):
    from perfbench import suite

    recorded = (
        json.loads(suite.FINGERPRINTS.read_text("utf-8"))
        if suite.FINGERPRINTS.exists()
        else {}
    )
    recorded[workload_name] = fingerprints
    suite.FINGERPRINTS.write_text(
        json.dumps(recorded, indent=2, sort_keys=True) + "\n", "utf-8"
    )


def main(argv=None):
    args = _parse(argv)
    _prepare_environment()
    from perfbench import spans, suite

    workload = suite.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(suite.WORKLOADS)}"
        )
    specs = workload.scaled_specs(args.tiny)
    if args.setup_probe:
        start = time.perf_counter()
        with suite.seeded_inputs(args.seed):
            suite.setup(specs)
            print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    if args.record and (args.seed != suite.DEFAULT_SEED or args.tiny):
        raise SystemExit("perfbench: --record needs the default seed at full scale")

    _warm_up()
    scratch = Path(tempfile.mkdtemp(dir=BUILD / "tmp", prefix="run-"))
    try:
        tier, setup_s, passes, traced_passes, layers = _run(
            args, workload, specs, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = children_kb if workload.jobs > 1 else 0
    setup_samples = [setup_s]
    if not args.trace:
        while len(setup_samples) < MIN_SETUP_SAMPLES or (
            sum(setup_samples) < SETUP_SECONDS
            and len(setup_samples) < MAX_SETUP_SAMPLES
        ):
            setup_samples.append(_setup_probe(args))

    keys = [f"{spec} {mode}" for spec, mode in workload.points(args.tiny)]
    held_out = args.seed != suite.DEFAULT_SEED or args.tiny or args.record
    expected = None if held_out else suite.load_fingerprints(workload.name)
    checked = passes + traced_passes
    failures, fingerprints = suite.verify(checked, keys, expected)
    attempted = len(keys) * len(checked)
    if args.record and not failures:
        _record(workload.name, fingerprints)

    environment = suite.environment(tier)
    inputs = "pinned" if args.seed == suite.DEFAULT_SEED else "held-out"
    print(
        f"perfbench {workload.name}  seed={args.seed}  inputs={inputs}  "
        f"passes={len(passes)} untraced + {len(traced_passes)} traced  "
        f"points/pass={len(keys)}"
    )
    print("environment " + json.dumps(environment, sort_keys=True))
    if environment["tier_fallback"]:
        print(
            f"WARNING kernel tier fell back to {tier!r}; compare these "
            "numbers only with runs on the same tier"
        )
    run_s = _run_s(passes)
    print(f"{'run_s':<14}{run_s:10.4f} s   median over {len(passes)} passes")
    print(_timing_line("pass_s", [p.seconds for p in passes], "passes"))
    point_seconds = [s for p in passes for s in p.point_seconds]
    if point_seconds:
        print(_timing_line("point_s", point_seconds, "points"))
    if layers is not None:
        metrics = {
            name: _metric(layers[name], unit) for name, unit in spans.LAYER_METRICS
        }
        for name, unit in spans.LAYER_METRICS:
            print(f"{name:<26}{layers[name]:14.6g} {unit}")
    else:
        setup_median = statistics.median(setup_samples)
        peak_mb = (main_kb + worker_kb) / 1024
        print(
            f"{'setup_s':<14}{setup_median:10.4f} s   "
            f"median of {len(setup_samples)} set-ups"
        )
        print(
            f"{'peak_rss_mb':<14}{peak_mb:10.1f} MB  main process {main_kb / 1024:.1f} MB"
            f" + largest worker {worker_kb / 1024:.1f} MB"
        )
        metrics = {
            "run_s": _metric(run_s, "s"),
            "setup_s": _metric(setup_median, "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    print(
        f"{'failed_share':<14}{len(failures) / attempted:10.4f}     "
        f"{len(failures)} of {attempted} point runs failed"
    )
    if held_out:
        for key in keys:
            print(f"fingerprint {key} {fingerprints.get(key, '-')}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
