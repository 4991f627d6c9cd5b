"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workloads fig10-s18
    python3 perfbench/steady.py --smoke              # tiny inputs, a few seconds

Each of the two sets runs ``perfbench/run.py`` once per seed (seeds 1..10,
the same in every set) on every workload, with ``run_seconds`` from
``BENCHMARK.json``. For every end-to-end metric it prints each set's
median and its spread — the distance between the first and third quartile
as a share of the median — against the metric's bound, and how far the
second set's median moved from the first's, in either direction. Every
metric, ``setup_s`` too, must keep both within its bound. Runs on
different kernel tiers are refused rather than compared, and the tier is
printed with the verdicts.

Exits 1 if a spread or drift exceeds its bound (never in ``--smoke``,
whose tiny inputs are too short to be steady).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().with_name("run.py")

#: Seeds per set, and sets compared.
SEEDS = 10
SETS = 2
#: Seeds per set and seconds per run of ``--smoke``.
SMOKE_SEEDS = 2
SMOKE_SECONDS = 1


def _config():
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_once(workload, seed, seconds, tiny):
    """One benchmark run: ``(environment, result JSON)``."""
    command = [
        sys.executable, str(RUN),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        *(["--tiny"] if tiny else []),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900
    )
    lines = completed.stdout.strip().splitlines()
    environment = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("environment ")
    )
    return environment, json.loads(lines[-1])


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second):
    """How far the second median moved from the first (a share)."""
    return abs(second - first) / first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    config = _config()
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in config["workloads"]]
    )
    seconds, seeds = config["run_seconds"], SEEDS
    if args.smoke:
        seconds, seeds = SMOKE_SECONDS, SMOKE_SEEDS
    metrics = config["end_to_end"]

    runs = {}  # (workload, set) -> [metrics]
    tiers = set()
    incorrect = 0
    for number in range(SETS):
        for workload in workloads:
            for seed in range(1, seeds + 1):
                environment, result = run_once(
                    workload, seed, seconds, args.smoke
                )
                tiers.add((environment["kernel_tier"], environment["tier_fallback"]))
                incorrect += not result["correct"]
                runs.setdefault((workload, number), []).append(result["metrics"])
                print(
                    f"set {number} {workload} seed {seed}: "
                    + ", ".join(
                        f"{name}={value['value']:.4f}"
                        for name, value in result["metrics"].items()
                    ),
                    flush=True,
                )
    if len(tiers) != 1:
        print(f"refused: runs span kernel tiers {sorted(tiers)}")
        return 1
    (tier, fallback), = tiers

    over = 0
    print(
        f"\n{'workload':<13}{'metric':<13}{'set':>4}{'median':>12}"
        f"{'spread':>9}{'bound':>7}  verdict"
    )
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for number in range(SETS):
                values = [run[name]["value"] for run in runs[workload, number]]
                medians.append(statistics.median(values))
                width = spread(values) if len(values) > 1 else 0.0
                if width > bound:
                    verdict, over = "OVER bound", over + 1
                elif width > bound / 3:
                    verdict = "within bound, above a third"
                else:
                    verdict = "steady"
                print(
                    f"{workload:<13}{name:<13}{number:>4}{medians[-1]:12.4f}"
                    f"{width:9.3f}{bound:7.2f}  {verdict}"
                )
            for number in range(1, SETS):
                moved = drift(medians[0], medians[number])
                if moved > bound:
                    over += 1
                print(
                    f"{workload:<13}{name:<13}{'':>4}  set {number} vs 0: "
                    f"moved {moved:.3f}  {'OVER bound' if moved > bound else 'ok'}"
                )
    print(
        f"\nkernel tier {tier}{' (fell back from cnative)' if fallback else ''}; "
        f"{incorrect} incorrect run(s); {over} value(s) over bound"
    )
    if args.smoke:
        return 0 if not incorrect else 1
    return 0 if not (over or incorrect) else 1


if __name__ == "__main__":
    sys.exit(main())
