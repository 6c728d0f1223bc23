#!/usr/bin/env python3
"""The qres benchmark: one workload, measured for a fixed host time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `qres-perfbench`
binary from `perfbench/` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then starts one fresh process per simulator run until
`--seconds` of host time are spent, so peak memory and the process-global
telemetry state belong to a single run.

`--trace 0` times `qres_sim::Engine` (the code users run) and reports the
end-to-end metrics over the runs. `--trace 1` pairs each
untraced run with a run of the traced mirror, which replays the engine's
event loop over the layers' public APIs, and reports the per-layer metrics
as medians. Every run's output digest is checked: repeated runs of one seed
must agree, the default and held-out seeds must match `digests.json`, and
a traced run must reproduce its untraced partner bit for bit. A run that
fails a check is counted in `failed` and left out of the medians.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

The workloads, metric names and units are read from `BENCHMARK.json`.
After a change that moves the simulated outputs on purpose, rewrite the
recorded digests with

    python3 perfbench/run.py --record-digests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
# The workloads, the metrics with their units, and the default run length
# come from the manifest; this script holds no second copy of them.
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
# Claims are made on the default seed and re-checked on the held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
# Seeds 0 .. RECORDED_SEEDS - 1 also have recorded digests.
RECORDED_SEEDS = 32
# No child run may take longer than this (the slowest takes about 8 s).
CHILD_TIMEOUT_S = 90
# Bounds on the traced mirror's layer self times over its wall clock. The
# mirror's clock laps partition the wall, so this is 1 minus the share the
# mirror spends predicting Eq. 4 terms: the check bounds that tracing cost,
# and outside it the per-layer numbers are rejected.
COVERAGE_TOLERANCE = (0.95, 1.001)
# The paper's two simulated outcomes, printed with every run. A fixed seed
# fixes them exactly and the output digest guards their bits; across seeds
# they vary too much for a bounded end-to-end metric (a 600 sim-s hex run
# drops a few dozen hand-offs), so they are per-layer values `sim.*`.
SIMULATED = ["p_hd", "p_cb"]


class RunFailed(Exception):
    """A child run crashed, hung, or printed no result."""


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--manifest-path",
        str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        raise SystemExit(f"run.py: building the benchmark failed ({built.returncode})")
    return target / "release" / "qres-perfbench"


def child(binary, mode, workload, seed):
    """Runs one simulator process and returns its JSON report."""
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"{mode} timed out after {CHILD_TIMEOUT_S} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{mode} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise RunFailed(f"{mode} printed no JSON report: {lines[-1][:200]}") from e


def recorded_digest(workload, seed):
    """The digest recorded for this workload and seed, if any."""
    if not DIGESTS.exists():
        return None
    doc = json.loads(DIGESTS.read_text())
    return doc["digests"].get(workload, {}).get(str(seed))


class Checker:
    """Checks each run's digest against the recorded one and the first."""

    def __init__(self, workload, seed):
        self.expected = recorded_digest(workload, seed)

    def check(self, report):
        problems = list(report["errors"])
        if self.expected is None:
            self.expected = report["digest"]
        elif report["digest"] != self.expected:
            problems.append(f"digest {report['digest']} != expected {self.expected}")
        return problems


def measure(args, binary):
    """Repeats runs until the time is spent. Returns the complete reports,
    each as `(run, traced, passed_every_check)`, and the attempted and
    failed counts."""
    checker = Checker(args.workload, args.seed)
    deadline = time.monotonic() + args.seconds
    reports, durations, attempted, failed = [], [], 0, 0
    while not durations or time.monotonic() + statistics.median(durations) <= deadline:
        started = time.monotonic()
        attempted += 1
        try:
            run = child(binary, "run", args.workload, args.seed)
            problems = checker.check(run)
            traced = None
            if args.trace:
                traced = child(binary, "trace", args.workload, args.seed)
                problems += traced["errors"]
                if traced["digest"] != run["digest"]:
                    problems.append(
                        f"traced digest {traced['digest']} != untraced {run['digest']}"
                    )
                coverage = traced["metrics"]["trace.coverage"]
                lo, hi = COVERAGE_TOLERANCE
                if not lo <= coverage <= hi:
                    problems.append(f"trace.coverage {coverage:.4f} outside [{lo}, {hi}]")
            reports.append((run, traced, not problems))
        except RunFailed as e:
            problems = [str(e)]
        durations.append(time.monotonic() - started)
        if problems:
            failed += 1
            for p in problems:
                print(f"run {attempted} failed: {p}", file=sys.stderr)
    return reports, attempted, failed


def quartiles(values):
    """The lower and upper quartile: a rate three runs in four reach or
    beat, and a time three runs in four beat."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(values, table):
    """Orders `values` by a manifest metric table and adds the units."""
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        raise SystemExit(f"run.py: no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def end_to_end(passed):
    """Throughputs are the lower quartile over the runs, set-up time the
    upper quartile, peak memory the median.

    On a shared host one process can run at two speeds (1.2 M and 1.9 M
    events/s on ring_static, depending on what the neighbours' memory
    traffic leaves), and the share of fast runs drifts over tens of
    seconds. A median jumps between the two modes as that share crosses
    one half; the lower quartile of a rate and the upper quartile of a
    time stay in the common, slower mode, so they repeat from run to run.
    """
    runs = [run for run, _ in passed]
    values = {
        "events_per_s": quartiles([r["events"] / r["run_s"] for r in runs])[0],
        "admissions_per_s": quartiles([r["admissions"] / r["run_s"] for r in runs])[0],
        "setup_s": quartiles([r["setup_ns"] / 1e9 for r in runs])[1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return report(values, MANIFEST["end_to_end"])


def per_layer(passed):
    values = {}
    for run, traced in passed:
        samples = dict(traced["metrics"])
        samples["trace.overhead"] = traced["wall_s"] / run["run_s"]
        for name in SIMULATED:
            samples[f"sim.{name}"] = run[name]
        for name, value in samples.items():
            values.setdefault(name, []).append(value)
    return report(
        {name: statistics.median(v) for name, v in values.items()}, MANIFEST["per_layer"]
    )


def record_digests(binary):
    """Records every workload's digest for the default seed, the held-out
    seed and the small seeds a sweep of runs is likely to use."""
    seeds = sorted({DEFAULT_SEED, HELD_OUT_SEED, *range(RECORDED_SEEDS)})
    digests = {w: {str(s): child(binary, "run", w, s)["digest"] for s in seeds} for w in WORKLOADS}
    if digests["ring_ac3_obs"] != digests["ring_ac3"]:
        raise SystemExit("run.py: telemetry changed the simulated outputs of ring_ac3")
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.record_digests:
        record_digests(binary)
        return 0
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")
    reports, attempted, failed = measure(args, binary)
    if not reports:
        print(f"run.py: no run of {args.workload} completed", file=sys.stderr)
        return 1
    # Figures over the runs that passed every check; when none did, over
    # all of them, so the report still shows what was measured.
    passed = [(run, traced) for run, traced, ok in reports if ok]
    passed = passed or [(run, traced) for run, traced, _ in reports]
    metrics = per_layer(passed) if args.trace else end_to_end(passed)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    run = passed[0][0]
    for name in SIMULATED:
        print(f"{args.workload} {name} = {run[name]!r} (simulated, seed {args.seed})")
    print(f"{args.workload}: {attempted} runs, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
