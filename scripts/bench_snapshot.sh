#!/bin/bash
# Runs the perf-tracking micro-benchmarks and writes a JSON snapshot
# (default BENCH_09.json): the `reservation_b_i0` batched-vs-naive pairs at
# populations 10/50/100/200, the end-to-end sweep wall-clock over the
# paper's 10-point load grid (parallel and sequential runners), the
# telemetry overhead triple (`obs_overhead/disabled` vs `flight_off` vs
# `enabled`), the p99 of the instrumented hot-path histograms
# (`obs_hist_p99/...`), the flight-recorder admission-p99 pair
# (`flight_p99/admission_{off,on}_ns` — the decision tape's tail-latency
# cost, gated at the same 10%).
#
# Each qres-microbench harness prints machine-readable `BENCH {...}` lines;
# this script collects them, adds the batched/naive speedup summary and the
# obs enabled-vs-disabled delta, and emits one JSON document to compare
# along the perf trajectory. The disabled-telemetry delta is the PR 3
# acceptance number: it must stay under 2%.
#
# Regression gate: the p99 of `qres_admission_test_ns` and
# `qres_br_compute_ns` is diffed against the newest previous BENCH_*.json
# that recorded them; a regression above 10% fails the script (exit 1).
# Tail latency of the admission/B_r paths is the paper's N_calc story in
# wall-clock form — it should only move when an optimization PR means it to.
#
# Usage: scripts/bench_snapshot.sh [output.json]
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_09.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

cargo bench -q -p qres-bench --bench reservation reservation_b_i0 2>&1 | tee -a "$raw"
cargo bench -q -p qres-bench --bench end_to_end sweep_10pt_grid 2>&1 | tee -a "$raw"
cargo bench -q -p qres-bench --bench obs_overhead obs_overhead 2>&1 | tee -a "$raw"

python3 - "$raw" "$out" <<'PY'
import glob, json, re, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
entries = []
for line in open(raw_path):
    line = line.strip()
    if line.startswith("BENCH "):
        entries.append(json.loads(line[len("BENCH "):]))

# The harness may report an id several times (the obs_hist_p99 lines are
# printed once per sample round); keep the final measurement for each.
by_id = {e["id"]: e for e in entries}
entries = list(by_id.values())
speedups = {}
for pop in (10, 50, 100, 200):
    batched = by_id.get(f"reservation_b_i0/batched/{pop}")
    naive = by_id.get(f"reservation_b_i0/naive/{pop}")
    if batched and naive:
        speedups[str(pop)] = round(naive["ns_per_iter"] / batched["ns_per_iter"], 2)

obs = {}
disabled = by_id.get("obs_overhead/disabled")
enabled = by_id.get("obs_overhead/enabled")
if disabled and enabled:
    d, e = disabled["ns_per_iter"], enabled["ns_per_iter"]
    obs = {
        "disabled_ns_per_iter": d,
        "enabled_ns_per_iter": e,
        "overhead_pct": round((e - d) / d * 100.0, 2),
    }
    flight_off = by_id.get("obs_overhead/flight_off")
    if flight_off:
        obs["flight_off_ns_per_iter"] = flight_off["ns_per_iter"]
        obs["flight_overhead_pct"] = round(
            (e - flight_off["ns_per_iter"]) / flight_off["ns_per_iter"] * 100.0, 2)

# --- flight-recorder admission tail gate ---------------------------------
# The decision tape assembles its record outside the admission timing
# window; the admission p99 with the recorder on must therefore stay
# within the standard 10% threshold of the recorder-off p99 measured in
# the same process.
flight_gate = {}
flight_failures = []
f_off = by_id.get("flight_p99/admission_off_ns")
f_on = by_id.get("flight_p99/admission_on_ns")
if f_off and f_on:
    delta = (f_on["ns_per_iter"] - f_off["ns_per_iter"]) / f_off["ns_per_iter"] * 100.0
    flight_gate = {
        "admission_off_p99_ns": f_off["ns_per_iter"],
        "admission_on_p99_ns": f_on["ns_per_iter"],
        "delta_pct": round(delta, 2),
    }
    if delta > 10.0:
        flight_failures.append(
            f"flight recorder admission p99 {f_off['ns_per_iter']:.0f} -> "
            f"{f_on['ns_per_iter']:.0f} ns (+{delta:.1f}% > 10.0%)")

# --- calibration-path overhead vs the pre-calibration snapshot -----------
# PR 5 threaded QoS-conformance tracking and Eq.-4 calibration through the
# obs-enabled path (staged per-connection forecasts, flushed outside the
# timed windows). Compare the enabled-mode end-to-end cost against
# BENCH_04 (the last snapshot without calibration) to record what the
# calibration plumbing costs when telemetry is on. Informational, not
# gated: the hard constraints are the disabled-path delta (obs off must
# stay within noise of BENCH_04) and the p99 gate below.
calib_overhead = {}
try:
    prev04 = json.load(open("BENCH_04.json"))
    prev_by_id = {b["id"]: b for b in prev04.get("benchmarks", [])}
    for mode in ("disabled", "enabled"):
        cur = by_id.get(f"obs_overhead/{mode}")
        ref = prev_by_id.get(f"obs_overhead/{mode}")
        if cur and ref:
            delta = (cur["ns_per_iter"] - ref["ns_per_iter"]) / ref["ns_per_iter"] * 100.0
            calib_overhead[mode] = {
                "ns_per_iter": cur["ns_per_iter"],
                "bench_04_ns_per_iter": ref["ns_per_iter"],
                "delta_pct": round(delta, 2),
            }
except (OSError, json.JSONDecodeError):
    pass

# --- p99 regression gate against the previous snapshot -------------------
GATED = ("obs_hist_p99/qres_admission_test_ns", "obs_hist_p99/qres_br_compute_ns")
THRESHOLD_PCT = 10.0

def snapshot_number(path):
    m = re.search(r"BENCH_(\d+)\.json$", path)
    return int(m.group(1)) if m else -1

previous = None
for path in sorted(glob.glob("BENCH_*.json"), key=snapshot_number, reverse=True):
    if path == out_path:
        continue
    try:
        doc = json.load(open(path))
    except (OSError, json.JSONDecodeError):
        continue
    prev_ids = {b["id"]: b for b in doc.get("benchmarks", [])}
    if any(g in prev_ids for g in GATED):
        previous = (path, prev_ids)
        break

p99_gate = {"previous_snapshot": previous[0] if previous else None, "diffs": {}}
failures = []
for gid in GATED:
    cur = by_id.get(gid)
    if cur is None:
        continue
    prev = previous[1].get(gid) if previous else None
    if prev is None:
        p99_gate["diffs"][gid] = {"p99_ns": cur["ns_per_iter"], "delta_pct": None}
        continue
    delta = (cur["ns_per_iter"] - prev["ns_per_iter"]) / prev["ns_per_iter"] * 100.0
    p99_gate["diffs"][gid] = {
        "p99_ns": cur["ns_per_iter"],
        "previous_p99_ns": prev["ns_per_iter"],
        "delta_pct": round(delta, 2),
    }
    if delta > THRESHOLD_PCT:
        failures.append(f"{gid}: p99 {prev['ns_per_iter']:.0f} -> "
                        f"{cur['ns_per_iter']:.0f} ns (+{delta:.1f}% > {THRESHOLD_PCT}%)")

doc = {
    "suite": "qres perf snapshot 09",
    "benchmarks": entries,
    "b_i0_speedup_batched_over_naive": speedups,
    "obs_overhead": obs,
    "flight_gate": flight_gate,
    "calibration_overhead_vs_bench_04": calib_overhead,
    "p99_gate": p99_gate,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}: {len(entries)} benchmarks, speedups {speedups}, obs {obs}")
if calib_overhead:
    print(f"calibration-path overhead vs BENCH_04: {calib_overhead}")
if flight_gate:
    print(f"flight recorder admission p99 gate: {flight_gate}")
print(f"p99 gate vs {p99_gate['previous_snapshot']}: {p99_gate['diffs']}")
failures.extend(flight_failures)
if failures:
    for f in failures:
        print(f"P99 REGRESSION: {f}", file=sys.stderr)
    sys.exit(1)
PY
