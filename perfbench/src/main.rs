//! One measured simulator run per process, printed as one JSON line.
//!
//! ```text
//! qres-perfbench run   --workload <name> --seed <n>
//! qres-perfbench trace --workload <name> --seed <n>
//! ```
//!
//! `run` times `Engine::new` and `Engine::run` — the code users run — and
//! reports host seconds, peak resident memory, and the output digest.
//! `trace` runs the same scenario through the traced mirror (see
//! [`mirror`]) and the Eq. 4 probe (see [`probe`]) and reports the
//! per-layer metrics. `run.py` drives both, one fresh process per run, so
//! peak memory and the process-global telemetry state belong to one run.

mod digest;
mod mirror;
mod probe;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use qres_json::Value;
use qres_sim::{Engine, RunResult, Scenario};
use workloads::Workload;

/// `Engine::new` is timed in batches of `SETUP_BATCH` constructions, for at
/// least `SETUP_BATCHES` batches and `SETUP_SPAN_NS` of host time.
const SETUP_BATCH: usize = 10;
const SETUP_BATCHES: usize = 51;
const SETUP_SPAN_NS: u128 = 200_000_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok((mode, workload, seed)) => {
            if workload.obs() {
                qres_obs::set_level(qres_obs::Level::Info);
            }
            let line = match mode.as_str() {
                "run" => run(workload, seed),
                _ => trace(workload, seed),
            };
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qres-perfbench: {e}");
            eprintln!("usage: qres-perfbench run|trace --workload <name> --seed <n>");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Workload, u64), String> {
    let mode = args.first().cloned().unwrap_or_default();
    if mode != "run" && mode != "trace" {
        return Err(format!("unknown mode `{mode}`"));
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed expects an unsigned integer, got `{seed}`"))?;
    Ok((mode, workload, seed))
}

fn num(value: f64) -> Value {
    Value::Float(value)
}

fn text(value: &str) -> Value {
    Value::Str(value.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| text(s)).collect())
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks of the simulated outputs that hold for every seed.
fn check_result(workload: Workload, r: &RunResult, errors: &mut Vec<String>) {
    if r.events_dispatched == 0 || r.system_cb.trials() == 0 || r.system_hd.trials() == 0 {
        errors.push("run dispatched no arrivals or hand-offs".into());
    }
    for (name, p) in [("p_hd", r.p_hd()), ("p_cb", r.p_cb())] {
        if !(0.0..=1.0).contains(&p) {
            errors.push(format!("{name} = {p} outside [0, 1]"));
        }
    }
    let max_n_calc = workload.max_n_calc();
    let n_calc_ok = if max_n_calc == 0.0 {
        r.n_calc_mean == 0.0 && r.signaling.messages == 0
    } else {
        (1.0..=max_n_calc).contains(&r.n_calc_mean)
    };
    if !n_calc_ok {
        errors.push(format!(
            "N_calc mean {} outside [1, {max_n_calc}] (0 and no signaling for static)",
            r.n_calc_mean
        ));
    }
}

fn check_obs(workload: Workload, when: &str, errors: &mut Vec<String>) {
    if qres_obs::enabled() != workload.obs() {
        errors.push(format!(
            "telemetry enabled = {} {when}",
            qres_obs::enabled()
        ));
    }
}

/// Host nanoseconds of one `Engine::new(scenario)`: the upper quartile of
/// the batch means, the time three batches in four beat. A shared host
/// runs this process at two speeds in bursts of a second or so; spreading
/// the batches over `SETUP_SPAN_NS` and taking the upper quartile keeps
/// the figure in the common, slower mode, as the lower quartile of the
/// throughputs does in `run.py`.
fn setup_ns(scenario: &Scenario) -> f64 {
    let started = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < SETUP_BATCHES || started.elapsed().as_nanos() < SETUP_SPAN_NS {
        let inputs = vec![scenario.clone(); SETUP_BATCH];
        let t0 = Instant::now();
        let engines: Vec<Engine> = inputs.into_iter().map(Engine::new).collect();
        batches.push(t0.elapsed().as_nanos() as f64 / SETUP_BATCH as f64);
        drop(black_box(engines));
    }
    batches.sort_by(f64::total_cmp);
    batches[batches.len() * 3 / 4]
}

fn run(workload: Workload, seed: u64) -> String {
    let mut errors = Vec::new();
    let scenario = workload.scenario(seed);
    check_obs(workload, "before set-up", &mut errors);
    let mut engine = Engine::new(scenario.clone());
    let t0 = Instant::now();
    let result = engine.run_keeping_state();
    let run_s = t0.elapsed().as_secs_f64();
    check_obs(workload, "after the run", &mut errors);
    if !engine.system_mut().check_invariants() {
        errors.push("bandwidth accounting invariant violated".into());
    }
    drop(engine);
    let peak_rss_mb = peak_rss_mb();
    check_result(workload, &result, &mut errors);
    object(vec![
        ("mode", text("run")),
        ("workload", text(workload.name())),
        ("seed", Value::UInt(seed)),
        ("digest", text(&digest::digest(&result))),
        ("setup_ns", num(setup_ns(&scenario))),
        ("run_s", num(run_s)),
        ("events", num(result.events_dispatched as f64)),
        ("admissions", num(result.system_cb.trials() as f64)),
        ("p_hd", num(result.p_hd())),
        ("p_cb", num(result.p_cb())),
        ("n_calc_mean", num(result.n_calc_mean)),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("errors", strings(&errors)),
    ])
    .to_compact_string()
}

fn trace(workload: Workload, seed: u64) -> String {
    let scenario = workload.scenario(seed);
    let mut t = mirror::trace(&scenario, workload.obs());
    check_result(workload, &t.result, &mut t.errors);
    // The probe measures Eq. 4 itself, without the telemetry it stages.
    qres_obs::set_level(qres_obs::Level::Off);
    let p = probe::probe(&mut t.system, t.horizon);
    if !p.identical {
        t.errors
            .push("batched and naive Eq. 4 terms differ in their bits".into());
    }
    let mut metrics: Vec<(String, Value)> = t
        .metrics
        .iter()
        .map(|&(name, value)| (name.into(), num(value)))
        .collect();
    metrics.extend([
        ("mobility.eq4.ns_per_term".into(), num(p.ns_per_term)),
        (
            "mobility.eq4.naive_ns_per_term".into(),
            num(p.naive_ns_per_term),
        ),
        (
            "mobility.eq4.naive_over_batched".into(),
            num(p.naive_ns_per_term / p.ns_per_term),
        ),
        ("mobility.eq4.probe_terms".into(), num(p.terms as f64)),
    ]);
    object(vec![
        ("mode", text("trace")),
        ("workload", text(workload.name())),
        ("seed", Value::UInt(seed)),
        ("digest", text(&digest::digest(&t.result))),
        ("wall_s", num(t.wall_s)),
        ("errors", strings(&t.errors)),
        ("metrics", Value::Object(metrics)),
    ])
    .to_compact_string()
}
