//! Reproducibility guarantees across the full stack.

use qres::sim::{run_scenario, Scenario, SchemeKind, TimeVaryingConfig};

/// Bit-identical results from the same seed, including traces, on the
/// paper's ring and on a small 2-D hex grid (six-neighbor `B_r`).
#[test]
fn identical_seeds_identical_runs() {
    let ring = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(1_000.0)
        .trace_cells(&[4])
        .seed(77);
    let mut hex = Scenario::paper_baseline()
        .hex(4, 5)
        .scheme(SchemeKind::Ac3)
        .offered_load(120.0)
        .duration_secs(120.0)
        .trace_cells(&[4])
        .seed(21);
    hex.turn_probability = 0.15;
    for (label, s) in [("ring", ring), ("hex", hex)] {
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert_eq!(a.system_cb, b.system_cb, "{label}");
        assert_eq!(a.system_hd, b.system_hd, "{label}");
        assert_eq!(a.events_dispatched, b.events_dispatched, "{label}");
        assert_eq!(a.n_calc_mean, b.n_calc_mean, "{label}");
        assert_eq!(a.signaling, b.signaling, "{label}");
        assert_eq!(
            a.traces[&4].b_r.points(),
            b.traces[&4].b_r.points(),
            "{label}"
        );
        assert_eq!(
            a.traces[&4].t_est.points(),
            b.traces[&4].t_est.points(),
            "{label}"
        );
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.p_cb, cb.p_cb, "{label}");
            assert_eq!(ca.p_hd, cb.p_hd, "{label}");
            assert_eq!(ca.b_r_avg, cb.b_r_avg, "{label}");
            assert_eq!(ca.b_u_avg, cb.b_u_avg, "{label}");
            assert_eq!(ca.b_r_final, cb.b_r_final, "{label}");
            assert_eq!(ca.b_u_final, cb.b_u_final, "{label}");
            assert_eq!(ca.t_est_secs, cb.t_est_secs, "{label}");
        }
    }
}

/// Different seeds genuinely change the realization.
#[test]
fn different_seeds_differ() {
    let base = Scenario::paper_baseline()
        .offered_load(150.0)
        .duration_secs(600.0);
    let a = run_scenario(&base.clone().seed(1));
    let b = run_scenario(&base.seed(2));
    assert_ne!(a.system_cb.trials(), b.system_cb.trials());
}

/// Common random numbers: the workload consumed is identical across
/// schemes under one seed, so arrival counts match exactly even though
/// admission outcomes differ.
#[test]
fn workload_is_scheme_independent() {
    let base = Scenario::paper_baseline()
        .offered_load(250.0)
        .duration_secs(1_000.0)
        .seed(9);
    let results: Vec<_> = [
        SchemeKind::Static { guard_bus: 10 },
        SchemeKind::Ac1,
        SchemeKind::Ac2,
        SchemeKind::Ac3,
    ]
    .into_iter()
    .map(|scheme| run_scenario(&base.clone().scheme(scheme)))
    .collect();
    let trials = results[0].system_cb.trials();
    assert!(trials > 1_000);
    for r in &results[1..] {
        assert_eq!(r.system_cb.trials(), trials, "arrival streams diverged");
    }
    // Outcomes DO differ (the schemes are not no-ops).
    assert_ne!(results[0].system_cb.hits(), results[3].system_cb.hits());
}

/// Serializes the tests that flip the process-global telemetry level and
/// inspect the recorder planes, so they cannot race each other.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The telemetry recorder is strictly passive: enabling it at the most
/// verbose level — with the live HTTP scrape endpoint attached and being
/// polled — changes no simulation outcome. Every metric of the paper
/// comes out bit-identical with the recorder on and off.
#[test]
fn recorder_does_not_perturb_outcomes() {
    let _guard = OBS_LOCK.lock().unwrap();
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(77);
    qres::obs::set_level(qres::obs::Level::Off);
    let off = run_scenario(&s);
    // The scrape server reads the registry concurrently over relaxed
    // atomics; keep it attached (and actively rendering) for the whole
    // obs-on run to prove scraping cannot perturb outcomes either.
    let server = qres::obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let scraper = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let mut bodies = 0usize;
        for _ in 0..20 {
            let Ok(mut conn) = std::net::TcpStream::connect(addr) else {
                break;
            };
            conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200"), "scrape failed");
            bodies += 1;
        }
        bodies
    });
    qres::obs::set_level(qres::obs::Level::Debug);
    let on = run_scenario(&s);
    qres::obs::set_level(qres::obs::Level::Off);
    assert_eq!(scraper.join().expect("scraper thread"), 20);
    server.shutdown();
    let (events, _) = qres::obs::drain_events();
    qres::obs::reset();
    qres::obs::reset_metrics();
    // The obs-on run also exercised the QoS/calibration trackers (both
    // strictly obs-side); clear them so this test leaves no global state.
    qres::obs::reset_qos();
    qres::obs::reset_calib();
    assert!(!events.is_empty(), "debug level should record events");
    assert_eq!(off.system_cb, on.system_cb);
    assert_eq!(off.system_hd, on.system_hd);
    assert_eq!(off.events_dispatched, on.events_dispatched);
    assert_eq!(off.n_calc_mean, on.n_calc_mean);
    assert_eq!(off.signaling, on.signaling);
    for (a, b) in off.cells.iter().zip(&on.cells) {
        assert_eq!(a.p_cb, b.p_cb);
        assert_eq!(a.p_hd, b.p_hd);
        assert_eq!(a.b_r_final, b.b_r_final);
        assert_eq!(a.b_u_final, b.b_u_final);
        assert_eq!(a.t_est_secs, b.t_est_secs);
    }
}

/// The SLO watchdog (retention-store sampling + burn-rate alert
/// evaluation at watchdog ticks) is strictly passive: every simulation
/// outcome is bit-identical with the watchdog on and off.
#[test]
fn watchdog_does_not_perturb_outcomes() {
    let _guard = OBS_LOCK.lock().unwrap();
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(77);
    let reset_watchdog_state = || {
        qres::obs::reset();
        qres::obs::reset_metrics();
        qres::obs::reset_qos();
        qres::obs::reset_calib();
        qres::obs::reset_tsdb();
        qres::obs::reset_alerts();
        qres::obs::reset_flight();
    };
    let run = |watchdog: bool| {
        reset_watchdog_state();
        qres::obs::set_watchdog_enabled(watchdog);
        qres::obs::set_level(qres::obs::Level::Debug);
        let r = run_scenario(&s);
        let samples = qres::obs::metrics::TSDB_SAMPLES_TOTAL.get();
        qres::obs::set_level(qres::obs::Level::Off);
        if watchdog {
            assert!(samples > 0, "watchdog-on run must sample the store");
        } else {
            assert_eq!(samples, 0, "watchdog-off run must not sample");
        }
        r
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.system_cb, on.system_cb);
    assert_eq!(off.system_hd, on.system_hd);
    assert_eq!(off.events_dispatched, on.events_dispatched);
    assert_eq!(off.n_calc_mean, on.n_calc_mean);
    assert_eq!(off.signaling, on.signaling);
    for (a, b) in off.cells.iter().zip(&on.cells) {
        assert_eq!(a.p_cb, b.p_cb);
        assert_eq!(a.p_hd, b.p_hd);
        assert_eq!(a.b_r_final, b.b_r_final);
        assert_eq!(a.b_u_final, b.b_u_final);
        assert_eq!(a.t_est_secs, b.t_est_secs);
    }
    reset_watchdog_state();
    qres::obs::set_watchdog_enabled(true);
}

/// A forced SLO violation (target pinned far below the realized `P_HD`)
/// produces an identical alert timeline — states, burn rates, fired
/// counts, transition log — across reruns: the watchdog runs on the sim
/// clock, never on wall time.
#[test]
fn forced_violation_alert_timeline_is_deterministic() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(42);
    // Far below what this load realizes: the p_hd_burn rule must fire.
    s.p_hd_target = 1e-4;
    let timeline = || {
        qres::obs::reset();
        qres::obs::reset_metrics();
        qres::obs::reset_qos();
        qres::obs::reset_calib();
        qres::obs::reset_tsdb();
        qres::obs::reset_alerts();
        qres::obs::set_watchdog_enabled(true);
        qres::obs::set_level(qres::obs::Level::Info);
        let _ = run_scenario(&s);
        qres::obs::finalize_alerts(qres::obs::sim_time());
        qres::obs::set_level(qres::obs::Level::Off);
        qres::obs::alerts_json().to_compact_string()
    };
    let first = timeline();
    assert!(
        first.contains("\"firing\""),
        "forced violation must reach the firing state: {first}"
    );
    assert!(
        first.contains("\"resolved\""),
        "finalize must resolve the timeline: {first}"
    );
    assert_eq!(first, timeline(), "rerun must replay the same timeline");
    qres::obs::reset();
    qres::obs::reset_metrics();
    qres::obs::reset_qos();
    qres::obs::reset_calib();
    qres::obs::reset_tsdb();
    qres::obs::reset_alerts();
}

/// The decision-provenance flight recorder is strictly passive: with
/// telemetry on, taping every admission decision (inputs, per-neighbor
/// terms, checks, verdict) changes no simulation outcome.
#[test]
fn flight_recorder_does_not_perturb_outcomes() {
    let _guard = OBS_LOCK.lock().unwrap();
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(77);
    let reset_all = || {
        qres::obs::reset();
        qres::obs::reset_metrics();
        qres::obs::reset_qos();
        qres::obs::reset_calib();
        qres::obs::reset_tsdb();
        qres::obs::reset_alerts();
        qres::obs::reset_flight();
    };
    let run = |flight: bool| {
        reset_all();
        qres::obs::set_flight_enabled(flight);
        qres::obs::set_level(qres::obs::Level::Debug);
        let r = run_scenario(&s);
        let taped = matches!(
            qres::obs::flight_summary_json().get("len"),
            Some(qres_json::Value::UInt(n)) if *n > 0
        );
        qres::obs::set_level(qres::obs::Level::Off);
        assert_eq!(
            taped,
            flight,
            "recorder-{} run must {} decision records",
            if flight { "on" } else { "off" },
            if flight { "tape" } else { "tape no" }
        );
        r
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.system_cb, on.system_cb);
    assert_eq!(off.system_hd, on.system_hd);
    assert_eq!(off.events_dispatched, on.events_dispatched);
    assert_eq!(off.n_calc_mean, on.n_calc_mean);
    assert_eq!(off.signaling, on.signaling);
    for (a, b) in off.cells.iter().zip(&on.cells) {
        assert_eq!(a.p_cb, b.p_cb);
        assert_eq!(a.p_hd, b.p_hd);
        assert_eq!(a.b_r_final, b.b_r_final);
        assert_eq!(a.b_u_final, b.b_u_final);
        assert_eq!(a.t_est_secs, b.t_est_secs);
    }
    reset_all();
    qres::obs::set_flight_enabled(true);
}

/// The flight tape itself is deterministic: the full record window —
/// inputs, per-neighbor terms with their Eq.-4 internals, checks,
/// verdicts — is byte-identical across reruns, and replaying it through
/// the live admission predicates reproduces every verdict.
#[test]
fn replayed_flight_window_matches_across_reruns() {
    let _guard = OBS_LOCK.lock().unwrap();
    let s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac3)
        .offered_load(250.0)
        .duration_secs(600.0)
        .seed(42);
    let tape = || {
        qres::obs::reset();
        qres::obs::reset_metrics();
        qres::obs::reset_qos();
        qres::obs::reset_calib();
        qres::obs::reset_tsdb();
        qres::obs::reset_alerts();
        qres::obs::reset_flight();
        qres::obs::set_level(qres::obs::Level::Debug);
        let _ = run_scenario(&s);
        qres::obs::set_level(qres::obs::Level::Off);
        qres::obs::flight_json()
    };
    let first = tape();
    assert_eq!(
        first.to_compact_string(),
        tape().to_compact_string(),
        "rerun must tape the same decisions"
    );
    let summary = qres::replay::replay_flight_doc(&first).expect("tape must replay");
    assert!(summary.records > 0, "tape must hold decision records");
    assert_eq!(
        summary.reserve_exact, summary.records,
        "every reserve must re-derive bit-exactly"
    );
    assert!(
        summary.is_clean(),
        "replay mismatches: {:?}",
        summary.mismatches
    );
    qres::obs::reset();
    qres::obs::reset_metrics();
    qres::obs::reset_qos();
    qres::obs::reset_calib();
    qres::obs::reset_tsdb();
    qres::obs::reset_alerts();
    qres::obs::reset_flight();
}

/// Determinism holds in the time-varying mode too (retry coin flips are a
/// seeded stream).
#[test]
fn time_varying_deterministic() {
    let mut tv = TimeVaryingConfig::paper_like();
    tv.days = 1;
    let mut s = Scenario::paper_baseline()
        .scheme(SchemeKind::Ac1)
        .time_varying(tv)
        .seed(13);
    s.duration_secs = 6.0 * 3_600.0;
    let a = run_scenario(&s);
    let b = run_scenario(&s);
    assert_eq!(a.hourly_requests, b.hourly_requests);
    assert_eq!(a.system_cb, b.system_cb);
    assert_eq!(a.system_hd, b.system_hd);
}
