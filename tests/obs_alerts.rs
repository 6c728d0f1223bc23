//! End-to-end checks of the SLO watchdog plane: the retention store and
//! alert rules driven through real QoS traffic, `/query` + `/alerts` +
//! `/healthz` scraped over real TCP, and the shard auto-sizing that keeps
//! per-cell attribution intact at metro scale.
//!
//! This file is its own test binary, so flipping the process-global obs
//! state here cannot race the determinism or smoke suites; the tests
//! still serialize against each other through `LOCK` because the
//! watchdog state is process-global too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

use qres::obs;

static LOCK: Mutex<()> = Mutex::new(());

fn reset_all() {
    obs::set_level(obs::Level::Off);
    obs::reset();
    obs::reset_metrics();
    obs::reset_qos();
    obs::reset_calib();
    obs::reset_tsdb();
    obs::reset_alerts();
    obs::set_watchdog_enabled(true);
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to obs server");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head/body split");
    (head.to_string(), body.to_string())
}

/// Drive `P_HD` over target in one cell: drops only, then one watchdog
/// tick to sample the estimators and evaluate the burn-rate rules.
fn force_violation(cell: u32, t: f64) {
    for i in 0..20 {
        obs::qos::record_handoff_outcome(t - 1.0 + f64::from(i) * 0.01, cell, true);
    }
    obs::watchdog_tick(t);
}

/// The metro topology must auto-size the per-cell histogram shards so no
/// cell folds into the overflow shard (satellite of DESIGN §10.3: per-cell
/// attribution survives 1024 cells without manual configuration).
#[test]
fn metro_topology_autosizes_cell_shards_without_overflow() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    obs::set_level(obs::Level::Info);
    let before = obs::metrics::SHARD_OVERFLOW_TOTAL.get();
    // A few sim-seconds of metro traffic touches cells across the whole
    // 32 x 32 grid; construction alone performs the ensure call.
    let scenario = qres::sim::Scenario::metro().duration_secs(5.0).seed(3);
    let r = qres::sim::run_scenario(&scenario);
    assert!(r.events_dispatched > 0);
    assert!(
        obs::cell_shards() >= 1024,
        "metro run must raise the shard cap to the topology size, got {}",
        obs::cell_shards()
    );
    assert_eq!(
        obs::metrics::SHARD_OVERFLOW_TOTAL.get(),
        before,
        "no metro cell may fold into the overflow shard"
    );
    reset_all();
}

/// `/healthz` flips to 503 while an alert is firing — naming the rule and
/// cell in the body — and recovers to 200 when it resolves. A resolved
/// alert is degraded-but-alive history and stays 200.
#[test]
fn healthz_degrades_on_firing_alert_then_recovers() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    let server = obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    // Healthy baseline.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(body.starts_with("ok\n"), "body: {body}");

    // A firing burn-rate alert degrades health, naming the rule.
    obs::set_qos_target_p_hd(0.01);
    force_violation(9_301, 60.0);
    assert!(
        !obs::firing_alerts().is_empty(),
        "pure-drop traffic must fire the p_hd_burn rule"
    );
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 503"), "head: {head}");
    assert!(body.starts_with("degraded\n"), "body: {body}");
    assert!(body.contains("firing: p_hd_burn"), "body: {body}");
    assert!(body.contains("cell=9301"), "body: {body}");

    // Resolving the alert restores health; the resolved entry is
    // degraded-but-alive history, not an outage.
    obs::finalize_alerts(120.0);
    assert!(obs::firing_alerts().is_empty());
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(body.starts_with("ok\n"), "body: {body}");

    server.shutdown();
    reset_all();
}

/// `/query` serves the retention store (catalog and per-metric series)
/// and `/alerts` the full watchdog document, both as valid JSON that the
/// `qres obstop` client can render.
#[test]
fn query_and_alerts_routes_serve_watchdog_documents() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    let server = obs::ObsServer::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    obs::set_qos_target_p_hd(0.01);
    force_violation(9_302, 60.0);
    obs::watchdog_tick(120.0);

    // Catalog form: no metric parameter.
    let (head, body) = http_get(addr, "/query");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    assert!(head.contains("application/json"));
    let catalog = qres_json::Value::parse(&body).expect("/query serves valid JSON");
    assert!(catalog.get("sample_secs").is_some());
    assert!(catalog.get("series").is_some());

    // Per-metric form with points; the cell filter narrows the series.
    let (_, body) = http_get(addr, "/query?metric=qres_qos_p_hd&cell=9302");
    let doc = qres_json::Value::parse(&body).expect("metric query serves valid JSON");
    let series = doc.get("series").expect("series array");
    let qres_json::Value::Array(series) = series else {
        panic!("series must be an array, got {series:?}");
    };
    assert_eq!(series.len(), 1, "cell filter must narrow to one series");
    let points = series[0].get("points").expect("points array");
    let qres_json::Value::Array(points) = points else {
        panic!("points must be an array");
    };
    assert!(
        points.len() >= 2,
        "two watchdog ticks must retain two samples, got {}",
        points.len()
    );

    // /alerts carries config, fired counters and the transition log.
    let (head, body) = http_get(addr, "/alerts");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    let alerts = qres_json::Value::parse(&body).expect("/alerts serves valid JSON");
    assert!(alerts.get("config").is_some());
    let fired = alerts
        .get("fired_total")
        .and_then(|f| f.get("p_hd_burn"))
        .cloned();
    assert!(
        matches!(
            fired,
            Some(qres_json::Value::UInt(1..) | qres_json::Value::Int(1..))
        ),
        "p_hd_burn must have fired, got {fired:?}"
    );
    let render = obs::render_obstop(
        &qres_json::Value::parse(&http_get(addr, "/query?metric=qres_qos_p_hd").1).unwrap(),
        &alerts,
        5,
    )
    .expect("obstop renders from live documents");
    assert!(render.contains("9302"), "dashboard must show the hot cell");

    server.shutdown();
    reset_all();
}

/// The alert document written by `obs_finish` round-trips through the
/// offline `qres obswatch` renderer (snapshot form), and the JSONL event
/// spill form renders the same transitions.
#[test]
fn alert_timeline_round_trips_through_obswatch_renderers() {
    let _guard = LOCK.lock().unwrap();
    reset_all();
    obs::set_level(obs::Level::Info);
    obs::set_qos_target_p_hd(0.01);
    force_violation(9_303, 60.0);
    obs::finalize_alerts(120.0);

    // Snapshot form: the pretty-printed alerts document.
    let doc = obs::alerts_json().to_pretty_string();
    let rendered = obs::render_watch(&doc).expect("alerts document renders");
    assert!(rendered.contains("p_hd_burn"), "render: {rendered}");
    assert!(rendered.contains("firing"), "render: {rendered}");
    assert!(rendered.contains("resolved"), "render: {rendered}");

    // JSONL form: the spilled event stream carries the same transitions.
    let (events, _) = obs::drain_events();
    let jsonl = obs::events_to_jsonl(&events);
    assert!(
        jsonl.contains("alert_transition"),
        "transitions must reach the event stream"
    );
    let replay = obs::render_watch(&jsonl).expect("JSONL stream renders");
    assert!(replay.contains("p_hd_burn"), "replay: {replay}");
    assert!(replay.contains("firing"), "replay: {replay}");

    reset_all();
}
