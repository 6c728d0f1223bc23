//! SLO watchdog: declarative burn-rate alert rules evaluated over the
//! retention store ([`crate::tsdb`]) at each watchdog sample tick.
//!
//! The default rule set is derived from the paper's QoS contract and the
//! obs plane's own health:
//!
//! * `p_hd_burn` — per cell: the windowed mean of `qres_qos_p_hd` divided
//!   by `P_HD,target` (the *burn rate*: 1.0 = consuming the error budget
//!   exactly at target, >1 = on track to violate);
//! * `violation_clock` — per cell: `qres_qos_violation_seconds_total`
//!   advanced inside the window (the cell sat above target);
//! * `push_errors` — global: `qres_obs_push_errors_total` advanced inside
//!   the window (the export plane is failing).
//!
//! Each rule is evaluated over two windows, SRE burn-rate style: a fast
//! window (default [`FAST_WINDOW_SECS`], 5 sim-min) for responsiveness
//! and a slow window (default [`SLOW_WINDOW_SECS`], 1 sim-h) to reject
//! blips. The state machine per `(rule, entity)`:
//!
//! ```text
//! (none) --fast bad--> pending --fast+slow bad--> firing --fast ok--> resolved
//!    ^                    |                                              |
//!    '---- fast ok -------'  (silent retract)        fast bad again -----'
//! ```
//!
//! All timestamps are simulation time quantized by the tsdb cadence, so
//! the alert timeline is bit-identical across reruns.
//! Alerts are derived state only — nothing here feeds back into the
//! simulation. Sim-side consumers (the planned AC4 controller) read
//! [`alerts_snapshot`] / [`firing_alerts`] directly, no HTTP needed.
//!
//! Exposed at `GET /alerts`, as the `qres_alert_state{rule,cell}` /
//! `qres_alerts_fired_total{rule}` Prometheus families, under `"alerts"`
//! in JSON snapshots (and therefore in `--obs-push` payloads), and
//! replayable offline with `qres obswatch` ([`render_watch`]).

use std::collections::BTreeMap;
use std::sync::Mutex;

use qres_json::Value;

use crate::event::ObsEvent;
use crate::tsdb;

/// Fast burn-rate window (simulated seconds): 5 sim-minutes.
pub const FAST_WINDOW_SECS: f64 = 300.0;

/// Slow burn-rate window (simulated seconds): 1 sim-hour.
pub const SLOW_WINDOW_SECS: f64 = 3600.0;

/// Default burn threshold for `p_hd_burn`: windowed mean `P_HD` over
/// target, >1 means the error budget burns faster than it accrues.
pub const DEFAULT_BURN_THRESHOLD: f64 = 1.0;

/// Bound on the retained transition log (oldest entries drop first).
const MAX_TRANSITIONS: usize = 512;

/// Rule name: per-cell `P_HD` burn rate against `P_HD,target`.
pub const RULE_P_HD_BURN: &str = "p_hd_burn";
/// Rule name: per-cell violation clock advanced inside the window.
pub const RULE_VIOLATION_CLOCK: &str = "violation_clock";
/// Rule name: push exporter errors inside the window.
pub const RULE_PUSH_ERRORS: &str = "push_errors";

/// The default rule set, in evaluation order.
pub const RULE_NAMES: [&str; 3] = [RULE_P_HD_BURN, RULE_VIOLATION_CLOCK, RULE_PUSH_ERRORS];

/// Entity id used for global (non-per-cell) rules.
const ENTITY_GLOBAL: i64 = -1;

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The fast window went bad; waiting for the slow window to confirm.
    Pending,
    /// Both windows bad: the SLO is burning. Counted in `fired_total`.
    Firing,
    /// Was firing; the fast window recovered. Retained for inspection.
    Resolved,
}

impl AlertState {
    /// The wire label (`pending` / `firing` / `resolved`).
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// The `qres_alert_state` gauge encoding (resolved 0, pending 1,
    /// firing 2).
    pub fn gauge_value(self) -> u64 {
        match self {
            AlertState::Resolved => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }
}

/// Watchdog configuration. `target_p_hd == None` falls back to the live
/// QoS tracker target ([`crate::qos`]).
#[derive(Debug, Clone, Copy)]
pub struct AlertConfig {
    /// Fast ("page") window in simulated seconds.
    pub fast_window_secs: f64,
    /// Slow ("confirm") window in simulated seconds.
    pub slow_window_secs: f64,
    /// Burn threshold for `p_hd_burn` (mean `P_HD` / target).
    pub burn_threshold: f64,
    /// Override for `P_HD,target`; `None` uses the QoS tracker's target.
    pub target_p_hd: Option<f64>,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            fast_window_secs: FAST_WINDOW_SECS,
            slow_window_secs: SLOW_WINDOW_SECS,
            burn_threshold: DEFAULT_BURN_THRESHOLD,
            target_p_hd: None,
        }
    }
}

/// One alert as seen by sim-side consumers and the JSON surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSnapshot {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Cell id; `None` for global rules.
    pub cell: Option<u32>,
    /// Current lifecycle state.
    pub state: AlertState,
    /// Sim-time the current pending→… episode started.
    pub since: f64,
    /// Sim-time the alert last transitioned to firing, if it did.
    pub fired_at: Option<f64>,
    /// Sim-time the alert resolved, if it did.
    pub resolved_at: Option<f64>,
    /// Burn rate over the fast window at the last evaluation.
    pub fast_burn: f64,
    /// Burn rate over the slow window at the last evaluation.
    pub slow_burn: f64,
}

#[derive(Debug, Clone)]
struct Entry {
    state: AlertState,
    since: f64,
    fired_at: Option<f64>,
    resolved_at: Option<f64>,
    fast_burn: f64,
    slow_burn: f64,
}

#[derive(Debug)]
struct AlertPlane {
    config: AlertConfig,
    entries: BTreeMap<(&'static str, i64), Entry>,
    fired_total: BTreeMap<&'static str, u64>,
    /// `(t, rule, entity, state-label)`, oldest first, bounded.
    transitions: Vec<(f64, &'static str, i64, &'static str)>,
}

impl AlertPlane {
    fn new() -> Self {
        AlertPlane {
            config: AlertConfig::default(),
            entries: BTreeMap::new(),
            fired_total: BTreeMap::new(),
            transitions: Vec::new(),
        }
    }

    fn transition(&mut self, t: f64, rule: &'static str, entity: i64, state: &'static str) {
        if self.transitions.len() >= MAX_TRANSITIONS {
            self.transitions.remove(0);
        }
        self.transitions.push((t, rule, entity, state));
        crate::recorder::record(ObsEvent::AlertTransition {
            t,
            rule,
            cell: cell_of_entity(entity),
            state,
        });
    }
}

fn cell_of_entity(entity: i64) -> Option<u32> {
    u32::try_from(entity).ok()
}

static ALERTS: Mutex<Option<AlertPlane>> = Mutex::new(None);

fn with_plane<R>(f: impl FnOnce(&mut AlertPlane) -> R) -> R {
    let mut guard = ALERTS.lock().unwrap();
    f(guard.get_or_insert_with(AlertPlane::new))
}

/// Replaces the watchdog configuration (CLI `--slo-*` flags).
pub fn set_alert_config(config: AlertConfig) {
    with_plane(|p| p.config = config);
}

/// The current watchdog configuration.
pub fn alert_config() -> AlertConfig {
    with_plane(|p| p.config)
}

/// Clears all alert state, the transition log, and fired counters; the
/// configuration reverts to [`AlertConfig::default`].
pub fn reset_alerts() {
    *ALERTS.lock().unwrap() = None;
}

/// One `(rule, entity)` observation for an evaluation pass.
struct Signal {
    rule: &'static str,
    entity: i64,
    fast_burn: f64,
    slow_burn: f64,
}

/// Whether a burn value breaches the rule's contract.
fn is_bad(rule: &str, burn: f64, threshold: f64) -> bool {
    match rule {
        RULE_P_HD_BURN => burn > threshold,
        // Delta-style rules: any advance inside the window is bad.
        _ => burn > 0.0,
    }
}

/// Evaluates every rule over the retention store at sim-time `now` and
/// advances the state machine. Called by the watchdog tick after each
/// sample ([`crate::tsdb::watchdog_tick`]); public so tests and sim-side
/// controllers can drive it directly.
pub fn evaluate(now: f64) {
    let config = alert_config();
    let target = config
        .target_p_hd
        .unwrap_or_else(crate::qos::qos_target_p_hd)
        .max(f64::MIN_POSITIVE);
    let fast_since = now - config.fast_window_secs;
    let slow_since = now - config.slow_window_secs;

    let mut signals: Vec<Signal> = Vec::new();
    for entity in tsdb::family_entities("qres_qos_p_hd") {
        let burn = |since| {
            tsdb::window_stats("qres_qos_p_hd", entity, since)
                .map(|w| w.mean / target)
                .unwrap_or(0.0)
        };
        signals.push(Signal {
            rule: RULE_P_HD_BURN,
            entity,
            fast_burn: burn(fast_since),
            slow_burn: burn(slow_since),
        });
    }
    for entity in tsdb::family_entities("qres_qos_violation_seconds_total") {
        let delta = |since| {
            tsdb::window_stats("qres_qos_violation_seconds_total", entity, since)
                .map(|w| w.delta)
                .unwrap_or(0.0)
        };
        signals.push(Signal {
            rule: RULE_VIOLATION_CLOCK,
            entity,
            fast_burn: delta(fast_since),
            slow_burn: delta(slow_since),
        });
    }
    {
        let delta = |since| {
            tsdb::window_stats("qres_obs_push_errors_total", ENTITY_GLOBAL, since)
                .map(|w| w.delta)
                .unwrap_or(0.0)
        };
        signals.push(Signal {
            rule: RULE_PUSH_ERRORS,
            entity: ENTITY_GLOBAL,
            fast_burn: delta(fast_since),
            slow_burn: delta(slow_since),
        });
    }

    with_plane(|p| {
        let threshold = p.config.burn_threshold;
        // Entries with no signal this pass (series gone) still step the
        // machine, with a clean signal.
        let mut keys: Vec<(&'static str, i64)> =
            signals.iter().map(|s| (s.rule, s.entity)).collect();
        for key in p.entries.keys() {
            if !keys.contains(key) {
                keys.push(*key);
            }
        }
        for (rule, entity) in keys {
            let (fast_burn, slow_burn) = signals
                .iter()
                .find(|s| s.rule == rule && s.entity == entity)
                .map(|s| (s.fast_burn, s.slow_burn))
                .unwrap_or((0.0, 0.0));
            let fast_bad = is_bad(rule, fast_burn, threshold);
            let slow_bad = is_bad(rule, slow_burn, threshold);
            step(
                p, now, rule, entity, fast_burn, slow_burn, fast_bad, slow_bad,
            );
        }
    });
}

/// Advances one `(rule, entity)` through the state machine.
#[allow(clippy::too_many_arguments)]
fn step(
    p: &mut AlertPlane,
    now: f64,
    rule: &'static str,
    entity: i64,
    fast_burn: f64,
    slow_burn: f64,
    fast_bad: bool,
    slow_bad: bool,
) {
    let key = (rule, entity);
    match p.entries.get_mut(&key) {
        None => {
            if fast_bad {
                p.entries.insert(
                    key,
                    Entry {
                        state: AlertState::Pending,
                        since: now,
                        fired_at: None,
                        resolved_at: None,
                        fast_burn,
                        slow_burn,
                    },
                );
                p.transition(now, rule, entity, "pending");
                if slow_bad {
                    fire(p, now, rule, entity);
                }
            }
        }
        Some(entry) => {
            entry.fast_burn = fast_burn;
            entry.slow_burn = slow_burn;
            match entry.state {
                AlertState::Pending => {
                    if !fast_bad {
                        // A blip the slow window never confirmed:
                        // retract silently, no transition recorded.
                        p.entries.remove(&key);
                    } else if slow_bad {
                        fire(p, now, rule, entity);
                    }
                }
                AlertState::Firing => {
                    if !fast_bad {
                        entry.state = AlertState::Resolved;
                        entry.resolved_at = Some(now);
                        p.transition(now, rule, entity, "resolved");
                    }
                }
                AlertState::Resolved => {
                    if fast_bad {
                        entry.state = AlertState::Pending;
                        entry.since = now;
                        entry.fired_at = None;
                        entry.resolved_at = None;
                        p.transition(now, rule, entity, "pending");
                        if slow_bad {
                            fire(p, now, rule, entity);
                        }
                    }
                }
            }
        }
    }
}

fn fire(p: &mut AlertPlane, now: f64, rule: &'static str, entity: i64) {
    if let Some(entry) = p.entries.get_mut(&(rule, entity)) {
        entry.state = AlertState::Firing;
        entry.fired_at = Some(now);
    }
    *p.fired_total.entry(rule).or_insert(0) += 1;
    p.transition(now, rule, entity, "firing");
    // A cell burning its P_HD budget freezes its flight-recorder window
    // to disk, so the decisions behind the burn survive the ring. The
    // flight plane never locks the alert plane, so ordering is safe; the
    // capture is a no-op unless a capture directory was configured.
    if rule == RULE_P_HD_BURN {
        if let Ok(cell) = u32::try_from(entity) {
            if let Some((path, records)) = crate::flight::capture_for_cell(cell, now, rule) {
                crate::recorder::record(ObsEvent::FlightCapture {
                    t: now,
                    cell,
                    rule,
                    records,
                    path,
                });
            }
        }
    }
}

/// End-of-run sweep: resolves every firing alert at sim-time `now` (so a
/// run artifact never ends on a dangling `firing`) and retracts pendings.
pub fn finalize(now: f64) {
    with_plane(|p| {
        let keys: Vec<(&'static str, i64)> = p.entries.keys().copied().collect();
        for key in keys {
            match p.entries.get(&key).map(|e| e.state) {
                Some(AlertState::Firing) => {
                    if let Some(entry) = p.entries.get_mut(&key) {
                        entry.state = AlertState::Resolved;
                        entry.resolved_at = Some(now);
                    }
                    p.transition(now, key.0, key.1, "resolved");
                }
                Some(AlertState::Pending) => {
                    p.entries.remove(&key);
                }
                _ => {}
            }
        }
    });
}

/// All alerts (pending, firing, and retained resolved), for sim-side
/// consumers like the planned AC4 controller.
pub fn alerts_snapshot() -> Vec<AlertSnapshot> {
    with_plane(|p| {
        p.entries
            .iter()
            .map(|(&(rule, entity), e)| AlertSnapshot {
                rule,
                cell: cell_of_entity(entity),
                state: e.state,
                since: e.since,
                fired_at: e.fired_at,
                resolved_at: e.resolved_at,
                fast_burn: e.fast_burn,
                slow_burn: e.slow_burn,
            })
            .collect()
    })
}

/// The currently firing alerts only (the `/healthz` degradation input).
pub fn firing_alerts() -> Vec<AlertSnapshot> {
    alerts_snapshot()
        .into_iter()
        .filter(|a| a.state == AlertState::Firing)
        .collect()
}

fn cell_value(cell: Option<u32>) -> Value {
    match cell {
        Some(c) => Value::Str(c.to_string()),
        None => Value::Null,
    }
}

fn opt_float(v: Option<f64>) -> Value {
    match v {
        Some(f) => Value::Float(f),
        None => Value::Null,
    }
}

/// The `GET /alerts` document (also merged into snapshots as `"alerts"`):
/// configuration, per-rule fired totals, the alert table, and the
/// bounded transition log.
pub fn alerts_json() -> Value {
    let snapshot = alerts_snapshot();
    with_plane(|p| {
        let config = Value::Object(vec![
            (
                "fast_window_secs".to_string(),
                Value::Float(p.config.fast_window_secs),
            ),
            (
                "slow_window_secs".to_string(),
                Value::Float(p.config.slow_window_secs),
            ),
            (
                "burn_threshold".to_string(),
                Value::Float(p.config.burn_threshold),
            ),
            (
                "target_p_hd".to_string(),
                Value::Float(
                    p.config
                        .target_p_hd
                        .unwrap_or_else(crate::qos::qos_target_p_hd),
                ),
            ),
        ]);
        let fired = Value::Object(
            RULE_NAMES
                .iter()
                .map(|&rule| {
                    (
                        rule.to_string(),
                        Value::UInt(p.fired_total.get(rule).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        );
        let alerts = Value::Array(
            snapshot
                .iter()
                .map(|a| {
                    Value::Object(vec![
                        ("rule".to_string(), Value::Str(a.rule.to_string())),
                        ("cell".to_string(), cell_value(a.cell)),
                        ("state".to_string(), Value::Str(a.state.label().to_string())),
                        ("since".to_string(), Value::Float(a.since)),
                        ("fired_at".to_string(), opt_float(a.fired_at)),
                        ("resolved_at".to_string(), opt_float(a.resolved_at)),
                        ("fast_burn".to_string(), Value::Float(a.fast_burn)),
                        ("slow_burn".to_string(), Value::Float(a.slow_burn)),
                    ])
                })
                .collect(),
        );
        let transitions = Value::Array(
            p.transitions
                .iter()
                .map(|&(t, rule, entity, state)| {
                    Value::Object(vec![
                        ("t".to_string(), Value::Float(t)),
                        ("rule".to_string(), Value::Str(rule.to_string())),
                        ("cell".to_string(), cell_value(cell_of_entity(entity))),
                        ("state".to_string(), Value::Str(state.to_string())),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("config".to_string(), config),
            ("fired_total".to_string(), fired),
            ("alerts".to_string(), alerts),
            ("transitions".to_string(), transitions),
        ])
    })
}

/// Appends the `qres_alert_state{rule,cell}` and
/// `qres_alerts_fired_total{rule}` families to a Prometheus exposition.
/// Renders nothing while the watchdog has never transitioned anything,
/// keeping unused-run expositions byte-identical.
pub fn prometheus_fragment(out: &mut String) {
    let (entries, fired): (Vec<_>, Vec<_>) = with_plane(|p| {
        (
            p.entries
                .iter()
                .map(|(&(rule, entity), e)| (rule, entity, e.state))
                .collect(),
            RULE_NAMES
                .iter()
                .map(|&rule| (rule, p.fired_total.get(rule).copied().unwrap_or(0)))
                .collect(),
        )
    });
    if entries.is_empty() && fired.iter().all(|&(_, n)| n == 0) {
        return;
    }
    out.push_str(
        "# HELP qres_alert_state SLO watchdog alert state (0 resolved, 1 pending, 2 firing).\n",
    );
    out.push_str("# TYPE qres_alert_state gauge\n");
    for (rule, entity, state) in entries {
        match cell_of_entity(entity) {
            Some(cell) => out.push_str(&format!(
                "qres_alert_state{{rule=\"{rule}\",cell=\"{cell}\"}} {}\n",
                state.gauge_value()
            )),
            None => out.push_str(&format!(
                "qres_alert_state{{rule=\"{rule}\"}} {}\n",
                state.gauge_value()
            )),
        }
    }
    out.push_str("# HELP qres_alerts_fired_total Alerts that reached firing, by rule.\n");
    out.push_str("# TYPE qres_alerts_fired_total counter\n");
    for (rule, n) in fired {
        out.push_str(&format!("qres_alerts_fired_total{{rule=\"{rule}\"}} {n}\n"));
    }
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

fn str_of(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Null) | None => "-".to_string(),
        Some(v) => num(Some(v)).to_string(),
    }
}

/// A sim timestamp that may be null (never fired / never resolved).
fn stamp_of(v: Option<&Value>) -> String {
    match v {
        Some(Value::Null) | None => "-".to_string(),
        Some(v) => format!("{:.1}", num(Some(v))),
    }
}

/// Renders the `qres obswatch` report from a run artifact: either a JSONL
/// event spill (`obs_events.jsonl` — `alert_transition` lines are
/// replayed into a timeline) or a JSON document carrying an `"alerts"`
/// section (an `obs_alerts.json`, a `/metrics.json` snapshot, or a run
/// report embedding one under `"obs"`).
pub fn render_watch(text: &str) -> Result<String, String> {
    if let Ok(doc) = Value::parse(text.trim()) {
        let alerts = if doc.get("fired_total").is_some() {
            Some(&doc)
        } else {
            doc.get("alerts")
                .or_else(|| doc.get("obs").and_then(|o| o.get("alerts")))
        };
        if let Some(alerts) = alerts {
            return render_watch_doc(alerts);
        }
        return Err("JSON document has no \"alerts\" section".to_string());
    }
    render_watch_jsonl(text)
}

fn render_watch_doc(alerts: &Value) -> Result<String, String> {
    let mut out = String::from("alerts:\n");
    let rows = match alerts.get("alerts") {
        Some(Value::Array(rows)) => rows.as_slice(),
        _ => &[],
    };
    if rows.is_empty() {
        out.push_str("  (none)\n");
    }
    for a in rows {
        out.push_str(&format!(
            "  {:<17} cell {:<7} {:<9} since={:.1} fired_at={} resolved_at={}\n",
            str_of(a.get("rule")),
            str_of(a.get("cell")),
            str_of(a.get("state")),
            num(a.get("since")),
            stamp_of(a.get("fired_at")),
            stamp_of(a.get("resolved_at")),
        ));
    }
    if let Some(Value::Object(fields)) = alerts.get("fired_total") {
        out.push_str("fired_total:\n");
        for (rule, n) in fields {
            out.push_str(&format!("  {:<17} {}\n", rule, num(Some(n)) as u64));
        }
    }
    if let Some(Value::Array(transitions)) = alerts.get("transitions") {
        out.push_str(&format!("transitions ({}):\n", transitions.len()));
        for tr in transitions {
            out.push_str(&format!(
                "  t={:<10.1} {:<17} cell {:<7} -> {}\n",
                num(tr.get("t")),
                str_of(tr.get("rule")),
                str_of(tr.get("cell")),
                str_of(tr.get("state")),
            ));
        }
    }
    Ok(out)
}

fn render_watch_jsonl(text: &str) -> Result<String, String> {
    let mut transitions = Vec::new();
    let mut fired: BTreeMap<String, u64> = BTreeMap::new();
    let mut parsed_any = false;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            Value::parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", idx + 1))?;
        parsed_any = true;
        match value.get("type") {
            Some(Value::Str(tag)) if tag == "alert_transition" => {}
            _ => continue,
        }
        let state = str_of(value.get("state"));
        if state == "firing" {
            *fired.entry(str_of(value.get("rule"))).or_insert(0) += 1;
        }
        transitions.push((
            num(value.get("t")),
            str_of(value.get("rule")),
            str_of(value.get("cell")),
            state,
        ));
    }
    if !parsed_any {
        return Err("no JSON lines found".to_string());
    }
    let mut out = format!("alert timeline ({} transitions):\n", transitions.len());
    if transitions.is_empty() {
        out.push_str("  (no alert transitions recorded)\n");
    }
    for (t, rule, cell, state) in &transitions {
        out.push_str(&format!(
            "  t={t:<10.1} {rule:<17} cell {cell:<7} -> {state}\n"
        ));
    }
    if !fired.is_empty() {
        out.push_str("fired:\n");
        for (rule, n) in &fired {
            out.push_str(&format!("  {rule:<17} {n}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests touching the process-global alert plane and the
    /// tsdb/qos stores it evaluates over.
    static LOCK: Mutex<()> = Mutex::new(());

    const CELL: u32 = 9_201;

    fn reset_all() {
        reset_alerts();
        crate::tsdb::reset_tsdb();
        crate::qos::reset_qos();
    }

    /// Drives `ticks` watchdog samples at the default cadence with every
    /// hand-off dropped (p_hd = 1.0 ≫ target).
    fn drive_bad_cell(ticks: usize) {
        for i in 1..=ticks {
            let t = i as f64 * 60.0;
            crate::qos::record_handoff_outcome(t - 1.0, CELL, true);
            assert!(crate::tsdb::maybe_sample(t));
            evaluate(t);
        }
    }

    #[test]
    fn p_hd_burn_walks_pending_firing_resolved() {
        let _g = LOCK.lock().unwrap();
        reset_all();

        // One bad sample: fast window bad, slow window bad too (the slow
        // window sees the same single sample) → pending then firing on
        // the same tick is allowed by the machine; verify via snapshot.
        drive_bad_cell(1);
        let alerts = alerts_snapshot();
        let a = alerts
            .iter()
            .find(|a| a.rule == RULE_P_HD_BURN && a.cell == Some(CELL))
            .expect("p_hd_burn alert exists");
        assert_eq!(a.state, AlertState::Firing);
        assert!(a.fast_burn > 1.0);

        // Recovery: successful hand-offs pull the windowed mean down to
        // ~0 once the bad points age out of both windows.
        let mut t = 120.0;
        loop {
            for _ in 0..200 {
                crate::qos::record_handoff_outcome(t - 1.0, CELL, false);
            }
            assert!(crate::tsdb::maybe_sample(t));
            evaluate(t);
            let a = firing_alerts();
            if a.iter().all(|a| a.rule != RULE_P_HD_BURN) {
                break;
            }
            t += 60.0;
            assert!(t < 5000.0, "alert never resolved");
        }
        let alerts = alerts_snapshot();
        let a = alerts
            .iter()
            .find(|a| a.rule == RULE_P_HD_BURN && a.cell == Some(CELL))
            .expect("resolved alert retained");
        assert_eq!(a.state, AlertState::Resolved);
        assert!(a.resolved_at.is_some());

        let json = alerts_json();
        let fired = json.get("fired_total").unwrap();
        assert_eq!(
            fired.get(RULE_P_HD_BURN),
            Some(&Value::UInt(1)),
            "fired exactly once: {json:?}"
        );
        reset_all();
    }

    #[test]
    fn finalize_resolves_firing_and_retracts_pending() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        drive_bad_cell(1);
        assert!(!firing_alerts().is_empty());
        finalize(600.0);
        assert!(firing_alerts().is_empty());
        let alerts = alerts_snapshot();
        assert!(alerts
            .iter()
            .all(|a| a.state == AlertState::Resolved && a.resolved_at == Some(600.0)));
        reset_all();
    }

    #[test]
    fn prometheus_fragment_is_empty_until_something_happens() {
        let _g = LOCK.lock().unwrap();
        reset_all();
        let mut out = String::new();
        prometheus_fragment(&mut out);
        assert!(out.is_empty(), "untouched watchdog renders nothing: {out}");

        drive_bad_cell(1);
        let mut out = String::new();
        prometheus_fragment(&mut out);
        assert!(
            out.contains(&format!(
                "qres_alert_state{{rule=\"p_hd_burn\",cell=\"{CELL}\"}} 2"
            )),
            "{out}"
        );
        assert!(
            out.contains("qres_alerts_fired_total{rule=\"p_hd_burn\"} 1"),
            "{out}"
        );
        crate::export::validate_prometheus_text(&crate::export::prometheus_text())
            .expect("full exposition lints with alert families");
        reset_all();
    }

    #[test]
    fn obswatch_renders_jsonl_and_snapshot_inputs() {
        let jsonl = concat!(
            r#"{"type":"admission","t":1.0,"cell":3,"kind":"new","admitted":true,"bw":1.0,"blocked_by_neighbor":null}"#,
            "\n",
            r#"{"type":"alert_transition","t":60.0,"rule":"p_hd_burn","cell":9201,"state":"pending"}"#,
            "\n",
            r#"{"type":"alert_transition","t":60.0,"rule":"p_hd_burn","cell":9201,"state":"firing"}"#,
            "\n",
        );
        let report = render_watch(jsonl).expect("jsonl replays");
        assert!(report.contains("2 transitions"), "{report}");
        assert!(report.contains("p_hd_burn"), "{report}");
        assert!(report.contains("firing"), "{report}");

        let doc = r#"{"obs":{"alerts":{"config":{},"fired_total":{"p_hd_burn":2},
            "alerts":[{"rule":"p_hd_burn","cell":"7","state":"resolved",
            "since":60.0,"fired_at":60.0,"resolved_at":120.0,
            "fast_burn":0.0,"slow_burn":0.0}],
            "transitions":[{"t":60.0,"rule":"p_hd_burn","cell":"7","state":"firing"}]}}}"#;
        let report = render_watch(doc).expect("snapshot renders");
        assert!(report.contains("resolved"), "{report}");
        assert!(report.contains("fired_total"), "{report}");

        assert!(render_watch("{\"no\":\"alerts\"}").is_err());
        assert!(render_watch("not json at all").is_err());
    }
}
