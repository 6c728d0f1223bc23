//! # qres-obs — observability for the hand-off reservation stack
//!
//! A zero-dependency (beyond `qres-json`) telemetry layer threaded through
//! every crate in the workspace:
//!
//! * [`event`] / [`recorder`] — a level-filtered, fixed-capacity ring
//!   buffer of typed structured events ([`ObsEvent`]): admission
//!   decisions, `B_r` computations, `T_est` window moves,
//!   HOE quadruplet insert/evict, DES queue high-water marks, and
//!   backbone message sends — each carrying sim-time and cell id, and
//!   drainable to JSONL.
//! * [`metrics`] — a registry of `const`-constructible atomic counters,
//!   max-gauges, and log-linear timing histograms over the hot paths:
//!   admission tests, batched Eq.-4 sweeps, `compute_br` terms, event
//!   dispatch, sweep points.
//! * [`export`] — Prometheus text exposition, a JSON snapshot merged into
//!   `qres-sim` run reports, and an in-repo exposition lint for CI.
//! * [`serve`] — a hand-rolled `std::net` HTTP scrape endpoint
//!   (`/metrics`, `/metrics.json`, `/qos`, `/healthz`, ...) so
//!   Prometheus/Grafana can watch a long sweep live instead of waiting
//!   for the final snapshot.
//! * [`fold`] / [`trace`] — offline renderers over the spilled event
//!   stream: folded stacks for `flamegraph.pl`/inferno (`qres obsfold`),
//!   Perfetto-importable trace-event JSON (`qres obstrace`), and a
//!   structural span diff between two traces
//!   (`qres obstrace --diff`).
//! * [`qos`] — live QoS-conformance tracking: per-cell sliding-window
//!   `P_HD`/`P_CB` estimators with Wilson intervals, violation-seconds
//!   clocks against the paper's target, and reservation-efficiency
//!   integrals (`B_r` reserved vs. hand-off bandwidth consumed).
//! * [`calib`] — Eq.-4 prediction calibration: per-connection `p_h`
//!   forecasts matched against realized hand-offs, aggregated into
//!   reliability-diagram bins and a Brier score (`qres obscalib`).
//! * [`push`] — periodic Prometheus-text/JSON push to a TCP sink or file,
//!   for batch runs nothing scrapes.
//! * [`diff`] — cross-run diff of two `/metrics.json` snapshots
//!   (`qres obsdiff`).
//! * [`tsdb`] — the SLO watchdog's retention store: a ring-buffer
//!   time-series database sampling the QoS/registry families on a
//!   sim-time cadence, queryable at `GET /query` and rendered as unicode
//!   sparklines by `qres obstop`.
//! * [`alert`] — burn-rate SLO alerting over the retention store:
//!   fast/slow-window rules derived from `P_HD,target`, a
//!   pending→firing→resolved state machine on sim-timestamps, served at
//!   `GET /alerts` and replayed offline by `qres obswatch`.
//! * [`flight`] — the decision-provenance flight recorder: a bounded ring
//!   of complete admission decision records (inputs, per-neighbor Eq.-4
//!   terms, feasibility checks, verdict) keyed by `admission_req_seq`,
//!   served at `GET /explain`, frozen to `obs_flight_<cell>_<ts>.json`
//!   when `p_hd_burn` fires, and re-executed by `qres obsreplay`.
//! * [`loglin`] — the shared log-linear bucket layout (16 sub-buckets per
//!   octave, ≤ 6.25% relative error), also reused by
//!   `qres_stats::LogLinearHistogram`.
//!
//! ## Overhead contract
//!
//! Telemetry is off by default. Every instrumentation site is gated on
//! [`enabled`] — a single relaxed atomic load plus a branch — and takes no
//! wall-clock timestamps, allocates nothing, and touches no locks until
//! switched on with [`set_level`]. The repo benchmark (`perfbench/`)
//! measures the enabled cost as `ring_ac3_obs` against `ring_ac3`.
//!
//! ## Determinism contract
//!
//! The recorder is strictly passive: wall-clock readings feed histograms
//! only, and event recording never feeds back into simulation state, so
//! enabling telemetry cannot change `P_CB`/`P_HD`/`N_calc`
//! (`tests/determinism.rs` asserts this).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alert;
pub mod calib;
pub mod diff;
pub mod event;
pub mod export;
pub mod flight;
pub mod fold;
pub mod loglin;
pub mod metrics;
pub mod push;
pub mod qos;
pub mod recorder;
pub mod serve;
pub mod trace;
pub mod tsdb;

pub use alert::{
    alert_config, alerts_json, alerts_snapshot, evaluate as evaluate_alerts,
    finalize as finalize_alerts, firing_alerts, render_watch, reset_alerts, set_alert_config,
    AlertConfig, AlertSnapshot, AlertState,
};
pub use calib::{
    calib_json, calib_summary, flush_staged, observe_attempt, observe_end, render_calib_report,
    reset_calib, stage_prediction, sweep_expired,
};
pub use diff::{check_fail_on, diff_snapshots};
pub use event::{events_to_jsonl, record_epoch, ObsEvent};
pub use export::{escape_label_value, prometheus_text, snapshot_json, validate_prometheus_text};
pub use flight::{
    denial_cause, explain_json, flight_enabled, flight_json, flight_summary_json, records_from_doc,
    render_explain, reset_flight, set_flight_capacity, set_flight_capture_dir, set_flight_enabled,
    FlightCheck, FlightRecord, FlightTerm,
};
pub use fold::folded_stacks;
pub use metrics::{
    cell_shards, configure_cell_shards, ensure_cell_shards, reset_metrics, AtomicHistogram,
    Counter, HistogramSnapshot, MaxGauge, ShardedHistogram, CELL_SHARDS,
};
pub use push::{PushExporter, PushFormat};
pub use qos::{
    qos_json, qos_snapshot, qos_target_p_hd, reset_qos, set_qos_target_p_hd, set_qos_window_secs,
    wilson_interval, CellQosSnapshot,
};
pub use recorder::{
    clear_spill, drain_events, enabled, enabled_at, flush_spill, level, record, reset,
    sample_every, set_capacity, set_level, set_sample_every, set_sim_time, set_spill_path,
    sim_time, Level,
};
pub use serve::ObsServer;
pub use trace::{diff_traces, perfetto_trace};
pub use tsdb::{
    query_json, render_obstop, reset_tsdb, set_tsdb_sample_secs, set_watchdog_enabled, sparkline,
    tsdb_sample_secs, watchdog_enabled, watchdog_tick,
};
