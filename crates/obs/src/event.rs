//! Typed structured events and their JSONL serialization.
//!
//! Events carry plain `u32` cell ids and `f64` sim-time seconds so this
//! crate stays below every simulation layer (no `qres-des` / `qres-cellnet`
//! types). Each event serializes to one compact JSON object with a `type`
//! tag — one object per line in the drained JSONL stream — and parses back
//! through `qres_json::Value::parse` (checked by the CI smoke job).

use qres_json::Value;

use crate::recorder::Level;

/// A structured observability event.
///
/// The event families required by the telemetry spec: admission
/// decisions, `B_r` computations, `T_est` window changes, HOE quadruplet
/// insert/evict, DES queue high-water marks, backbone message sends, SLO
/// alert transitions and flight captures.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A new-connection admission test completed.
    Admission {
        /// Sim-time of the test (seconds).
        t: f64,
        /// Requesting cell id.
        cell: u32,
        /// Monotonic admission-request id assigned by the reservation
        /// system; pairs this decision with the `BrCompute` events it
        /// triggered (span-shaped tracing, `qres obstrace`).
        req: u64,
        /// Scheme label (`AC1`/`AC2`/`AC3`/`static(G=..)`/`NS(..)`).
        scheme: String,
        /// Whether the connection was admitted.
        admitted: bool,
        /// For AC2/AC3 vetoes: rank of the vetoing neighbor in the
        /// requesting cell's sorted neighbor list.
        blocked_by_neighbor: Option<u8>,
        /// The requesting cell's `B_r` at test time (BUs).
        br: f64,
        /// Wall-clock duration of the whole admission test (nanoseconds;
        /// telemetry only, never fed back into the simulation).
        dur_ns: u64,
    },
    /// One `compute_br` call: the neighbor terms it evaluated through Eq. 4
    /// and the resulting `B_r`.
    BrCompute {
        /// Sim-time of the computation (seconds).
        t: f64,
        /// Cell whose `B_r` was computed.
        cell: u32,
        /// The admission-request id this computation belongs to (child
        /// span of the matching `Admission` event).
        req: u64,
        /// Neighbor terms evaluated.
        recomputed: u32,
        /// The resulting `B_r` (BUs).
        br: f64,
        /// Wall-clock duration of the computation (nanoseconds).
        dur_ns: u64,
    },
    /// The adaptive window controller moved `T_est` (Fig. 6).
    TEstChange {
        /// Sim-time of the triggering hand-off (seconds).
        t: f64,
        /// Cell whose window moved.
        cell: u32,
        /// The new `T_est` (seconds).
        t_est_secs: u64,
        /// Direction label (`increased`/`increase_capped`/`decreased`/
        /// `decrease_floored`).
        delta: &'static str,
        /// Whether the triggering hand-off was dropped.
        dropped: bool,
    },
    /// A hand-off event quadruplet entered an HOE cache.
    HoeInsert {
        /// Sim-time of the insert (seconds).
        t: f64,
        /// Cell owning the cache.
        cell: u32,
        /// Previous cell of the quadruplet.
        prev: u32,
        /// Next cell of the quadruplet.
        next: u32,
        /// Observed sojourn time (seconds).
        sojourn_secs: f64,
    },
    /// An HOE cache evicted old quadruplets to respect `N_quad`/retention.
    HoeEvict {
        /// Sim-time of the eviction (seconds).
        t: f64,
        /// Cell owning the cache.
        cell: u32,
        /// Number of quadruplets evicted.
        evicted: u32,
    },
    /// The DES pending-event set crossed a new high-water threshold.
    QueueHighWater {
        /// Sim-time when the mark was set (seconds).
        t: f64,
        /// Live (non-cancelled) events in the queue.
        live: u64,
    },
    /// A signaling message crossed the wired backbone.
    BackboneSend {
        /// Sim-time of the send (seconds).
        t: f64,
        /// Source cell id.
        from: u32,
        /// Destination cell id.
        to: u32,
        /// Message kind label.
        kind: &'static str,
        /// Nominal payload size (bytes).
        bytes: u64,
    },
    /// The SLO watchdog moved an alert through its state machine
    /// (`pending` → `firing` → `resolved`); replayed offline by
    /// `qres obswatch`.
    AlertTransition {
        /// Sim-time of the transition (the watchdog sample tick, seconds).
        t: f64,
        /// Alert rule name (see `crate::alert::RULE_NAMES`).
        rule: &'static str,
        /// Cell id; `None` for global rules.
        cell: Option<u32>,
        /// The state entered (`pending`/`firing`/`resolved`).
        state: &'static str,
    },
    /// An epoch barrier's wall-clock breakdown. Stays for
    /// `perfbench/src/mirror.rs` until the next benchmark change.
    EpochBarrier {
        /// Sim-time of the barrier (seconds).
        t: f64,
        /// The epoch that just completed.
        epoch: u64,
        /// Wall clock since the previous barrier completed (ns).
        wall_ns: u64,
        /// Wall clock of the barrier itself (ns).
        barrier_ns: u64,
        /// Always 0 (ns).
        blocked_ns: u64,
        /// `wall_ns − barrier_ns` (ns).
        serial_ns: u64,
    },
    /// An alert transition to `firing` froze a flight-recorder window to
    /// disk (`qres_obs::flight::capture_for_cell`).
    FlightCapture {
        /// Sim-time of the capture (the firing transition, seconds).
        t: f64,
        /// The cell whose decision window was captured.
        cell: u32,
        /// The alert rule that triggered the capture.
        rule: &'static str,
        /// Decision records written to the capture file.
        records: u64,
        /// Path of the capture file.
        path: String,
    },
}

impl ObsEvent {
    /// The minimum recorder level at which this event is captured.
    ///
    /// Decision-grade events (admission, `T_est`, queue pressure) are
    /// `Info`; high-frequency accounting events are `Debug`.
    pub fn level(&self) -> Level {
        match self {
            ObsEvent::Admission { .. }
            | ObsEvent::TEstChange { .. }
            | ObsEvent::QueueHighWater { .. }
            | ObsEvent::AlertTransition { .. }
            | ObsEvent::EpochBarrier { .. }
            | ObsEvent::FlightCapture { .. } => Level::Info,
            ObsEvent::BrCompute { .. }
            | ObsEvent::HoeInsert { .. }
            | ObsEvent::HoeEvict { .. }
            | ObsEvent::BackboneSend { .. } => Level::Debug,
        }
    }

    /// The `type` tag used in the JSONL stream.
    pub fn type_tag(&self) -> &'static str {
        match self {
            ObsEvent::Admission { .. } => "admission",
            ObsEvent::BrCompute { .. } => "br_compute",
            ObsEvent::TEstChange { .. } => "t_est_change",
            ObsEvent::HoeInsert { .. } => "hoe_insert",
            ObsEvent::HoeEvict { .. } => "hoe_evict",
            ObsEvent::QueueHighWater { .. } => "queue_high_water",
            ObsEvent::BackboneSend { .. } => "backbone_send",
            ObsEvent::AlertTransition { .. } => "alert_transition",
            ObsEvent::EpochBarrier { .. } => "epoch_barrier",
            ObsEvent::FlightCapture { .. } => "flight_capture",
        }
    }

    /// Serializes to a tagged JSON object (`{"type": ..., "t": ..., ...}`).
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("type".to_string(), Value::Str(self.type_tag().to_string())),
            ("t".to_string(), Value::Float(self.time())),
        ];
        match self {
            ObsEvent::Admission {
                cell,
                req,
                scheme,
                admitted,
                blocked_by_neighbor,
                br,
                dur_ns,
                ..
            } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("req".into(), Value::UInt(*req)));
                fields.push(("scheme".into(), Value::Str(scheme.clone())));
                fields.push(("admitted".into(), Value::Bool(*admitted)));
                fields.push((
                    "blocked_by_neighbor".into(),
                    match blocked_by_neighbor {
                        Some(rank) => Value::UInt(u64::from(*rank)),
                        None => Value::Null,
                    },
                ));
                fields.push(("br".into(), Value::Float(*br)));
                fields.push(("dur_ns".into(), Value::UInt(*dur_ns)));
            }
            ObsEvent::BrCompute {
                cell,
                req,
                recomputed,
                br,
                dur_ns,
                ..
            } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("req".into(), Value::UInt(*req)));
                fields.push(("recomputed".into(), Value::UInt(u64::from(*recomputed))));
                fields.push(("br".into(), Value::Float(*br)));
                fields.push(("dur_ns".into(), Value::UInt(*dur_ns)));
            }
            ObsEvent::TEstChange {
                cell,
                t_est_secs,
                delta,
                dropped,
                ..
            } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("t_est_secs".into(), Value::UInt(*t_est_secs)));
                fields.push(("delta".into(), Value::Str((*delta).to_string())));
                fields.push(("dropped".into(), Value::Bool(*dropped)));
            }
            ObsEvent::HoeInsert {
                cell,
                prev,
                next,
                sojourn_secs,
                ..
            } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("prev".into(), Value::UInt(u64::from(*prev))));
                fields.push(("next".into(), Value::UInt(u64::from(*next))));
                fields.push(("sojourn_secs".into(), Value::Float(*sojourn_secs)));
            }
            ObsEvent::HoeEvict { cell, evicted, .. } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("evicted".into(), Value::UInt(u64::from(*evicted))));
            }
            ObsEvent::QueueHighWater { live, .. } => {
                fields.push(("live".into(), Value::UInt(*live)));
            }
            ObsEvent::BackboneSend {
                from,
                to,
                kind,
                bytes,
                ..
            } => {
                fields.push(("from".into(), Value::UInt(u64::from(*from))));
                fields.push(("to".into(), Value::UInt(u64::from(*to))));
                fields.push(("kind".into(), Value::Str((*kind).to_string())));
                fields.push(("bytes".into(), Value::UInt(*bytes)));
            }
            ObsEvent::AlertTransition {
                rule, cell, state, ..
            } => {
                fields.push(("rule".into(), Value::Str((*rule).to_string())));
                fields.push((
                    "cell".into(),
                    match cell {
                        Some(c) => Value::UInt(u64::from(*c)),
                        None => Value::Null,
                    },
                ));
                fields.push(("state".into(), Value::Str((*state).to_string())));
            }
            ObsEvent::EpochBarrier {
                epoch,
                wall_ns,
                barrier_ns,
                blocked_ns,
                serial_ns,
                ..
            } => {
                fields.push(("epoch".into(), Value::UInt(*epoch)));
                fields.push(("wall_ns".into(), Value::UInt(*wall_ns)));
                fields.push(("barrier_ns".into(), Value::UInt(*barrier_ns)));
                fields.push(("blocked_ns".into(), Value::UInt(*blocked_ns)));
                fields.push(("serial_ns".into(), Value::UInt(*serial_ns)));
            }
            ObsEvent::FlightCapture {
                cell,
                rule,
                records,
                path,
                ..
            } => {
                fields.push(("cell".into(), Value::UInt(u64::from(*cell))));
                fields.push(("rule".into(), Value::Str((*rule).to_string())));
                fields.push(("records".into(), Value::UInt(*records)));
                fields.push(("path".into(), Value::Str(path.clone())));
            }
        }
        Value::Object(fields)
    }

    /// The event's sim-time in seconds.
    pub fn time(&self) -> f64 {
        match self {
            ObsEvent::Admission { t, .. }
            | ObsEvent::BrCompute { t, .. }
            | ObsEvent::TEstChange { t, .. }
            | ObsEvent::HoeInsert { t, .. }
            | ObsEvent::HoeEvict { t, .. }
            | ObsEvent::QueueHighWater { t, .. }
            | ObsEvent::BackboneSend { t, .. }
            | ObsEvent::AlertTransition { t, .. }
            | ObsEvent::EpochBarrier { t, .. }
            | ObsEvent::FlightCapture { t, .. } => *t,
        }
    }
}

/// The `(blocked_ns, serial_ns)` fields of an [`ObsEvent::EpochBarrier`]:
/// `(0, wall_ns − barrier_ns)`. Stays for `perfbench/src/mirror.rs` until
/// the next benchmark change.
pub fn record_epoch(wall_ns: u64, barrier_ns: u64) -> (u64, u64) {
    (0, wall_ns.saturating_sub(barrier_ns))
}

/// Renders events as JSONL: one compact JSON object per line.
pub fn events_to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_compact_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Admission {
                t: 1.5,
                cell: 3,
                req: 41,
                scheme: "AC3".into(),
                admitted: false,
                blocked_by_neighbor: Some(1),
                br: 12.5,
                dur_ns: 2_400,
            },
            ObsEvent::BrCompute {
                t: 2.0,
                cell: 4,
                req: 41,
                recomputed: 2,
                br: 3.0,
                dur_ns: 800,
            },
            ObsEvent::TEstChange {
                t: 3.0,
                cell: 0,
                t_est_secs: 15,
                delta: "increased",
                dropped: true,
            },
            ObsEvent::HoeInsert {
                t: 4.0,
                cell: 1,
                prev: 0,
                next: 2,
                sojourn_secs: 42.0,
            },
            ObsEvent::HoeEvict {
                t: 4.0,
                cell: 1,
                evicted: 2,
            },
            ObsEvent::QueueHighWater { t: 5.0, live: 128 },
            ObsEvent::BackboneSend {
                t: 6.0,
                from: 2,
                to: 3,
                kind: "reservation_query",
                bytes: 32,
            },
            ObsEvent::EpochBarrier {
                t: 10.0,
                epoch: 1,
                wall_ns: 1_000_000,
                barrier_ns: 50_000,
                blocked_ns: 200_000,
                serial_ns: 750_000,
            },
            ObsEvent::AlertTransition {
                t: 60.0,
                rule: "p_hd_burn",
                cell: Some(7),
                state: "firing",
            },
            ObsEvent::FlightCapture {
                t: 60.0,
                cell: 7,
                rule: "p_hd_burn",
                records: 256,
                path: "obs_flight_7_60.json".into(),
            },
        ]
    }

    #[test]
    fn every_variant_serializes_with_type_and_time() {
        for e in sample_events() {
            let v = e.to_json();
            let Value::Object(fields) = &v else {
                panic!("not an object")
            };
            assert_eq!(fields[0].0, "type");
            assert_eq!(fields[1].0, "t");
            assert_eq!(
                fields[0].1,
                Value::Str(e.type_tag().to_string()),
                "tag mismatch"
            );
        }
    }

    #[test]
    fn jsonl_round_trips_through_value_parse() {
        let text = events_to_jsonl(&sample_events());
        assert_eq!(text.lines().count(), 10);
        for line in text.lines() {
            let v = Value::parse(line).expect("line must parse");
            assert!(matches!(v, Value::Object(_)));
        }
    }

    #[test]
    fn levels_split_info_from_debug() {
        assert_eq!(
            ObsEvent::QueueHighWater { t: 0.0, live: 1 }.level(),
            Level::Info
        );
        assert_eq!(
            ObsEvent::BackboneSend {
                t: 0.0,
                from: 0,
                to: 1,
                kind: "x",
                bytes: 0
            }
            .level(),
            Level::Debug
        );
    }
}
