//! The traced mirror: a replay of `qres_sim::Engine`'s event loop over the
//! layers' public APIs, with a host clock read at every layer boundary.
//!
//! The mirror makes the same calls in the same order as the engine, so its
//! output digest must equal the untraced run's bit for bit; the caller
//! rejects the per-layer numbers when it does not. Timing is lap-based:
//! each clock read closes the segment since the previous one and charges
//! it to one layer, so the handler's wall time is split without gaps.
//! The DES layer's self time is the residual: `run_until` wall minus the
//! handler laps, plus the queue calls made from the handlers; it also
//! holds the clock read at each handler's entry.
//!
//! Because the laps partition the wall clock, `trace.coverage` (the layer
//! self times over the traced wall) is 1 minus the share spent counting
//! Eq. 4 terms for the signaling cross-check. It bounds that tracing cost;
//! it cannot show a call charged to the wrong layer. What ties the mirror
//! to the engine is the digest match and the predicted term count.
//!
//! Supported scenarios are those the benchmark's workloads use: the road or
//! hex geometry, AC3 or static admission, no warm-up, no wired backbone,
//! no time-varying schedule and no route declarations.

use std::collections::HashMap;
use std::time::Instant;

use qres_cellnet::ids::ConnectionIdAllocator;
use qres_cellnet::{
    CellId, ConnectionId, Direction, HexDir, HexGrid, MessageKind, RoadGeometry, Topology,
};
use qres_core::{AcKind, NewConnectionRequest, ReservationSystem, SchemeConfig};
use qres_des::{Duration, EventHandle, EventQueue, Handler, SimTime, Simulation};
use qres_sim::workload::Workload as Sampler;
use qres_sim::{Metrics, RunResult, Scenario};

/// Sim-seconds between the engine's epoch barriers (telemetry ticks).
const EPOCH_SECS: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { cell: CellId },
    Handoff { id: ConnectionId },
    End { id: ConnectionId },
}

#[derive(Debug, Clone, Copy)]
struct Mobile {
    cell: CellId,
    speed_kmh: f64,
    heading: u8,
    end_handle: EventHandle,
    handoff_handle: Option<EventHandle>,
}

/// The engine's movement geometry, rebuilt from the scenario.
#[derive(Debug, Clone, Copy)]
enum Geometry {
    Road(RoadGeometry),
    Hex { grid: HexGrid, diameter_km: f64 },
}

impl Geometry {
    fn first_crossing(&self, cell: CellId, pos_frac: f64, heading: u8, speed_kmh: f64) -> Duration {
        match self {
            Geometry::Road(geo) => {
                let pos = geo.position_in_cell(cell, pos_frac);
                geo.time_to_boundary(pos, speed_kmh, road_direction(heading))
            }
            Geometry::Hex { diameter_km, .. } => {
                Duration::from_secs((1.0 - pos_frac) * diameter_km / speed_kmh * 3_600.0)
            }
        }
    }

    fn full_crossing(&self, speed_kmh: f64) -> Duration {
        match self {
            Geometry::Road(geo) => geo.full_crossing_time(speed_kmh),
            Geometry::Hex { diameter_km, .. } => {
                Duration::from_secs(diameter_km / speed_kmh * 3_600.0)
            }
        }
    }

    fn next_cell(&self, cell: CellId, heading: u8) -> Option<CellId> {
        match self {
            Geometry::Road(geo) => geo.next_cell(cell, road_direction(heading)),
            Geometry::Hex { grid, .. } => grid.neighbor(cell, HexDir::from_index(heading)),
        }
    }
}

fn road_direction(heading: u8) -> Direction {
    if heading == 0 {
        Direction::Up
    } else {
        Direction::Down
    }
}

/// Host nanoseconds since `*t`, moving `*t` to now.
fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

/// Host time charged to each layer, in nanoseconds, plus per-call samples
/// of the three reservation-core entry points.
#[derive(Debug, Default)]
struct Ledger {
    /// Whole handler bodies (everything below the DES dispatch loop).
    handler: u64,
    /// `EventQueue::schedule`/`cancel` made from the handlers.
    queue: u64,
    workload: u64,
    stats: u64,
    obs: u64,
    /// The engine's own bookkeeping (mobile table, connection ids).
    engine: u64,
    /// Reading state for the per-admission term counts (tracing cost).
    counting: u64,
    admit: Vec<u32>,
    handoff: Vec<u32>,
    end: Vec<u32>,
    admit_blocked: u64,
    handoff_dropped: u64,
    /// Neighbor terms the admission tests evaluate, and the connections
    /// those neighbors held.
    terms: u64,
    term_conns: u64,
}

/// The mirror's handler state.
struct Mirror {
    geometry: Geometry,
    system: ReservationSystem,
    sampler: Sampler,
    mobiles: HashMap<ConnectionId, Mobile>,
    ids: ConnectionIdAllocator,
    metrics: Metrics,
    neighbor_lists: Vec<Vec<CellId>>,
    ac3: bool,
    next_epoch: SimTime,
    epoch: u64,
    last_barrier: Option<Instant>,
    ledger: Ledger,
}

impl Mirror {
    fn new(scenario: &Scenario) -> Mirror {
        assert!(
            scenario.time_varying.is_none()
                && scenario.wired.is_none()
                && !scenario.route_aware
                && scenario.warmup_secs == 0.0,
            "the mirror replays stationary, radio-only, route-blind scenarios"
        );
        scenario.validate();
        qres_obs::metrics::ensure_cell_shards(scenario.num_cells);
        qres_obs::set_qos_target_p_hd(scenario.p_hd_target);
        let (geometry, topology) = match scenario.hex_grid {
            Some((rows, cols)) => {
                let grid = HexGrid::new(rows, cols);
                (
                    Geometry::Hex {
                        grid,
                        diameter_km: scenario.cell_diameter_km,
                    },
                    grid.topology(),
                )
            }
            None => (
                Geometry::Road(RoadGeometry::new(
                    scenario.num_cells,
                    scenario.cell_diameter_km,
                    scenario.ring,
                )),
                if scenario.ring {
                    Topology::ring(scenario.num_cells)
                } else {
                    Topology::linear(scenario.num_cells)
                },
            ),
        };
        let neighbor_lists = topology
            .cells()
            .map(|c| topology.neighbors(c).to_vec())
            .collect();
        let config = scenario.qres_config();
        let ac3 = match config.scheme {
            SchemeConfig::Predictive { kind: AcKind::Ac3 } => true,
            SchemeConfig::Static { .. } => false,
            other => panic!("the mirror counts terms for AC3 and static only, got {other:?}"),
        };
        let system = ReservationSystem::new(config, topology, scenario.backbone);
        let total_hours = (scenario.duration_secs / 3_600.0).ceil() as usize + 1;
        Mirror {
            geometry,
            system,
            sampler: Sampler::new(scenario),
            mobiles: HashMap::new(),
            ids: ConnectionIdAllocator::new(),
            metrics: Metrics::new(
                scenario.num_cells,
                SimTime::ZERO,
                total_hours,
                &scenario.trace_cell_ids(),
            ),
            neighbor_lists,
            ac3,
            next_epoch: SimTime::from_secs(EPOCH_SECS),
            epoch: 0,
            last_barrier: qres_obs::enabled().then(Instant::now),
            ledger: Ledger::default(),
        }
    }

    /// Counts the neighbor terms the coming admission test in `cell` will
    /// evaluate: the cell's own `B_r`, plus under AC3 the `B_r` of every
    /// neighbor that looks unable to reserve its previous target.
    fn count_terms(&mut self, cell: CellId) {
        if !self.ac3 {
            return;
        }
        let system = &self.system;
        let add = |target: CellId, ledger: &mut Ledger| {
            for &nb in system.topology().neighbors(target) {
                ledger.terms += 1;
                ledger.term_conns += system.cell(nb).connection_count() as u64;
            }
        };
        add(cell, &mut self.ledger);
        for &nb in system.topology().neighbors(cell) {
            let c = system.cell(nb);
            if c.used().as_f64() + system.last_br(nb) > c.capacity().as_f64() {
                add(nb, &mut self.ledger);
            }
        }
    }

    fn arrival(&mut self, now: SimTime, cell: CellId, q: &mut EventQueue<Event>, t: &mut Instant) {
        let attrs = self.sampler.sample_attrs();
        self.ledger.workload += lap(t);
        let id = self.ids.allocate();
        let bandwidth = attrs.media.bandwidth();
        self.ledger.engine += lap(t);
        self.count_terms(cell);
        self.ledger.counting += lap(t);
        let decision = self.system.request_new_connection(
            now,
            NewConnectionRequest {
                cell,
                id,
                bandwidth,
                known_next: None,
            },
        );
        self.ledger.admit.push(lap(t) as u32);
        let blocked = decision.is_blocked();
        self.ledger.admit_blocked += u64::from(blocked);
        self.metrics.record_request(now, cell, blocked);
        self.ledger.stats += lap(t);
        if qres_obs::enabled() {
            qres_obs::qos::record_admission_outcome(now.as_secs(), cell.0, blocked);
            self.ledger.obs += lap(t);
        }
        self.metrics.update_br(now, cell, self.system.last_br(cell));
        for &nb in &self.neighbor_lists[cell.index()] {
            self.metrics.update_br(now, nb, self.system.last_br(nb));
        }
        if !blocked {
            self.metrics
                .update_bu(now, cell, self.system.used_bus(cell));
        }
        self.ledger.stats += lap(t);
        if !blocked {
            let end_handle = q.schedule(
                now + Duration::from_secs(attrs.lifetime_secs),
                Event::End { id },
            );
            self.ledger.queue += lap(t);
            let crossing = self.geometry.first_crossing(
                cell,
                attrs.position_frac,
                attrs.heading,
                attrs.speed_kmh,
            );
            self.ledger.workload += lap(t);
            let handoff_handle = q.schedule(now + crossing, Event::Handoff { id });
            self.ledger.queue += lap(t);
            self.mobiles.insert(
                id,
                Mobile {
                    cell,
                    speed_kmh: attrs.speed_kmh,
                    heading: attrs.heading,
                    end_handle,
                    handoff_handle: Some(handoff_handle),
                },
            );
            self.ledger.engine += lap(t);
            if qres_obs::enabled() {
                qres_obs::metrics::ACTIVE_MOBILES.observe(self.mobiles.len() as u64);
                self.ledger.obs += lap(t);
            }
        }
        let gap = self.sampler.next_interarrival(cell.index());
        self.ledger.workload += lap(t);
        q.schedule(now + Duration::from_secs(gap), Event::Arrival { cell });
        self.ledger.queue += lap(t);
    }

    fn handoff(
        &mut self,
        now: SimTime,
        id: ConnectionId,
        q: &mut EventQueue<Event>,
        t: &mut Instant,
    ) {
        let state = *self.mobiles.get(&id).expect("hand-off of a live mobile");
        let from = state.cell;
        self.ledger.engine += lap(t);
        let next = self.geometry.next_cell(from, state.heading);
        self.ledger.workload += lap(t);
        let Some(to) = next else {
            // Disconnected border: the mobile leaves the system.
            self.system.end_connection(now, id, from);
            self.ledger.end.push(lap(t) as u32);
            self.metrics
                .update_bu(now, from, self.system.used_bus(from));
            self.ledger.stats += lap(t);
            q.cancel(state.end_handle);
            self.ledger.queue += lap(t);
            self.mobiles.remove(&id);
            self.ledger.engine += lap(t);
            return;
        };
        let outcome = self
            .system
            .attempt_handoff_constrained(now, id, from, to, None, false);
        self.ledger.handoff.push(lap(t) as u32);
        let dropped = outcome.is_dropped();
        self.ledger.handoff_dropped += u64::from(dropped);
        self.metrics.record_handoff(now, to, dropped);
        self.ledger.stats += lap(t);
        if qres_obs::enabled() {
            qres_obs::qos::record_handoff_outcome(now.as_secs(), to.0, dropped);
            self.ledger.obs += lap(t);
        }
        self.metrics
            .trace_t_est(now, to, self.system.t_est(to).as_secs() as u64);
        self.metrics
            .update_bu(now, from, self.system.used_bus(from));
        self.metrics.update_bu(now, to, self.system.used_bus(to));
        self.ledger.stats += lap(t);
        if dropped {
            q.cancel(state.end_handle);
            self.ledger.queue += lap(t);
            self.mobiles.remove(&id);
            self.ledger.engine += lap(t);
            return;
        }
        let turned = self.sampler.turn_decision();
        let heading = if turned {
            self.sampler.turn_target(state.heading)
        } else {
            state.heading
        };
        let crossing = self.geometry.full_crossing(state.speed_kmh);
        self.ledger.workload += lap(t);
        let handle = q.schedule(now + crossing, Event::Handoff { id });
        self.ledger.queue += lap(t);
        let mobile = self.mobiles.get_mut(&id).expect("mobile exists");
        mobile.cell = to;
        mobile.heading = heading;
        mobile.handoff_handle = Some(handle);
        self.ledger.engine += lap(t);
    }

    fn end(&mut self, now: SimTime, id: ConnectionId, q: &mut EventQueue<Event>, t: &mut Instant) {
        let state = self.mobiles.remove(&id).expect("end of a live mobile");
        self.ledger.engine += lap(t);
        self.system.end_connection(now, id, state.cell);
        self.ledger.end.push(lap(t) as u32);
        self.metrics
            .update_bu(now, state.cell, self.system.used_bus(state.cell));
        self.ledger.stats += lap(t);
        if let Some(h) = state.handoff_handle {
            q.cancel(h);
        }
        self.ledger.queue += lap(t);
    }

    /// The engine's epoch barrier: a no-op on the inline core, plus the
    /// epoch ledger and SLO watchdog tick when telemetry is on.
    fn epoch_barrier(&mut self, now: SimTime) {
        let barrier_t0 = qres_obs::enabled().then(Instant::now);
        self.system.quiesce();
        if let Some(t0) = barrier_t0 {
            self.epoch += 1;
            let barrier_ns = t0.elapsed().as_nanos() as u64;
            let done = Instant::now();
            if let Some(prev) = self.last_barrier {
                let wall_ns = done.duration_since(prev).as_nanos() as u64;
                let (blocked_ns, serial_ns) = qres_obs::record_epoch(wall_ns, barrier_ns);
                qres_obs::record(qres_obs::ObsEvent::EpochBarrier {
                    t: now.as_secs(),
                    epoch: self.epoch,
                    wall_ns,
                    barrier_ns,
                    blocked_ns,
                    serial_ns,
                });
            }
            self.last_barrier = Some(done);
            qres_obs::watchdog_tick(now.as_secs());
        }
        while now >= self.next_epoch {
            self.next_epoch += Duration::from_secs(EPOCH_SECS);
        }
    }
}

impl Handler<Event> for Mirror {
    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        let entered = Instant::now();
        let mut t = entered;
        if now >= self.next_epoch {
            self.epoch_barrier(now);
            self.ledger.obs += lap(&mut t);
        }
        match event {
            Event::Arrival { cell } => self.arrival(now, cell, q, &mut t),
            Event::Handoff { id } => self.handoff(now, id, q, &mut t),
            Event::End { id } => self.end(now, id, q, &mut t),
        }
        self.ledger.handler += t.duration_since(entered).as_nanos() as u64;
    }
}

/// The state and counters sampled at the end of each quarter of the
/// simulated horizon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quarter {
    /// Host nanoseconds per event dispatched in this quarter.
    pub ns_per_event: f64,
    /// Σ stored hand-off events over every cell's estimation cache.
    pub hoe_stored_events: u64,
    /// Connections alive at the quarter's end.
    pub active_conns: u64,
}

/// What one traced run measured.
pub struct Trace {
    /// The mirror's run result (its digest must match the engine's).
    pub result: RunResult,
    /// Host seconds from seeding the queue through finalizing the metrics.
    pub wall_s: f64,
    /// `(name, value)` of every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Consistency failures found while tracing.
    pub errors: Vec<String>,
    /// The trained system, kept for the Eq. 4 probe.
    pub system: ReservationSystem,
    /// The instant the run ended at.
    pub horizon: SimTime,
}

fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `scenario` through the mirror. `obs_expected` is the telemetry
/// state the whole run must keep.
pub fn trace(scenario: &Scenario, obs_expected: bool) -> Trace {
    let mut errors = Vec::new();
    let mut mirror = Mirror::new(scenario);
    let mut sim: Simulation<Event> = Simulation::new();
    let horizon = SimTime::from_secs(scenario.duration_secs);
    let mut quarters = [Quarter::default(); 4];

    let started = Instant::now();
    for cell in 0..scenario.num_cells {
        let gap = mirror.sampler.next_interarrival(cell);
        sim.queue_mut().schedule(
            SimTime::from_secs(gap),
            Event::Arrival {
                cell: CellId(cell as u32),
            },
        );
    }
    let seeding_ns = started.elapsed().as_nanos() as u64;
    let mut run_ns = 0u64;
    for (i, quarter) in quarters.iter_mut().enumerate() {
        let stop = if i == 3 {
            horizon
        } else {
            SimTime::from_secs(scenario.duration_secs * (i + 1) as f64 / 4.0)
        };
        let before = sim.dispatched();
        let t0 = Instant::now();
        sim.run_until(stop, u64::MAX, &mut mirror);
        let ns = t0.elapsed().as_nanos() as u64;
        run_ns += ns;
        quarter.ns_per_event = ratio(ns as f64, (sim.dispatched() - before) as f64);
        quarter.hoe_stored_events = stored_events(&mut mirror.system);
        quarter.active_conns = mirror.mobiles.len() as u64;
        if qres_obs::enabled() != obs_expected {
            errors.push(format!("telemetry state changed in quarter {}", i + 1));
        }
    }
    let t0 = Instant::now();
    let result = finalize(&mirror, scenario, horizon, sim.dispatched());
    let finalize_ns = t0.elapsed().as_nanos() as u64;
    let wall_ns = seeding_ns + run_ns + finalize_ns;

    let l = &mut mirror.ledger;
    let events = sim.dispatched() as f64;
    let sum = |v: &[u32]| v.iter().map(|&x| u64::from(x)).sum::<u64>();
    let (admit_ns, handoff_ns, end_ns) = (sum(&l.admit), sum(&l.handoff), sum(&l.end));
    let des_self = (run_ns + seeding_ns).saturating_sub(l.handler) + l.queue;
    let stats_ns = l.stats + finalize_ns;
    // Everything but `l.counting`: see the module docs.
    let covered =
        des_self + l.workload + stats_ns + l.obs + l.engine + admit_ns + handoff_ns + end_ns;
    let wall = wall_ns as f64;
    let (calls, handoffs) = (l.admit.len() as f64, l.handoff.len() as f64);
    l.admit.sort_unstable();
    l.handoff.sort_unstable();
    l.end.sort_unstable();

    let system = &mut mirror.system;
    let queue = sim.queue();
    let terms = system
        .signaling()
        .stats_for(MessageKind::ReservationQuery)
        .0;
    if terms != l.terms {
        errors.push(format!(
            "term count mismatch: signaling saw {terms}, the mirror predicted {}",
            l.terms
        ));
    }
    if system.admission_requests_total() != l.admit.len() as u64 {
        errors.push("admission count mismatch".into());
    }
    let [q1, q2, q3, q4] = quarters;
    let metrics = vec![
        ("des.events", events),
        ("des.self_ns_per_event", ratio(des_self as f64, events)),
        (
            "des.cancel_ratio",
            ratio(
                queue.cancelled_total() as f64,
                queue.scheduled_total() as f64,
            ),
        ),
        ("des.queue_high_water", queue.live_high_water() as f64),
        ("workload.ns_per_event", ratio(l.workload as f64, events)),
        ("stats.ns_per_event", ratio(stats_ns as f64, events)),
        ("obs.engine_ns_per_event", ratio(l.obs as f64, events)),
        ("core.admit.calls", calls),
        ("core.admit.ns_p50", percentile(&l.admit, 0.50)),
        ("core.admit.ns_p99", percentile(&l.admit, 0.99)),
        ("core.admit.share", ratio(admit_ns as f64, wall)),
        (
            "core.admit.blocked_ratio",
            ratio(l.admit_blocked as f64, calls),
        ),
        ("core.br.calcs", system.br_calcs_total() as f64),
        (
            "core.br.n_calc_mean",
            system.n_calc_stats().mean().unwrap_or(0.0),
        ),
        ("core.br.terms", terms as f64),
        (
            "core.br.memo_hit_ratio",
            ratio(system.br_memo_hits() as f64, terms as f64),
        ),
        ("core.handoff.calls", handoffs),
        ("core.handoff.ns_p50", percentile(&l.handoff, 0.50)),
        ("core.handoff.ns_p99", percentile(&l.handoff, 0.99)),
        ("core.handoff.share", ratio(handoff_ns as f64, wall)),
        (
            "core.handoff.drop_ratio",
            ratio(l.handoff_dropped as f64, handoffs),
        ),
        ("core.end.ns_p50", percentile(&l.end, 0.50)),
        ("core.end.share", ratio(end_ns as f64, wall)),
        (
            "mobility.eq4.conns_per_term",
            ratio(l.term_conns as f64, l.terms as f64),
        ),
        ("mobility.hoe.stored_events", q4.hoe_stored_events as f64),
        (
            "signaling.messages_per_admission",
            ratio(system.signaling().stats().messages as f64, calls),
        ),
        ("trace.ns_per_event.q1", q1.ns_per_event),
        ("trace.ns_per_event.q2", q2.ns_per_event),
        ("trace.ns_per_event.q3", q3.ns_per_event),
        ("trace.ns_per_event.q4", q4.ns_per_event),
        ("trace.growth", ratio(q4.ns_per_event, q2.ns_per_event)),
        ("trace.hoe_stored.q1", q1.hoe_stored_events as f64),
        ("trace.hoe_stored.q2", q2.hoe_stored_events as f64),
        ("trace.hoe_stored.q3", q3.hoe_stored_events as f64),
        ("trace.hoe_stored.q4", q4.hoe_stored_events as f64),
        ("trace.active_conns.q1", q1.active_conns as f64),
        ("trace.active_conns.q2", q2.active_conns as f64),
        ("trace.active_conns.q3", q3.active_conns as f64),
        ("trace.active_conns.q4", q4.active_conns as f64),
        ("trace.coverage", ratio(covered as f64, wall)),
        ("engine.ns_per_event", ratio(l.engine as f64, events)),
    ];
    Trace {
        result,
        wall_s: wall / 1e9,
        metrics,
        errors,
        system: mirror.system,
        horizon,
    }
}

/// Σ `HoeCache::stored_events()` over every cell.
pub fn stored_events(system: &mut ReservationSystem) -> u64 {
    (0..system.num_cells())
        .map(|i| system.hoe_cache_mut(CellId(i as u32)).stored_events() as u64)
        .sum()
}

/// The engine's `finalize`, over the mirror's state.
fn finalize(mirror: &Mirror, scenario: &Scenario, horizon: SimTime, events: u64) -> RunResult {
    let system = &mirror.system;
    let cells = || (0..scenario.num_cells).map(|i| CellId(i as u32));
    let final_t_est: Vec<u64> = cells().map(|c| system.t_est(c).as_secs() as u64).collect();
    let final_br: Vec<f64> = cells().map(|c| system.last_br(c)).collect();
    let final_bu: Vec<u32> = cells().map(|c| system.used_bus(c)).collect();
    mirror.metrics.clone().finalize(
        scenario.scheme.label(),
        horizon,
        &final_t_est,
        &final_br,
        &final_bu,
        system.n_calc_stats().mean().unwrap_or(0.0),
        system.signaling().stats(),
        events,
    )
}
