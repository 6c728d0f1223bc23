//! The benchmark's workloads: fixed scenarios whose only free input is the
//! seed. Each one is a closed loop on one thread — the next event is
//! dispatched only after the previous one completes.

use qres_sim::{Scenario, SchemeKind};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 10-cell 1-km ring, AC3, L = 300, R_vo = 1, 80–120 km/h.
    RingAc3,
    /// `RingAc3` with static guard channels (G = 10): the same arrival
    /// stream (common random numbers), no `B_r` and no Eq. 4.
    RingStatic,
    /// An 8 × 8 hex grid at the metro preset's per-cell parameters.
    HexAc3,
    /// `RingAc3` with telemetry on at Info level, kept in memory.
    RingAc3Obs,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::RingAc3,
        Workload::RingStatic,
        Workload::HexAc3,
        Workload::RingAc3Obs,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingAc3 => "ring_ac3",
            Workload::RingStatic => "ring_static",
            Workload::HexAc3 => "hex_ac3",
            Workload::RingAc3Obs => "ring_ac3_obs",
        }
    }

    /// Whether the telemetry layer runs on this workload.
    pub fn obs(self) -> bool {
        self == Workload::RingAc3Obs
    }

    /// The scenario the workload runs under `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        let ring = || {
            Scenario::paper_baseline()
                .scheme(SchemeKind::Ac3)
                .offered_load(300.0)
                .voice_ratio(1.0)
                .high_mobility()
                .duration_secs(RING_HORIZON_SECS)
                .seed(seed)
        };
        match self {
            Workload::RingAc3 | Workload::RingAc3Obs => ring(),
            Workload::RingStatic => ring().scheme(SchemeKind::Static { guard_bus: 10 }),
            Workload::HexAc3 => {
                // Scenario::metro()'s per-cell settings on an 8 × 8 grid.
                let metro = Scenario::metro();
                let mut s = Scenario::paper_baseline()
                    .hex(8, 8)
                    .scheme(metro.scheme)
                    .offered_load(metro.offered_load)
                    .duration_secs(HEX_HORIZON_SECS)
                    .seed(seed);
                s.turn_probability = metro.turn_probability;
                s
            }
        }
    }

    /// The largest `N_calc` one admission test can reach: the requesting
    /// cell plus each neighbor.
    pub fn max_n_calc(self) -> f64 {
        match self {
            Workload::RingStatic => 0.0,
            Workload::RingAc3 | Workload::RingAc3Obs => 3.0,
            Workload::HexAc3 => 7.0,
        }
    }
}

/// Simulated horizon of the ring workloads (the paper's 2000 s runs).
pub const RING_HORIZON_SECS: f64 = 2_000.0;

/// Simulated horizon of `hex_ac3`: five mean lifetimes (5 × 120 s), past
/// the population's steady state.
pub const HEX_HORIZON_SECS: f64 = 600.0;
