//! The Eq. 4 probe: times the batched neighbor contribution against the
//! one-connection-at-a-time reference on a trained system's real
//! populations and estimation caches.

use std::hint::black_box;
use std::time::Instant;

use qres_cellnet::{Cell, CellId};
use qres_core::{neighbor_contribution, neighbor_contribution_naive, ReservationSystem};
use qres_des::{Duration, SimTime};

/// Host time spent per pass kind before the probe stops repeating passes.
const PROBE_BUDGET_NS: u128 = 100_000_000;

/// What the probe measured.
#[derive(Debug, Clone, Copy)]
pub struct Eq4Probe {
    /// Host ns per `(target, neighbor)` term, batched evaluation.
    pub ns_per_term: f64,
    /// Host ns per term, naive evaluation.
    pub naive_ns_per_term: f64,
    /// Terms evaluated per pass.
    pub terms: usize,
    /// Whether every term's two evaluations were bit-identical.
    pub identical: bool,
}

type Eval = fn(&Cell, &mut qres_mobility::HoeCache, SimTime, CellId, Duration) -> f64;

/// Evaluates every `(target, neighbor)` term of `system` at `now` with both
/// implementations. Each pass runs over cloned cells, so the live system's
/// connections are untouched; the estimation caches are shared.
pub fn probe(system: &mut ReservationSystem, now: SimTime) -> Eq4Probe {
    let n = system.num_cells();
    let cells: Vec<Cell> = (0..n)
        .map(|i| system.cell(CellId(i as u32)).clone())
        .collect();
    let pairs: Vec<(CellId, CellId, Duration)> = (0..n)
        .flat_map(|i| {
            let target = CellId(i as u32);
            let t_est = system.t_est(target);
            system
                .topology()
                .neighbors(target)
                .iter()
                .map(move |&nb| (target, nb, t_est))
                .collect::<Vec<_>>()
        })
        .collect();
    let pass = |system: &mut ReservationSystem, eval: Eval, out: &mut Vec<u64>| {
        out.clear();
        let t0 = Instant::now();
        for &(target, nb, t_est) in &pairs {
            let cache = system.hoe_cache_mut(nb);
            let value = eval(black_box(&cells[nb.index()]), cache, now, target, t_est);
            out.push(black_box(value).to_bits());
        }
        t0.elapsed().as_nanos()
    };
    let (mut batched, mut naive) = (Vec::new(), Vec::new());
    // Untimed first passes: let the caches rebuild their snapshots at `now`.
    pass(system, neighbor_contribution, &mut batched);
    pass(system, neighbor_contribution_naive, &mut naive);
    let mut identical = batched == naive;
    let (mut batched_ns, mut naive_ns, mut passes) = (0u128, 0u128, 0u32);
    while passes < 3 || batched_ns + naive_ns < 2 * PROBE_BUDGET_NS {
        batched_ns += pass(system, neighbor_contribution, &mut batched);
        naive_ns += pass(system, neighbor_contribution_naive, &mut naive);
        identical &= batched == naive;
        passes += 1;
    }
    let evaluated = (pairs.len() as f64) * f64::from(passes);
    Eq4Probe {
        ns_per_term: batched_ns as f64 / evaluated,
        naive_ns_per_term: naive_ns as f64 / evaluated,
        terms: pairs.len(),
        identical,
    }
}
