//! Randomized tests of the HOE cache against a naive reference: the indexed
//! snapshot must answer exactly like a direct scan of Eq. 2 / Eq. 3 over the
//! same quadruplets. (Seeded-RNG loops stand in for proptest, which is
//! unavailable offline.)

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime, StreamRng};
use qres_mobility::{
    batched_contribution, ConnQuery, HandoffEvent, HoeCache, HoeConfig, WindowConfig,
};

type RawEvent = (f64, Option<u32>, u32, f64); // (gap, prev, next, sojourn)

fn random_events(rng: &mut StreamRng) -> Vec<RawEvent> {
    let len = rng.gen_range(1usize..80);
    (0..len)
        .map(|_| {
            (
                rng.gen_range_f64(0.0, 500.0),
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0u32..4))
                } else {
                    None
                },
                rng.gen_range(0u32..4),
                rng.gen_range_f64(0.1, 300.0),
            )
        })
        .collect()
}

fn random_prev(rng: &mut StreamRng) -> Option<u32> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0u32..4))
    } else {
        None
    }
}

fn materialize(raw: &[RawEvent]) -> Vec<HandoffEvent> {
    let mut t = 0.0;
    raw.iter()
        .map(|&(gap, prev, next, soj)| {
            t += gap;
            HandoffEvent::new(
                SimTime::from_secs(t),
                prev.map(CellId),
                CellId(next),
                Duration::from_secs(soj),
            )
        })
        .collect()
}

/// Naive Eq. 4 numerator/denominator over the full event list (infinite
/// window, N_quad large enough to select everything).
fn naive_weights(
    events: &[HandoffEvent],
    prev: Option<CellId>,
    next: CellId,
    ext: f64,
    t_est: f64,
) -> (f64, f64) {
    let mut num = 0.0;
    let mut den = 0.0;
    for e in events {
        if e.prev != prev {
            continue;
        }
        let s = e.t_soj.as_secs();
        if s > ext {
            den += 1.0;
            if e.next == next && s <= ext + t_est {
                num += 1.0;
            }
        }
    }
    (num, den)
}

/// With N_quad large, the indexed snapshot equals the naive scan.
#[test]
fn snapshot_matches_naive_scan() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0001);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let mut config = HoeConfig::stationary();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let prev = random_prev(&mut rng).map(CellId);
        let next = CellId(rng.gen_range(0u32..4));
        let ext = rng.gen_range_f64(0.0, 200.0);
        let t_est = rng.gen_range_f64(0.0, 200.0);
        let (num, den) = naive_weights(&events, prev, next, ext, t_est);
        let got_den = cache.weight_prev_gt(now, prev, Duration::from_secs(ext));
        let got_num = cache.weight_pair_in(
            now,
            prev,
            next,
            Duration::from_secs(ext),
            Duration::from_secs(t_est),
        );
        assert!(
            (got_den - den).abs() < 1e-9,
            "den: got {got_den}, want {den}"
        );
        assert!(
            (got_num - num).abs() < 1e-9,
            "num: got {got_num}, want {num}"
        );
    }
}

/// With a small N_quad in infinite-window mode, only the most recent N_quad
/// per (prev, next) pair are selected — equal to the naive scan over each
/// pair's last N_quad events.
#[test]
fn n_quad_selects_most_recent() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0002);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let n_quad = rng.gen_range(1usize..10);
        let mut config = HoeConfig::stationary();
        config.n_quad = n_quad;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let prev = random_prev(&mut rng).map(CellId);
        let ext = rng.gen_range_f64(0.0, 200.0);
        // Reference: last n_quad events per (prev, next) pair.
        let mut expected = 0.0;
        for next in 0..4u32 {
            let pair_events: Vec<&HandoffEvent> = events
                .iter()
                .filter(|e| e.prev == prev && e.next == CellId(next))
                .collect();
            let keep = pair_events.len().saturating_sub(n_quad);
            for e in &pair_events[keep..] {
                if e.t_soj.as_secs() > ext {
                    expected += 1.0;
                }
            }
        }
        let got = cache.weight_prev_gt(now, prev, Duration::from_secs(ext));
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }
}

/// Finite-window membership: the cache's selection agrees with a naive
/// Eq. 2 scan when every bucket is under-full (no per-bucket capping).
#[test]
fn finite_window_matches_naive_membership() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0003);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..40);
        let raw: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_f64(600.0, 2_000.0),
                    rng.gen_range_f64(0.1, 300.0),
                )
            })
            .collect();
        let query_hour = rng.gen_range_f64(0.0, 50.0);
        let window = WindowConfig::paper_time_varying();
        let mut config = HoeConfig::paper_time_varying();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        let mut t = 0.0;
        let mut events = Vec::new();
        for &(gap, soj) in &raw {
            t += gap;
            let e = HandoffEvent::new(
                SimTime::from_secs(t),
                Some(CellId(1)),
                CellId(2),
                Duration::from_secs(soj),
            );
            cache.record(e);
            events.push(e);
        }
        let now = SimTime::from_secs(t + query_hour * 3_600.0 + 1.0);
        let expected: f64 = events
            .iter()
            .filter_map(|e| window.membership(now, e.t_event).map(|m| m.weight))
            .sum();
        let got = cache.weight_prev_gt(now, Some(CellId(1)), Duration::ZERO);
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }
}

/// max_sojourn equals the maximum over the selected quadruplets.
#[test]
fn max_sojourn_matches() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0004);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let mut config = HoeConfig::stationary();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let expected = events
            .iter()
            .map(|e| e.t_soj.as_secs())
            .fold(f64::NEG_INFINITY, f64::max);
        let got = cache.max_sojourn(now).unwrap().as_secs();
        assert!((got - expected).abs() < 1e-12);
    }
}

/// One step of an engine-like stream: the clock never goes back, and a
/// query at `t_o` is followed only by events at or after `t_o`.
enum Step {
    Record(HandoffEvent),
    Query(SimTime),
}

/// A random stream of records with queries between them. `max_gap` bounds
/// the time between records; every query advances the clock by at least
/// `min_query_gap` (zero lets a query land on the instant of a record).
fn interleaved_stream(rng: &mut StreamRng, max_gap: f64, min_query_gap: f64) -> Vec<Step> {
    let len = rng.gen_range(1usize..150);
    let mut t = 0.0;
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        if rng.gen_bool(0.3) {
            // Half the queries land right at `min_query_gap`: with a zero
            // gap, on the instant of the last record.
            let wait = if rng.gen_bool(0.5) {
                rng.gen_range_f64(0.0, 60.0)
            } else {
                0.0
            };
            t += min_query_gap + wait;
            steps.push(Step::Query(SimTime::from_secs(t)));
        } else {
            t += rng.gen_range_f64(0.0, max_gap);
            steps.push(Step::Record(HandoffEvent::new(
                SimTime::from_secs(t),
                random_prev(rng).map(CellId),
                CellId(rng.gen_range(0u32..4)),
                Duration::from_secs(rng.gen_range_f64(0.1, 300.0)),
            )));
        }
    }
    steps
}

/// Every answer of the cache at `t_o` for one set of random probes, as raw
/// bits: the three Eq.-4 weights, `max_sojourn`, the footprints and the
/// batched Eq.-5 contribution.
fn answers(cache: &mut HoeCache, t_o: SimTime, probe_seed: u64) -> Vec<u64> {
    let mut rng = StreamRng::seed_from_u64(probe_seed);
    let mut bits = Vec::new();
    for _ in 0..4 {
        let prev = random_prev(&mut rng).map(CellId);
        let next = CellId(rng.gen_range(0u32..4));
        let ext = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        bits.push(cache.weight_prev_gt(t_o, prev, ext).to_bits());
        bits.push(cache.weight_pair_in(t_o, prev, next, ext, t_est).to_bits());
        bits.push(cache.weight_pair_gt(t_o, prev, next, ext).to_bits());
    }
    bits.push(
        cache
            .max_sojourn(t_o)
            .map_or(u64::MAX, |d| d.as_secs().to_bits()),
    );
    for prev in [None, Some(0), Some(1), Some(2), Some(3)] {
        for (next, sojourns) in cache.footprint_pairs(t_o, prev.map(CellId)) {
            bits.push(u64::from(next.0));
            bits.extend(sojourns.iter().map(|s| s.to_bits()));
        }
    }
    let conns: Vec<ConnQuery> = (0..rng.gen_range(0usize..30))
        .map(|_| ConnQuery {
            prev: random_prev(&mut rng).map(CellId),
            known_next: rng.gen_bool(0.3).then(|| CellId(rng.gen_range(0u32..4))),
            extant_sojourn: Duration::from_secs(rng.gen_range_f64(0.0, 300.0)),
            bandwidth: if rng.gen_bool(0.5) { 1.0 } else { 4.0 },
        })
        .collect();
    let target = CellId(rng.gen_range(0u32..4));
    let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
    bits.push(batched_contribution(cache, t_o, target, t_est, &conns).to_bits());
    bits
}

/// A cache maintained incrementally — records and queries interleaved, so
/// snapshots are refreshed pair by pair — answers every query bit for bit
/// like a fresh cache fed the same prefix and queried once at the same
/// `t_o`. A small `N_quad` makes records evict.
fn assert_incremental_matches_fresh(base: HoeConfig, seed: u64, max_gap: f64) {
    let mut rng = StreamRng::seed_from_u64(seed);
    // Finite windows refresh only when the refresh interval expires, so
    // the queries are spaced past it there.
    let min_query_gap = if base.weekday_window.t_int.is_infinite() {
        0.0
    } else {
        base.snapshot_refresh.as_secs() + 1.0
    };
    for case in 0..150 {
        let mut config = base.clone();
        config.n_quad = rng.gen_range(3usize..6);
        let mut cache = HoeCache::new(config.clone());
        let mut prefix = Vec::new();
        for step in interleaved_stream(&mut rng, max_gap, min_query_gap) {
            match step {
                Step::Record(e) => {
                    cache.record(e);
                    prefix.push(e);
                }
                Step::Query(t_o) => {
                    let mut fresh = HoeCache::new(config.clone());
                    for e in &prefix {
                        fresh.record(*e);
                    }
                    let probe_seed = rng.next_u64();
                    assert_eq!(
                        answers(&mut cache, t_o, probe_seed),
                        answers(&mut fresh, t_o, probe_seed),
                        "case {case}: t_o = {} after {} records",
                        t_o.as_secs(),
                        prefix.len()
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_refresh_matches_fresh_cache_stationary() {
    assert_incremental_matches_fresh(HoeConfig::stationary(), 0xCAC4_0005, 60.0);
}

#[test]
fn incremental_refresh_matches_fresh_cache_time_varying() {
    // Gaps up to 1 h spread ~150 steps over several days, so the
    // previous-day window and retention pruning both take part.
    assert_incremental_matches_fresh(HoeConfig::paper_time_varying(), 0xCAC4_0006, 3_600.0);
}
