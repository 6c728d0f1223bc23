//! The steady-state `B_r` path allocates nothing: once its buffers are warm,
//! neither an Eq.-5 neighbor term, nor a `T_soj,max` query, nor recording a
//! hand-off into a full pair touches the heap. (Re-deriving the recorded
//! pair's snapshot at the next query does allocate; that is not counted.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as CountCell;

use qres_cellnet::{Bandwidth, Cell, CellId, ConnInfo, ConnectionId};
use qres_core::neighbor_contribution;
use qres_des::{Duration, SimTime, StreamRng};
use qres_mobility::{HandoffEvent, HoeCache, HoeConfig};

/// Counts heap allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: CountCell<u64> = const { CountCell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so counting never allocates or
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(CountCell::get);
    f();
    ALLOCS.with(CountCell::get) - before
}

fn random_event(rng: &mut StreamRng, t: f64) -> HandoffEvent {
    HandoffEvent::new(
        SimTime::from_secs(t),
        rng.gen_bool(0.7).then(|| CellId(rng.gen_range(2u32..6))),
        CellId(rng.gen_range(0u32..4)),
        Duration::from_secs(rng.gen_range_f64(0.1, 400.0)),
    )
}

#[test]
fn warm_br_path_does_not_allocate() {
    let mut rng = StreamRng::seed_from_u64(0xA110_0001);
    let mut config = HoeConfig::stationary();
    config.n_quad = 5;
    let mut cache = HoeCache::new(config);
    // Fill every (prev, next) pair past N_quad, so each pair's deque has
    // reached its steady capacity.
    let mut t = 0.0;
    for _ in 0..2_000 {
        t += rng.gen_range_f64(0.0, 2.0);
        cache.record(random_event(&mut rng, t));
    }
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(1_000));
    for j in 0..80 {
        cell.insert(ConnInfo {
            id: ConnectionId(j),
            bandwidth: Bandwidth::from_bus(if rng.gen_bool(0.5) { 1 } else { 4 }),
            prev: rng.gen_bool(0.7).then(|| CellId(rng.gen_range(2u32..6))),
            entered_at: SimTime::from_secs(t - rng.gen_range_f64(0.0, 500.0)),
            known_next: rng.gen_bool(0.3).then(|| CellId(rng.gen_range(0u32..4))),
        })
        .unwrap();
    }
    let t_est = Duration::from_secs(60.0);
    let queries = |cache: &mut HoeCache, now: SimTime| {
        for target in [CellId(0), CellId(3)] {
            neighbor_contribution(&cell, cache, now, target, t_est);
        }
        cache.max_sojourn(now);
    };
    // Warm-up: sizes the thread-local buffers and derives every snapshot.
    queries(&mut cache, SimTime::from_secs(t));
    for _ in 0..50 {
        t += rng.gen_range_f64(0.0, 2.0);
        let now = SimTime::from_secs(t);
        let event = random_event(&mut rng, t);
        assert_eq!(allocations(|| cache.record(event)), 0, "record at t = {t}");
        // Re-derives the recorded pair (allocates; not counted).
        cache.max_sojourn(now);
        assert_eq!(
            allocations(|| queries(&mut cache, now)),
            0,
            "B_r and T_soj,max queries at t = {t}"
        );
    }
}
