//! Pins the kernel's near-zero steady-state allocation rate.
//!
//! The point of `EventPool` and the calendar queue's reused buckets is
//! that a warmed hot loop pops and pushes events without touching the
//! heap: with each event body boxed instead of written into a pooled
//! slot, every scheduled event costs one allocation.
//! This test installs a counting global allocator, runs the deep-queue
//! churn (262,144 resident events) past its warm-up, then requires the
//! sustained window to allocate less than once per ten events it pops.
//! What remains is the calendar's first-touch bucket growth, one
//! allocation per newly entered window: 7,852 for 185,986 events (4.2 %)
//! when this test was written, and deterministic.

use plsim_des::{Actor, Context, FixedDelay, NodeId, SchedulerKind, SimTime, Simulation};
use plsim_telemetry::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (growth) the *measured
/// thread* performs. Counting is gated on a thread-local armed only
/// around the sustained window, so the libtest harness threads cannot
/// pollute the measurement.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deep-queue workload actor: forwards a token with a payload-derived
/// delay, mixing network sends and self-timers so event timestamps spread
/// across many calendar windows while thousands of tokens stay in flight.
struct Churner {
    next: NodeId,
    remaining: u64,
}

impl Actor<u64> for Churner {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, _from: Option<NodeId>, p: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let p = p.wrapping_add(1);
            if p.is_multiple_of(3) {
                let jitter = p.wrapping_mul(2_654_435_761) % 5_000;
                ctx.schedule(SimTime::from_micros(1 + jitter), p);
            } else {
                ctx.send(self.next, p, 64);
            }
        }
    }
}

/// Tokens injected up front — the event queue's resident depth.
const DEEP_TOKENS: u32 = 262_144;
/// Forwarding budget across all actors (total events ≈ budget + tokens):
/// much larger than the token count, so the run is sustained churn at
/// full depth, every pop balanced by a push.
const DEEP_BUDGET: u64 = 1_000_000;
/// Actors in the deep-queue workload.
const DEEP_ACTORS: u32 = 64;

/// Builds the deep-queue simulation with all tokens injected.
fn deep_queue_sim() -> Simulation<u64> {
    let mut sim: Simulation<u64> = Simulation::with_scheduler(
        1,
        FixedDelay(SimTime::from_micros(10)),
        MetricsRegistry::new(),
        SchedulerKind::Calendar,
    );
    let ids: Vec<NodeId> = (0..DEEP_ACTORS)
        .map(|i| {
            sim.add_actor(Box::new(Churner {
                next: NodeId((i + 1) % DEEP_ACTORS),
                remaining: DEEP_BUDGET / u64::from(DEEP_ACTORS),
            }))
        })
        .collect();
    sim.reserve_events(DEEP_TOKENS as usize + 16);
    for t in 0..DEEP_TOKENS {
        sim.inject(
            SimTime::from_micros(u64::from(t) * 3),
            ids[(t % DEEP_ACTORS) as usize],
            None,
            u64::from(t).wrapping_mul(0x9E37_79B9),
            64,
        );
    }
    sim
}

#[test]
fn sustained_churn_allocates_far_less_than_once_per_event() {
    let mut sim = deep_queue_sim();
    // Warm-up: the first 5 simulated ms populate the event pool, trigger
    // the calendar's adaptive width rebuild and grow the buckets.
    let warm = sim.run_until(SimTime::from_micros(5_000));

    ARMED.with(|f| f.set(true));
    let sustained = sim.run_until(SimTime::from_micros(30_000));
    ARMED.with(|f| f.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);

    // The remainder (not measured) is the end-of-run drain, whose
    // occupancy-driven shrink rebuilds are teardown, not hot-loop, work.
    let popped = sustained.events_processed - warm.events_processed;
    assert!(
        popped > 100_000,
        "window too short to mean anything: {popped}"
    );
    assert!(
        allocs * 10 < popped,
        "sustained window allocated {allocs} times for {popped} events"
    );
}
