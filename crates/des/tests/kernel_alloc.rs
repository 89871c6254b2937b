//! Pins the kernel's near-zero steady-state allocation rate and the
//! calendar's bounded footprint.
//!
//! The point of `EventPool` and the calendar queue's slab is that a
//! warmed hot loop pops and pushes events without touching the heap: with
//! each event body boxed instead of written into a pooled slot, every
//! scheduled event costs one allocation, and with a growable buffer per
//! calendar bucket every window the cursor enters for the first time
//! costs one (7,497 for the window below, before the slab).
//! This file installs a counting global allocator, runs the deep-queue
//! churn (262,144 resident events) past its warm-up, then requires the
//! sustained window of 185,986 events to allocate at most 8 times. What
//! remains is one allocation, deterministic: the same-size rebuild the
//! window contains is the first to sort the queue at full depth, and
//! grows the calendar's reused sort buffer to hold it (a debug build adds
//! that rebuild's `check_links` bookkeeping).
//!
//! The second test holds the other half of the contract: a queue shaped
//! like a world's (a sub-second band of in-flight events over a thin tail
//! of session-length timers) must not grow the calendar once it is warm.
//! The slab only grows when the queue is deeper than it has ever been, so
//! a standing population costs nothing however the cursor moves; per-bucket
//! buffers under a width learned from the whole span instead of the
//! nearest keys grew by megabytes here, each bucket taking its turn as the
//! one that holds the band and keeping the capacity.

use plsim_des::{Actor, Context, FixedDelay, NodeId, SchedulerKind, SimTime, Simulation};
use plsim_telemetry::MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation (growth) the *measured
/// thread* performs, and tracks its live heap bytes — relative to the
/// moment of arming, so frees of older blocks take it below zero — with
/// their high-water mark. Everything is thread-local and gated on `ARMED`,
/// set only around a measured window, so neither the libtest harness
/// threads nor the other test in this binary pollute a measurement.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Books one allocator call on the armed thread: `calls` allocations and
/// `bytes` more (or fewer) live bytes.
fn record(calls: u64, bytes: i64) {
    if !ARMED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    ALLOCS.with(|c| c.set(c.get() + calls));
    let live = LIVE_BYTES.with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    PEAK_LIVE_BYTES.with(|c| c.set(c.get().max(live)));
}

// SAFETY: defers entirely to `System`; the bookkeeping is thread-local
// `Cell`s with const initialisers, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `window` with the allocator armed on this thread; returns its
/// result, the allocations it made and how far its live heap rose above
/// the level it started at.
fn armed<T>(window: impl FnOnce() -> T) -> (T, u64, i64) {
    ALLOCS.with(|c| c.set(0));
    LIVE_BYTES.with(|c| c.set(0));
    PEAK_LIVE_BYTES.with(|c| c.set(0));
    ARMED.with(|f| f.set(true));
    let out = window();
    ARMED.with(|f| f.set(false));
    (out, ALLOCS.with(Cell::get), PEAK_LIVE_BYTES.with(Cell::get))
}

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

    let (sustained, allocs, _) = armed(|| sim.run_until(SimTime::from_micros(30_000)));

    // The remainder (not measured) is the end-of-run drain, whose
    // occupancy-driven shrink rebuilds are teardown, not hot-loop, work.
    let popped = sustained.events_processed - warm.events_processed;
    assert!(
        popped > 100_000,
        "window too short to mean anything: {popped}"
    );
    assert!(
        allocs <= 8,
        "sustained window allocated {allocs} times for {popped} events"
    );
}

/// The world's event-time shape in miniature: every token re-arms itself
/// 1–500 ms ahead, whatever delay brought it here.
struct Rearm;

impl Actor<u64> for Rearm {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, _from: Option<NodeId>, p: u64) {
        let p = p.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        ctx.schedule(SimTime::from_micros(1_000 + (p >> 33) % 499_000), p);
    }
}

#[test]
fn world_shaped_queue_keeps_the_calendar_small() {
    // 600 session-length timers spread to 1,800 s under a standing band of
    // 5,000 sub-second ones, the calendar sized as `materialize` sizes it.
    let mut sim: Simulation<u64> = Simulation::with_scheduler(
        1,
        FixedDelay(SimTime::from_micros(10)),
        MetricsRegistry::new(),
        SchedulerKind::Calendar,
    );
    let ids: Vec<NodeId> = (0..64).map(|_| sim.add_actor(Box::new(Rearm))).collect();
    for i in 0..600u64 {
        let at = SimTime::from_micros((i + 1) * 3_000_000);
        sim.inject(at, ids[i as usize % ids.len()], None, i, 0);
    }
    sim.reserve_events(2_400);
    for i in 600..5_600u64 {
        let at = SimTime::from_micros(1_000 + i.wrapping_mul(2_654_435_761) % 499_000);
        sim.inject(at, ids[i as usize % ids.len()], None, i, 0);
    }
    // Warm-up: several sweeps of the calendar, so every bucket has had its
    // first touch and the width has settled.
    let warm = sim.run_until(SimTime::from_secs(3));

    let (sustained, _, peak_growth) = armed(|| sim.run_until(SimTime::from_secs(56)));

    let popped = sustained.events_processed - warm.events_processed;
    assert!(popped >= 1_000_000, "window too short: {popped} events");
    // The slab reached the queue's depth during warm-up and a popped cell
    // is the next one pushed into, so nothing is left to grow; the bound
    // leaves room for one same-size rebuild's bookkeeping.
    assert!(
        peak_growth <= 64 << 10,
        "live heap rose {peak_growth} B over {popped} events"
    );
}
