//! Pins the zero-allocation steady state of the cross-shard exchange.
//!
//! The whole point of [`ShardExchange`] over the old per-event inbox is
//! that once every buffer has grown to its high-water mark, publish/drain
//! rounds allocate nothing: batches cross by buffer swap and drain in
//! place. This test installs a counting global allocator, runs warmup
//! rounds until the capacities settle, then measures a long steady-state
//! stretch and requires exactly zero allocations.

use plsim_node::ShardExchange;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (growth) the *measured
/// thread* performs; frees are not interesting here. Counting is gated on
/// a thread-local armed only around the steady-state loop, so the libtest
/// harness threads (which allocate at their own pace) cannot pollute the
/// measurement.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

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

/// One full exchange round over every directed pair: each source publishes
/// one batch per destination, then every destination drains its column.
fn round(grid: &ShardExchange<u64>, stage: &mut [Vec<u64>], sink: &mut u64) {
    let shards = grid.shards();
    for src in 0..shards {
        for (dest, buf) in stage.iter_mut().enumerate() {
            buf.extend((0..32).map(|i| (src * shards + dest) as u64 + i));
            grid.publish(src, dest, buf);
        }
    }
    for dest in 0..shards {
        grid.drain(dest, |v| *sink = sink.wrapping_add(v));
    }
}

#[test]
fn steady_state_exchange_rounds_allocate_nothing() {
    const SHARDS: usize = 4;
    let grid: ShardExchange<u64> = ShardExchange::new(SHARDS);
    let mut stage: Vec<Vec<u64>> = (0..SHARDS).map(|_| Vec::new()).collect();
    let mut sink = 0u64;

    // Warmup: let every buffer (stage-side and slot-side — they swap
    // identities round to round) reach its high-water capacity.
    for _ in 0..8 {
        round(&grid, &mut stage, &mut sink);
    }

    ARMED.with(|f| f.set(true));
    for _ in 0..256 {
        round(&grid, &mut stage, &mut sink);
    }
    ARMED.with(|f| f.set(false));
    let delta = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(
        delta, 0,
        "steady-state exchange rounds must not allocate (sink {sink})"
    );
}
