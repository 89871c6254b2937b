//! Coalesced, allocation-free cross-shard exchange.
//!
//! The original sharded run pushed every cross-shard event into the
//! destination's inbox one at a time — a mutex acquisition *per event* —
//! and handed ownership of freshly allocated `Vec`s across the barrier
//! every round (`std::mem::take` on ingest), so the exchange path
//! allocated proportionally to traffic forever. A [`ShardExchange`]
//! replaces both costs with per-`(source, destination)` slots: a sender
//! stages a whole window's batch for one destination in a thread-local
//! buffer and [`publish`]es it with a single lock and a buffer *swap*,
//! and the receiver [`drain`]s each slot in place. Buffers circulate
//! between stage and slot indefinitely, so once every buffer has grown to
//! its high-water mark the steady state allocates nothing — the property
//! the `outbox_alloc` integration test pins with a counting allocator, in
//! the spirit of the kernel's `kernel_alloc` and the message path's
//! `message_pool_alloc` tests.
//!
//! Slots are one mutex per *directed shard pair*, so two senders never
//! contend for the same slot in the publish phase (each source publishes
//! only its own row) and the receiver drains column-wise after the
//! barrier, in source order, making the drain sequence deterministic.
//!
//! A round is two barriers: every source publishes at most one batch per
//! destination before the first, and every destination drains its column
//! before the second, so a slot is always empty when it is published
//! into and [`publish`] is a plain swap.
//!
//! Most slots carry nothing in most rounds (a round spans one lookahead,
//! 19 ms of simulated time in the paper-shaped worlds, and the grid has
//! `shards²` slots), so each slot has an occupancy flag beside its mutex:
//! [`publish`] raises it while it holds the lock and [`drain`] reads it
//! first and passes over an unpublished slot without locking it. A round
//! locks the slots that carry a batch, not the whole grid.
//!
//! [`publish`]: ShardExchange::publish
//! [`drain`]: ShardExchange::drain

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A `shards × shards` mailbox grid carrying per-destination batches
/// across window barriers. `T` is the wire form of whatever crosses the
/// barrier (the shard driver's `RemoteEvent<WireMessage>` — anything
/// `Send`).
#[derive(Debug)]
pub struct ShardExchange<T> {
    shards: usize,
    /// `slots[dest * shards + src]` — the batch source `src` published for
    /// destination `dest` this round.
    slots: Vec<Mutex<Vec<T>>>,
    /// `occupied[i]` is raised once `slots[i]` has been published into
    /// since its last drain. Both writes happen under the slot's lock; the
    /// unlocked read in `drain` pairs its `Acquire` with `publish`'s
    /// `Release`, and a drain only ever follows the round's publishes
    /// across a barrier, so a lowered flag means an empty slot.
    occupied: Vec<AtomicBool>,
}

impl<T> ShardExchange<T> {
    /// An empty grid for `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardExchange {
            shards,
            slots: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            occupied: (0..shards * shards)
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// The shard count the grid was built for.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Publishes `staged` (source `src`'s batch for destination `dest`)
    /// into the grid and leaves an empty buffer — with whatever capacity
    /// the slot held — in its place, ready for restaging.
    ///
    /// # Panics
    ///
    /// Panics if the slot still holds a batch: a source publishes at most
    /// once per destination between two drains.
    pub fn publish(&self, src: usize, dest: usize, staged: &mut Vec<T>) {
        let i = dest * self.shards + src;
        let mut slot = self.slots[i].lock().expect("exchange slot poisoned");
        assert!(
            slot.is_empty(),
            "exchange slot {src} -> {dest} published twice before a drain"
        );
        std::mem::swap(&mut *slot, staged);
        self.occupied[i].store(true, Ordering::Release);
    }

    /// Drains every batch published for `dest`, in source order, feeding
    /// each item to `each`. Buffers are drained in place so their
    /// capacity stays in the grid for the next round. A slot nothing was
    /// published into since its last drain is skipped without being
    /// locked.
    pub fn drain(&self, dest: usize, mut each: impl FnMut(T)) {
        for src in 0..self.shards {
            let i = dest * self.shards + src;
            if !self.occupied[i].load(Ordering::Acquire) {
                continue;
            }
            let mut slot = self.slots[i].lock().expect("exchange slot poisoned");
            self.occupied[i].store(false, Ordering::Relaxed);
            for item in slot.drain(..) {
                each(item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cross_in_source_order_and_buffers_circulate() {
        let ex: ShardExchange<u32> = ShardExchange::new(3);
        let mut stage = vec![10, 11];
        ex.publish(1, 0, &mut stage);
        assert!(stage.is_empty(), "publish must leave a reusable buffer");
        let mut stage0 = vec![7];
        ex.publish(0, 0, &mut stage0);
        let mut got = Vec::new();
        ex.drain(0, |v| got.push(v));
        assert_eq!(got, vec![7, 10, 11], "drain follows source order");
    }

    #[test]
    #[should_panic(expected = "exchange slot 2 -> 1 published twice before a drain")]
    fn a_second_publish_before_the_drain_panics() {
        let ex: ShardExchange<u32> = ShardExchange::new(3);
        ex.publish(2, 1, &mut vec![1]);
        ex.publish(2, 1, &mut vec![2, 3]);
    }

    #[test]
    fn swapped_buffers_keep_the_slots_capacity() {
        let ex: ShardExchange<u64> = ShardExchange::new(2);
        // Round 1 grows the slot buffer; round 2's publish hands that
        // capacity back to the stage.
        let mut stage: Vec<u64> = (0..64).collect();
        ex.publish(0, 1, &mut stage);
        ex.drain(1, |_| {});
        ex.publish(0, 1, &mut stage);
        assert!(stage.capacity() >= 64, "slot capacity must circulate back");
    }

    #[test]
    fn unpublished_slots_are_skipped_and_occupancy_resets() {
        let ex: ShardExchange<u32> = ShardExchange::new(2);
        let drained = |dest| {
            let mut got = Vec::new();
            ex.drain(dest, |v| got.push(v));
            got
        };
        ex.publish(1, 0, &mut vec![5, 6]);
        assert_eq!(drained(0), vec![5, 6]);
        assert!(drained(0).is_empty(), "a drained slot stays drained");
        assert!(drained(1).is_empty(), "nothing was published for shard 1");
        // The drain lowered the flag; a publish into the same slot must
        // raise it again or the batch would be lost.
        ex.publish(1, 0, &mut vec![7]);
        assert_eq!(drained(0), vec![7]);
    }
}
