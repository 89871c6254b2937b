//! Pluggable event schedulers: the reference binary heap and an O(1)
//! calendar queue whose keys live in one slab.
//!
//! The kernel separates *ordering* from *storage*: event bodies (payload,
//! addressing, size) live in a slot pool inside [`crate::Simulation`], and a
//! [`Scheduler`] only orders lightweight `Copy` [`EventKey`]s. Both
//! implementations realise exactly the same total order, `(time, origin,
//! seq)` ascending with `origin` the scheduling actor and `seq` that
//! origin's monotone push counter, so a simulation's pop sequence — and
//! therefore every figure the reproduction emits — is bit-identical
//! whichever scheduler is plugged in. Because the tie-break depends only
//! on *who* scheduled the event and their private counter (never on a
//! global interleaving), the order is also invariant under space
//! partitioning: a sharded world pops the same keys in the same relative
//! order as the single-shard run. The property test in
//! `tests/scheduler_equivalence.rs` enforces heap/calendar agreement for
//! arbitrary interleaved push/pop workloads.
//!
//! The calendar's storage is laid out for the cache, not the allocator: a
//! world's queue is a few thousand keys deep under thousands of buckets,
//! so a growable buffer per bucket spreads ~100 KB of keys over megabytes
//! of mostly empty capacity and every push misses twice. Here a bucket is
//! a 12-byte `(head, tail, len)` header and its keys are an intrusive
//! chain through one `Vec` of 32-byte cells that grows to the peak queue
//! depth and no further ([`CalendarScheduler`]).

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering key of one queued event.
///
/// `slot` indexes the event body in the kernel's pool; it plays no part in
/// ordering (`(origin, seq)` is unique, so `(at, origin, seq)` already
/// totally orders keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    /// Firing time.
    pub at: SimTime,
    /// Per-origin monotone sequence number — together with `origin`, the
    /// deterministic tie-break for equal timestamps.
    pub seq: u64,
    /// The scheduling origin: 0 for harness injections, `actor id + 1`
    /// for events scheduled by an actor. Keying the tie-break on the
    /// origin (rather than a global push counter) makes the total order
    /// independent of how actor executions interleave, which is what lets
    /// a sharded run reproduce the single-shard pop order bit-for-bit.
    pub origin: u32,
    /// Index of the pooled event body.
    pub slot: u32,
}

impl EventKey {
    #[inline]
    fn order(&self) -> (SimTime, u32, u64) {
        (self.at, self.origin, self.seq)
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

/// A pending-event set ordered by `(time, origin, seq)`.
///
/// The contract every implementation must honour:
///
/// * [`Scheduler::pop_next_before`] removes and returns the minimum key iff
///   its time is `<= bound`; otherwise the set is left untouched.
/// * Keys are only pushed at or after the time of the last popped key
///   (the kernel's no-scheduling-into-the-past invariant) — calendar-style
///   schedulers rely on this to keep their cursor monotone.
pub trait Scheduler {
    /// Inserts a key.
    fn push(&mut self, key: EventKey);
    /// Removes and returns the earliest key if it fires at or before
    /// `bound`; returns `None` (without modifying the set) otherwise.
    fn pop_next_before(&mut self, bound: SimTime) -> Option<EventKey>;
    /// Number of queued keys.
    fn len(&self) -> usize;
    /// Whether no keys are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Pre-sizes internal storage for at least `additional` more keys.
    fn reserve(&mut self, additional: usize);
}

/// Which scheduler a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The reference `BinaryHeap` scheduler: O(log n) push/pop.
    Heap,
    /// The calendar queue: amortised O(1) push/pop at steady event rates.
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Display label (`"heap"` / `"calendar"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
        }
    }
}

/// The reference scheduler: `std::collections::BinaryHeap` in min order.
#[derive(Debug, Default)]
pub struct HeapScheduler {
    heap: BinaryHeap<Reverse<EventKey>>,
}

impl HeapScheduler {
    /// An empty heap scheduler.
    #[must_use]
    pub fn new() -> HeapScheduler {
        HeapScheduler::default()
    }
}

impl Scheduler for HeapScheduler {
    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    fn pop_next_before(&mut self, bound: SimTime) -> Option<EventKey> {
        let Reverse(head) = self.heap.peek()?;
        if head.at > bound {
            return None;
        }
        self.heap.pop().map(|Reverse(k)| k)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }
}

/// Fewest buckets a calendar keeps (power of two).
const MIN_BUCKETS: usize = 16;
/// Lowest bucket occupancy that triggers a width re-estimate: past this
/// many keys in one bucket, mid-chain insertion cost dominates and the
/// width learned at the last rebuild no longer matches the live
/// event-time distribution. The live bar is `hot_bar`, never below this.
const HOT_BUCKET: u32 = 32;
/// Fewest nearest instants the width estimate averages over.
const NEAR_INSTANTS: usize = 32;
/// Widest bucket allowed: 2^40 µs ≈ 13 simulated days. Bounds the shift so
/// window arithmetic stays far from `u64` overflow in practice.
const MAX_SHIFT: u32 = 40;
/// "No node": the end of a chain, and the head and tail of an empty bucket.
const NIL: u32 = u32::MAX;

/// One calendar bucket: an ascending chain of slab nodes.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Slab index of the chain's minimum, [`NIL`] when empty.
    head: u32,
    /// Slab index of the chain's maximum, [`NIL`] when empty.
    tail: u32,
    /// Keys in the chain.
    len: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// One slab cell: a queued key and the next cell of its chain — the next
/// larger key of the same bucket, or the next free cell.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: EventKey,
    next: u32,
}

/// A self-resizing calendar queue (Brown 1988), specialised to the kernel's
/// push-never-behind-the-clock discipline.
///
/// Events hash into `buckets.len()` (a power of two) circular buckets by
/// `(at >> shift) & mask`, i.e. bucket widths are powers of two so the
/// index math is a shift and a mask. All keys live in one slab, `nodes`,
/// and a bucket is three indices into it: the head, tail and length of a
/// singly linked chain kept ascending by `(time, origin, seq)`. The
/// minimum pops from the head in O(1), and a key that is its bucket's new
/// *maximum* — the dominant case both for monotone arrival and for
/// same-origin same-timestamp FIFO bursts, where `seq` only ever grows —
/// appends at the tail in O(1). Anything else walks from the head, which
/// is short because occupancy is held at two keys per bucket, the width
/// is learned from the keys the walk would be among (see `rebuild`) and a
/// chain past `hot_bar` learns it
/// again. A popped cell goes on the intrusive free chain and is the next
/// one a push reuses, so the queue's whole footprint is its peak depth in
/// 32-byte cells plus 12 bytes per bucket, and the part the cursor is
/// working in stays in cache. A cursor walks the buckets window-by-window
/// in time order; the first key found inside its bucket's active window
/// is the global minimum. When a full sweep finds nothing "direct" (the
/// queue is sparse or the next event is far ahead), a direct O(buckets)
/// min-search jumps the cursor there — the classic fallback that keeps
/// worst-case pops linear instead of unbounded.
///
/// The queue resizes itself on load: it doubles the bucket count when
/// occupancy exceeds two keys per bucket and halves it when occupancy
/// drops below one key per eight buckets, re-estimating the bucket width
/// from the gaps between the *nearest* live instants on every rebuild
/// (see `rebuild`) — where the next pops and pushes
/// land. A far-future tail (session-length timers above a sub-second band
/// of in-flight messages) has no say in the width, however much of the
/// queue it is: its keys wrap around the calendar and wait at the tail of
/// their chains.
/// Resizing only redistributes keys — the pop order is fixed by the
/// `(time, origin, seq)` comparator alone, so sizing policy affects
/// speed, never order.
#[derive(Debug)]
pub struct CalendarScheduler {
    /// One chain per bucket, ascending: minimum at the head (O(1) pops),
    /// maximum at the tail (O(1) insertion of new maxima).
    buckets: Vec<Bucket>,
    /// Every chain's cells, live and free. Grows to the peak queue depth
    /// and is never shrunk.
    nodes: Vec<Node>,
    /// Head of the free chain through `Node::next`, [`NIL`] when every
    /// cell is live.
    free: u32,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Queued key count.
    len: usize,
    /// Cursor: index of the bucket whose window the clock is in.
    cur: usize,
    /// Exclusive upper tick of `cur`'s active window.
    window_end: u64,
    /// Lower bound for all queued and future keys (last popped tick).
    floor: u64,
    /// Chain length past which a push re-estimates the width: twice the
    /// fullest bucket the last rebuild left, at least [`HOT_BUCKET`].
    hot_bar: u32,
    /// Sort buffer reused across rebuilds.
    scratch: Vec<EventKey>,
}

impl Default for CalendarScheduler {
    fn default() -> Self {
        CalendarScheduler::new()
    }
}

impl CalendarScheduler {
    /// An empty calendar with the minimum bucket count and a ~1 ms width.
    #[must_use]
    pub fn new() -> CalendarScheduler {
        let shift = 10; // 1024 µs buckets until the first resize learns better.
        CalendarScheduler {
            buckets: vec![Bucket::EMPTY; MIN_BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            shift,
            mask: MIN_BUCKETS - 1,
            len: 0,
            cur: 0,
            window_end: 1u64 << shift,
            floor: 0,
            hot_bar: HOT_BUCKET,
            scratch: Vec::new(),
        }
    }

    /// Current bucket count (diagnostic).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in microseconds (diagnostic).
    #[must_use]
    pub fn bucket_width_micros(&self) -> u64 {
        1u64 << self.shift
    }

    #[inline]
    fn bucket_of(&self, ticks: u64) -> usize {
        ((ticks >> self.shift) as usize) & self.mask
    }

    /// Points the cursor at the bucket window containing `ticks`.
    #[inline]
    fn seek(&mut self, ticks: u64) {
        self.cur = self.bucket_of(ticks);
        self.window_end = (ticks >> self.shift)
            .saturating_add(1)
            .saturating_mul(1u64 << self.shift);
        // saturating_mul keeps the bound meaningful near u64::MAX; keys out
        // there are still found through the direct-search fallback.
    }

    /// The minimum key of bucket `idx`, if it holds any.
    #[inline]
    fn head_key(&self, idx: usize) -> Option<EventKey> {
        let head = self.buckets[idx].head;
        (head != NIL).then(|| self.nodes[head as usize].key)
    }

    /// The cells of the chain starting at `head`, with their slab indices.
    fn chain(&self, head: u32) -> impl Iterator<Item = (u32, &Node)> {
        let cell = |n: u32| (n != NIL).then(|| (n, &self.nodes[n as usize]));
        std::iter::successors(cell(head), move |&(_, node)| cell(node.next))
    }

    /// Redistributes all keys over `new_buckets` buckets, re-estimating the
    /// width from the nearest keys.
    fn rebuild(&mut self, new_buckets: usize) {
        let mut keys = std::mem::take(&mut self.scratch);
        keys.clear();
        keys.reserve(self.len);
        for b in &self.buckets {
            keys.extend(self.chain(b.head).map(|(_, node)| node.key));
        }
        debug_assert_eq!(keys.len(), self.len);
        keys.sort_unstable();

        // The slab and the sort buffer are reused, so a same-size or
        // shrinking redistribution is allocation-free at steady state.
        let new_buckets = new_buckets.next_power_of_two().max(MIN_BUCKETS);
        self.buckets.clear();
        self.buckets.resize(new_buckets, Bucket::EMPTY);
        self.mask = new_buckets - 1;

        // Width estimate: twice the mean gap between the nearest distinct
        // instants — as many of them as an eighth of the keys, at least
        // `NEAR_INSTANTS` — rounded up to a power of two: an instant or two
        // per window where the cursor is about to sweep, whatever the far
        // tail looks like. Instants are counted, not keys, because no
        // width can spread keys that share one: a same-instant burst at
        // the head is one instant, so it cannot collapse the estimate and
        // send every later pop through the O(buckets) direct search. A
        // queue that is all one instant says nothing and keeps its width.
        let near = (keys.len() / 8).max(NEAR_INSTANTS) as u64;
        let first = keys.first().map_or(0, |k| k.at.as_micros());
        let (mut last, mut gaps) = (first, 0);
        for at in keys.iter().map(|k| k.at.as_micros()) {
            if at != last {
                (last, gaps) = (at, gaps + 1);
                if gaps == near {
                    break;
                }
            }
        }
        if gaps > 0 {
            let width = ((last - first).saturating_mul(2).div_ceil(gaps)).next_power_of_two();
            self.shift = width.trailing_zeros().min(MAX_SHIFT);
        }

        // The i-th smallest key goes to cell i, so ascending order appends
        // at every chain's tail and leaves neighbours in time neighbours
        // in memory; the cells past the live ones become the free chain,
        // lowest index first.
        let mut fullest = 0;
        for (i, &key) in keys.iter().enumerate() {
            let idx = self.bucket_of(key.at.as_micros());
            self.nodes[i] = Node { key, next: NIL };
            let b = &mut self.buckets[idx];
            if b.len == 0 {
                b.head = i as u32;
            } else {
                self.nodes[b.tail as usize].next = i as u32;
            }
            b.tail = i as u32;
            b.len += 1;
            fullest = fullest.max(b.len);
        }
        self.free = NIL;
        for i in (keys.len()..self.nodes.len()).rev() {
            self.nodes[i].next = self.free;
            self.free = i as u32;
        }
        self.scratch = keys;
        self.hot_bar = HOT_BUCKET.max(fullest * 2);
        self.seek(self.floor);
        #[cfg(debug_assertions)]
        self.check_links();
    }

    /// Panics unless the chains and the free chain partition the slab and
    /// every chain is what its bucket header says it is.
    #[cfg(any(test, debug_assertions))]
    fn check_links(&self) {
        let mut seen = vec![false; self.nodes.len()];
        let mut visit = |n: u32, chain: std::fmt::Arguments<'_>| {
            let cell = seen
                .get_mut(n as usize)
                .unwrap_or_else(|| panic!("{chain}: cell {n} is outside the slab"));
            assert!(!*cell, "{chain}: cell {n} is linked twice");
            *cell = true;
        };
        let mut queued = 0;
        for (idx, b) in self.buckets.iter().enumerate() {
            let (mut last, mut count) = (NIL, 0u32);
            for (n, node) in self.chain(b.head) {
                visit(n, format_args!("bucket {idx}"));
                let at = node.key.at.as_micros();
                assert_eq!(self.bucket_of(at), idx, "bucket {idx} holds {:?}", node.key);
                if last != NIL {
                    let before = self.nodes[last as usize].key;
                    assert!(
                        before <= node.key,
                        "bucket {idx}: {before:?} then {:?}",
                        node.key
                    );
                }
                (last, count) = (n, count + 1);
            }
            assert_eq!(b.tail, last, "bucket {idx}: tail is not the last cell");
            assert_eq!(b.len, count, "bucket {idx}: len is not the chain length");
            queued += count as usize;
        }
        assert_eq!(queued, self.len, "bucket lengths do not sum to len");
        for (n, _) in self.chain(self.free) {
            visit(n, format_args!("free chain"));
        }
        let linked = seen.iter().filter(|&&s| s).count();
        assert_eq!(linked, seen.len(), "slab cells on no chain");
    }
}

impl Scheduler for CalendarScheduler {
    fn push(&mut self, key: EventKey) {
        debug_assert!(
            key.at.as_micros() >= self.floor,
            "calendar push behind the clock"
        );
        // The most recently popped cell if there is one: still in cache.
        let cell = Node { key, next: NIL };
        let n = if self.free == NIL {
            assert!(
                self.nodes.len() < NIL as usize,
                "calendar slab outgrew u32 indices"
            );
            self.nodes.push(cell);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], cell).next;
            n
        };

        let idx = self.bucket_of(key.at.as_micros());
        let b = &mut self.buckets[idx];
        // Ascending order, maximum at the tail. A key at or past the
        // bucket's current maximum — monotone arrival, and every
        // same-timestamp burst since `seq` only grows — is O(1); anything
        // else walks from the head to the cell it belongs after.
        if b.len == 0 {
            b.head = n;
            b.tail = n;
        } else if self.nodes[b.tail as usize].key <= key {
            self.nodes[b.tail as usize].next = n;
            b.tail = n;
        } else if key < self.nodes[b.head as usize].key {
            self.nodes[n as usize].next = b.head;
            b.head = n;
        } else {
            let mut prev = b.head as usize;
            loop {
                let next = self.nodes[prev].next;
                if key < self.nodes[next as usize].key {
                    self.nodes[n as usize].next = next;
                    self.nodes[prev].next = n;
                    break;
                }
                prev = next as usize;
            }
        }
        b.len += 1;
        let hot = b.len > self.hot_bar;
        self.len += 1;

        if self.len > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        } else if hot {
            // A bucket holds over twice what the fullest one did when the
            // width was last learned (e.g. from a sparse warm-up, and the
            // queue has since densified): redistribute at the same size.
            // The bar is self-calibrating — a same-timestamp burst no
            // width can spread doubles it at each rebuild it forces, so
            // the trigger converges instead of thrashing.
            self.rebuild(self.buckets.len());
        }
    }

    fn pop_next_before(&mut self, bound: SimTime) -> Option<EventKey> {
        if self.len == 0 {
            return None;
        }
        // Walk windows in time order on scratch cursors; commit only when a
        // key is actually popped, so a bounded miss leaves the cursor (and
        // hence the not-behind-the-cursor push invariant) untouched.
        let width = 1u64 << self.shift;
        let mut cur = self.cur;
        let mut window_end = self.window_end;
        for _ in 0..self.buckets.len() {
            if let Some(key) = self.head_key(cur) {
                if key.at.as_micros() < window_end {
                    // First in-window key of the sweep = global minimum.
                    if key.at > bound {
                        return None;
                    }
                    self.cur = cur;
                    self.window_end = window_end;
                    return Some(self.take(cur));
                }
            }
            cur = (cur + 1) & self.mask;
            window_end = window_end.saturating_add(width);
        }

        // Sparse queue or a long event-free gap: find the minimum directly
        // and jump the calendar to it.
        let (idx, key) = (0..self.buckets.len())
            .filter_map(|i| self.head_key(i).map(|k| (i, k)))
            .min_by_key(|&(_, k)| k.order())
            .expect("len > 0 but all buckets empty");
        if key.at > bound {
            return None;
        }
        self.seek(key.at.as_micros());
        Some(self.take(idx))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        let target = (self.len + additional).next_power_of_two();
        if target > self.buckets.len() {
            self.rebuild(target);
        }
    }
}

impl CalendarScheduler {
    /// Pops the head (minimum) of bucket `idx`, maintaining counters.
    #[inline]
    fn take(&mut self, idx: usize) -> EventKey {
        let b = &mut self.buckets[idx];
        let n = b.head;
        let cell = &mut self.nodes[n as usize];
        let key = cell.key;
        b.head = cell.next;
        b.len -= 1;
        if b.len == 0 {
            b.tail = NIL;
        }
        cell.next = self.free;
        self.free = n;
        self.len -= 1;
        self.floor = key.at.as_micros();
        if self.len < self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        }
        key
    }
}

/// Enum-dispatched scheduler used by the kernel (avoids a virtual call per
/// push/pop on the hottest path in the workspace).
#[derive(Debug)]
pub(crate) enum SchedulerImpl {
    Heap(HeapScheduler),
    Calendar(CalendarScheduler),
}

impl SchedulerImpl {
    pub(crate) fn new(kind: SchedulerKind) -> SchedulerImpl {
        match kind {
            SchedulerKind::Heap => SchedulerImpl::Heap(HeapScheduler::new()),
            SchedulerKind::Calendar => SchedulerImpl::Calendar(CalendarScheduler::new()),
        }
    }

    pub(crate) fn kind(&self) -> SchedulerKind {
        match self {
            SchedulerImpl::Heap(_) => SchedulerKind::Heap,
            SchedulerImpl::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, key: EventKey) {
        match self {
            SchedulerImpl::Heap(s) => s.push(key),
            SchedulerImpl::Calendar(s) => s.push(key),
        }
    }

    #[inline]
    pub(crate) fn pop_next_before(&mut self, bound: SimTime) -> Option<EventKey> {
        match self {
            SchedulerImpl::Heap(s) => s.pop_next_before(bound),
            SchedulerImpl::Calendar(s) => s.pop_next_before(bound),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            SchedulerImpl::Heap(s) => s.len(),
            SchedulerImpl::Calendar(s) => s.len(),
        }
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        match self {
            SchedulerImpl::Heap(s) => s.reserve(additional),
            SchedulerImpl::Calendar(s) => s.reserve(additional),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(at_us: u64, seq: u64) -> EventKey {
        EventKey {
            at: SimTime::from_micros(at_us),
            seq,
            origin: 0,
            slot: seq as u32,
        }
    }

    fn drain(s: &mut impl Scheduler) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(k) = s.pop_next_before(SimTime::MAX) {
            out.push((k.at.as_micros(), k.seq));
        }
        out
    }

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut s = HeapScheduler::new();
        s.push(key(50, 2));
        s.push(key(10, 1));
        s.push(key(50, 0));
        assert_eq!(drain(&mut s), vec![(10, 1), (50, 0), (50, 2)]);
    }

    #[test]
    fn calendar_orders_by_time_then_seq() {
        let mut s = CalendarScheduler::new();
        s.push(key(50, 2));
        s.push(key(10, 1));
        s.push(key(50, 0));
        assert_eq!(drain(&mut s), vec![(10, 1), (50, 0), (50, 2)]);
    }

    #[test]
    fn a_duplicate_of_the_maximum_appends() {
        // `(origin, seq)` uniqueness is the kernel's promise, not this
        // type's: a repeated key must queue, not walk off its chain.
        let mut s = CalendarScheduler::new();
        for at in [10, 10, 50, 50] {
            s.push(key(at, 7));
            s.check_links();
        }
        assert_eq!(drain(&mut s), vec![(10, 7), (10, 7), (50, 7), (50, 7)]);
    }

    #[test]
    fn bounded_pop_leaves_future_events_queued() {
        for sched in [
            &mut SchedulerImpl::new(SchedulerKind::Heap),
            &mut SchedulerImpl::new(SchedulerKind::Calendar),
        ] {
            sched.push(key(1_000, 0));
            sched.push(key(9_000_000, 1));
            assert_eq!(
                sched.pop_next_before(SimTime::from_micros(5_000)),
                Some(key(1_000, 0))
            );
            assert_eq!(sched.pop_next_before(SimTime::from_micros(5_000)), None);
            assert_eq!(sched.len(), 1);
            assert_eq!(sched.pop_next_before(SimTime::MAX), Some(key(9_000_000, 1)));
        }
    }

    #[test]
    fn calendar_resizes_under_load_and_preserves_order() {
        let mut s = CalendarScheduler::new();
        // A big same-timestamp burst plus a long sparse tail: exercises
        // growth, the direct-search fallback, and shrink on drain.
        let mut expect = Vec::new();
        let mut seq = 0u64;
        for i in 0..500u64 {
            s.push(key(7_777, seq));
            expect.push((7_777, seq));
            seq += 1;
            s.push(key(i * 1_000_003, seq));
            expect.push((i * 1_000_003, seq));
            seq += 1;
        }
        assert!(s.bucket_count() > MIN_BUCKETS);
        let mut got = drain(&mut s);
        expect.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(s.bucket_count(), MIN_BUCKETS);
    }

    #[test]
    fn calendar_drains_in_global_order() {
        let mut s = CalendarScheduler::new();
        let times = [
            0u64,
            1,
            1,
            1_000_000,
            1_000_000,
            999,
            1_024,
            1_025,
            u64::from(u32::MAX),
            50,
        ];
        for (i, &t) in times.iter().enumerate() {
            s.push(key(t, i as u64));
        }
        let got = drain(&mut s);
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut s = CalendarScheduler::new();
        s.push(key(100, 0));
        s.push(key(200, 1));
        assert_eq!(s.pop_next_before(SimTime::MAX), Some(key(100, 0)));
        // Pushes at the popped time (zero-delay timers) must order after
        // nothing and before the later event.
        s.push(key(100, 2));
        s.push(key(150, 3));
        assert_eq!(s.pop_next_before(SimTime::MAX), Some(key(100, 2)));
        assert_eq!(s.pop_next_before(SimTime::MAX), Some(key(150, 3)));
        assert_eq!(s.pop_next_before(SimTime::MAX), Some(key(200, 1)));
        assert!(s.is_empty());
    }

    #[test]
    fn reserve_pre_grows_the_calendar() {
        let mut s = CalendarScheduler::new();
        s.reserve(10_000);
        assert!(s.bucket_count() >= 10_000 / 2);
        let before = s.bucket_count();
        for i in 0..5_000u64 {
            s.push(key(i * 17, i));
        }
        assert_eq!(s.bucket_count(), before, "no growth rebuild after reserve");
    }

    fn fullest_bucket(s: &CalendarScheduler) -> usize {
        s.buckets.iter().map(|b| b.len as usize).max().unwrap_or(0)
    }

    /// The world's shape: `tail` session-length timers 3 s apart under a
    /// dense sub-second band of `band` in-flight messages, churned.
    fn band_over_a_tail_keeps_buckets_small(tail: u64, band: usize) {
        let mut s = CalendarScheduler::new();
        let mut seq = 0u64;
        let mut push = |s: &mut CalendarScheduler, at_us: u64| {
            s.push(key(at_us, seq));
            seq += 1;
        };
        for i in 0..tail {
            push(&mut s, (i + 1) * 3_000_000);
        }
        s.reserve(2_400);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay_us = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            1_000 + rng % 499_000
        };
        for _ in 0..band {
            push(&mut s, delay_us());
        }
        for step in 0..200_000 {
            let now = s
                .pop_next_before(SimTime::MAX)
                .expect("standing band")
                .at
                .as_micros();
            let at = now + delay_us();
            push(&mut s, at);
            if step >= 20_000 {
                // Occupancy only grows where a push lands; the full scan
                // every so often covers what a rebuild redistributed.
                let held = if step % 1_024 == 0 {
                    fullest_bucket(&s)
                } else {
                    s.buckets[s.bucket_of(at)].len as usize
                };
                assert!(
                    held <= 64,
                    "step {step}: a bucket holds {held} keys at width {} us",
                    s.bucket_width_micros()
                );
            }
        }
        assert!(
            s.bucket_width_micros() <= 8_192,
            "width {} us",
            s.bucket_width_micros()
        );
    }

    #[test]
    fn far_future_tail_does_not_set_the_width() {
        band_over_a_tail_keeps_buckets_small(600, 5_000);
    }

    #[test]
    fn a_tail_that_is_most_of_the_queue_does_not_set_the_width() {
        // The unpopular Paper world: few viewers with little in flight
        // under a session plan injected out to the horizon. The median
        // key is in the tail, and is none of the band's business.
        band_over_a_tail_keeps_buckets_small(2_400, 1_500);
    }

    #[test]
    fn a_head_burst_does_not_collapse_the_width() {
        let mut s = CalendarScheduler::new();
        let mut expect = Vec::new();
        for i in 0..8_192u64 {
            let at = if i % 4 == 0 { 5_000 } else { 5_000 + i * 1_220 };
            s.push(key(at, i));
            expect.push((at, i));
        }
        s.rebuild(s.bucket_count());
        expect.sort_unstable();
        let to_median = expect[expect.len() / 2].0 - expect[0].0;
        assert!(
            s.bucket_count() as u64 * s.bucket_width_micros() >= to_median,
            "{} buckets of {} us do not reach the median key {} us ahead",
            s.bucket_count(),
            s.bucket_width_micros(),
            to_median
        );
        assert_eq!(drain(&mut s), expect);
    }

    /// One step of the chain-invariant workload.
    #[derive(Debug, Clone)]
    enum Op {
        /// `n` keys at `offset` µs past the last popped time, from
        /// origins counting down from `origin`: a same-instant burst whose
        /// later keys sort *before* the earlier ones.
        Push { offset: u64, origin: u32, n: u32 },
        /// Pop with a bound `margin` µs past the last popped time.
        PopBefore(u64),
        /// Pop unbounded, `n` times.
        Pop(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let push = |offsets: std::ops::Range<u64>, burst: std::ops::Range<u32>| {
            (offsets, 0u32..8, burst).prop_map(|(offset, origin, n)| Op::Push { offset, origin, n })
        };
        // Arms are equally likely: the narrow band appears three times so
        // queues deepen among keys that share buckets.
        prop_oneof![
            push(0..2_000, 1..4),
            push(0..2_000, 1..4),
            push(0..2_000, 1..4),
            push(1_000..500_000, 1..2),
            push(1_000..500_000, 1..2),
            push(20_000_000..300_000_000, 1..2),
            push(0..50_000, 30..90),
            (0u64..100_000).prop_map(Op::PopBefore),
            (1u32..40).prop_map(Op::Pop),
            (1u32..40).prop_map(Op::Pop),
        ]
    }

    proptest! {
        /// Every push and pop — tail append, head and mid-chain insert,
        /// grow, shrink and hot rebuild among them — leaves the chains and
        /// the free chain a partition of the slab, and pops what the heap
        /// pops.
        #[test]
        fn chains_stay_linked_and_ordered(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut cal = CalendarScheduler::new();
            let mut heap = HeapScheduler::new();
            let mut floor = 0u64;
            let mut seqs = [0u64; 8];
            for op in &ops {
                let (bound, pops) = match *op {
                    Op::Push { offset, origin, n } => {
                        for i in 0..n {
                            let origin = (origin + 8 - i % 8) % 8;
                            let seq = seqs[origin as usize];
                            seqs[origin as usize] += 1;
                            let k = EventKey {
                                at: SimTime::from_micros(floor + offset),
                                seq,
                                origin,
                                slot: seq as u32,
                            };
                            cal.push(k);
                            heap.push(k);
                            cal.check_links();
                        }
                        continue;
                    }
                    Op::PopBefore(margin) => (SimTime::from_micros(floor + margin), 1),
                    Op::Pop(n) => (SimTime::MAX, n),
                };
                for _ in 0..pops {
                    let got = cal.pop_next_before(bound);
                    cal.check_links();
                    prop_assert_eq!(got, heap.pop_next_before(bound));
                    prop_assert_eq!(cal.len(), heap.len());
                    if let Some(k) = got {
                        floor = k.at.as_micros();
                    }
                }
            }
            while let Some(k) = cal.pop_next_before(SimTime::MAX) {
                cal.check_links();
                prop_assert_eq!(Some(k), heap.pop_next_before(SimTime::MAX));
            }
            prop_assert!(heap.is_empty());
            prop_assert_eq!(cal.bucket_count(), MIN_BUCKETS);
        }
    }

    #[test]
    fn kind_labels_and_default() {
        assert_eq!(SchedulerKind::Heap.label(), "heap");
        assert_eq!(SchedulerKind::Calendar.label(), "calendar");
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
    }
}
