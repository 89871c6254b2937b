//! A peer's data-plane bookkeeping: which sub-pieces of which chunks it
//! holds or has asked for ([`ChunkBook`]), and the data and gossip
//! requests it is waiting on ([`PendingRequests`], [`PendingGossip`]).
//!
//! Every structure here is indexed by a number the protocol hands out in
//! order (chunk index, request sequence number), so each access is an
//! index into a ring, never a hash or a tree walk.

use crate::config::FULL_MASK;
use plsim_des::{NodeId, SimTime};
use std::collections::VecDeque;

/// The `(have, inflight)` sub-piece masks of a run of consecutive chunk
/// indices — `masks[i]` belongs to chunk `base + i`, and a chunk outside
/// the run reads as `(0, 0)` — plus the *claimed frontier* the request
/// scheduler starts from.
///
/// A live viewer only ever touches the few dozen chunks between its serve
/// window and the live edge, so every access is an index, not a tree walk.
/// Writes grow the run at either end with zero fill: a late reply may land
/// below `base` after a trim, and it must still be stored.
///
/// A chunk is *claimed* when each of its sub-pieces is held or in flight,
/// i.e. it has nothing left to request. The book keeps one invariant:
/// **every chunk in `floor..frontier` is claimed**, where `floor` is the
/// scheduler base last passed to [`scan_from`](Self::scan_from). It is the
/// only writer of both ends:
///
/// * [`mark_claimed`](Self::mark_claimed) — the scheduler left a chunk with
///   nothing to request — raises the frontier past it if it sat there;
/// * a lost claim — [`release`](Self::release) (expiry, reject) or a
///   [`deliver`](Self::deliver) that brings less than was asked for —
///   lowers the frontier to that chunk;
/// * [`clear`](Self::clear) and a [`trim_below`](Self::trim_below) past
///   the floor shrink the claim to nothing below what survives;
/// * a reply that delivers exactly its mask moves bits from `inflight` to
///   `have` and leaves the claim alone.
///
/// The scheduler may therefore start at `scan_from(base)` instead of
/// `base`: every chunk it skips has no sub-piece to request.
#[derive(Debug, Default)]
pub(crate) struct ChunkBook {
    base: u64,
    masks: VecDeque<(u64, u64)>,
    floor: u64,
    frontier: u64,
}

impl ChunkBook {
    /// Position of `chunk` in `masks`, if it is at or above `base`.
    fn index(&self, chunk: u64) -> Option<usize> {
        usize::try_from(chunk.checked_sub(self.base)?).ok()
    }

    /// `(have, inflight)` of `chunk`.
    pub(crate) fn get(&self, chunk: u64) -> (u64, u64) {
        self.index(chunk)
            .and_then(|i| self.masks.get(i))
            .copied()
            .unwrap_or((0, 0))
    }

    /// Whether every sub-piece of `chunk` is held.
    pub(crate) fn is_full(&self, chunk: u64) -> bool {
        self.get(chunk).0 == FULL_MASK
    }

    /// The sub-pieces of `chunk` neither held nor in flight.
    pub(crate) fn need(&self, chunk: u64) -> u64 {
        let (have, inflight) = self.get(chunk);
        FULL_MASK & !(have | inflight)
    }

    /// The masks of `chunk`, growing the run to reach it.
    fn slot(&mut self, chunk: u64) -> &mut (u64, u64) {
        if self.masks.is_empty() {
            self.base = chunk;
        }
        while chunk < self.base {
            self.masks.push_front((0, 0));
            self.base -= 1;
        }
        let i = (chunk - self.base) as usize;
        if i >= self.masks.len() {
            self.masks.resize(i + 1, (0, 0));
        }
        &mut self.masks[i]
    }

    /// Records `mask` of `chunk` as held (the source producing a chunk).
    pub(crate) fn hold(&mut self, chunk: u64, mask: u64) {
        self.slot(chunk).0 |= mask;
    }

    /// Records `mask` of `chunk` as requested.
    pub(crate) fn claim(&mut self, chunk: u64, mask: u64) {
        self.slot(chunk).1 |= mask;
    }

    /// Clears `mask` of `chunk` from `inflight` where the chunk is inside
    /// the run (never grows it).
    fn clear_inflight(&mut self, chunk: u64, mask: u64) {
        if let Some(m) = self.index(chunk).and_then(|i| self.masks.get_mut(i)) {
            m.1 &= !mask;
        }
    }

    /// Lowers the frontier to `chunk` if the claim covered it.
    fn lose_claim(&mut self, chunk: u64) {
        if (self.floor..self.frontier).contains(&chunk) {
            self.frontier = chunk;
        }
    }

    /// A request for `mask` of `chunk` ended without data (expiry, reject).
    pub(crate) fn release(&mut self, chunk: u64, mask: u64) {
        self.clear_inflight(chunk, mask);
        self.lose_claim(chunk);
    }

    /// A request for `asked` of `chunk` was answered with `got`.
    pub(crate) fn deliver(&mut self, chunk: u64, asked: u64, got: u64) {
        self.clear_inflight(chunk, asked);
        self.slot(chunk).0 |= got;
        if asked & !got != 0 {
            self.lose_claim(chunk);
        }
    }

    /// Forgets every chunk below `cut`.
    pub(crate) fn trim_below(&mut self, cut: u64) {
        let n = cut.saturating_sub(self.base).min(self.masks.len() as u64);
        self.masks.drain(..n as usize);
        self.base += n;
        self.floor = self.floor.max(cut);
        self.frontier = self.frontier.max(self.floor);
    }

    /// Forgets every chunk.
    pub(crate) fn clear(&mut self) {
        self.masks.clear();
        self.frontier = self.floor;
    }

    /// The first chunk at or after `from` that is fully held.
    pub(crate) fn first_full_from(&self, from: u64) -> Option<u64> {
        let skip = from.saturating_sub(self.base).min(self.masks.len() as u64);
        self.masks
            .iter()
            .skip(skip as usize)
            .position(|&(have, _)| have == FULL_MASK)
            .map(|i| self.base + skip + i as u64)
    }

    /// Moves the claim's floor to the scheduler's `base` and returns where
    /// the scan may start: the frontier, or `base` if the claim does not
    /// reach it. Every chunk from `base` up to the returned index is
    /// claimed.
    pub(crate) fn scan_from(&mut self, base: u64) -> u64 {
        if base < self.floor || base > self.frontier {
            self.frontier = base;
        }
        self.floor = base;
        self.frontier
    }

    /// The scheduler leaves `chunk` with nothing to request: if it sits at
    /// the frontier, the frontier moves past it.
    pub(crate) fn mark_claimed(&mut self, chunk: u64) {
        debug_assert_eq!(self.need(chunk), 0, "chunk {chunk} is not claimed");
        if chunk == self.frontier {
            self.frontier += 1;
        }
    }

    /// Panics unless every chunk in `from..to` is claimed.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_claimed(&self, from: u64, to: u64) {
        for c in from..to {
            assert_eq!(
                self.need(c),
                0,
                "chunk {c} below the scan start {to} has sub-pieces to request"
            );
        }
    }
}

/// A data request in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingData {
    pub(crate) to: NodeId,
    pub(crate) chunk: u64,
    pub(crate) mask: u64,
    pub(crate) sent: SimTime,
}

/// The data requests in flight, indexed by sequence number: sequence
/// numbers are handed out consecutively and `sent` never decreases, so the
/// requests form a ring in which `slots[i]` is request `front_seq + i`,
/// answering one is an index (`take`) and the requests past the timeout are
/// always a prefix (`pop_expired`) — no hashing, and expiry visits only
/// what expired. An answered request leaves a `None` behind until the
/// front catches up with it.
#[derive(Debug, Default)]
pub(crate) struct PendingRequests {
    front_seq: u64,
    slots: VecDeque<Option<PendingData>>,
    live: usize,
}

impl PendingRequests {
    /// Requests still awaiting a reply, reject or timeout.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The sequence number the next `push` will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.front_seq + self.slots.len() as u64
    }

    pub(crate) fn push(&mut self, p: PendingData) {
        debug_assert!(
            self.slots
                .iter()
                .rev()
                .flatten()
                .next()
                .is_none_or(|q| q.sent <= p.sent),
            "sim time must be monotone"
        );
        self.slots.push_back(Some(p));
        self.live += 1;
    }

    /// Position of request `seq` in `slots`, if it is not behind the front.
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.front_seq)?).ok()
    }

    pub(crate) fn get(&self, seq: u64) -> Option<&PendingData> {
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    pub(crate) fn take(&mut self, seq: u64) -> Option<PendingData> {
        let i = self.index(seq)?;
        let p = self.slots.get_mut(i)?.take()?;
        self.live -= 1;
        Some(p)
    }

    /// Removes and returns the oldest request if it was sent more than
    /// `timeout` before `now`, dropping answered slots on the way.
    pub(crate) fn pop_expired(&mut self, now: SimTime, timeout: SimTime) -> Option<PendingData> {
        loop {
            match self.slots.front()? {
                Some(p) if now.saturating_sub(p.sent) <= timeout => return None,
                _ => {}
            }
            self.front_seq += 1;
            if let Some(p) = self.slots.pop_front().flatten() {
                self.live -= 1;
                return Some(p);
            }
        }
    }

    /// Forgets every request; sequence numbers keep counting, so a reply
    /// to a forgotten request matches nothing.
    pub(crate) fn clear(&mut self) {
        self.front_seq = self.next_seq();
        self.slots.clear();
        self.live = 0;
    }
}

/// A gossip request in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingGossip {
    pub(crate) to: NodeId,
    pub(crate) sent: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CHUNK_SUBPIECES;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// A 3-bit mask blown up to the chunk's sub-pieces, each bit standing
    /// for a third of them, so that random masks fill a chunk often.
    fn spread(bits: u64) -> u64 {
        let third = FULL_MASK >> (2 * CHUNK_SUBPIECES / 3);
        (0..3)
            .filter(|i| bits >> i & 1 == 1)
            .fold(0, |m, i| m | third << (i * CHUNK_SUBPIECES / 3))
    }

    /// What the book must read like: a sparse `(have, inflight)` map.
    #[derive(Default)]
    struct Oracle(BTreeMap<u64, (u64, u64)>);

    impl Oracle {
        fn get(&self, c: u64) -> (u64, u64) {
            self.0.get(&c).copied().unwrap_or((0, 0))
        }
        fn need(&self, c: u64) -> u64 {
            let (have, inflight) = self.get(c);
            FULL_MASK & !(have | inflight)
        }
        fn first_needy(&self, from: u64) -> u64 {
            (from..)
                .find(|&c| self.need(c) != 0)
                .expect("chunks past the map are needy")
        }
    }

    proptest! {
        /// `ChunkBook` against a sparse `BTreeMap<u64, (u64, u64)>` oracle
        /// under scheduler-shaped sequences: claim, hold, release, exact or
        /// short deliveries, trims, base moves (mostly forward), clears and
        /// scans that claim a random share of what each chunk needs. Masks
        /// are `spread` from `0..8`, so claimed chunks actually occur; keys
        /// straddle the run on both sides, so trims are
        /// followed by writes below `base` and writes across gaps.
        ///
        /// After every step, every chunk from the base to the scan start
        /// must be claimed, and the scan start must never pass the oracle's
        /// first chunk with something left to request.
        #[test]
        fn chunk_book_reads_like_a_sparse_map_and_never_skips_a_needy_chunk(
            ops in proptest::collection::vec((0u32..9, 0u64..48, 0u64..8, 0u64..8), 1..160),
        ) {
            let mut book = ChunkBook::default();
            let mut model = Oracle::default();
            let mut base = 1010;
            for (op, key, a, b) in ops {
                let key = 1000 + key;
                let (ma, mb) = (spread(a), spread(b));
                match op {
                    0 => {
                        book.claim(key, ma);
                        model.0.entry(key).or_default().1 |= ma;
                    }
                    1 => {
                        book.hold(key, ma);
                        model.0.entry(key).or_default().0 |= ma;
                    }
                    2 => {
                        book.release(key, ma);
                        if let Some(m) = model.0.get_mut(&key) {
                            m.1 &= !ma;
                        }
                    }
                    3 => {
                        // `b` odd: exact delivery; even: a short one.
                        let got = if b % 2 == 1 { ma } else { ma & mb };
                        book.deliver(key, ma, got);
                        if let Some(m) = model.0.get_mut(&key) {
                            m.1 &= !ma;
                        }
                        model.0.entry(key).or_default().0 |= got;
                    }
                    4 => {
                        // Mostly the peer's shape (cut at or below the
                        // base), sometimes past it.
                        let cut = if a == 0 { key } else { key.min(base) };
                        book.trim_below(cut);
                        model.0 = model.0.split_off(&cut);
                    }
                    5 => base = if a == 0 { key } else { base + b },
                    6 if a == 0 => {
                        book.clear();
                        model.0.clear();
                    }
                    // Marking a claimed chunk away from the frontier must
                    // not move it.
                    6 if model.need(key) == 0 => book.mark_claimed(key),
                    _ => {
                        // One scheduler pass: claim some of each chunk's
                        // need; a chunk left with nothing to request is
                        // marked, a partial one ends the pass.
                        let start = book.scan_from(base);
                        for c in start..start + key % 8 {
                            let need = model.need(c);
                            let take = if b == 0 { need & ma } else { need };
                            book.claim(c, take);
                            model.0.entry(c).or_default().1 |= take;
                            if need & !take != 0 {
                                break;
                            }
                            book.mark_claimed(c);
                        }
                    }
                }
                // Every start below, inside and past the run.
                for c in 990..1080 {
                    prop_assert_eq!(book.get(c), model.get(c), "chunk {}", c);
                    let first = model.0.range(c..).find(|(_, m)| m.0 == FULL_MASK).map(|(&k, _)| k);
                    prop_assert_eq!(book.first_full_from(c), first, "from {}", c);
                }
                prop_assert_eq!(book.get(0), (0, 0));
                prop_assert_eq!(book.get(u64::MAX), (0, 0));
                prop_assert_eq!(book.first_full_from(u64::MAX), None);
                let start = book.scan_from(base);
                prop_assert!(start >= base);
                prop_assert!(start <= model.first_needy(base), "scan start {} passed a needy chunk", start);
                book.check_claimed(base, start);
            }
        }
    }
}
