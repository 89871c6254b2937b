//! A peer's view of its neighbours: per-neighbour connection state
//! ([`Neighbor`]: response-time EWMA, cached scheduling weight, stream
//! edge hint, outstanding requests, cooldown) and the table that keeps
//! them in the three orders the protocol walks ([`NeighborTable`]).
//!
//! Nothing here looks at ISP or topology information: a neighbour is
//! known only by what its replies, rejects and silences reveal.

use crate::det::DetHashMap;
use plsim_des::{NodeId, SimTime};
use plsim_proto::PeerEntry;

const MICROS: i64 = 1_000_000;

/// `Neighbor::hold_lag` before any observation: every chunk is plausible.
const NO_HINT: i64 = i64::MIN;

/// How far `t` runs ahead of chunk `chunk`'s nominal time (one chunk per
/// second of stream, chunk `c` at second `c`), in microseconds.
pub(crate) fn lag(chunk: u64, t: SimTime) -> i64 {
    t.as_micros() as i64 - chunk as i64 * MICROS
}

/// Per-neighbor connection state.
#[derive(Debug, Clone)]
pub(crate) struct Neighbor {
    pub(crate) entry: PeerEntry,
    connected_at: SimTime,
    /// EWMA of observed response times (gossip + data), in seconds.
    pub(crate) ewma_resp: Option<f64>,
    successes: u64,
    pub(crate) failures: u64,
    pub(crate) consecutive_failures: u32,
    pub(crate) outstanding: u32,
    /// No data requests to this neighbor until this time (after a reject).
    pub(crate) cooldown_until: SimTime,
    /// Last known stream edge of this neighbor — the newest chunk `edge` it
    /// was observed to hold (from replies) or just not hold (from rejects)
    /// at time `at` — stored as its lag `lag(edge, at)`, or `NO_HINT`.
    /// Since the stream is live, the edge advances one chunk per second, so
    /// the neighbor plausibly holds chunk `c` at `now` while
    /// `edge + (now − at).as_secs() >= c`, which for `at ≤ now` is the
    /// single compare `hold_lag <= lag(c, now)`. This plays the role of
    /// PPLive's buffer-map exchange.
    hold_lag: i64,
    /// The owning peer's `latency_bias`, kept here so the `observe_*`
    /// writers can refresh `weight` without a detour through the config.
    latency_bias: f64,
    /// `fresh_weight()` as of the last `observe_*` call. Those three are
    /// the only writers of its inputs, so the scheduler reads this field
    /// instead of paying a `powf` per eligible neighbor per request.
    pub(crate) weight: f64,
}

impl Neighbor {
    pub(crate) fn new(entry: PeerEntry, now: SimTime, latency_bias: f64) -> Self {
        let mut n = Neighbor {
            entry,
            connected_at: now,
            ewma_resp: None,
            successes: 0,
            failures: 0,
            consecutive_failures: 0,
            outstanding: 0,
            cooldown_until: SimTime::ZERO,
            hold_lag: NO_HINT,
            latency_bias,
            weight: 0.0,
        };
        n.weight = n.fresh_weight();
        n
    }

    /// Whether the neighbor plausibly holds the chunk whose lag at the
    /// current time is `chunk_lag` (see [`lag`]).
    pub(crate) fn may_hold(&self, chunk_lag: i64) -> bool {
        self.hold_lag <= chunk_lag
    }

    /// Records that the neighbor held `chunk` at `now`. Keeps whichever
    /// observation projects the larger live edge (`chunk − t` in whole
    /// seconds tracks the neighbor's lag, roughly constant for a live
    /// stream; for the kept observation it is `−⌊hold_lag / 1 s⌋`).
    pub(crate) fn observe_has(&mut self, chunk: u64, now: SimTime) {
        let projected_new = chunk as i64 - now.as_secs() as i64;
        if self.hold_lag == NO_HINT || projected_new >= -self.hold_lag.div_euclid(MICROS) {
            self.hold_lag = lag(chunk, now);
        }
    }

    /// Records that the neighbor lacked `chunk` at `now`.
    pub(crate) fn observe_lacks(&mut self, chunk: u64, now: SimTime) {
        self.hold_lag = lag(chunk.saturating_sub(1), now);
    }

    pub(crate) fn observe_response(&mut self, sample_secs: f64) {
        self.ewma_resp = Some(match self.ewma_resp {
            Some(prev) => 0.7 * prev + 0.3 * sample_secs,
            None => sample_secs,
        });
        self.successes += 1;
        self.consecutive_failures = 0;
        self.weight = self.fresh_weight();
    }

    pub(crate) fn observe_failure(&mut self) {
        self.failures += 1;
        self.consecutive_failures += 1;
        self.weight = self.fresh_weight();
    }

    /// Folds a congestion signal (busy-reject, timeout) into the response
    /// EWMA as if a reply had taken `penalty_secs`: the neighbor's weight
    /// drops smoothly and the load spreads, instead of the whole mesh
    /// herding onto the currently-fastest uploader.
    pub(crate) fn observe_penalty(&mut self, penalty_secs: f64) {
        self.ewma_resp = Some(match self.ewma_resp {
            Some(prev) => 0.7 * prev + 0.3 * penalty_secs,
            None => penalty_secs,
        });
        self.weight = self.fresh_weight();
    }

    /// Scheduling weight: inverse expected response time with a
    /// configurable latency-bias exponent. Failures are handled by edge
    /// hints, cooldowns and eviction rather than the weight itself —
    /// folding them in creates a rich-get-richer feedback that makes
    /// outcomes depend on early luck instead of actual latency.
    pub(crate) fn fresh_weight(&self) -> f64 {
        let resp = self.ewma_resp.unwrap_or(0.8).max(0.05);
        let reliability = (self.successes + 1) as f64 / (self.successes + self.failures + 2) as f64;
        reliability * resp.powf(-self.latency_bias)
    }
}

/// The neighbor table: a slot map keyed by [`NodeId`] that keeps itself
/// sorted in the two orders the hot paths need, so no per-message or
/// per-tick collect-and-sort remains.
///
/// * `by_node` is the authoritative map. It sees exactly the same
///   insert/remove/clear sequence the old `DetHashMap<NodeId, Neighbor>`
///   did, so its iteration order — which the maintenance sweep and
///   departure Goodbyes depend on — is bit-identical to the old table's.
/// * `epoch` holds slot indices in (connected_at desc, NodeId asc) order:
///   the referral order `my_peer_list` serves. Simulation time is
///   monotone, so a newcomer belongs in the equal-time prefix and
///   insertion is a short front walk instead of a full sort per message.
/// * `by_id` holds slot indices in NodeId-ascending order: the
///   deterministic base order RNG-driven selection (data scheduling,
///   gossip fanout) shuffles from.
#[derive(Debug, Default)]
pub(crate) struct NeighborTable {
    by_node: DetHashMap<NodeId, u32>,
    slots: Vec<Neighbor>,
    free: Vec<u32>,
    epoch: Vec<u32>,
    by_id: Vec<u32>,
}

impl NeighborTable {
    pub(crate) fn len(&self) -> usize {
        self.by_node.len()
    }

    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.by_node.contains_key(&node)
    }

    pub(crate) fn get_mut(&mut self, node: NodeId) -> Option<&mut Neighbor> {
        let slot = *self.by_node.get(&node)?;
        Some(&mut self.slots[slot as usize])
    }

    /// Inserts a new neighbor unless the node is already present (the
    /// old table's `entry().or_insert_with` semantics).
    pub(crate) fn insert_new(&mut self, entry: PeerEntry, now: SimTime, latency_bias: f64) {
        if self.by_node.contains_key(&entry.node) {
            return;
        }
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Neighbor::new(entry, now, latency_bias);
                i
            }
            None => {
                self.slots.push(Neighbor::new(entry, now, latency_bias));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_node.insert(entry.node, slot);
        // Monotone time: every entry as recent as `now` forms a prefix of
        // `epoch`; place the newcomer within it by ascending NodeId.
        let mut pos = 0;
        while pos < self.epoch.len() {
            let n = &self.slots[self.epoch[pos] as usize];
            debug_assert!(n.connected_at <= now, "sim time must be monotone");
            if n.connected_at == now && n.entry.node < entry.node {
                pos += 1;
            } else {
                break;
            }
        }
        self.epoch.insert(pos, slot);
        let idpos = self
            .by_id
            .partition_point(|&s| self.slots[s as usize].entry.node < entry.node);
        self.by_id.insert(idpos, slot);
    }

    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let Some(slot) = self.by_node.remove(&node) else {
            return false;
        };
        let pos = self
            .epoch
            .iter()
            .position(|&s| s == slot)
            .expect("epoch order in sync");
        self.epoch.remove(pos);
        let idpos = self
            .by_id
            .iter()
            .position(|&s| s == slot)
            .expect("id order in sync");
        self.by_id.remove(idpos);
        self.free.push(slot);
        true
    }

    pub(crate) fn clear(&mut self) {
        self.by_node.clear();
        self.free.append(&mut self.epoch);
        self.by_id.clear();
    }

    /// Map-order walk — the order the old `DetHashMap<NodeId, Neighbor>`
    /// iterated in; anything whose side effects depend on walk order
    /// (maintenance eviction, departure Goodbyes) must use this.
    pub(crate) fn iter_by_node(&self) -> impl Iterator<Item = (NodeId, &Neighbor)> + '_ {
        self.by_node
            .iter()
            .map(|(&id, &s)| (id, &self.slots[s as usize]))
    }

    /// (connected_at desc, NodeId asc) walk — the referral order.
    pub(crate) fn iter_epoch(&self) -> impl Iterator<Item = &Neighbor> + '_ {
        self.epoch.iter().map(|&s| &self.slots[s as usize])
    }

    /// NodeId-ascending walk — the base order for RNG-driven selection.
    pub(crate) fn iter_by_id(&self) -> impl Iterator<Item = (NodeId, &Neighbor)> + '_ {
        self.by_id.iter().map(|&s| {
            let n = &self.slots[s as usize];
            (n.entry.node, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn entry(n: u32) -> PeerEntry {
        PeerEntry::new(NodeId(n), Ipv4Addr::new(10, 0, 0, n as u8))
    }

    /// The edge hint as it was kept before `hold_lag`: the observed
    /// `(edge, at)` pair, replaced by `observe_has` only when the new
    /// observation projects an edge at least as large.
    #[derive(Default)]
    struct EdgeHint(Option<(u64, SimTime)>);

    impl EdgeHint {
        fn may_hold(&self, chunk: u64, now: SimTime) -> bool {
            match self.0 {
                None => true,
                Some((edge, at)) => edge + now.saturating_sub(at).as_secs() >= chunk,
            }
        }
        fn observe_has(&mut self, chunk: u64, now: SimTime) {
            let projected_new = chunk as i128 - now.as_secs() as i128;
            let projected_old = self.0.map(|(e, a)| e as i128 - a.as_secs() as i128);
            if projected_old.is_none_or(|po| projected_new >= po) {
                self.0 = Some((chunk, now));
            }
        }
        fn observe_lacks(&mut self, chunk: u64, now: SimTime) {
            self.0 = Some((chunk.saturating_sub(1), now));
        }
    }

    proptest! {
        /// The one-compare `may_hold` answers exactly what the
        /// `edge + (now − at).as_secs() >= c` form answers, through any
        /// sequence of observations, for every chunk from well below the
        /// edge to well above it and for every `now ≥ at`: equal instants,
        /// sub-second gaps and gaps landing on whole seconds.
        #[test]
        fn integer_may_hold_equals_the_whole_seconds_form(
            steps in proptest::collection::vec(
                (any::<bool>(), 0u64..40, 0u64..3_000_000, 0u64..4_000_000),
                1..24,
            ),
        ) {
            let mut n = Neighbor::new(entry(1), SimTime::ZERO, 1.5);
            let mut hint = EdgeHint::default();
            let mut at = 0u64;
            for (has, behind, step, probe) in steps {
                at += step;
                let t = SimTime::from_micros(at);
                // Observed chunks trail the clock by up to 37 s, as a
                // neighbour's buffer does, or run up to 3 s ahead of it.
                let chunk = (at / 1_000_000 + 3).saturating_sub(behind);
                if has {
                    n.observe_has(chunk, t);
                    hint.observe_has(chunk, t);
                } else {
                    n.observe_lacks(chunk, t);
                    hint.observe_lacks(chunk, t);
                }
                for now in [at, at + probe, at + probe / 1_000_000 * 1_000_000] {
                    let now = SimTime::from_micros(now);
                    for c in chunk.saturating_sub(3)..chunk + 8 {
                        prop_assert_eq!(
                            n.may_hold(lag(c, now)),
                            hint.may_hold(c, now),
                            "chunk {} at {:?} after observing {} at {:?}", c, now, chunk, t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn early_exit_premise_and_cached_weight_hold() {
        // `schedule_requests` stops at the first chunk nobody is eligible
        // for, which is sound only while `may_hold` is monotone decreasing
        // in the chunk index at a fixed `now`.
        let at = SimTime::from_secs(100);
        let mut hinted = Neighbor::new(entry(1), at, 1.5);
        hinted.observe_has(90, at);
        let mut lacking = Neighbor::new(entry(2), at, 1.5);
        lacking.observe_lacks(95, at);
        let unhinted = Neighbor::new(entry(3), at, 1.5);
        for n in [&hinted, &lacking, &unhinted] {
            for now in [
                at,
                at + SimTime::from_millis(2500),
                at + SimTime::from_secs(9),
            ] {
                for c in 80..120 {
                    assert!(
                        !n.may_hold(lag(c + 1, now)) || n.may_hold(lag(c, now)),
                        "chunk {c}"
                    );
                }
            }
        }
        assert!(hinted.may_hold(lag(90, at)) && !hinted.may_hold(lag(91, at)));

        // The weight handed to the weighted draw is the cached field; each
        // of the three writers of its inputs must refresh it.
        let mut n = unhinted;
        assert_eq!(n.weight.to_bits(), n.fresh_weight().to_bits());
        n.observe_response(0.31);
        assert_eq!(n.weight.to_bits(), n.fresh_weight().to_bits());
        let after_response = n.weight;
        n.observe_failure();
        assert_eq!(n.weight.to_bits(), n.fresh_weight().to_bits());
        assert!(n.weight < after_response);
        let after_failure = n.weight;
        n.observe_penalty(4.0);
        assert_eq!(n.weight.to_bits(), n.fresh_weight().to_bits());
        assert!(n.weight < after_failure);
    }
}
