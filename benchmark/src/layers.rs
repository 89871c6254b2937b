//! Layer probes: one layer's public API called in isolation, at the size
//! the workload ran it, so a per-event or per-row cost can be set against
//! the session's own. Only the traced run pays for them.

use crate::spec::PER_LAYER;
use plsim_capture::TraceStore;
use plsim_des::{Actor, Context, FixedDelay, Medium, NodeId, SchedulerKind, SimTime, Simulation};
use plsim_net::{Isp, LinkModel, Topology, Underlay};
use plsim_proto::{PeerEntry, PeerList, PeerListArena};
use plsim_telemetry::MetricsRegistry;
use rand::{rngs::SmallRng, SeedableRng};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics of one traced run, by name.
#[derive(Debug, Default)]
pub struct Ledger(Vec<(&'static str, f64)>);

impl Ledger {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `spec::PER_LAYER` does not define — the ledger may
    /// only hold what `BENCHMARK.json` lists. A later value for a name
    /// replaces the earlier one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded for `name`; 0 for a layer the workload never
    /// entered.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Events the scheduler probe processes beyond draining its tokens.
const SCHED_EVENTS: u64 = 1_000_000;
const SCHED_ACTORS: u32 = 64;

/// A handler that does nothing but re-arm a timer, so the kernel's pop,
/// dispatch and push are all that is timed.
struct Rearm {
    remaining: u64,
}

impl Actor<u64> for Rearm {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, _from: Option<NodeId>, p: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let p = p.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ctx.schedule(SimTime::from_micros(1 + (p >> 33) % 5_000), p);
        }
    }
}

/// Kernel cost per event with no-op actors and `depth` events resident —
/// the calendar scheduler at the workload's own peak queue depth.
pub fn des_sched_ns_per_event(depth: u64) -> f64 {
    let mut sim: Simulation<u64> = Simulation::with_scheduler(
        1,
        FixedDelay(SimTime::from_micros(10)),
        MetricsRegistry::new(),
        SchedulerKind::Calendar,
    );
    let ids: Vec<NodeId> = (0..SCHED_ACTORS)
        .map(|_| {
            sim.add_actor(Box::new(Rearm {
                remaining: SCHED_EVENTS / u64::from(SCHED_ACTORS),
            }))
        })
        .collect();
    let depth = depth.max(1);
    sim.reserve_events(depth as usize + 16);
    for t in 0..depth {
        sim.inject(
            SimTime::from_micros(t % 5_000),
            ids[(t % u64::from(SCHED_ACTORS)) as usize],
            None,
            t,
            0,
        );
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::MAX);
    start.elapsed().as_secs_f64() * 1e9 / stats.events_processed as f64
}

const TRANSIT_MSGS: u32 = 300_000;

/// `Underlay::transit` cost per message over the workload's own topology:
/// a third same-ISP, a third TELE→CNC (the queued interconnect), a third
/// towards a foreign host.
pub fn net_transit_ns_per_msg(topology: &Arc<Topology>) -> f64 {
    let hosts_in = |isp: Isp| -> Vec<NodeId> {
        topology
            .iter()
            .filter(|(_, h)| h.isp == isp)
            .map(|(id, _)| id)
            .collect()
    };
    let (tele, cnc, foreign) = (
        hosts_in(Isp::Tele),
        hosts_in(Isp::Cnc),
        hosts_in(Isp::Foreign),
    );
    // Every world has TELE hosts (bootstrap, source, trackers); a tiny one
    // may lack the others, and then TELE stands in.
    let or_tele = |hosts: Vec<NodeId>| {
        if hosts.is_empty() {
            tele.clone()
        } else {
            hosts
        }
    };
    let (cnc, foreign) = (or_tele(cnc), or_tele(foreign));
    let pick = |hosts: &[NodeId], i: u32| hosts[i as usize % hosts.len()];

    let mut underlay = Underlay::new(Arc::clone(topology), LinkModel::default());
    let mut rng = SmallRng::seed_from_u64(1);
    let start = Instant::now();
    for i in 0..TRANSIT_MSGS {
        let from = pick(&tele, i);
        let to = match i % 3 {
            0 => pick(&tele, i / 3 + 1),
            1 => pick(&cnc, i / 3),
            _ => pick(&foreign, i / 3),
        };
        // A data sub-piece on the wire every 50 µs of simulated time.
        let now = SimTime::from_micros(u64::from(i) * 50);
        black_box(Medium::<()>::transit(
            &mut underlay,
            from,
            to,
            black_box(1426),
            now,
            &mut rng,
        ));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(TRANSIT_MSGS)
}

const PEERLIST_MSGS: u32 = 200_000;

/// Cost of carrying one full 60-entry peer list in a message: intern it,
/// clone the handle for the wire, drop both.
pub fn proto_peerlist_ns_per_msg() -> f64 {
    let entries: Vec<PeerEntry> = (0..PeerList::MAX_LEN as u32)
        .map(|i| PeerEntry::new(NodeId(i), Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1)))
        .collect();
    let arena = PeerListArena::new();
    let start = Instant::now();
    for _ in 0..PEERLIST_MSGS {
        let list = arena.intern(black_box(&entries).iter().copied());
        let wire = list.clone();
        black_box(&wire);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(PEERLIST_MSGS)
}

/// Re-ingests every row of `records` into a fresh store under `budget`;
/// returns the store and the seconds the ingest took.
pub fn ingest(records: &TraceStore, budget: Option<u64>) -> (TraceStore, f64) {
    let mut store = TraceStore::with_budget(budget);
    let start = Instant::now();
    for row in records.rows() {
        store.push_ref(row);
    }
    (store, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_defaults_to_zero_and_replaces() {
        let mut l = Ledger::default();
        assert_eq!(l.get("des.events"), 0.0);
        l.set("des.events", 5.0);
        l.set("des.events", 7.0);
        assert_eq!(l.get("des.events"), 7.0);
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn ledger_rejects_undefined_names() {
        Ledger::default().set("des.typo", 1.0);
    }

    #[test]
    fn sched_probe_processes_its_budget_at_any_depth() {
        for depth in [0, 1, 5_000] {
            let ns = des_sched_ns_per_event(depth);
            assert!(ns.is_finite() && ns > 0.0, "depth {depth}: {ns}");
        }
    }

    #[test]
    fn peerlist_probe_is_positive() {
        assert!(proto_peerlist_ns_per_msg() > 0.0);
    }
}
