//! Sharded deterministic worlds: one simulation, many cores.
//!
//! Space-partitions a world into shards of **whole ISPs** — the paper's
//! unit of locality — each owning its own scheduler, event pool and actor
//! slice, and drives them in barrier rounds of conservative lookahead. A
//! request for more shards than the world has populated ISPs is clamped
//! to that count. The lookahead bound is physical: the underlay's smallest
//! possible one-way delay between hosts on different shards (sender edge +
//! inter-ISP core + receiver edge — jitter, queueing and fault factors
//! only ever *add* to it), so no event created inside a window can be due
//! before the destination's next window starts, and routing the
//! cross-shard traffic at the window barrier is always early enough.
//!
//! Every shard advances on the **same fixed-stride window**: round `r`
//! runs each shard up to `r × lookahead`, and the round that reaches the
//! horizon is the final, horizon-inclusive slice. Partitioning is
//! **event-rate balanced** by one greedy packer ([`partition`]) over the
//! per-ISP sums of the per-host expected-event rates `WorldLayout` derives
//! from the session plan. DESIGN.md §5 has the measurements that ruled out
//! per-shard-pair windows on this all-to-all underlay and retired
//! sub-ISP shards.
//!
//! Determinism is the point, not a best effort: every event carries the
//! scheduling identity `(time, origin, seq)` its *sender* assigned, each
//! actor draws from its own seed-derived random stream, and harness
//! injections keep their single-build sequence numbers (see
//! [`crate::world::WorldLayout`]). The events popped by the union of all
//! shards are therefore exactly the single-shard pop sequence, restricted
//! to each shard — which makes every output (stats, metrics, capture
//! bytes) bit-identical to the `shards = 1` run at the same seed. The
//! window sequence is a pure function of the lookahead and the horizon,
//! so every thread replays the identical rounds without sharing any
//! window state.
//!
//! Cross-shard traffic crosses the barrier through a
//! [`crate::outbox::ShardExchange`]: whole per-destination batches staged
//! in thread-local buffers and published with a single buffer swap per
//! directed shard pair, drained in place on the other side — zero
//! steady-state allocations on the exchange path (pinned by the
//! `outbox_alloc` test). A drain passes over every slot nothing was
//! published into without locking it, so a round pays for the batches it
//! carries, not for the `shards²` slots of the grid.
//!
//! A round is two phases, each ended by a private `RoundBarrier`: run the
//! window and publish the outbox; then drain the inbox (one thread also
//! folds the depth replay). On one driver thread the barrier is free —
//! `wait` returns immediately — and on several it spins briefly and then
//! yields; it never parks a thread, because a round is a few microseconds
//! of work and a sleep-and-wake costs more than the round (DESIGN.md §5
//! has the ledger). A driver that panics poisons the barrier so the others
//! panic too instead of waiting forever.
//!
//! What cannot be computed shard-locally is *reconstructed* exactly:
//!
//! * `peak_queue_depth` — each shard logs `(pop stamp, pushes)` per event;
//!   the driver folds the logs in global stamp order and replays pops as
//!   `-1` / pushes as `+1`, reproducing the single queue's depth
//!   trajectory (cross-shard sends count at the *sender*, where the
//!   single-shard run would have pushed). The shared window makes rounds
//!   partition the stamp space — every round-`r` pop outstamps every
//!   earlier round's — so each round's fold consumes the whole buffer.
//! * probe captures — per-shard traces carry `(pop stamp, index-in-pop)`
//!   sort keys and are merged into the global capture order.
//! * metrics — per-shard registry snapshots are summed (counters,
//!   histogram buckets), peak-maxed (gauges), and the queue-depth gauge is
//!   overridden with the replayed value.
//!
//! Fault timelines fire for real on shard 0 only (so fault counters and
//! capture markers fire once); the other shards mirror them as *shadow
//! faults* applied to their media at the same points of the global pop
//! order. `Context::halt` is not supported in sharded worlds (a halt is
//! local to the shard that requested it) and panics with the shard id; no
//! node behaviour uses it.

use crate::outbox::ShardExchange;
use crate::world::{materialize, ShardRole, WorldConfig, WorldLayout, WorldOutput};
use crate::StatsSink;
use plsim_capture::{merge_stamped, CaptureAggregates, FaultMark, StampedTrace};
use plsim_des::{PopRecord, RemoteEvent, SimStats, SimTime};
use plsim_net::{Isp, Topology, Underlay};
use plsim_proto::{Message, WireMessage};
use plsim_telemetry::{GaugeValue, MetricsSnapshot};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Assigns every host to a shard, packing summed per-host `weight`
/// greedily, and returns `(shard_of_host, shard_count)`. The sharded run
/// passes the per-host expected event rates (see
/// [`crate::world::WorldLayout`]).
///
/// The atoms are **whole ISPs**: ISPs in descending summed weight (ties in
/// paper order) go onto the currently lightest shard (ties on the lowest
/// index), so every directed interconnect queue stays shard-local. `want`
/// is clamped to the populated-ISP count. The grouping depends only on the
/// weights and paper order, never on world-seed-sampled values.
pub(crate) fn partition(topology: &Topology, weight: &[u64], want: usize) -> (Vec<usize>, usize) {
    let mut counts = [0usize; 5];
    let mut isp_weight = [0u64; 5];
    for (id, host) in topology.iter() {
        let i = isp_index(host.isp);
        counts[i] += 1;
        isp_weight[i] += weight[id.index()];
    }
    let populated = counts.iter().filter(|&&c| c > 0).count();
    let shards = want.clamp(1, populated.max(1));

    let mut order: Vec<usize> = (0..Isp::ALL.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(isp_weight[i]), i));

    let mut group_of_isp = [0usize; 5];
    let mut load = vec![0u64; shards];
    for &i in &order {
        let lightest = (0..shards)
            .min_by_key(|&g| (load[g], g))
            .expect("shards >= 1");
        group_of_isp[i] = lightest;
        load[lightest] += isp_weight[i];
    }

    let shard_of = topology
        .iter()
        .map(|(_, host)| group_of_isp[isp_index(host.isp)])
        .collect();
    (shard_of, shards)
}

/// Heaviest shard's summed rate over the ideal (total / shards); 1.0 is
/// perfect balance.
fn rate_imbalance_of(shard_of: &[usize], shards: usize, rates: &[u64]) -> f64 {
    let total: u64 = rates.iter().sum();
    if total == 0 || shards == 0 {
        return 1.0;
    }
    let mut load = vec![0u64; shards];
    for (h, &s) in shard_of.iter().enumerate() {
        load[s] += rates[h];
    }
    let max = load.into_iter().max().unwrap_or(0);
    max as f64 / (total as f64 / shards as f64)
}

fn isp_index(isp: Isp) -> usize {
    Isp::ALL
        .iter()
        .position(|&i| i == isp)
        .expect("Isp::ALL is total")
}

/// How a sharded run was partitioned — the honest-reporting companion to
/// the run itself, in the spirit of the engine's `DispatchStats`: what the
/// partitioner actually did (including imbalance and how many window
/// rounds the run costs), not what was asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Shards the run actually used (the request is clamped to the
    /// populated-ISP count; degenerate requests collapse to the
    /// single-shard path and produce no report).
    pub shards: usize,
    /// Worker threads that drove them.
    pub threads: usize,
    /// Hosts per shard.
    pub hosts: Vec<usize>,
    /// Distinct ISPs with at least one host, per shard.
    pub isps: Vec<usize>,
    /// Always 0: shards are whole ISPs, so no ISP spans two shards.
    pub split_isps: usize,
    /// Always 0: with no split ISP, every interconnect queue is shard-local.
    pub deferred_queues: usize,
    /// Largest shard's host count over the ideal (total / shards); 1.0 is
    /// perfect balance.
    pub imbalance: f64,
    /// Largest shard's summed expected event rate over the ideal — the
    /// balance metric the partitioner actually optimizes.
    pub rate_imbalance: f64,
    /// The conservative lookahead every shard's window advances by (see
    /// `Underlay::conservative_lookahead`).
    pub lookahead: SimTime,
    /// Windowed advancement rounds executed across the fleet: every shard
    /// works every barrier round, so `shards × ceil(horizon / lookahead)`.
    /// Each such round is one window slice plus an exchange pass, so this
    /// is the run's windowing overhead.
    pub window_rounds: u64,
    /// The fixed-cadence yardstick `shards × ceil(horizon / lookahead)`.
    /// Equal to `window_rounds` while the window is a fixed stride; a
    /// windowing scheme that skips rounds is measured against it.
    pub window_rounds_global: u64,
}

impl PartitionReport {
    fn compute(
        cfg: &WorldConfig,
        layout: &WorldLayout,
        shard_of: &[usize],
        shards: usize,
        lookahead: SimTime,
    ) -> PartitionReport {
        let topology = &layout.topology;
        let mut hosts = vec![0usize; shards];
        let mut isp_on = vec![[false; 5]; shards];
        for (id, host) in topology.iter() {
            let s = shard_of[id.index()];
            hosts[s] += 1;
            isp_on[s][isp_index(host.isp)] = true;
        }
        let isps: Vec<usize> = isp_on
            .iter()
            .map(|on| on.iter().filter(|&&b| b).count())
            .collect();
        let max = hosts.iter().copied().max().unwrap_or(0);
        let ideal = topology.len() as f64 / shards as f64;
        let imbalance = if ideal > 0.0 { max as f64 / ideal } else { 1.0 };
        let rounds = shards as u64 * cfg.duration.as_micros().div_ceil(lookahead.as_micros());
        PartitionReport {
            shards,
            threads: cfg.shard_threads.clamp(1, shards),
            hosts,
            isps,
            split_isps: 0,
            deferred_queues: 0,
            imbalance,
            rate_imbalance: rate_imbalance_of(shard_of, shards, &layout.rates),
            lookahead,
            window_rounds: rounds,
            window_rounds_global: rounds,
        }
    }

    /// Renders the report as a JSON object (hand-rolled, matching the
    /// repo's other machine-readable exports) so CI can archive what the
    /// partitioner did alongside the run's metrics.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[usize]| {
            let items: Vec<String> = v.iter().map(usize::to_string).collect();
            format!("[{}]", items.join(", "))
        };
        format!(
            concat!(
                "{{\n",
                "  \"shards\": {},\n",
                "  \"threads\": {},\n",
                "  \"hosts_per_shard\": {},\n",
                "  \"isps_per_shard\": {},\n",
                "  \"imbalance\": {:.4},\n",
                "  \"rate_imbalance\": {:.4},\n",
                "  \"lookahead_ms\": {:.3},\n",
                "  \"window_rounds\": {},\n",
                "  \"window_rounds_global\": {}\n",
                "}}\n"
            ),
            self.shards,
            self.threads,
            list(&self.hosts),
            list(&self.isps),
            self.imbalance,
            self.rate_imbalance,
            self.lookahead.as_secs_f64() * 1e3,
            self.window_rounds,
            self.window_rounds_global,
        )
    }
}

impl fmt::Display for PartitionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition: {} shards on {} threads; hosts/shard {:?}; isps/shard {:?}; \
             imbalance {:.2}x; rate imbalance {:.2}x; lookahead {:.1} ms; window rounds {}",
            self.shards,
            self.threads,
            self.hosts,
            self.isps,
            self.imbalance,
            self.rate_imbalance,
            self.lookahead.as_secs_f64() * 1e3,
            self.window_rounds,
        )
    }
}

/// Plans the sharded run for `cfg` over `layout` — the partition and the
/// report describing it (which also carries the shared window stride) —
/// or `None` when the partition degenerates (one shard, or no finite
/// ≥ 1 µs lookahead) and the caller should fall back to the monolithic
/// path.
fn plan_shards(cfg: &WorldConfig, layout: &WorldLayout) -> Option<(Vec<usize>, PartitionReport)> {
    let (shard_of, shards) = partition(&layout.topology, &layout.rates, cfg.shards);
    let probe = Underlay::new(std::sync::Arc::clone(&layout.topology), cfg.link);
    let lookahead = probe
        .conservative_lookahead(&shard_of, shards)
        .filter(|l| l.as_micros() >= 1)?;
    let report = PartitionReport::compute(cfg, layout, &shard_of, shards, lookahead);
    Some((shard_of, report))
}

/// What the partitioner would do for `cfg` — the same [`PartitionReport`]
/// a sharded run returns, computed without running the simulation (the
/// layout is sampled, the world is not). `None` when the run would fall
/// back to the single-shard path. This is what the bench uses to report
/// window-round and rate-balance numbers on topologies too large to
/// simulate inside a measurement loop.
#[must_use]
pub fn partition_preview(cfg: &WorldConfig) -> Option<PartitionReport> {
    let layout = WorldLayout::compute(cfg);
    plan_shards(cfg, &layout).map(|(_, report)| report)
}

/// The global queue-depth replay, folded once per round so no shard ever
/// accumulates an unbounded pop log.
struct DepthReplay {
    depth: i64,
    peak: i64,
    buf: Vec<PopRecord>,
}

impl DepthReplay {
    /// Replays every buffered record in global stamp order. Rounds of the
    /// shared window partition the stamp space, so the buffer is always a
    /// complete, settled stretch of the global pop sequence.
    fn fold(&mut self) {
        self.buf.sort_unstable_by_key(|r| r.stamp);
        for r in self.buf.drain(..) {
            // The pop removes one event; its pushes then grow the queue
            // monotonically, so the high-water mark within the pop is the
            // post-push depth.
            self.depth += i64::from(r.pushes) - 1;
            self.peak = self.peak.max(self.depth);
        }
    }
}

/// The barrier between the phases of a window round: sense-reversing, an
/// arrival counter and a generation the last arriver advances. A run
/// crosses it twice a round, hundreds of thousands of rounds a run,
/// and a round is microseconds of work, so it never sleeps: with one
/// driver thread `wait` returns at once (there is nobody to wait for), and
/// with more a waiter spins on the generation for [`SPIN_TURNS`] and then
/// yields its time slice between looks.
///
/// Orderings: every arrival is an `AcqRel` increment of one counter, so
/// the last arriver has acquired every earlier arriver's writes when it
/// `Release`-stores the new generation, and a waiter that `Acquire`-loads
/// that generation sees them all — the same happens-before edge the
/// standard library's barrier gives. The counter is reset before the
/// generation moves, so no thread can arrive for the next phase ahead of
/// the reset.
///
/// A driver that panics never arrives, which would leave the others
/// waiting forever and `std::thread::scope` unable to join them. Each
/// driver therefore holds a [`PoisonOnPanic`] guard; a waiter that finds
/// the barrier poisoned panics in turn, so the scope joins every thread
/// and reports the failure.
struct RoundBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// Looks at the generation before a waiter starts yielding: long enough to
/// cover a peer finishing the same phase on another core, short enough
/// that drivers outnumbering the cores hand the core over promptly.
const SPIN_TURNS: u32 = 256;

impl RoundBarrier {
    fn new(threads: usize) -> RoundBarrier {
        RoundBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Returns once all `threads` drivers have called `wait` for this
    /// phase. Panics if another driver panicked instead of arriving.
    fn wait(&self) {
        if self.threads == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut turns = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            assert!(
                !self.poisoned.load(Ordering::Acquire),
                "round barrier poisoned: another shard driver thread panicked"
            );
            if turns < SPIN_TURNS {
                turns += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The guard a driver thread holds for as long as it may still owe the
/// [`RoundBarrier`] an arrival: poisons it when dropped by an unwinding
/// thread.
struct PoisonOnPanic<'a>(&'a RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Everything a shard thread reports back once its shard is finished.
struct ShardResult {
    stats: SimStats,
    snapshot: MetricsSnapshot,
    trace: StampedTrace,
    aggregates: CaptureAggregates,
    fault_marks: Vec<FaultMark>,
}

/// Runs `cfg` space-partitioned over `cfg.shards` shards (clamped to the
/// populated-ISP count) and returns output bit-identical to the
/// single-shard run. Falls back to the classic path when the partition
/// degenerates to one shard.
pub(crate) fn run_sharded(cfg: &WorldConfig) -> WorldOutput {
    let layout = WorldLayout::compute(cfg);
    let Some((shard_of, report)) = plan_shards(cfg, &layout) else {
        return crate::World::build(cfg).run();
    };
    let shards = report.shards;

    let locals: Vec<Vec<bool>> = (0..shards)
        .map(|s| shard_of.iter().map(|&g| g == s).collect())
        .collect();
    let threads = report.threads;
    let barrier = RoundBarrier::new(threads);
    let event_grid: ShardExchange<RemoteEvent<WireMessage>> = ShardExchange::new(shards);
    let results: Vec<Mutex<Option<ShardResult>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let replay = Mutex::new(DepthReplay {
        // Every harness event is injected into exactly one shard, so the
        // global queue starts (and first peaks) at the schedule length.
        depth: layout.events.len() as i64,
        peak: layout.events.len() as i64,
        buf: Vec::new(),
    });
    let sink = StatsSink::new();

    let total = cfg.duration.as_micros();
    let stride = report.lookahead.as_micros();

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (layout, shard_of, locals) = (&layout, &shard_of, &locals);
            let (barrier, event_grid) = (&barrier, &event_grid);
            let (results, replay, sink) = (&results, &replay, &sink);
            scope.spawn(move || {
                let _poison = PoisonOnPanic(barrier);
                // Round-robin shard ownership: with fewer threads than
                // shards a thread simply drives several shards per round.
                let mut sims: Vec<_> = (t..shards)
                    .step_by(threads)
                    .map(|s| {
                        let role = ShardRole {
                            index: s,
                            count: shards,
                            local: &locals[s],
                        };
                        (s, materialize(cfg, layout, sink, Some(role)))
                    })
                    .collect();

                let mut final_stats: Vec<Option<SimStats>> =
                    (0..sims.len()).map(|_| None).collect();
                let mut outbuf: Vec<RemoteEvent<Message>> = Vec::new();
                let mut pops: Vec<PopRecord> = Vec::new();
                // Per-destination staging buffers: filled locally, handed
                // to the grid with a buffer swap, received back empty with
                // capacity intact — the exchange path allocates nothing in
                // steady state.
                let mut stage_ev: Vec<Vec<RemoteEvent<WireMessage>>> =
                    (0..shards).map(|_| Vec::new()).collect();

                // Every thread steps the same fixed stride, so no window
                // state crosses threads.
                let mut window = 0u64;
                while window < total {
                    window = window.saturating_add(stride);
                    for (k, (s, shard)) in sims.iter_mut().enumerate() {
                        if window >= total {
                            // Final slice: inclusive of the horizon, like
                            // run_until on the single-shard path.
                            final_stats[k] = Some(shard.sim.run_until(cfg.duration));
                        } else {
                            shard.sim.run_window(SimTime::from_micros(window));
                        }
                        shard.sim.drain_outbox(&mut outbuf);
                        for ev in outbuf.drain(..) {
                            let dest = shard_of[ev.to.index()];
                            stage_ev[dest].push(ev.map(Message::into_wire));
                        }
                        for (dest, buf) in stage_ev.iter_mut().enumerate() {
                            if !buf.is_empty() {
                                event_grid.publish(*s, dest, buf);
                            }
                        }
                        shard.sim.drain_pop_log(&mut pops);
                    }
                    if !pops.is_empty() {
                        replay
                            .lock()
                            .expect("replay poisoned")
                            .buf
                            .append(&mut pops);
                    }
                    // Barrier 1: every outbox batch is published, every
                    // pop logged.
                    barrier.wait();
                    for (s, shard) in &mut sims {
                        event_grid.drain(*s, |w| {
                            shard
                                .sim
                                .ingest_remote(w.map(|p| p.into_message(&shard.arena)));
                        });
                    }
                    if t == 0 {
                        // One thread folds the round's depth replay while
                        // the others drain their inboxes.
                        replay.lock().expect("replay poisoned").fold();
                    }
                    // Barrier 2: every inbox is drained before any shard
                    // advances into the round those events belong to.
                    barrier.wait();
                }

                for ((s, mut shard), stats) in sims.into_iter().zip(final_stats) {
                    shard.sim.finish(cfg.duration);
                    shard.sim.drain_pop_log(&mut pops);
                    *results[s].lock().expect("result slot poisoned") = Some(ShardResult {
                        stats: stats.expect("every shard runs a final slice"),
                        snapshot: shard.registry.snapshot(),
                        trace: shard.tap.drain_stamped(),
                        aggregates: shard.tap.drain_aggregates(),
                        fault_marks: shard.tap.drain_faults(),
                    });
                }
                if !pops.is_empty() {
                    replay
                        .lock()
                        .expect("replay poisoned")
                        .buf
                        .append(&mut pops);
                }
            });
        }
    });

    let results: Vec<ShardResult> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("shard produced no result")
        })
        .collect();
    let mut replay = replay.into_inner().expect("replay poisoned");
    replay.fold();

    let mut sim = SimStats::default();
    for r in &results {
        sim.events_processed += r.stats.events_processed;
        sim.messages_sent += r.stats.messages_sent;
        sim.messages_dropped += r.stats.messages_dropped;
        sim.faults_activated += r.stats.faults_activated;
    }
    sim.peak_queue_depth = replay.peak as u64;

    let snapshots: Vec<MetricsSnapshot> = results.iter().map(|r| r.snapshot.clone()).collect();
    let mut metrics = MetricsSnapshot::merge(&snapshots);
    metrics.set_gauge(
        "des.queue_depth",
        GaugeValue {
            current: replay.depth as u64,
            peak: replay.peak as u64,
        },
    );

    let mut results = results;
    let fault_marks = std::mem::take(&mut results[0].fault_marks);
    // Each probe's records (and aggregates) live wholly on its home shard:
    // traces merge by global stamp under the run's budget, aggregates union
    // disjoint probe maps.
    let mut aggregates = CaptureAggregates::default();
    let records = merge_stamped(
        results.into_iter().map(|r| {
            aggregates.absorb(r.aggregates);
            r.trace
        }),
        cfg.capture.budget,
    );

    WorldOutput {
        records,
        aggregates,
        peer_stats: sink.collect(),
        topology: layout.topology,
        probes: layout.probes,
        source: layout.source,
        trackers: layout.trackers,
        bootstrap: layout.bootstrap,
        fault_marks,
        sim,
        metrics,
        partition: Some(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world, ProbeSpec};
    use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_world(seed: u64, shards: usize, threads: usize) -> WorldConfig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan = SessionPlan::generate(
            &PopulationSpec::tiny(ChannelClass::Unpopular),
            240.0,
            &mut rng,
        );
        let mut cfg = WorldConfig::new(seed, plan, SimTime::from_secs(240));
        cfg.probes.push(ProbeSpec::residential(Isp::Tele));
        cfg.probes.push(ProbeSpec::residential(Isp::Cnc));
        cfg.shards = shards;
        cfg.shard_threads = threads;
        cfg
    }

    #[test]
    fn partition_is_isp_granular_and_balanced_below_the_isp_count() {
        let cfg = small_world(11, 1, 1);
        let layout = WorldLayout::compute(&cfg);
        let (shard_of, shards) = partition(&layout.topology, &layout.rates, 3);
        assert!((2..=3).contains(&shards));
        // ISP-granular: two hosts of the same ISP never split.
        for (a, ha) in layout.topology.iter() {
            for (b, hb) in layout.topology.iter() {
                if ha.isp == hb.isp {
                    assert_eq!(shard_of[a.index()], shard_of[b.index()]);
                }
            }
        }
        // No shard is empty.
        for s in 0..shards {
            assert!(shard_of.contains(&s), "shard {s} owns no host");
        }
    }

    #[test]
    fn partition_clamps_to_the_populated_isp_count() {
        let cfg = small_world(11, 1, 1);
        let layout = WorldLayout::compute(&cfg);
        let populated: std::collections::BTreeSet<Isp> =
            layout.topology.iter().map(|(_, h)| h.isp).collect();
        assert_eq!(populated.len(), 5, "the test world populates every ISP");
        for want in [5, 8, 12] {
            let (shard_of, shards) = partition(&layout.topology, &layout.rates, want);
            assert_eq!(shards, 5, "want {want}");
            // One ISP per shard, whole, and no shard left empty.
            for &isp in &populated {
                let shards_of_isp: std::collections::BTreeSet<usize> = layout
                    .topology
                    .iter()
                    .filter(|(_, h)| h.isp == isp)
                    .map(|(id, _)| shard_of[id.index()])
                    .collect();
                assert_eq!(shards_of_isp.len(), 1, "{isp:?} split (want {want})");
            }
            for s in 0..shards {
                assert!(
                    shard_of.contains(&s),
                    "shard {s} owns no host (want {want})"
                );
            }
        }
    }

    #[test]
    fn partition_is_deterministic_across_seeds() {
        // The grouping may depend only on the session plan (host counts,
        // per-host rates) and paper order — never on seed-sampled values
        // like edge delays: two worlds over the same plan but different
        // world seeds partition identically.
        let mut rng = SmallRng::seed_from_u64(5);
        let plan = SessionPlan::generate(
            &PopulationSpec::tiny(ChannelClass::Unpopular),
            240.0,
            &mut rng,
        );
        let a = WorldLayout::compute(&WorldConfig::new(11, plan.clone(), SimTime::from_secs(240)));
        let b = WorldLayout::compute(&WorldConfig::new(77, plan, SimTime::from_secs(240)));
        assert_eq!(a.rates, b.rates, "rates are plan-derived, not seed-sampled");
        for want in [2, 3, 8] {
            assert_eq!(
                partition(&a.topology, &a.rates, want),
                partition(&b.topology, &b.rates, want),
                "want {want}"
            );
        }
    }

    #[test]
    fn partition_report_prices_the_fixed_window_in_closed_form() {
        let cfg = small_world(42, 5, 4);
        let report = partition_preview(&cfg).expect("5-way split plans a sharded run");
        assert_eq!(report.shards, 5);
        let rounds = 5 * cfg
            .duration
            .as_micros()
            .div_ceil(report.lookahead.as_micros());
        assert_eq!(report.window_rounds, rounds);
        assert_eq!(report.window_rounds_global, rounds);
        // JSON mirrors the struct.
        let json = report.to_json();
        assert!(json.contains(&format!("\"window_rounds\": {rounds},")));
        assert!(json.contains(&format!("\"window_rounds_global\": {rounds}\n")));
        assert!(json.contains("\"rate_imbalance\""));
        assert!(json.contains("\"lookahead_ms\""));
    }

    #[test]
    fn round_barrier_on_one_thread_never_blocks() {
        let barrier = RoundBarrier::new(1);
        for _ in 0..1_000_000 {
            barrier.wait();
        }
    }

    #[test]
    fn round_barrier_releases_no_thread_early_and_loses_no_wakeup() {
        // Four drivers on whatever cores the host has (two where this was
        // written), so waiters are descheduled mid-spin on purpose.
        const THREADS: usize = 4;
        const ROUNDS: usize = 20_000;
        let barrier = RoundBarrier::new(THREADS);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let _poison = PoisonOnPanic(&barrier);
                    for round in 1..=ROUNDS {
                        // Relaxed on purpose: the barrier alone must order
                        // every thread's add before every thread's read.
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::Relaxed), THREADS * round);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_driver_poisons_the_round_barrier_instead_of_hanging_it() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let barrier = RoundBarrier::new(2);
            let outcome = std::thread::scope(|scope| {
                let panicker = scope.spawn(|| {
                    let _poison = PoisonOnPanic(&barrier);
                    panic!("driver failed before arriving");
                });
                let waiter = scope.spawn(|| {
                    let _poison = PoisonOnPanic(&barrier);
                    barrier.wait();
                });
                (panicker.join(), waiter.join())
            });
            done.send(outcome).expect("the watchdog outlives the run");
        });
        // The watchdog: without the poison flag the waiter spins forever.
        let (panicker, waiter) = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("watchdog: a driver was still inside RoundBarrier::wait after 10 s");
        assert!(panicker.is_err());
        let payload = waiter.expect_err("the waiter must panic, not return");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("round barrier poisoned"), "{message:?}");
    }

    #[test]
    fn sharded_world_is_bit_identical_to_single_shard() {
        let reference = run_world(&small_world(42, 1, 1));
        for (shards, threads) in [(2, 2), (4, 2), (4, 1)] {
            let sharded = run_world(&small_world(42, shards, threads));
            assert_eq!(
                sharded.sim, reference.sim,
                "{shards} shards / {threads} threads"
            );
            assert_eq!(
                sharded.metrics, reference.metrics,
                "{shards} shards / {threads} threads"
            );
            assert_eq!(
                sharded.records, reference.records,
                "{shards} shards / {threads} threads"
            );
            assert_eq!(sharded.peer_stats, reference.peer_stats);
            assert_eq!(sharded.fault_marks, reference.fault_marks);
        }
    }
}
