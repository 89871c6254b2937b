//! Microbenchmarks of the substrate: DES event throughput (shallow ring
//! and deep queue, heap vs calendar scheduler), the node-layer message
//! path (owned vs arena-interned peer lists, plus a small live gossip
//! world), the underlay medium, the statistics kernels, and the parallel
//! experiment engine — plus the machine-readable `BENCH_engine.json`
//! summary (see [`plsim_bench::EngineReport`]).
//!
//! This binary installs a counting global allocator so the report can
//! state how many heap allocations the kernel's steady-state hot loop
//! actually performs (the event pool and calendar buckets are supposed to
//! make that ~zero once warmed).

use criterion::{criterion_group, Criterion};
use plsim_analysis::{
    contribution_analysis, data_by_isp, data_response_times, overlay_stats,
    peer_list_response_times, returned_addresses, returned_by_source, ProbeReport,
};
use plsim_bench::{write_engine_report, EngineReport};
use plsim_capture::{RecordKind, TraceRecord, TraceStore};
use plsim_des::{
    Actor, Context, FixedDelay, Medium, NodeId, SchedulerKind, SimStats, SimTime, Simulation,
};
use plsim_net::{AsnDirectory, BandwidthClass, Isp, LinkModel, TopologyBuilder, Underlay};
use plsim_node::{
    partition_preview, run_world, BootstrapServer, PeerConfig, PeerNode, ShardExchange, StatsSink,
    TrackerServer, WorldConfig,
};
use plsim_proto::{ChannelId, Message, PeerEntry, PeerListArena, SharedPeerList, TimerKind};
use plsim_stats::{ecdf, pearson, stretched_exp_fit};
use plsim_telemetry::{MetricsRegistry, PAGE_ROWS};
use plsim_workload::{ChannelClass, PopulationSpec, SessionPlan};
use pplive_locality::{locality_frontier_on, JobPool, PolicySpec, Scale, Scenario, Suite};
use rand::{rngs::SmallRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Global allocation counter behind [`CountingAlloc`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation, so the report
/// can quote the kernel's steady-state allocation rate.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Relay {
    next: NodeId,
    remaining: u64,
}

impl Actor<u64> for Relay {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, _from: Option<NodeId>, p: u64) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.next, p, 64);
        }
    }
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

/// Tokens kept in flight by the deep-queue workload — the event queue's
/// sustained depth, deep enough that heap pops pay ~18 levels of
/// comparisons while the calendar stays O(1).
const DEEP_TOKENS: u32 = 262_144;
/// Forwarding budget across all actors (total events ≈ budget + tokens).
/// Much larger than the token count so the measurement is dominated by
/// sustained churn at full depth — every pop balanced by a push, the
/// regime a live large-scale world keeps the scheduler in — rather than
/// by the end-of-run drain, which exists only because the bench stops.
const DEEP_BUDGET: u64 = 1_000_000;
/// Actors in the deep-queue workload.
const DEEP_ACTORS: u32 = 64;

/// Builds the deep-queue simulation with all tokens injected.
fn deep_queue_sim(kind: SchedulerKind) -> Simulation<u64> {
    let mut sim: Simulation<u64> = Simulation::with_scheduler(
        1,
        FixedDelay(SimTime::from_micros(10)),
        MetricsRegistry::new(),
        kind,
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

/// One deep-queue run under the given scheduler; returns the kernel
/// counters (identical across schedulers) and the run-phase wall clock.
fn deep_queue_run(kind: SchedulerKind) -> (SimStats, f64) {
    let mut sim = deep_queue_sim(kind);
    let start = Instant::now();
    let stats = sim.run_until(SimTime::MAX);
    (stats, start.elapsed().as_secs_f64())
}

/// Actors in the node-layer peer-list ring.
const LIST_ACTORS: u32 = 32;
/// Peer-list messages each ring variant forwards through the kernel.
const LIST_MSGS: u64 = 262_144;
/// Messages kept in flight around the ring.
const LIST_TOKENS: u32 = 64;

/// How a [`ListRelay`] builds the peer list it encloses in each reply.
enum ListPayload {
    /// The pre-arena gossip reply path: collect the neighbor set into a
    /// fresh `Vec`, sort it into protocol order, and move the owned list
    /// into the message — two heap allocations plus an `O(n log n)` sort
    /// per reply, all of which the message path used to pay.
    Owned(Vec<PeerEntry>),
    /// The zero-copy path: the list was interned once at connect time and
    /// every reply clones the arena handle (a refcount bump).
    Arena(SharedPeerList),
}

impl ListPayload {
    fn to_message_list(&self) -> SharedPeerList {
        match self {
            ListPayload::Owned(entries) => {
                let mut sorted = entries.clone();
                sorted.sort_by_key(|e| e.node);
                sorted.into_iter().collect()
            }
            ListPayload::Arena(list) => list.clone(),
        }
    }
}

/// Node-layer workload actor: answers every peer-list reply with another
/// full-sized reply to the next ring member, exactly the request/response
/// shape the gossip hot loop keeps the kernel in.
struct ListRelay {
    next: NodeId,
    remaining: u64,
    payload: ListPayload,
}

impl Actor<Message> for ListRelay {
    fn on_event(&mut self, ctx: &mut Context<'_, Message>, _from: Option<NodeId>, msg: Message) {
        if let Message::PeerListResponse {
            channel, req_id, ..
        } = msg
        {
            if self.remaining > 0 {
                self.remaining -= 1;
                let reply = Message::PeerListResponse {
                    channel,
                    peers: self.payload.to_message_list(),
                    req_id: req_id.wrapping_add(1),
                };
                let size = reply.wire_size();
                ctx.send(self.next, reply, size);
            }
        }
    }
}

/// The 60-entry (maximum-length) list every ring actor replies with.
fn full_list_entries() -> Vec<PeerEntry> {
    (0..plsim_proto::PeerList::MAX_LEN as u32)
        .map(|i| PeerEntry::new(NodeId(i), Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1)))
        .collect()
}

/// Builds the peer-list ring with all tokens injected. `arena` selects the
/// zero-copy variant; `None` replays the owned (pre-arena) reply path.
fn list_ring_sim(arena: Option<&PeerListArena>) -> Simulation<Message> {
    let entries = full_list_entries();
    let mut sim: Simulation<Message> = Simulation::new(1, FixedDelay(SimTime::from_micros(10)));
    let ids: Vec<NodeId> = (0..LIST_ACTORS)
        .map(|i| {
            let payload = match arena {
                Some(a) => ListPayload::Arena(a.intern(entries.iter().copied())),
                None => ListPayload::Owned(entries.clone()),
            };
            sim.add_actor(Box::new(ListRelay {
                next: NodeId((i + 1) % LIST_ACTORS),
                remaining: LIST_MSGS / u64::from(LIST_ACTORS),
                payload,
            }))
        })
        .collect();
    sim.reserve_events(LIST_TOKENS as usize + 16);
    for t in 0..LIST_TOKENS {
        let peers: SharedPeerList = match arena {
            Some(a) => a.intern(entries.iter().copied()),
            None => entries.iter().copied().collect(),
        };
        let msg = Message::PeerListResponse {
            channel: ChannelId(1),
            peers,
            req_id: u64::from(t),
        };
        let size = msg.wire_size();
        sim.inject(
            SimTime::from_micros(u64::from(t)),
            ids[(t % LIST_ACTORS) as usize],
            None,
            msg,
            size,
        );
    }
    sim
}

/// One peer-list ring run; returns the kernel counters (identical across
/// variants) and the run-phase wall clock.
fn list_ring_run(zero_copy: bool) -> (SimStats, f64) {
    let arena = PeerListArena::new();
    let mut sim = list_ring_sim(zero_copy.then_some(&arena));
    let start = Instant::now();
    let stats = sim.run_until(SimTime::MAX);
    (stats, start.elapsed().as_secs_f64())
}

/// Best-of-`n` wall clock for one peer-list ring variant.
fn best_list_wall(zero_copy: bool, n: usize) -> (SimStats, f64) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..n {
        let (s, wall) = list_ring_run(zero_copy);
        if let Some(prev) = &stats {
            assert_eq!(prev, &s, "peer-list ring diverged across repeats");
        }
        stats = Some(s);
        best = best.min(wall);
    }
    (stats.expect("at least one run"), best)
}

/// Runs a small but complete gossip world — one source, one tracker, a
/// bootstrap server, and 32 joining viewers on a real underlay — for five
/// simulated minutes, and returns the number of gossip peer-list requests
/// the population issued plus the wall clock of the run.
fn gossip_world_run() -> (u64, f64) {
    const VIEWERS: u32 = 32;
    let channel = ChannelId(1);
    let mut rng = SmallRng::seed_from_u64(42);
    let mut topo = TopologyBuilder::new();
    let source_id = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut rng);
    let bootstrap_id = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut rng);
    let tracker_id = topo.add_host(Isp::Tele, BandwidthClass::Backbone, &mut rng);
    let viewer_ids: Vec<NodeId> = (0..VIEWERS)
        .map(|_| topo.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng))
        .collect();
    let topology = Arc::new(topo.build());
    let entry = |n: NodeId| PeerEntry::new(n, topology.host(n).ip);

    let mut sim: Simulation<Message> = Simulation::new(
        42,
        Underlay::new(Arc::clone(&topology), LinkModel::default()),
    );
    let registry = MetricsRegistry::new();
    let arena = PeerListArena::new();
    let tracker_entries = vec![entry(tracker_id)];

    let mut source = PeerNode::source(
        PeerConfig::default(),
        channel,
        entry(source_id),
        tracker_entries.clone(),
        Arc::clone(&topology),
        StatsSink::new(),
    );
    source.attach_metrics(&registry);
    source.attach_arena(&arena);
    assert_eq!(sim.add_actor(Box::new(source)), source_id);

    let mut bootstrap = BootstrapServer::new();
    bootstrap.add_channel(channel, tracker_entries);
    assert_eq!(sim.add_actor(Box::new(bootstrap)), bootstrap_id);

    let mut tracker = TrackerServer::new(Arc::clone(&topology));
    tracker.attach_arena(&arena);
    assert_eq!(sim.add_actor(Box::new(tracker)), tracker_id);

    for (i, &v) in viewer_ids.iter().enumerate() {
        let mut peer = PeerNode::viewer(
            PeerConfig::default(),
            channel,
            entry(v),
            bootstrap_id,
            Arc::clone(&topology),
            StatsSink::new(),
        );
        peer.attach_metrics(&registry);
        peer.attach_arena(&arena);
        assert_eq!(sim.add_actor(Box::new(peer)), v);
        sim.inject(
            SimTime::from_millis(250 * i as u64),
            v,
            None,
            Message::Timer(TimerKind::Join),
            0,
        );
    }
    sim.inject(
        SimTime::ZERO,
        source_id,
        None,
        Message::Timer(TimerKind::Join),
        0,
    );

    let start = Instant::now();
    let _ = sim.run_until(SimTime::from_secs(300));
    let wall = start.elapsed().as_secs_f64();
    let ticks = registry
        .snapshot()
        .counter("node.gossip_requests_sent")
        .unwrap_or(0);
    (ticks, wall)
}

fn des_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("des_100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(1, FixedDelay(SimTime::from_micros(10)));
            let ids: Vec<NodeId> = (0..8)
                .map(|i| {
                    sim.add_actor(Box::new(Relay {
                        next: NodeId((i + 1) % 8),
                        remaining: 100_000 / 8,
                    }))
                })
                .collect();
            sim.inject(SimTime::ZERO, ids[0], None, 1, 64);
            black_box(sim.run_until(SimTime::MAX))
        })
    });

    g.sample_size(10);
    g.bench_function("des_deep_churn_calendar", |b| {
        b.iter(|| black_box(deep_queue_run(SchedulerKind::Calendar)))
    });
    g.bench_function("des_deep_churn_heap", |b| {
        b.iter(|| black_box(deep_queue_run(SchedulerKind::Heap)))
    });
    g.finish();

    let mut g = c.benchmark_group("engine");
    g.bench_function("underlay_transit", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut builder = TopologyBuilder::new();
        let x = builder.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        let y = builder.add_host(Isp::Cnc, BandwidthClass::Adsl, &mut rng);
        let mut underlay = Underlay::new(Arc::new(builder.build()), LinkModel::default());
        b.iter(|| {
            black_box(Medium::<()>::transit(
                &mut underlay,
                x,
                y,
                black_box(1426),
                SimTime::from_secs(1),
                &mut rng,
            ))
        })
    });

    let data: Vec<f64> = (1..=1000)
        .map(|i| {
            let yc: f64 = 50.0 - 7.0 * f64::from(i).log10();
            yc.max(1e-9).powf(1.0 / 0.3)
        })
        .collect();
    g.bench_function("stretched_exp_fit_1000", |b| {
        b.iter(|| black_box(stretched_exp_fit(black_box(&data))))
    });
    g.bench_function("ecdf_1000", |b| {
        b.iter(|| black_box(ecdf(black_box(&data))))
    });
    let xs: Vec<f64> = (0..1000).map(f64::from).collect();
    g.bench_function("pearson_1000", |b| {
        b.iter(|| black_box(pearson(black_box(&xs), black_box(&data))))
    });
    g.finish();
}

fn node_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_layer");
    g.sample_size(10);
    g.bench_function("peer_list_ring_arena", |b| {
        b.iter(|| black_box(list_ring_run(true)))
    });
    g.bench_function("peer_list_ring_owned", |b| {
        b.iter(|| black_box(list_ring_run(false)))
    });
    g.bench_function("gossip_world_300s", |b| {
        b.iter(|| black_box(gossip_world_run()))
    });
    g.finish();
}

/// Simulated seconds of the sharded-world sustained-churn workload.
const SHARD_WORLD_SECS: u64 = 360;

/// The sustained-churn world the sharded benches run: a tiny popular
/// channel whose population joins and leaves throughout the session, on
/// the full calibrated underlay, capture off — the workload is the kernel
/// plus the whole node layer, space-partitioned across `shards`
/// schedulers synchronized by conservative lookahead windows.
fn sharded_world_cfg(shards: usize) -> WorldConfig {
    let mut rng = SmallRng::seed_from_u64(42);
    let plan = SessionPlan::generate(
        &PopulationSpec::tiny(ChannelClass::Popular),
        SHARD_WORLD_SECS as f64,
        &mut rng,
    );
    let mut cfg = WorldConfig::new(42, plan, SimTime::from_secs(SHARD_WORLD_SECS));
    cfg.shards = shards;
    cfg.shard_threads = shards;
    cfg
}

/// One sharded-world run; returns the kernel counters (identical across
/// shard counts) and the wall clock.
fn sharded_world_run(shards: usize) -> (SimStats, f64) {
    let cfg = sharded_world_cfg(shards);
    let start = Instant::now();
    let out = run_world(&cfg);
    (out.sim, start.elapsed().as_secs_f64())
}

/// Best-of-`n` wall clock for one shard count.
fn best_sharded_wall(shards: usize, n: usize) -> (SimStats, f64) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..n {
        let (s, wall) = sharded_world_run(shards);
        if let Some(prev) = &stats {
            assert_eq!(prev, &s, "sharded world diverged across repeats");
        }
        stats = Some(s);
        best = best.min(wall);
    }
    (stats.expect("at least one run"), best)
}

fn sharded_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_world");
    g.sample_size(10);
    // 8 shards exceeds the populated ISP count, so that point exercises
    // the sub-ISP host-group partition with owner-replayed queues.
    for shards in [1usize, 2, 4, 8] {
        g.bench_function(&format!("world_shards_{shards}"), |b| {
            b.iter(|| black_box(sharded_world_run(shards)))
        });
    }
    g.finish();
}

/// Best-of-`n` deep-queue wall clock for one scheduler.
fn best_deep_wall(kind: SchedulerKind, n: usize) -> (SimStats, f64) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..n {
        let (s, wall) = deep_queue_run(kind);
        if let Some(prev) = &stats {
            assert_eq!(prev, &s, "deep-queue run diverged across repeats");
        }
        stats = Some(s);
        best = best.min(wall);
    }
    (stats.expect("at least one run"), best)
}

/// Measures kernel throughput (deep queue, heap vs calendar), steady-state
/// allocations, and parallel-suite speedup, then writes
/// `BENCH_engine.json` at the workspace root.
///
/// Smoke mode (`--test`) compares the suites at `Tiny` scale so CI stays
/// fast; the real run uses `Reduced`, the scale the figure benches and
/// EXPERIMENTS.md quote.
fn engine_report(test_mode: bool) {
    let repeats = if test_mode { 1 } else { 3 };

    // Deep-queue kernel throughput under both schedulers. The stats must
    // match bit-for-bit — scheduler choice affects speed, never results.
    let (heap_stats, heap_wall) = best_deep_wall(SchedulerKind::Heap, repeats);
    let (cal_stats, cal_wall) = best_deep_wall(SchedulerKind::Calendar, repeats);
    assert_eq!(
        heap_stats, cal_stats,
        "heap and calendar schedulers disagreed on the deep-queue workload"
    );

    // Steady-state allocation count under the calendar scheduler,
    // measured over the sustained-churn window [5 ms, 30 ms]: the first
    // 5 ms warm the pool, the adaptive width rebuild and the buckets'
    // first-touch growth, and the unmeasured remainder covers the
    // end-of-run drain (whose occupancy-driven shrink rebuilds are
    // teardown, not hot-loop, work).
    let mut sim = deep_queue_sim(SchedulerKind::Calendar);
    let _ = sim.run_until(SimTime::from_micros(5_000));
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = sim.run_until(SimTime::from_micros(30_000));
    let steady_state_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let _ = sim.run_until(SimTime::MAX);
    drop(sim);

    let events_per_sec_heap = cal_stats.events_processed as f64 / heap_wall;
    let events_per_sec_calendar = cal_stats.events_processed as f64 / cal_wall;

    let (scale, label) = if test_mode {
        (Scale::Tiny, "tiny")
    } else {
        (Scale::Reduced, "reduced")
    };
    let pool = JobPool::default();

    let start = Instant::now();
    let seq = Suite::run_on(&JobPool::sequential(), scale, 42);
    let seq_wall = start.elapsed().as_secs_f64();

    let dispatch_before = pool.dispatch_stats();
    let start = Instant::now();
    let par = Suite::run_on(&pool, scale, 42);
    let par_wall = start.elapsed().as_secs_f64();
    let dispatch_after = pool.dispatch_stats();

    assert_eq!(
        seq.popular.output.sim, par.popular.output.sim,
        "parallel suite diverged from sequential"
    );

    // Honest parallelism accounting: the suite is two session jobs, so
    // report the workers that batch could actually occupy, whether the
    // dispatch fanned out at all, and a warning when the pool collapsed
    // to a single thread (then seq and par walls time the same inline
    // path and `speedup` is noise).
    let threads = pool.effective_workers(2);
    let inline_fallback = dispatch_after.threaded_runs == dispatch_before.threaded_runs;
    let threads_warning = (pool.threads() == 1).then(|| {
        "thread pool collapsed to 1 (single-core host): seq and par walls \
         time identical inline runs, speedup is noise"
            .to_string()
    });

    let (row_bytes, columnar_bytes, row_analysis_s, columnar_analysis_s, rows_streamed) =
        columnar_vs_row(&seq);
    let streaming_analysis_rows_per_sec = rows_streamed as f64 / columnar_analysis_s;
    // Honest small-scale reading of the layout comparison: the columnar
    // store pre-allocates fixed-capacity pages per column, so a Tiny
    // capture (well under one page of rows) pays reserved-but-unused
    // capacity the row layout doesn't. Say so rather than letting the
    // bytes comparison read as a columnar regression; the crossover
    // favors columnar as captures grow past a page.
    let columnar_note = (columnar_bytes > row_bytes).then(|| {
        format!(
            "columnar exceeds row bytes at this scale: columns pre-allocate \
             {PAGE_ROWS}-row pages and the measured capture fills a fraction \
             of one; the crossover favors columnar as captures grow"
        )
    });

    // Bounded-memory capture: replay the measured capture through a store
    // under a tight spill budget. The replay must actually spill and stay
    // content-equal to the unbounded original; the peak resident bytes are
    // what the budget is supposed to bound, so the CI gate is a ceiling.
    let capture_peak_rss_bytes = {
        let store = &seq.popular.output.records;
        let mut budgeted = TraceStore::with_budget(Some(CAPTURE_BENCH_BUDGET));
        for r in store.rows() {
            budgeted.push_ref(r);
        }
        assert!(
            budgeted.spilled_pages() >= 1,
            "budgeted capture replay never spilled — raise the workload or lower the budget"
        );
        assert_eq!(budgeted, *store, "budgeted capture replay diverged");
        budgeted.peak_resident_bytes() as u64
    };

    // Node-layer message path: the same full-sized peer-list reply ring
    // under the owned (pre-arena) and zero-copy list representations. Both
    // variants must drive the kernel through the identical event sequence.
    let (owned_stats, owned_wall) = best_list_wall(false, repeats);
    let (arena_stats, arena_wall) = best_list_wall(true, repeats);
    assert_eq!(
        owned_stats, arena_stats,
        "owned and zero-copy peer-list rings disagreed on the workload"
    );
    let node_msgs_per_sec = arena_stats.events_processed as f64 / arena_wall;
    let node_msgs_per_sec_owned = owned_stats.events_processed as f64 / owned_wall;

    // Steady-state allocations of the zero-copy ring, measured over the
    // sustained mid-run window (the first 5 simulated ms warm the event
    // pool and the ring's scratch capacities).
    let arena = PeerListArena::new();
    let mut sim = list_ring_sim(Some(&arena));
    let _ = sim.run_until(SimTime::from_micros(5_000));
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = sim.run_until(SimTime::from_micros(30_000));
    let node_steady_state_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let _ = sim.run_until(SimTime::MAX);
    drop(sim);

    let (gossip_ticks, gossip_wall) = gossip_world_run();
    let node_gossip_ticks_per_sec = gossip_ticks as f64 / gossip_wall;

    // Sharded-world speedup: the same sustained-churn world partitioned
    // across 1 / 4 (ISP atoms) / 5 (the ISP-atom ceiling) / 8 (sub-ISP
    // host groups with owner-replayed queues) shard schedulers. The
    // output is bit-identical by construction, so the shard count may
    // only change the wall clock.
    let (one_stats, one_wall) = best_sharded_wall(1, repeats);
    let (four_stats, four_wall) = best_sharded_wall(4, repeats);
    let (five_stats, five_wall) = best_sharded_wall(5, repeats);
    let (eight_stats, eight_wall) = best_sharded_wall(8, repeats);
    assert_eq!(
        one_stats, four_stats,
        "4-shard world diverged from the single-shard run"
    );
    assert_eq!(
        one_stats, five_stats,
        "5-shard world diverged from the single-shard run"
    );
    assert_eq!(
        one_stats, eight_stats,
        "8-shard sub-ISP world diverged from the single-shard run"
    );
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shard_threads = cores.min(4);
    let shard_warning = (shard_threads < 4).then(|| {
        format!(
            "{cores} core(s) back 4 shards: sharded_speedup_4x measures \
             windowing overhead, not parallelism"
        )
    });
    let sharded_events_per_sec = four_stats.events_processed as f64 / four_wall;
    let sharded_events_per_sec_8x = eight_stats.events_processed as f64 / eight_wall;
    // Single-core honesty: with one core the shards time-slice the same
    // CPU and every wall-clock ratio measures windowing overhead, not
    // parallelism — record null rather than a misleading number (the
    // warning string above says why).
    let sharded_speedup_4x = (shard_threads > 1).then(|| one_wall / four_wall);
    // Sub-ISP payoff: the 8-shard run against the best the ISP-granular
    // partition can ever do (5 shards). > 1.0 means the ceiling is broken.
    let sub_isp_speedup = (shard_threads > 1).then(|| five_wall / eight_wall);

    // Window-round and rate-balance accounting on the Paper10x
    // 8-shard plan. These are plan-derived (topology + session plan, no
    // simulation), so they stay deterministic and cheap even though the
    // full Paper10x run takes minutes — and unlike the speedup ratios
    // they are meaningful on a single-core host. Null only when the plan
    // degenerates to the single-shard path.
    let paper10x_plan = {
        let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Paper10x, 42);
        scenario.shards = Some(8);
        partition_preview(&scenario.world_config())
    };
    let window_rounds_8x = paper10x_plan.as_ref().map(|r| r.window_rounds);
    let rate_imbalance = paper10x_plan.as_ref().map(|r| r.rate_imbalance);

    // Steady state of the cross-shard exchange: 512 publish/drain rounds
    // over a warmed 4-shard grid with the same batch shapes every round,
    // including the owner-replay pattern (a second publish into an
    // occupied slot). Batches cross by buffer swap, so the measured
    // allocation delta must be zero.
    let outbox_steady_state_allocs = {
        const GRID: usize = 4;
        let grid: ShardExchange<u64> = ShardExchange::new(GRID);
        let mut stage: Vec<Vec<u64>> = (0..GRID).map(|_| Vec::new()).collect();
        let mut sink = 0u64;
        fn exchange_round(grid: &ShardExchange<u64>, stage: &mut [Vec<u64>], sink: &mut u64) {
            let shards = grid.shards();
            for src in 0..shards {
                for (dest, buf) in stage.iter_mut().enumerate() {
                    buf.extend(0..32u64);
                    grid.publish(src, dest, buf);
                }
                let dest = (src + 1) % shards;
                stage[dest].extend(0..8u64);
                grid.publish(src, dest, &mut stage[dest]);
            }
            for dest in 0..shards {
                grid.drain(dest, |v| *sink = sink.wrapping_add(v));
            }
        }
        for _ in 0..8 {
            exchange_round(&grid, &mut stage, &mut sink);
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..512 {
            exchange_round(&grid, &mut stage, &mut sink);
        }
        black_box(sink);
        ALLOCS.load(Ordering::Relaxed) - before
    };

    // Locality-frontier smoke sweep: the three-point policy sweep CI runs
    // (gossip-race anchor plus two bias quotas), timed on the bench pool.
    // Seconds-valued, so the CI gate is a ceiling.
    let start = Instant::now();
    let frontier = locality_frontier_on(&pool, scale, 42, true);
    let frontier_sweep_secs = start.elapsed().as_secs_f64();
    assert_eq!(frontier.len(), 3, "smoke sweep must stay three points");
    assert_eq!(
        frontier[0].policy,
        PolicySpec::GossipRace,
        "smoke sweep lost its anchor"
    );

    let report = EngineReport {
        events_processed: cal_stats.events_processed,
        events_per_sec: events_per_sec_calendar,
        events_per_sec_heap,
        events_per_sec_calendar,
        calendar_speedup: events_per_sec_calendar / events_per_sec_heap,
        peak_queue_depth: cal_stats.peak_queue_depth,
        steady_state_allocs,
        threads_configured: pool.threads(),
        threads,
        threads_warning,
        inline_fallback,
        suite_scale: label.to_string(),
        seq_wall_s: seq_wall,
        par_wall_s: par_wall,
        speedup: seq_wall / par_wall,
        row_bytes,
        columnar_bytes,
        columnar_note,
        row_analysis_s,
        columnar_analysis_s,
        node_msgs_per_sec,
        node_msgs_per_sec_owned,
        node_list_speedup: node_msgs_per_sec / node_msgs_per_sec_owned,
        node_gossip_ticks_per_sec,
        node_steady_state_allocs,
        sharded_events_per_sec,
        sharded_speedup_4x,
        sharded_events_per_sec_8x,
        sub_isp_speedup,
        window_rounds_8x,
        rate_imbalance,
        outbox_steady_state_allocs,
        shard_threads,
        shard_warning,
        frontier_sweep_secs,
        capture_peak_rss_bytes,
        streaming_analysis_rows_per_sec,
    };
    let fmt_ratio = |r: Option<f64>| r.map_or_else(|| "null".to_string(), |r| format!("{r:.2}x"));
    let fmt_count = |r: Option<u64>| r.map_or_else(|| "null".to_string(), |v| v.to_string());
    match write_engine_report(&report) {
        Ok(path) => println!(
            "engine report: {:.0} events/sec calendar vs {:.0} heap ({:.2}x), \
             depth {}, {} run-phase allocs, {} threads (inline_fallback {}), \
             speedup {:.2}, capture {} -> {} bytes, analysis {:.4}s -> {:.4}s, \
             node ring {:.0} vs {:.0} msgs/sec ({:.2}x, {} allocs), \
             gossip {:.0} ticks/sec, \
             sharded {:.0} events/sec ({} over 1 shard, {} threads), \
             sub-ISP {:.0} events/sec at 8 shards ({} over the 5-shard ceiling), \
             Paper10x windows {} rounds, rate imbalance {}, \
             outbox steady-state allocs {}, \
             frontier smoke sweep {:.2}s, \
             budgeted capture peak {} B, streaming analysis {:.0} rows/sec -> {}",
            report.events_per_sec_calendar,
            report.events_per_sec_heap,
            report.calendar_speedup,
            report.peak_queue_depth,
            report.steady_state_allocs,
            report.threads,
            report.inline_fallback,
            report.speedup,
            report.row_bytes,
            report.columnar_bytes,
            report.row_analysis_s,
            report.columnar_analysis_s,
            report.node_msgs_per_sec,
            report.node_msgs_per_sec_owned,
            report.node_list_speedup,
            report.node_steady_state_allocs,
            report.node_gossip_ticks_per_sec,
            report.sharded_events_per_sec,
            fmt_ratio(report.sharded_speedup_4x),
            report.shard_threads,
            report.sharded_events_per_sec_8x,
            fmt_ratio(report.sub_isp_speedup),
            fmt_count(report.window_rounds_8x),
            fmt_ratio(report.rate_imbalance),
            report.outbox_steady_state_allocs,
            report.frontier_sweep_secs,
            report.capture_peak_rss_bytes,
            report.streaming_analysis_rows_per_sec,
            path.display()
        ),
        Err(e) => eprintln!("engine report: could not write BENCH_engine.json: {e}"),
    }
}

/// Resident-byte budget for the capture-replay measurement: tight enough
/// that the Tiny smoke suite already spills several sealed pages.
const CAPTURE_BENCH_BUDGET: u64 = 64 * 1024;

/// Compares the popular session's capture in the old row layout against
/// the columnar store: heap bytes of each, then wall-clock to analyze all
/// probes via the old per-probe clone-filter path vs streaming the store's
/// cursors in place. Returns `(row_bytes, columnar_bytes, row_s, col_s,
/// rows_streamed)` where `rows_streamed` counts every row the columnar
/// pass visits (each probe's cursor walks the full store).
fn columnar_vs_row(suite: &Suite) -> (u64, u64, f64, f64, u64) {
    let store = &suite.popular.output.records;
    let dir = AsnDirectory::new();
    let probes: Vec<(NodeId, Isp)> = suite
        .popular
        .reports
        .iter()
        .map(|(_, r)| (r.probe, r.home_isp))
        .collect();

    // Best of three for each path: single-shot wall clocks on a shared
    // box are noisy, and the minimum is the least-contaminated sample.
    let mut columnar_s = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for &(p, isp) in &probes {
            black_box(ProbeReport::new(p, isp, store, &dir));
        }
        columnar_s = columnar_s.min(start.elapsed().as_secs_f64());
    }

    let rows: Vec<TraceRecord> = store.to_records();
    let row_bytes = rows.capacity() * std::mem::size_of::<TraceRecord>()
        + rows
            .iter()
            .map(|r| match &r.kind {
                RecordKind::TrackerResponse { peer_ips }
                | RecordKind::PeerListResponse { peer_ips, .. } => {
                    peer_ips.capacity() * std::mem::size_of::<std::net::Ipv4Addr>()
                }
                _ => 0,
            })
            .sum::<usize>();

    let mut row_s = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for &(p, _) in &probes {
            // The pre-columnar pipeline: clone the probe's records out of
            // the shared capture, then run the seven per-figure passes
            // over the copy.
            let mine: Vec<TraceRecord> = rows.iter().filter(|r| r.probe == p).cloned().collect();
            let view = || mine.iter().map(TraceRecord::as_ref);
            black_box(returned_addresses(view(), &dir));
            black_box(returned_by_source(view(), &dir));
            black_box(data_by_isp(view(), &dir));
            black_box(peer_list_response_times(view(), &dir));
            black_box(data_response_times(view(), &dir));
            black_box(contribution_analysis(view(), &dir));
            black_box(overlay_stats(view(), &dir));
        }
        row_s = row_s.min(start.elapsed().as_secs_f64());
    }

    // Sanity: both layouts hold the same capture.
    assert_eq!(TraceStore::from_records(&rows), *store);

    (
        row_bytes as u64,
        store.approx_heap_bytes() as u64,
        row_s,
        columnar_s,
        (store.len() * probes.len()) as u64,
    )
}

criterion_group!(benches, des_throughput, node_layer, sharded_world);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
    engine_report(c.is_test_mode());
}
