//! The five workloads: how each sets up, what one operation is, and how
//! its output is checked once the clock has stopped.
//!
//! Everything goes through the simulator's public functions with every
//! configuration field set here, never through the environment. Checks are
//! behaviour-tolerant — run-to-run and twin-to-twin equality plus the
//! simulator's own invariant checker, no pinned goldens — so a legitimate
//! model change in a later issue does not have to edit this directory.

use crate::layers::{self, Ledger};
use crate::spec::{Size, Workload};
use crate::trace::{Digest, Tracer};
use plsim_analysis::ProbeReport;
use plsim_capture::{CaptureConfig, TraceStore};
use plsim_des::SchedulerKind;
use plsim_net::AsnDirectory;
use plsim_node::{
    check_world, partition_preview, run_world, PartitionReport, World, WorldConfig, WorldOutput,
};
use plsim_workload::ChannelClass;
use pplive_locality::{fig_6_on, FourWeeks, JobPool, PolicySpec, ProbeSite, Scale, Scenario};
use std::hint::black_box;
use std::time::Instant;

/// Timed set-up samples per run; odd, so the median is one of them.
const SETUP_SAMPLES: usize = 41;
/// `JobPool::new` takes well under a microsecond, below the clock's
/// resolution, so one `fig6_sweep` set-up sample times this many and
/// divides.
const POOL_BATCH: u32 = 2_000;
/// Producing `capture_replay`'s input takes seconds, so it is set up fewer
/// times.
const REPLAY_SETUP_SAMPLES: usize = 3;
/// Worker threads of the Figure 6 sweep and of the informational 2-thread
/// sharded run: the build host's core count, never more.
const THREADS: usize = 2;

/// Seed of every world's session plan — who joins and leaves when, which
/// fixes how much work a session is. `--seed` re-rolls everything sampled
/// inside the world instead (host placement and latencies, each actor's
/// random stream, link jitter and loss), so runs with different seeds
/// measure the same amount of work: across seeds the small world's event
/// count moves by 0.5 % and its peak memory by 1 %, against 7 % and 15 %
/// when the plan is re-rolled too. At the default seed the two coincide and
/// the worlds are exactly `Scenario::new(class, scale, 42)`.
const PLAN_SEED: u64 = 42;

/// Two concurrent hosts per site, as `fig_6_on` deploys them.
const FIG6_PROBES: [ProbeSite; 6] = [
    ProbeSite::Tele,
    ProbeSite::Tele,
    ProbeSite::Cnc,
    ProbeSite::Cnc,
    ProbeSite::Mason,
    ProbeSite::Mason,
];

/// What one operation did, after verification.
#[derive(Debug)]
pub struct Op {
    pub wall_s: f64,
    /// Events, sessions or rows — see [`Workload::work_unit`].
    pub work: u64,
    pub digest: u64,
    /// Exact counts printed beside the digest so two commits can be
    /// compared by eye.
    pub counts: Vec<(&'static str, u64)>,
    /// Empty when the operation's output passed every check.
    pub failures: Vec<String>,
}

pub trait Runner {
    /// Timed set-up samples in seconds (a traced run takes one, to leave
    /// its time for the layer probes); leaves the runner ready for
    /// [`Runner::op`].
    fn setup(&mut self, tr: &mut Tracer, traced: bool) -> Vec<f64>;

    /// One operation, timed inside, verified after the clock stops.
    fn op(&mut self, tr: &mut Tracer) -> Op;

    /// Fills the per-layer ledger after a traced run: span sums of the last
    /// traced operation `op_id`, exact counts, and the layer probes.
    fn layers(&mut self, tr: &mut Tracer, op_id: u32, ledger: &mut Ledger);
}

pub fn runner(workload: Workload, size: Size, seed: u64) -> Box<dyn Runner> {
    let world = |class, shards| WorldSpec {
        class,
        scale: size.world_scale(),
        seed,
        probes: ProbeSite::ALL.to_vec(),
        shards,
        shard_threads: 1,
    };
    match workload {
        Workload::WorldUnpopularReduced => {
            Box::new(WorldRunner::new(world(ChannelClass::Unpopular, 1), size))
        }
        Workload::WorldPopularReduced => {
            Box::new(WorldRunner::new(world(ChannelClass::Popular, 1), size))
        }
        Workload::WorldSharded8 => {
            Box::new(WorldRunner::new(world(ChannelClass::Unpopular, 8), size))
        }
        Workload::Fig6Sweep => Box::new(Fig6Runner {
            days: size.fig6_days(),
            pool: JobPool::new(THREADS),
            spill_budget: size.replay_budget(),
            reference: None,
        }),
        Workload::CaptureReplay => Box::new(ReplayRunner {
            source: world(ChannelClass::Unpopular, 1),
            budget: size.replay_budget(),
            input: None,
            reference: None,
        }),
    }
}

/// One measurement session, fully specified.
#[derive(Debug, Clone)]
struct WorldSpec {
    class: ChannelClass,
    scale: Scale,
    seed: u64,
    probes: Vec<ProbeSite>,
    shards: usize,
    shard_threads: usize,
}

/// A finished session: what `plsim run` computes before it prints.
struct Session {
    cfg: WorldConfig,
    output: WorldOutput,
    reports: Vec<ProbeReport>,
}

impl WorldSpec {
    /// The session's world configuration — the plan of [`PLAN_SEED`], the
    /// world of `self.seed` — with every knob the environment could
    /// otherwise reach set explicitly.
    fn config(&self) -> WorldConfig {
        let capture = CaptureConfig {
            budget: None,
            aggregate_window: None,
        };
        let mut scenario = Scenario::new(self.class, self.scale, PLAN_SEED);
        scenario.probes = self.probes.clone();
        scenario.policy = PolicySpec::GossipRace;
        scenario.capture = capture;
        scenario.shards = Some(self.shards);
        let mut cfg = scenario.world_config();
        cfg.seed = self.seed;
        cfg.scheduler = SchedulerKind::Calendar;
        cfg.shard_threads = self.shard_threads;
        assert!(
            cfg.policy == PolicySpec::GossipRace
                && cfg.scheduler == SchedulerKind::Calendar
                && cfg.shards == self.shards
                && cfg.shard_threads == self.shard_threads
                && cfg.capture == capture
                && cfg.seed == self.seed,
            "world configuration is not the workload's: {cfg:?}"
        );
        cfg
    }

    /// Plan, build, run and analyse one session — the steps of
    /// `Scenario::run`, each under its own span.
    fn run(&self, tr: &mut Tracer) -> Session {
        let cfg = tr.span("world_config", |_| self.config());
        let output = if self.shards > 1 {
            tr.span("run_world", |_| run_world(&cfg))
        } else {
            let world = tr.span("world_build", |_| World::build(&cfg));
            tr.span("world_run", |_| world.run())
        };
        let reports = self.reports(tr, &output, &output.records);
        Session {
            cfg,
            output,
            reports,
        }
    }

    /// The per-probe analysis of `records`, captured by `output`'s probes.
    fn reports(
        &self,
        tr: &mut Tracer,
        output: &WorldOutput,
        records: &TraceStore,
    ) -> Vec<ProbeReport> {
        let dir = AsnDirectory::new();
        self.probes
            .iter()
            .zip(&output.probes)
            .map(|(site, &node)| {
                tr.span("probe_report", |_| {
                    ProbeReport::new(node, site.isp(), records, &dir)
                })
            })
            .collect()
    }

    /// Checks a session and folds everything it produced into one digest:
    /// kernel counters, the metrics snapshot, every captured row and each
    /// probe's locality.
    fn verify(&self, tr: &mut Tracer, s: &Session) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        let invariants = tr.span("check_world", |_| {
            check_world(&s.output, &s.cfg.faults, s.cfg.duration)
        });
        if let Some(v) = invariants.violations.first() {
            failures.push(format!(
                "{} invariant violation(s), first: {v:?}",
                invariants.violations.len()
            ));
        }
        for (site, &node) in self.probes.iter().zip(&s.output.probes) {
            if s.output.records.rows_for(node).next().is_none() {
                failures.push(format!("probe {} ({node}) captured no rows", site.label()));
            }
        }
        let snapshot = tr.span("snapshot_json", |_| s.output.metrics.to_json());
        let digest = tr.span("digest", |tr| {
            let mut d = Digest::default();
            d.debug(&s.output.sim);
            d.debug(&snapshot);
            tr.span("rows_scan", |_| {
                for row in s.output.records.rows() {
                    d.debug(&row);
                }
            });
            for r in &s.reports {
                d.debug(&r.locality().to_bits());
            }
            d.finish()
        });
        (digest, failures)
    }
}

fn session_counts(s: &Session) -> Vec<(&'static str, u64)> {
    let counter = |name: &str| s.output.metrics.counter(name).unwrap_or(0);
    vec![
        ("events", s.output.sim.events_processed),
        ("messages_sent", s.output.sim.messages_sent),
        ("messages_dropped", s.output.sim.messages_dropped),
        ("peak_queue_depth", s.output.sim.peak_queue_depth),
        ("rows", s.output.records.len() as u64),
        ("bytes_down", counter("node.bytes_down")),
        ("chunks_played", counter("node.chunks_played")),
        ("peers_flushed", s.output.peer_stats.len() as u64),
    ]
}

/// Compares a digest with the reference (the first operation's, or a
/// twin's), adopting it when there is none yet.
fn check_reference(
    reference: &mut Option<u64>,
    digest: u64,
    what: &str,
    failures: &mut Vec<String>,
) {
    match *reference {
        None => *reference = Some(digest),
        Some(r) if r != digest => {
            failures.push(format!("digest {digest:016x} differs from {what} {r:016x}"))
        }
        Some(_) => {}
    }
}

/// `world_unpopular_reduced`, `world_popular_reduced` and `world_sharded8`.
struct WorldRunner {
    spec: WorldSpec,
    /// Digest every operation must reproduce: the first operation's, or —
    /// sharded — the monolithic twin's.
    reference: Option<u64>,
    /// Wall of the monolithic twin of a sharded world (traced runs).
    twin_wall_s: f64,
    /// The last operation's session, kept for the layer probes.
    last: Option<Session>,
    /// Byte budget of the capture layer's spill probe.
    spill_budget: u64,
}

impl WorldRunner {
    fn new(spec: WorldSpec, size: Size) -> WorldRunner {
        WorldRunner {
            spill_budget: size.replay_budget(),
            spec,
            reference: None,
            twin_wall_s: 0.0,
            last: None,
        }
    }

    fn sharded(&self) -> bool {
        self.spec.shards > 1
    }
}

impl Runner for WorldRunner {
    /// A `world_*` set-up sample plans the session and builds its world,
    /// dropping it unrun; the sharded world also plans its partition.
    fn setup(&mut self, tr: &mut Tracer, traced: bool) -> Vec<f64> {
        let samples = if traced { 1 } else { SETUP_SAMPLES };
        let times = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let cfg = tr.span("world_config", |_| self.spec.config());
                let world = tr.span("world_build", |_| World::build(&cfg));
                let plan = self
                    .sharded()
                    .then(|| tr.span("partition_preview", |_| partition_preview(&cfg)));
                let elapsed = start.elapsed().as_secs_f64();
                black_box((world, plan));
                elapsed
            })
            .collect();
        if self.sharded() {
            // The sharded run must reproduce the monolithic run of the same
            // configuration bit for bit; the twin runs once, untimed unless
            // traced, outside every span.
            let twin = WorldSpec {
                shards: 1,
                ..self.spec.clone()
            };
            let mut off = Tracer::new(false);
            let start = Instant::now();
            let session = twin.run(&mut off);
            self.twin_wall_s = start.elapsed().as_secs_f64();
            let (digest, _) = twin.verify(&mut off, &session);
            self.reference = Some(digest);
        }
        times
    }

    fn op(&mut self, tr: &mut Tracer) -> Op {
        self.last = None;
        let start = Instant::now();
        let session = tr.span("op", |tr| self.spec.run(tr));
        let wall_s = start.elapsed().as_secs_f64();
        let (digest, mut failures) = self.spec.verify(tr, &session);
        let what = if self.sharded() {
            "the monolithic twin's"
        } else {
            "the first operation's"
        };
        check_reference(&mut self.reference, digest, what, &mut failures);
        if self.sharded() && session.output.partition.is_none() {
            failures.push("the 8-shard request fell back to the single-shard path".to_string());
        }
        let op = Op {
            wall_s,
            work: session.output.sim.events_processed,
            digest,
            counts: session_counts(&session),
            failures,
        };
        self.last = Some(session);
        op
    }

    fn layers(&mut self, tr: &mut Tracer, op_id: u32, ledger: &mut Ledger) {
        let session = self.last.take().expect("a traced run has a last session");
        ledger.set("workload.sessions", 1.0);
        ledger.set("workload.plan_s", tr.seconds_in("world_config", op_id));
        session_layers(&session, tr, op_id, self.spill_budget, ledger);
        if let Some(plan) = &session.output.partition {
            let sharded_wall = tr.seconds_in("op", op_id);
            // The same world on two real threads: informational, the number
            // ROADMAP item 2 must eventually bring under 1.
            let two = WorldSpec {
                shard_threads: THREADS,
                ..self.spec.clone()
            };
            let start = Instant::now();
            let two_session = two.run(&mut Tracer::new(false));
            let wall_2t = start.elapsed().as_secs_f64();
            assert_eq!(
                two_session.output.sim, session.output.sim,
                "2-thread sharded run diverged"
            );
            shard_layers(plan, &session, ledger);
            ledger.set(
                "shard.partition_plan_s",
                tr.seconds_in("partition_preview", 0),
            );
            ledger.set("shard.overhead_ratio", sharded_wall / self.twin_wall_s);
            ledger.set("shard.wall_2t_s", wall_2t);
            ledger.set("shard.thread_ratio_2t", wall_2t / sharded_wall);
        }
    }
}

/// Ledger lines every simulated session fills: span sums of operation
/// `op_id`, the run's exact counts, and the layer probes sized by it.
fn session_layers(s: &Session, tr: &Tracer, op_id: u32, spill_budget: u64, ledger: &mut Ledger) {
    let out = &s.output;
    let events = out.sim.events_processed as f64;
    let rows = out.records.len() as f64;
    let counter = |name: &str| out.metrics.counter(name).unwrap_or(0) as f64;

    // A monolithic session builds and runs under separate spans; a sharded
    // one builds inside `run_world`, so its build time is the set-up's.
    let run_s = tr.seconds_in("world_run", op_id) + tr.seconds_in("run_world", op_id);
    let build_s = if out.partition.is_some() {
        tr.seconds_in("world_build", 0)
    } else {
        tr.seconds_in("world_build", op_id)
    };
    let ns_per_event = run_s * 1e9 / events;
    ledger.set("node.build_s", build_s);
    ledger.set("node.run_s", run_s);
    ledger.set("node.ns_per_event", ns_per_event);
    ledger.set("node.invariants_s", tr.seconds_in("check_world", op_id));
    ledger.set("node.bytes_down", counter("node.bytes_down"));
    ledger.set("node.chunks_played", counter("node.chunks_played"));
    ledger.set(
        "node.gossip_requests_sent",
        counter("node.gossip_requests_sent"),
    );
    ledger.set(
        "node.data_requests_sent",
        counter("node.data_requests_sent"),
    );
    ledger.set("node.stalls", counter("node.stalls"));
    ledger.set("node.peers_flushed", out.peer_stats.len() as f64);

    ledger.set("des.events", events);
    ledger.set("des.messages_sent", out.sim.messages_sent as f64);
    ledger.set("des.messages_dropped", out.sim.messages_dropped as f64);
    ledger.set("des.peak_queue_depth", out.sim.peak_queue_depth as f64);
    let sched_ns = layers::des_sched_ns_per_event(out.sim.peak_queue_depth);
    ledger.set("des.sched_ns_per_event", sched_ns);
    ledger.set("des.sched_share", sched_ns / ns_per_event);

    let transit_ns = layers::net_transit_ns_per_msg(&out.topology);
    let msgs_per_event = out.sim.messages_sent as f64 / events;
    ledger.set("net.transit_ns_per_msg", transit_ns);
    ledger.set(
        "net.transit_share",
        transit_ns * msgs_per_event / ns_per_event,
    );
    ledger.set(
        "net.interconnect_wait_count",
        out.metrics
            .histogram("net.interconnect_wait_s")
            .map_or(0.0, |h| h.count as f64),
    );

    ledger.set(
        "proto.peerlist_ns_per_msg",
        layers::proto_peerlist_ns_per_msg(),
    );

    let ingest_ns = capture_layers(&out.records, spill_budget, ledger);
    ledger.set("capture.rows_per_event", rows / events);
    ledger.set(
        "telemetry.snapshot_json_s",
        tr.seconds_in("snapshot_json", op_id),
    );
    let report_s = tr.seconds_in("probe_report", op_id);
    ledger.set("analysis.report_s", report_s);
    ledger.set("analysis.fold_ns_per_row", report_s * 1e9 / rows);

    // Computed, not measured: what is left of a run's per-event time once
    // the isolated scheduler, medium and capture costs are taken out at
    // their per-event rates — an upper bound on peer and tracker handlers.
    ledger.set(
        "node.residual_ns_per_event",
        ns_per_event - sched_ns - transit_ns * msgs_per_event - ingest_ns * rows / events,
    );
}

/// Capture and telemetry probes over one capture: in-memory ingest,
/// ingest under `budget` (spilling), and reading the spilled store back.
/// Returns the in-memory ingest cost per row.
fn capture_layers(records: &TraceStore, budget: u64, ledger: &mut Ledger) -> f64 {
    let rows = records.len() as f64;
    let (resident, ingest_s) = layers::ingest(records, None);
    let (spilled, spill_ingest_s) = layers::ingest(records, Some(budget));
    let start = Instant::now();
    for row in spilled.rows() {
        black_box(row);
    }
    let read_s = start.elapsed().as_secs_f64();
    ledger.set("capture.rows", rows);
    ledger.set("capture.ingest_ns_per_row", ingest_s * 1e9 / rows);
    ledger.set(
        "capture.spill_ingest_ns_per_row",
        spill_ingest_s * 1e9 / rows,
    );
    ledger.set("capture.spilled_pages", spilled.spilled_pages() as f64);
    ledger.set(
        "capture.peak_resident_bytes",
        spilled.peak_resident_bytes() as f64,
    );
    ledger.set("telemetry.spill_read_ns_per_row", read_s * 1e9 / rows);
    drop(resident);
    ingest_s * 1e9 / rows
}

fn shard_layers(plan: &PartitionReport, s: &Session, ledger: &mut Ledger) {
    ledger.set("shard.window_rounds", plan.window_rounds as f64);
    ledger.set(
        "shard.window_rounds_global",
        plan.window_rounds_global as f64,
    );
    ledger.set("shard.split_isps", plan.split_isps as f64);
    ledger.set("shard.owner_replayed_queues", plan.deferred_queues as f64);
    ledger.set("shard.rate_imbalance", plan.rate_imbalance);
    ledger.set(
        "shard.events_per_round",
        s.output.sim.events_processed as f64 / plan.window_rounds as f64,
    );
}

/// `fig6_sweep`: the paper's Figure 6 flow, `2 × days` short six-probe
/// sessions through one two-thread work queue.
struct Fig6Runner {
    days: u32,
    pool: JobPool,
    /// Byte budget of the capture layer's spill probe.
    spill_budget: u64,
    reference: Option<u64>,
}

impl Fig6Runner {
    fn sessions(&self) -> u64 {
        2 * u64::from(self.days)
    }

    /// Always the sweep of [`PLAN_SEED`]: `fig_6_on` draws the size of all
    /// its sessions from its one seed, and nothing in its signature re-rolls
    /// a sweep without resizing it. Across two sets of ten seeds a sweep's
    /// wall moved by 8–10 % and its peak memory by 11–18 % — another
    /// workload per seed, and more than the memory bound — so `--seed` does
    /// not reach this workload.
    fn sweep(&self, pool: &JobPool) -> FourWeeks {
        fig_6_on(pool, self.days, Scale::Tiny, PLAN_SEED)
    }

    fn verify(&self, weeks: &FourWeeks) -> (u64, Vec<String>) {
        let mut failures = Vec::new();
        let mut d = Digest::default();
        for (label, series) in [("popular", &weeks.popular), ("unpopular", &weeks.unpopular)] {
            if series.len() != self.days as usize {
                failures.push(format!(
                    "{label} series has {} days, not {}",
                    series.len(),
                    self.days
                ));
            }
            for day in series {
                for (site, locality) in [("CNC", day.cnc), ("TELE", day.tele), ("Mason", day.mason)]
                {
                    if !(0.0..=1.0).contains(&locality) {
                        failures.push(format!(
                            "{label} day {} {site} locality {locality} is not a share",
                            day.day
                        ));
                    }
                    d.debug(&(day.day, locality.to_bits()));
                }
            }
        }
        (d.finish(), failures)
    }
}

impl Runner for Fig6Runner {
    /// The sweep's only set-up is its pool; sessions are built inside
    /// `fig_6_on`, and that time belongs to the operation.
    fn setup(&mut self, _tr: &mut Tracer, traced: bool) -> Vec<f64> {
        let samples = if traced { 1 } else { SETUP_SAMPLES };
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..POOL_BATCH {
                    black_box(JobPool::new(black_box(THREADS)));
                }
                start.elapsed().as_secs_f64() / f64::from(POOL_BATCH)
            })
            .collect()
    }

    fn op(&mut self, tr: &mut Tracer) -> Op {
        let threaded_before = self.pool.dispatch_stats().threaded_runs;
        let start = Instant::now();
        let weeks = tr.span("op", |tr| tr.span("fig_6_on", |_| self.sweep(&self.pool)));
        let wall_s = start.elapsed().as_secs_f64();
        let (digest, mut failures) = self.verify(&weeks);
        check_reference(
            &mut self.reference,
            digest,
            "the first operation's",
            &mut failures,
        );
        if self.pool.dispatch_stats().threaded_runs != threaded_before + 1 {
            failures.push("the sweep did not fan out over the pool's threads".to_string());
        }
        Op {
            wall_s,
            work: self.sessions(),
            digest,
            counts: vec![("sessions", self.sessions())],
            failures,
        }
    }

    fn layers(&mut self, tr: &mut Tracer, op_id: u32, ledger: &mut Ledger) {
        let par_wall = tr.seconds_in("fig_6_on", op_id);
        let sequential = JobPool::sequential();
        let start = Instant::now();
        let weeks = self.sweep(&sequential);
        let seq_wall = start.elapsed().as_secs_f64();
        assert_eq!(
            Some(self.verify(&weeks).0),
            self.reference,
            "sequential sweep diverged from the pooled one"
        );
        let stats = self.pool.dispatch_stats();
        ledger.set("workload.sessions", self.sessions() as f64);
        ledger.set("core.pool_seq_wall_s", seq_wall);
        ledger.set(
            "core.pool_parallel_efficiency",
            seq_wall / (THREADS as f64 * par_wall),
        );
        ledger.set("core.pool_threaded_runs", stats.threaded_runs as f64);
        ledger.set("core.pool_inline_runs", stats.inline_runs as f64);

        // `fig_6_on` returns only the locality series, so the layers of its
        // sessions are read off one representative session — the popular
        // channel's first day without the day factor — run here the way the
        // world workloads run theirs.
        let spec = WorldSpec {
            class: ChannelClass::Popular,
            scale: Scale::Tiny,
            seed: PLAN_SEED,
            probes: FIG6_PROBES.to_vec(),
            shards: 1,
            shard_threads: 1,
        };
        let rep_op = tr.next_op();
        let session = spec.run(tr);
        let (_, failures) = spec.verify(tr, &session);
        assert!(failures.is_empty(), "representative session: {failures:?}");
        ledger.set("workload.plan_s", tr.seconds_in("world_config", rep_op));
        session_layers(&session, tr, rep_op, self.spill_budget, ledger);
    }
}

/// `capture_replay`: re-ingest one finished session's capture under a
/// byte budget and analyse it from the spilled store.
struct ReplayRunner {
    source: WorldSpec,
    budget: u64,
    input: Option<Session>,
    /// Digest of the reports built from the unbudgeted capture.
    reference: Option<u64>,
}

fn reports_digest(reports: &[ProbeReport]) -> u64 {
    let mut d = Digest::default();
    for r in reports {
        d.debug(r);
    }
    d.finish()
}

impl Runner for ReplayRunner {
    /// Set-up is producing the input capture: one whole source session.
    fn setup(&mut self, _tr: &mut Tracer, traced: bool) -> Vec<f64> {
        let samples = if traced { 1 } else { REPLAY_SETUP_SAMPLES };
        let mut off = Tracer::new(false);
        let times = (0..samples)
            .map(|_| {
                self.input = None;
                let start = Instant::now();
                self.input = Some(self.source.run(&mut off));
                start.elapsed().as_secs_f64()
            })
            .collect();
        let input = self.input.as_ref().expect("at least one set-up sample");
        let (_, failures) = self.source.verify(&mut off, input);
        assert!(failures.is_empty(), "input capture: {failures:?}");
        self.reference = Some(reports_digest(&input.reports));
        times
    }

    fn op(&mut self, tr: &mut Tracer) -> Op {
        let input = self.input.as_ref().expect("set-up produced the input");
        let original = &input.output.records;
        let start = Instant::now();
        let (store, reports) = tr.span("op", |tr| {
            let mut store = TraceStore::with_budget(Some(self.budget));
            tr.span("push_ref", |_| {
                for row in original.rows() {
                    store.push_ref(row);
                }
            });
            let reports = self.source.reports(tr, &input.output, &store);
            (store, reports)
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        if store.spilled_pages() == 0 {
            failures.push(format!("nothing spilled under a {} B budget", self.budget));
        }
        if !tr.span("store_eq", |_| store == *original) {
            failures.push("budgeted store differs from the original capture".to_string());
        }
        let digest = reports_digest(&reports);
        check_reference(
            &mut self.reference,
            digest,
            "the unbudgeted reports'",
            &mut failures,
        );
        Op {
            wall_s,
            work: original.len() as u64,
            digest,
            counts: vec![
                ("rows", original.len() as u64),
                ("spilled_pages", store.spilled_pages() as u64),
                ("peak_resident_bytes", store.peak_resident_bytes() as u64),
            ],
            failures,
        }
    }

    fn layers(&mut self, tr: &mut Tracer, op_id: u32, ledger: &mut Ledger) {
        let input = self.input.as_ref().expect("set-up produced the input");
        let rows = input.output.records.len() as f64;
        ledger.set("workload.sessions", 1.0);
        capture_layers(&input.output.records, self.budget, ledger);
        // The operation's own spilling ingest, in place of the probe's.
        ledger.set(
            "capture.spill_ingest_ns_per_row",
            tr.seconds_in("push_ref", op_id) * 1e9 / rows,
        );
        let start = Instant::now();
        black_box(input.output.metrics.to_json());
        ledger.set("telemetry.snapshot_json_s", start.elapsed().as_secs_f64());
        let report_s = tr.seconds_in("probe_report", op_id);
        ledger.set("analysis.report_s", report_s);
        ledger.set("analysis.fold_ns_per_row", report_s * 1e9 / rows);
    }
}
