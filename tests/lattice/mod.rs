//! The equivalence lattice: a run's output is a function of its world
//! alone, never of the shards, threads, scheduler, capture budget or job
//! pool that ran it.
//!
//! A [`Cell`] is one point of the lattice: a world (shape, selection
//! policy, fault plan, NAT share, interconnect capacity) and the way it is
//! run (shards, shard threads, kernel scheduler, capture budget,
//! dispatch). Every cell is checked by one [`assert_same`] against its
//! reference cell — the same world on one shard and one thread, under the
//! calendar queue, with no budget, run inline — and by the facts its run
//! axes promise ([`assert_axis_facts`]).
//!
//! The fast slice is tier-1, split by contract over the named tests of
//! `tests/determinism.rs` (reruns and seeds), `tests/shard_identity.rs`
//! (shards, threads, budgets and faults), `tests/engine_determinism.rs`
//! (the heap scheduler and sampled fault plans) and
//! `tests/equivalence.rs` (every selection policy). The `#[ignore]`d full
//! slice in `tests/equivalence.rs` samples more cells and adds the
//! Paper10x population (`cargo test --release --test equivalence --
//! --ignored`). Each test binary uses part of this module.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use plsim_analysis::ProbeReport;
use plsim_des::{SchedulerKind, SimTime};
use plsim_net::{AsnDirectory, BandwidthClass, Isp, LinkFault, LinkModel};
use plsim_node::{
    run_world, CaptureConfig, FaultPlan, PolicySpec, ProbeSpec, WorldConfig, WorldOutput,
};
use plsim_workload::{ChannelClass, PeerPlan, PopulationSpec, SessionPlan};
use pplive_locality::{combined_chaos, JobPool, ProbeSite, Scale, Scenario};
use proptest::prelude::*;
use proptest::test_rng;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Rows in a trace page; a page seals when its last row lands.
pub const PAGE_ROWS: usize = 8192;

/// Below one sealed page (8,192 rows of 48 B), so every sealed page spills.
pub const TIGHT_BUDGET: u64 = 64 * 1024;

/// How long one test's cells may run, about 20× the slowest test's debug
/// time on two cores.
pub const LIMIT: Duration = Duration::from_secs(300);

/// The five selection-policy families.
pub const POLICIES: [PolicySpec; 5] = [
    PolicySpec::GossipRace,
    PolicySpec::TrackerOnly,
    PolicySpec::BiasedLocality { cross_isp_quota: 1 },
    PolicySpec::RttThreshold {
        cutoff: SimTime::from_millis(100),
    },
    PolicySpec::DeepDivingOracle,
];

/// The population and probes of a cell's world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// The Tiny unpopular scenario: 360 s, the three standard probes.
    Tiny,
    /// Fig. 6's deployment, two probes at each site of a Tiny popular
    /// session: on five shards, two probes share each of three shards.
    Fig6,
    /// The unpopular population of a scale over a number of seconds, with
    /// residential probes in TELE, CNC and Foreign joining a quarter of
    /// the way in.
    Cut(Scale, u64),
    /// Twelve viewers in TELE and CNC over 150 s and one TELE probe: three
    /// populated ISPs, and every viewer leaves at the horizon itself.
    Micro,
}

/// How a cell's runs are dispatched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dispatch {
    /// One run through a sequential `JobPool`.
    Inline,
    /// Two copies fanned out over `JobPool::new(2)`.
    Pool,
    /// Two runs, one after the other, through a sequential `JobPool`.
    Rerun,
}

/// One point of the lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub shape: Shape,
    pub seed: u64,
    pub policy: PolicySpec,
    pub faults: FaultPlan,
    pub nat: f64,
    /// The interconnect squeezed to 1.5 Mbit/s, so cross-ISP transfers
    /// queue.
    pub squeeze: bool,
    pub shards: usize,
    pub threads: usize,
    pub scheduler: SchedulerKind,
    pub budget: Option<u64>,
    pub dispatch: Dispatch,
}

impl Cell {
    /// The reference cell of a default world of `shape`.
    pub fn new(shape: Shape, seed: u64) -> Cell {
        Cell {
            shape,
            seed,
            policy: PolicySpec::GossipRace,
            faults: FaultPlan::new(),
            nat: 0.0,
            squeeze: false,
            shards: 1,
            threads: 1,
            scheduler: SchedulerKind::Calendar,
            budget: None,
            dispatch: Dispatch::Inline,
        }
    }

    /// This cell on `shards` shards driven by `threads` threads.
    pub fn on(&self, shards: usize, threads: usize) -> Cell {
        Cell {
            shards,
            threads,
            ..self.clone()
        }
    }

    /// The same world, run the simplest way.
    pub fn reference(&self) -> Cell {
        Cell {
            scheduler: SchedulerKind::Calendar,
            budget: None,
            dispatch: Dispatch::Inline,
            ..self.on(1, 1)
        }
    }

    fn config(&self) -> WorldConfig {
        let seed = self.seed;
        let mut cfg = match self.shape {
            Shape::Tiny => Scenario::new(ChannelClass::Unpopular, Scale::Tiny, seed).world_config(),
            Shape::Fig6 => {
                let mut scenario = Scenario::new(ChannelClass::Popular, Scale::Tiny, seed);
                scenario.probes = ProbeSite::ALL.iter().flat_map(|&s| [s, s]).collect();
                scenario.world_config()
            }
            Shape::Cut(scale, secs) => {
                let mut spec = PopulationSpec::paper_default(ChannelClass::Unpopular);
                spec.steady_viewers = scale.viewers(ChannelClass::Unpopular);
                let mut rng = SmallRng::seed_from_u64(seed);
                let plan = SessionPlan::generate(&spec, secs as f64, &mut rng);
                let mut cfg = WorldConfig::new(seed, plan, SimTime::from_secs(secs));
                cfg.probes = [Isp::Tele, Isp::Cnc, Isp::Foreign]
                    .map(|isp| ProbeSpec {
                        join_s: secs as f64 / 4.0,
                        ..ProbeSpec::residential(isp)
                    })
                    .to_vec();
                cfg
            }
            Shape::Micro => {
                let peers = (0..12u64)
                    .map(|i| PeerPlan {
                        isp: if i % 3 == 0 { Isp::Cnc } else { Isp::Tele },
                        bandwidth: BandwidthClass::Adsl,
                        join_s: (i * 5) as f64,
                        leave_s: 150.0,
                    })
                    .collect();
                let mut cfg =
                    WorldConfig::new(seed, SessionPlan { peers }, SimTime::from_secs(150));
                cfg.probes = vec![ProbeSpec {
                    join_s: 30.0,
                    ..ProbeSpec::residential(Isp::Tele)
                }];
                cfg
            }
        };
        cfg.policy = self.policy;
        cfg.faults = self.faults.clone();
        cfg.nat_fraction = self.nat;
        if self.squeeze {
            cfg.link = LinkModel {
                interconnect_mbps: 1.5,
                ..LinkModel::default()
            };
        }
        cfg.shards = self.shards;
        cfg.shard_threads = self.threads;
        cfg.scheduler = self.scheduler;
        cfg.capture = CaptureConfig {
            budget: self.budget,
            aggregate_window: None,
        };
        cfg
    }

    /// Runs `cfg`, this cell's world, as the dispatch axis says; every
    /// run's output is returned.
    fn run(&self, cfg: &WorldConfig) -> Vec<WorldOutput> {
        let (pool, copies) = match self.dispatch {
            Dispatch::Inline => (JobPool::sequential(), 1),
            Dispatch::Pool => (JobPool::new(2), 2),
            Dispatch::Rerun => (JobPool::sequential(), 2),
        };
        let outs = pool.map(vec![cfg.clone(); copies], |c| run_world(&c));
        let stats = pool.dispatch_stats();
        let threaded = u64::from(self.dispatch == Dispatch::Pool);
        assert_eq!(
            (stats.inline_runs, stats.threaded_runs),
            (1 - threaded, threaded),
            "{self:?}: dispatch ledger"
        );
        outs
    }
}

/// The Tiny unpopular world under the combined-chaos fault plan.
pub fn chaos() -> Cell {
    Cell {
        faults: combined_chaos(Scale::Tiny),
        ..Cell::new(Shape::Tiny, 42)
    }
}

/// The two-minute unpopular world with early probes, a NAT share and
/// [`boundary_faults`]: cheap enough for every policy.
pub fn short() -> Cell {
    Cell {
        faults: boundary_faults(),
        nat: 0.2,
        ..Cell::new(Shape::Cut(Scale::Tiny, 120), 11)
    }
}

/// A fault plan crossing shard boundaries in every category at once: a
/// tracker blackout (timers fan out to trackers on several shards at one
/// instant), a churn storm (a same-time burst of leaves and rejoins) and
/// a loss ramp over the interconnect.
fn boundary_faults() -> FaultPlan {
    FaultPlan::new()
        .tracker_blackout(SimTime::from_secs(40), SimTime::from_secs(60))
        .churn_storm(SimTime::from_secs(70), 0.5, Some(SimTime::from_secs(15)))
        .link(LinkFault::loss_ramp(
            SimTime::from_secs(45),
            SimTime::from_secs(85),
            SimTime::from_secs(10),
            0.2,
        ))
}

/// Every probe's analysis report as `Debug` text, which keeps f64 bits.
fn reports(out: &WorldOutput) -> Vec<String> {
    let dir = AsnDirectory::new();
    out.probes
        .iter()
        .map(|&p| {
            let report = ProbeReport::new(p, out.topology.host(p).isp, &out.records, &dir);
            format!("{report:?}")
        })
        .collect()
}

fn assert_same(cell: &Cell, out: &WorldOutput, reference: &WorldOutput, expected: &[String]) {
    assert_eq!(out.sim, reference.sim, "{cell:?}: sim");
    assert_eq!(out.metrics, reference.metrics, "{cell:?}: metrics");
    assert_eq!(out.records, reference.records, "{cell:?}: records");
    assert_eq!(out.peer_stats, reference.peer_stats, "{cell:?}: peer_stats");
    assert_eq!(
        out.fault_marks, reference.fault_marks,
        "{cell:?}: fault_marks"
    );
    assert_eq!(reports(out), expected, "{cell:?}: probe reports");
}

/// What the run axes promise beyond equal output: shards are whole ISPs,
/// clamped to the populated ones; every shard works every round of the
/// fixed window; a budget below one page spills every sealed page.
fn assert_axis_facts(cell: &Cell, cfg: &WorldConfig, out: &WorldOutput, reference: &WorldOutput) {
    let populated = out
        .topology
        .iter()
        .map(|(_, host)| host.isp)
        .collect::<BTreeSet<_>>()
        .len();
    let shards = cell.shards.min(populated);
    match &out.partition {
        None => assert_eq!(shards, 1, "{cell:?}: ran unsharded"),
        Some(report) => {
            assert_eq!(report.shards, shards, "{cell:?}: shard clamp");
            assert_eq!(report.threads, cell.threads.min(shards), "{cell:?}");
            let isps: usize = report.isps.iter().sum();
            assert_eq!(isps, populated, "{cell:?}: an ISP spans two shards");
            assert!(report.isps.iter().all(|&n| n > 0), "{cell:?}: empty shard");
            let rounds = shards as u64
                * cfg
                    .duration
                    .as_micros()
                    .div_ceil(report.lookahead.as_micros());
            assert_eq!(report.window_rounds, rounds, "{cell:?}: window rounds");
            assert_eq!(report.window_rounds_global, rounds, "{cell:?}");
        }
    }
    if let Some(budget) = cell.budget {
        let sealed = reference.records.len() / PAGE_ROWS;
        assert_eq!(out.records.spilled_pages(), sealed, "{cell:?}: spilled");
        let resident = reference.records.peak_resident_bytes();
        assert!(resident > budget as usize, "{cell:?}: budget never bit");
    }
}

/// Guards that keep a reference cell from passing vacuously: it ran
/// unsharded and resident, every probe captured, a fault plan fired, a
/// squeezed interconnect queued.
fn assert_not_vacuous(cell: &Cell, out: &WorldOutput) {
    assert!(out.partition.is_none(), "{cell:?}: reference sharded");
    assert_eq!(
        out.records.spilled_pages(),
        0,
        "{cell:?}: reference spilled"
    );
    for &probe in &out.probes {
        let rows = out.records.rows_for(probe).next();
        assert!(rows.is_some(), "{cell:?}: probe {probe:?} captured nothing");
    }
    if cell.shape == Shape::Fig6 {
        for pair in out.probes.chunks(2) {
            let isp = |p| out.topology.host(p).isp;
            assert_eq!(isp(pair[0]), isp(pair[1]), "a site's probes share an ISP");
        }
    }
    if !cell.faults.is_empty() {
        assert!(!out.fault_marks.is_empty(), "{cell:?}: no fault fired");
    }
    if cell.squeeze {
        let waits = out.metrics.histogram("net.interconnect_wait_s");
        assert!(
            waits.is_some_and(|h| h.count > 0),
            "{cell:?}: the squeezed interconnect never queued"
        );
    }
}

/// Checks every cell against its reference: each distinct reference runs
/// once, and the references and then the cells run two at a time — except
/// a cell whose run drives two threads itself, which runs alone so that
/// its shard barrier never waits on a thread the other cell displaced.
/// Returns the references with their outputs.
pub fn check(cells: Vec<Cell>) -> Vec<(Cell, WorldOutput)> {
    let mut refs: Vec<Cell> = Vec::new();
    for cell in &cells {
        let reference = cell.reference();
        if !refs.contains(&reference) {
            refs.push(reference);
        }
    }
    let lattice = JobPool::new(2);
    let outs = lattice.map(refs.clone(), |cell| {
        let out = cell.run(&cell.config()).remove(0);
        assert_not_vacuous(&cell, &out);
        let expected = reports(&out);
        (out, expected)
    });
    for (i, (a, (out_a, _))) in refs.iter().zip(&outs).enumerate() {
        for (b, (out_b, _)) in refs.iter().zip(&outs).skip(i + 1) {
            let reseeded = Cell {
                seed: a.seed,
                ..b.clone()
            };
            if a.seed != b.seed && reseeded == *a {
                assert_ne!(
                    (out_a.sim.events_processed, out_a.records.len()),
                    (out_b.sim.events_processed, out_b.records.len()),
                    "{a:?} and {b:?}: two seeds, one run"
                );
            }
        }
    }

    let verify = |cell: Cell| {
        let at = refs.iter().position(|r| *r == cell.reference());
        let (reference, expected) = &outs[at.expect("every reference ran")];
        let cfg = cell.config();
        let runs = cell.run(&cfg);
        for out in &runs {
            assert_same(&cell, out, reference, expected);
            assert_axis_facts(&cell, &cfg, out, reference);
        }
        let records = &runs[0].records;
        (cell, records.spilled_pages(), records.peak_resident_bytes())
    };
    let (solo, paired): (Vec<Cell>, Vec<Cell>) = cells
        .into_iter()
        .partition(|c| c.dispatch == Dispatch::Pool || (c.shards > 1 && c.threads > 1));
    let mut spill = lattice.map(paired, verify);
    spill.extend(JobPool::sequential().map(solo, verify));
    // Budgeted runs of one world spill the same pages and peak at the
    // same resident bytes, however they are sharded.
    for (i, (a, pages_a, peak_a)) in spill.iter().enumerate() {
        for (b, pages_b, peak_b) in spill.iter().skip(i + 1) {
            if a.budget.is_some() && a.budget == b.budget && a.reference() == b.reference() {
                let what = format!("{a:?} and {b:?}: spill figures");
                assert_eq!((pages_a, peak_a), (pages_b, peak_b), "{what}");
            }
        }
    }
    refs.into_iter()
        .zip(outs)
        .map(|(cell, (out, _))| (cell, out))
        .collect()
}

/// Held by the one [`check_within`] running in this test binary, so that
/// its two-at-a-time runs and lone two-thread cells get the cores they
/// were sized for.
static LATTICE: Mutex<()> = Mutex::new(());

/// [`check`] on a thread of its own that must finish within `limit`: a
/// run that never ends (a merge or a barrier that spins forever) fails
/// the test instead of hanging it. Checks in one test binary run one at
/// a time.
pub fn check_within(limit: Duration, cells: Vec<Cell>) -> Vec<(Cell, WorldOutput)> {
    let _turn = LATTICE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (tx, rx) = channel();
    let lattice = std::thread::spawn(move || tx.send(check(cells)));
    match rx.recv_timeout(limit) {
        Ok(refs) => refs,
        Err(RecvTimeoutError::Timeout) => panic!("the lattice ran past {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(lattice.join().expect_err("the lattice sent nothing"))
        }
    }
}

/// The output of `cell`'s reference among the references [`check`]
/// returned.
pub fn reference_of<'a>(refs: &'a [(Cell, WorldOutput)], cell: &Cell) -> &'a WorldOutput {
    let reference = cell.reference();
    let found = refs.iter().find(|(r, _)| *r == reference);
    &found.expect("every reference ran").1
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[(0..items.len()).sample(rng)]
}

/// A cell drawn from the whole lattice. Only a Tiny session's capture
/// fills a page, so only a Tiny cell draws a budget.
fn sampled(rng: &mut TestRng) -> Cell {
    let seed = (0u64..1_000_000).sample(rng);
    let shape = pick(
        rng,
        &[Shape::Micro, Shape::Cut(Scale::Tiny, 120), Shape::Tiny],
    );
    let events = collection::vec((0u32..7, 5u64..110, 10u64..60, 0.05f64..0.6), 0..4);
    let mut faults = FaultPlan::new();
    for (kind, at_s, gap_s, frac) in events.sample(rng) {
        let at = SimTime::from_secs(at_s);
        let until = SimTime::from_secs(at_s + gap_s);
        let (gap, gap_half) = (SimTime::from_secs(gap_s), SimTime::from_secs(gap_s / 2));
        faults = match kind {
            0 => faults.tracker_blackout(at, until),
            1 => faults.tracker_outage(at),
            2 => faults.bootstrap_outage(at, Some(until)),
            3 => faults.churn_storm(at, frac, Some(gap)),
            4 => faults.link(LinkFault::partition(Isp::Tele, Isp::Cnc, at, until)),
            5 => faults.link(LinkFault::loss_ramp(at, until, gap_half, frac * 0.3)),
            _ => faults.link(LinkFault::degraded_interconnect(at, until, frac)),
        };
    }
    Cell {
        shape,
        seed,
        policy: pick(rng, &POLICIES),
        faults,
        nat: pick(rng, &[0.0, 0.3]),
        squeeze: any::<bool>().sample(rng),
        shards: pick(rng, &[1, 2, 5, 8]),
        threads: pick(rng, &[1, 2]),
        scheduler: pick(rng, &[SchedulerKind::Calendar, SchedulerKind::Heap]),
        budget: match shape {
            Shape::Tiny => pick(rng, &[None, Some(TIGHT_BUDGET)]),
            _ => None,
        },
        dispatch: pick(rng, &[Dispatch::Inline, Dispatch::Pool, Dispatch::Rerun]),
    }
}

/// `n` cells drawn from the whole lattice by the random stream `name`
/// names.
pub fn sample_cells(name: &str, n: usize) -> Vec<Cell> {
    let mut rng = test_rng(name);
    (0..n).map(|_| sampled(&mut rng)).collect()
}
