//! Scenario presets mirroring the paper's measurement setup.

use plsim_analysis::ProbeReport;
use plsim_des::SimTime;
use plsim_net::{AsnDirectory, Isp, LinkModel};
use plsim_node::{
    check_world, run_world, CaptureConfig, FaultPlan, InvariantReport, PeerConfig, PolicySpec,
    ProbeSpec, WorldConfig, WorldOutput,
};
use plsim_telemetry::MetricsSnapshot;
use plsim_workload::{ChannelClass, DayFactor, PopulationSpec, SessionPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How big a reproduction run should be.
///
/// `Paper` matches the study's 2-hour sessions with full populations;
/// `Paper10x` keeps the session length and multiplies the population by
/// ten (the locality-frontier regime studies — run it under a capture
/// budget); `Reduced` keeps the same shape at roughly a quarter of
/// the event count (used by the benchmark harness); `Tiny` is for
/// unit/integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Full paper scale: 2 h, ~700 concurrent viewers on the popular
    /// channel.
    Paper,
    /// Ten times the paper's population at the same 2 h session: ~7000
    /// concurrent viewers on the popular channel. Meant for runs with a
    /// capture budget (`--capture-budget`), monolithic or on ISP-atom
    /// shards (`plsim run --shards N`, N ≤ 5).
    Paper10x,
    /// Benchmark scale: 30 min, ~350 concurrent viewers.
    Reduced,
    /// Test scale: 5 min, ~60 concurrent viewers.
    Tiny,
}

impl Scale {
    /// Session length in seconds.
    #[must_use]
    pub fn duration_secs(self) -> f64 {
        match self {
            Scale::Paper | Scale::Paper10x => 7200.0,
            Scale::Reduced => 1800.0,
            Scale::Tiny => 360.0,
        }
    }

    /// Steady-state viewer count for a channel class at this scale.
    #[must_use]
    pub fn viewers(self, class: ChannelClass) -> usize {
        match (self, class) {
            (Scale::Paper, ChannelClass::Popular) => 700,
            (Scale::Paper, ChannelClass::Unpopular) => 110,
            (Scale::Paper10x, ChannelClass::Popular) => 7000,
            (Scale::Paper10x, ChannelClass::Unpopular) => 1100,
            (Scale::Reduced, ChannelClass::Popular) => 350,
            (Scale::Reduced, ChannelClass::Unpopular) => 90,
            (Scale::Tiny, ChannelClass::Popular) => 70,
            (Scale::Tiny, ChannelClass::Unpopular) => 30,
        }
    }
}

/// The standard probe deployment of the study: residential hosts in the two
/// big Chinese ISPs plus a US campus host ("Mason").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeSite {
    /// Residential ADSL host in ChinaTelecom.
    Tele,
    /// Residential ADSL host in ChinaNetcom.
    Cnc,
    /// Campus host at George Mason University (Foreign).
    Mason,
}

impl ProbeSite {
    /// All three standard sites.
    pub const ALL: [ProbeSite; 3] = [ProbeSite::Tele, ProbeSite::Cnc, ProbeSite::Mason];

    /// Display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ProbeSite::Tele => "TELE",
            ProbeSite::Cnc => "CNC",
            ProbeSite::Mason => "Mason",
        }
    }

    /// The probe's home ISP.
    #[must_use]
    pub const fn isp(self) -> Isp {
        match self {
            ProbeSite::Tele => Isp::Tele,
            ProbeSite::Cnc => Isp::Cnc,
            ProbeSite::Mason => Isp::Foreign,
        }
    }

    fn spec(self) -> ProbeSpec {
        match self {
            ProbeSite::Tele | ProbeSite::Cnc => ProbeSpec::residential(self.isp()),
            ProbeSite::Mason => ProbeSpec::campus(Isp::Foreign),
        }
    }
}

/// One measurement session: a channel, its audience, the probes, and the
/// protocol variant under test.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed.
    pub seed: u64,
    /// Channel popularity tier.
    pub class: ChannelClass,
    /// Run size.
    pub scale: Scale,
    /// Probe deployment (defaults to all three standard sites).
    pub probes: Vec<ProbeSite>,
    /// Peer behaviour (defaults to the PPLive protocol).
    pub peer_config: PeerConfig,
    /// Neighbor-selection policy (defaults to the paper's topology-blind
    /// gossip race).
    pub policy: PolicySpec,
    /// Link model (defaults to the calibrated 2008 underlay).
    pub link: LinkModel,
    /// Optional per-day population variation (Figure 6).
    pub day: Option<DayFactor>,
    /// Deterministic fault schedule (empty = fault-free baseline).
    pub faults: FaultPlan,
    /// Capture memory policy: optional resident-byte budget (spill past it)
    /// and optional capture-time aggregation window. Defaults to no
    /// budget and no aggregation; analysis output is bit-identical for
    /// every budget.
    pub capture: CaptureConfig,
    /// Space-partition shard count (`None` = 1), clamped by the
    /// partitioner to the populated-ISP count. Any value produces
    /// bit-identical output; shards only change how many cores drive the
    /// run.
    pub shards: Option<usize>,
    /// Worker threads driving the shards (`None` = the machine's
    /// parallelism). Never changes output.
    pub shard_threads: Option<usize>,
}

impl Scenario {
    /// The paper's setup for one channel at the given scale.
    #[must_use]
    pub fn new(class: ChannelClass, scale: Scale, seed: u64) -> Self {
        Scenario {
            seed,
            class,
            scale,
            probes: ProbeSite::ALL.to_vec(),
            peer_config: PeerConfig::default(),
            policy: PolicySpec::GossipRace,
            link: LinkModel::default(),
            day: None,
            faults: FaultPlan::new(),
            capture: CaptureConfig::default(),
            shards: None,
            shard_threads: None,
        }
    }

    /// Builder form: attaches a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The world configuration this scenario would run — the exact
    /// assembly [`run`](Scenario::run) performs, exposed so partition
    /// planning ([`plsim_node::partition_preview`], the bench's
    /// window-round and rate-balance fields) can price a scenario's
    /// sharded run without simulating it.
    #[must_use]
    pub fn world_config(&self) -> WorldConfig {
        let mut spec = PopulationSpec::paper_default(self.class);
        spec.steady_viewers = self.scale.viewers(self.class);
        if let Some(day) = self.day {
            spec = spec.with_day(day);
        }
        let duration = self.scale.duration_secs();
        let mut plan_rng = SmallRng::seed_from_u64(self.seed ^ 0xABCD_EF01);
        let plan = SessionPlan::generate(&spec, duration, &mut plan_rng);

        let mut cfg = WorldConfig::new(self.seed, plan, SimTime::from_secs_f64(duration));
        cfg.peer_config = self.peer_config;
        cfg.policy = self.policy;
        cfg.link = self.link;
        cfg.faults = self.faults.clone();
        cfg.capture = self.capture;
        cfg.probes = self.probes.iter().map(|p| p.spec()).collect();
        if let Some(shards) = self.shards {
            cfg.shards = shards;
        }
        if let Some(threads) = self.shard_threads {
            cfg.shard_threads = threads;
        }
        cfg
    }

    /// Runs the scenario: builds the population, simulates the session and
    /// analyzes each probe's capture.
    #[must_use]
    pub fn run(&self) -> ScenarioRun {
        let cfg = self.world_config();
        let output = run_world(&cfg);
        let dir = AsnDirectory::new();
        let reports = self
            .probes
            .iter()
            .zip(&output.probes)
            .map(|(site, &node)| {
                (
                    *site,
                    ProbeReport::new(node, site.isp(), &output.records, &dir),
                )
            })
            .collect();
        ScenarioRun {
            class: self.class,
            scale: self.scale,
            faults: self.faults.clone(),
            output,
            reports,
        }
    }
}

/// A finished scenario with per-probe analysis.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The channel tier that was simulated.
    pub class: ChannelClass,
    /// The run size.
    pub scale: Scale,
    /// The fault schedule the run executed under.
    pub faults: FaultPlan,
    /// Raw world output (records, stats, topology).
    pub output: WorldOutput,
    /// Per-probe analysis reports, in probe order.
    pub reports: Vec<(ProbeSite, ProbeReport)>,
}

impl ScenarioRun {
    /// Runs the invariant checker over this run (monotone trace,
    /// request/reply conservation, partition isolation, stall accounting).
    #[must_use]
    pub fn check_invariants(&self) -> InvariantReport {
        check_world(
            &self.output,
            &self.faults,
            SimTime::from_secs_f64(self.scale.duration_secs()),
        )
    }

    /// The run's end-of-run metrics snapshot: kernel counters (`des.*`),
    /// interconnect telemetry (`net.*`) and population playback/traffic
    /// aggregates (`node.*`), all from the one registry the world shares.
    #[must_use]
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.output.metrics
    }

    /// The metrics snapshot with the invariant checker's tallies folded in
    /// as `invariants.*` counters — the full cross-layer export document.
    #[must_use]
    pub fn metrics_with_invariants(&self) -> MetricsSnapshot {
        let mut snap = self.output.metrics.clone();
        self.check_invariants().fold_into(&mut snap);
        snap
    }

    /// The report of a given probe site (the first, if several probes share
    /// the site — the paper deployed two hosts per ISP).
    ///
    /// # Panics
    ///
    /// Panics if the site was not part of the scenario.
    #[must_use]
    pub fn report(&self, site: ProbeSite) -> &ProbeReport {
        &self
            .reports
            .iter()
            .find(|(s, _)| *s == site)
            .unwrap_or_else(|| panic!("no probe at {site:?}"))
            .1
    }

    /// Mean traffic locality across all probes at `site` — the paper's
    /// Figure 6 "average of two concurrent measuring results".
    ///
    /// # Panics
    ///
    /// Panics if the site was not part of the scenario.
    #[must_use]
    pub fn locality_avg(&self, site: ProbeSite) -> f64 {
        let at_site: Vec<f64> = self
            .reports
            .iter()
            .filter(|(s, _)| *s == site)
            .map(|(_, r)| r.locality())
            .collect();
        assert!(!at_site.is_empty(), "no probe at {site:?}");
        at_site.iter().sum::<f64>() / at_site.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_produces_probe_reports() {
        let run = Scenario::new(ChannelClass::Unpopular, Scale::Tiny, 3).run();
        assert_eq!(run.reports.len(), 3);
        let tele = run.report(ProbeSite::Tele);
        assert!(tele.data.bytes.total() > 0, "probe downloaded nothing");
        assert!(tele.returned.total() > 0, "no peer lists captured");
        // The fault-free baseline must satisfy every runtime invariant.
        run.check_invariants().assert_clean();
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let run = Scenario::new(ChannelClass::Unpopular, Scale::Tiny, 3).run();
        let m = run.metrics();
        // Kernel counters agree with the SimStats view of the same registry.
        assert_eq!(
            m.counter("des.events_processed"),
            Some(run.output.sim.events_processed)
        );
        assert!(m.counter("node.chunks_played").unwrap_or(0) > 0);
        assert!(m.counter("node.bytes_down").unwrap_or(0) > 0);
        // Folding invariants adds the checker tallies without touching the
        // run counters.
        let full = run.metrics_with_invariants();
        assert_eq!(full.counter("invariants.checked"), Some(1));
        assert_eq!(
            full.counter("des.events_processed"),
            m.counter("des.events_processed")
        );
    }

    #[test]
    fn scales_order_population_sizes() {
        for class in [ChannelClass::Popular, ChannelClass::Unpopular] {
            assert_eq!(
                Scale::Paper10x.viewers(class),
                10 * Scale::Paper.viewers(class)
            );
            assert!(Scale::Paper.viewers(class) > Scale::Reduced.viewers(class));
            assert!(Scale::Reduced.viewers(class) > Scale::Tiny.viewers(class));
        }
        assert_eq!(
            Scale::Paper10x.duration_secs(),
            Scale::Paper.duration_secs()
        );
    }

    #[test]
    #[should_panic(expected = "no probe")]
    fn missing_probe_panics() {
        let mut s = Scenario::new(ChannelClass::Unpopular, Scale::Tiny, 3);
        s.probes = vec![ProbeSite::Tele];
        let run = s.run();
        let _ = run.report(ProbeSite::Mason);
    }
}
