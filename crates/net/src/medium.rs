//! The network medium: propagation + jitter + serialization + loss, plus
//! scheduled time-varying disturbances (loss/latency ramps, interconnect
//! degradation, full ISP partitions).
//!
//! Every transit resolves on the sender's side: the interconnect queue a
//! packet waits in belongs to its source ISP, and a sharded world keeps
//! each ISP whole on one shard.

use crate::{congestion_extra_ms, core_one_way_ms, transfer_time, Isp, Topology};
use plsim_des::{Delivery, FaultEvent, Medium, NodeId, SimTime};
use plsim_telemetry::{Gauge, Histogram, MetricsRegistry};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tunable link-quality parameters of the underlay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Mean of the exponential jitter, as a fraction of the base one-way
    /// propagation delay. Captures path-load variation.
    pub jitter_frac: f64,
    /// Scale on the ISP-pair congestion delay
    /// ([`crate::congestion_extra_ms`]); 1.0 = calibrated default, 0.0
    /// disables interconnect congestion entirely.
    pub congestion_scale: f64,
    /// Capacity (Mbit/s) of each direction of the TELE↔CNC domestic
    /// interconnect, modelled as a full-duplex FIFO queue (one queue per
    /// *directed* ISP pair); other Chinese cross pairs get a fraction of
    /// it and transoceanic paths are uncapped (the paper's Mason probe saw
    /// *faster* replies from China than Chinese residential probes did —
    /// international backbones were not the bottleneck, domestic peering
    /// was). Cross-ISP packets wait behind all other cross traffic headed
    /// the same way on the same pair, so delay grows with load — the
    /// mechanism behind the paper's popularity-dependent locality. `0.0`
    /// disables queueing.
    pub interconnect_mbps: f64,
    /// Ceiling on the interconnect queue wait (seconds). Past it the link
    /// sheds load (the excess never occupies the queue), so congestion
    /// penalizes latency without triggering retry storms.
    pub interconnect_max_wait_s: f64,
    /// Packet-loss probability on intra-ISP paths.
    pub loss_intra: f64,
    /// Packet-loss probability on cross-ISP paths within China.
    pub loss_cross_cn: f64,
    /// Packet-loss probability on transoceanic paths.
    pub loss_transoceanic: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            jitter_frac: 0.3,
            congestion_scale: 1.0,
            interconnect_mbps: 120.0,
            interconnect_max_wait_s: 1.2,
            loss_intra: 0.002,
            loss_cross_cn: 0.01,
            loss_transoceanic: 0.02,
        }
    }
}

impl LinkModel {
    /// A lossless, jitter-free model for deterministic unit tests.
    #[must_use]
    pub fn ideal() -> Self {
        LinkModel {
            jitter_frac: 0.0,
            congestion_scale: 0.0,
            interconnect_mbps: 0.0,
            interconnect_max_wait_s: 1.2,
            loss_intra: 0.0,
            loss_cross_cn: 0.0,
            loss_transoceanic: 0.0,
        }
    }

    /// Loss probability between two ISPs under this model.
    #[must_use]
    pub fn loss_probability(&self, a: Isp, b: Isp) -> f64 {
        if a == b {
            self.loss_intra
        } else if a.is_chinese() && b.is_chinese() {
            self.loss_cross_cn
        } else {
            self.loss_transoceanic
        }
    }
}

/// One scheduled disturbance window on the underlay: between [`from`] and
/// [`until`] the link model is perturbed, optionally ramping in linearly
/// over the leading [`ramp`] interval (so loss/latency can grow gradually,
/// like a saturating interconnect, instead of stepping).
///
/// Windows compose: every active window contributes its loss/latency/
/// capacity perturbation; a partition window cuts its ISP pair entirely.
/// Activation is clock-driven — the harness schedules a
/// [`plsim_des::FaultEvent`] at each boundary (see [`Underlay::with_faults`]).
///
/// [`from`]: LinkFault::from
/// [`until`]: LinkFault::until
/// [`ramp`]: LinkFault::ramp
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Linear ramp-in duration from `from`; zero = step change.
    pub ramp: SimTime,
    /// Added packet-loss probability on every path at full intensity.
    pub loss_add: f64,
    /// Multiplier (≥ 1) on propagation, jitter and congestion delay at
    /// full intensity; 1.0 = unchanged.
    pub latency_factor: f64,
    /// Multiplier (≤ 1) on interconnect capacity at full intensity;
    /// 1.0 = unchanged.
    pub capacity_factor: f64,
    /// If set, all traffic between this (unordered) ISP pair is cut for
    /// the whole window (no ramp: a peering de-configuration is binary).
    pub partition: Option<(Isp, Isp)>,
}

impl LinkFault {
    /// A no-op window over `[from, until)`; combine with the setters below.
    #[must_use]
    pub fn window(from: SimTime, until: SimTime) -> Self {
        LinkFault {
            from,
            until,
            ramp: SimTime::ZERO,
            loss_add: 0.0,
            latency_factor: 1.0,
            capacity_factor: 1.0,
            partition: None,
        }
    }

    /// A packet-loss ramp: loss grows linearly to `loss_add` over `ramp`,
    /// holds until the window closes.
    #[must_use]
    pub fn loss_ramp(from: SimTime, until: SimTime, ramp: SimTime, loss_add: f64) -> Self {
        LinkFault {
            ramp,
            loss_add,
            ..Self::window(from, until)
        }
    }

    /// A latency ramp: one-way delays scale up to `latency_factor`.
    #[must_use]
    pub fn latency_ramp(from: SimTime, until: SimTime, ramp: SimTime, latency_factor: f64) -> Self {
        LinkFault {
            ramp,
            latency_factor,
            ..Self::window(from, until)
        }
    }

    /// Interconnect degradation: cross-ISP queue capacity drops to
    /// `capacity_factor` of nominal (delays grow under the same load).
    #[must_use]
    pub fn degraded_interconnect(from: SimTime, until: SimTime, capacity_factor: f64) -> Self {
        LinkFault {
            capacity_factor,
            ..Self::window(from, until)
        }
    }

    /// A full partition of the `a`↔`b` interconnect: every packet between
    /// the two ISPs is dropped for the whole window.
    #[must_use]
    pub fn partition(a: Isp, b: Isp, from: SimTime, until: SimTime) -> Self {
        LinkFault {
            partition: Some((a, b)),
            ..Self::window(from, until)
        }
    }

    /// Whether the window covers time `t`.
    #[must_use]
    pub fn is_active(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    /// Ramp intensity in `[0, 1]` at time `t` (0 outside the window).
    #[must_use]
    pub fn intensity(&self, t: SimTime) -> f64 {
        if !self.is_active(t) {
            return 0.0;
        }
        let ramp = self.ramp.as_secs_f64();
        if ramp <= 0.0 {
            return 1.0;
        }
        (t.saturating_sub(self.from).as_secs_f64() / ramp).min(1.0)
    }

    /// Whether the window cuts traffic between `a` and `b` at time `t`.
    #[must_use]
    pub fn cuts(&self, a: Isp, b: Isp, t: SimTime) -> bool {
        self.is_active(t)
            && self
                .partition
                .is_some_and(|(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
    }

    /// A short label for markers and traces, e.g. `"partition:TELE-CNC"`.
    #[must_use]
    pub fn label(&self) -> String {
        if let Some((a, b)) = self.partition {
            format!("partition:{a:?}-{b:?}")
        } else if self.capacity_factor < 1.0 {
            format!("interconnect-degradation:x{:.2}", self.capacity_factor)
        } else if self.loss_add > 0.0 && self.latency_factor > 1.0 {
            format!(
                "link-degradation:loss+{:.3},lat x{:.2}",
                self.loss_add, self.latency_factor
            )
        } else if self.loss_add > 0.0 {
            format!("loss-ramp:+{:.3}", self.loss_add)
        } else if self.latency_factor > 1.0 {
            format!("latency-ramp:x{:.2}", self.latency_factor)
        } else {
            "link-fault".to_string()
        }
    }
}

/// The [`Medium`] implementation used by all scenarios: consults the
/// [`Topology`] for host placement and applies the [`LinkModel`].
///
/// The one-way delay of a packet of `size` bytes from `a` to `b` is
///
/// ```text
/// edge(a) + core(isp_a, isp_b) + edge(b)      (propagation)
///   + Exp(jitter_frac * propagation)          (path-load jitter)
///   + size * 8 / min(up_a, down_b)            (serialization)
/// ```
///
/// and the packet is dropped with the ISP-pair loss probability. The medium
/// never inspects payloads, so it implements `Medium<P>` for every `P`.
#[derive(Debug, Clone)]
pub struct Underlay {
    topology: Arc<Topology>,
    link: LinkModel,
    /// Per *directed* ISP pair `[src][dst]`: queued bits and the last
    /// accounting time. Interconnects are full-duplex — each direction
    /// drains at the pair's nominal capacity independently — so a directed
    /// queue is touched only by traffic originating in `src`, which is what
    /// lets a sharded world keep every queue shard-local: its shards are
    /// whole ISPs, so each queue lives with its source ISP's hosts. The
    /// current queue wait is `backlog / capacity`.
    xlink_backlog: [[(f64, SimTime); 5]; 5],
    /// The scheduled disturbance windows, in harness order.
    faults: Vec<LinkFault>,
    /// Indices into `faults` of the currently-active windows; maintained by
    /// [`Medium::on_fault`] boundary events (clock-driven activation).
    active_faults: Vec<usize>,
    /// Queued bits on the interconnect pair most recently touched; its peak
    /// is the run-wide interconnect high-water mark. Detached until
    /// [`Underlay::attach_metrics`] binds it to a registry.
    xlink_backlog_bits: Gauge,
    /// Distribution of applied interconnect queue waits (seconds).
    xlink_wait_s: Histogram,
}

/// Bucket bounds (seconds) of the `net.interconnect_wait_s` histogram; the
/// last bound equals the default wait cap so the overflow bucket counts
/// load-shedding events.
const XLINK_WAIT_BOUNDS: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.2];

impl Underlay {
    /// Creates the medium over a finished topology.
    #[must_use]
    pub fn new(topology: Arc<Topology>, link: LinkModel) -> Self {
        Underlay {
            topology,
            link,
            xlink_backlog: [[(0.0, SimTime::ZERO); 5]; 5],
            faults: Vec::new(),
            active_faults: Vec::new(),
            xlink_backlog_bits: Gauge::detached(),
            xlink_wait_s: Histogram::detached(&XLINK_WAIT_BOUNDS),
        }
    }

    /// Interns the interconnect instruments (`net.interconnect_backlog_bits`
    /// gauge, `net.interconnect_wait_s` histogram) into `registry`, replacing
    /// the detached defaults, so queue depth flows into the run's shared
    /// snapshot. Call once after construction, before the simulation starts.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.xlink_backlog_bits = registry.gauge("net.interconnect_backlog_bits");
        self.xlink_wait_s = registry.histogram("net.interconnect_wait_s", &XLINK_WAIT_BOUNDS);
    }

    /// Installs scheduled disturbance windows.
    ///
    /// Activation is clock-driven: the harness must schedule a
    /// [`plsim_des::FaultEvent`] at every boundary in
    /// [`Underlay::fault_boundaries`] (any label). Each event makes the
    /// medium recompute its active window set at that instant, so state
    /// flips exactly on the simulation clock; windows already active at
    /// t = 0 are live immediately.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<LinkFault>) -> Self {
        self.faults = faults;
        self.refresh_active(SimTime::ZERO);
        self
    }

    /// The installed disturbance windows.
    #[must_use]
    pub fn faults(&self) -> &[LinkFault] {
        &self.faults
    }

    /// Every instant at which a window opens or closes, sorted and deduped
    /// — the times the harness must schedule fault events at.
    #[must_use]
    pub fn fault_boundaries(&self) -> Vec<SimTime> {
        let mut ts: Vec<SimTime> = self.faults.iter().flat_map(|f| [f.from, f.until]).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    fn refresh_active(&mut self, now: SimTime) {
        self.active_faults.clear();
        for (i, f) in self.faults.iter().enumerate() {
            if f.is_active(now) {
                self.active_faults.push(i);
            }
        }
    }

    /// Combined perturbation of the active windows at time `t`:
    /// `(loss_add, latency_factor, capacity_factor, partitioned)`.
    fn disturbance(&self, a: Isp, b: Isp, t: SimTime) -> (f64, f64, f64, bool) {
        let mut loss_add = 0.0;
        let mut latency_factor = 1.0;
        let mut capacity_factor = 1.0;
        let mut partitioned = false;
        for &i in &self.active_faults {
            let f = &self.faults[i];
            let k = f.intensity(t);
            if k <= 0.0 {
                continue;
            }
            loss_add += f.loss_add * k;
            latency_factor *= 1.0 + (f.latency_factor - 1.0) * k;
            capacity_factor *= 1.0 + (f.capacity_factor - 1.0) * k;
            partitioned |= f.cuts(a, b, t);
        }
        (
            loss_add,
            latency_factor,
            capacity_factor.max(0.0),
            partitioned,
        )
    }

    /// Capacity of the (a, b) interconnect relative to the configured
    /// TELE↔CNC capacity; `None` = uncapped.
    fn pair_capacity_mbps(&self, a: Isp, b: Isp) -> Option<f64> {
        use Isp::*;
        if a == b || self.link.interconnect_mbps <= 0.0 {
            return None;
        }
        match (a.min(b), a.max(b)) {
            (Tele, Cnc) => Some(self.link.interconnect_mbps),
            // Smaller domestic peerings.
            (Tele, Cer) | (Cnc, Cer) | (Cer, OtherCn) => Some(self.link.interconnect_mbps * 0.6),
            (Tele, OtherCn) | (Cnc, OtherCn) => Some(self.link.interconnect_mbps * 0.5),
            // International backbone: effectively uncapped for P2P flows.
            (_, Foreign) => None,
            _ => None,
        }
    }

    /// Queues `size_bytes` on the `a → b` direction of the interconnect at
    /// time `now` and returns the queue wait, capped at
    /// `interconnect_max_wait_s` (beyond the cap the link sheds load: the
    /// packet is delayed by the cap but does not occupy the queue, so
    /// congestion penalizes latency without triggering retry storms).
    fn interconnect_wait(
        &mut self,
        a: Isp,
        b: Isp,
        size_bytes: u32,
        now: SimTime,
        capacity_scale: f64,
    ) -> SimTime {
        let Some(capacity_mbps) = self.pair_capacity_mbps(a, b) else {
            return SimTime::ZERO;
        };
        let capacity_bps = (capacity_mbps * capacity_scale).max(1e-6) * 1e6;
        let (i, j) = (a as usize, b as usize);
        let (backlog_bits, last) = &mut self.xlink_backlog[i][j];
        // Drain at line rate since the last accounting instant. Departure
        // times are not strictly monotone (sender-side holds), so guard
        // with a saturating difference.
        let elapsed = now.saturating_sub(*last).as_secs_f64();
        *backlog_bits = (*backlog_bits - elapsed * capacity_bps).max(0.0);
        if now > *last {
            *last = now;
        }
        let wait_s = *backlog_bits / capacity_bps;
        if wait_s > self.link.interconnect_max_wait_s {
            // Load shed: the packet takes the capped wait but never joins
            // the queue. Lands in the histogram's overflow bucket.
            self.xlink_wait_s.observe(wait_s);
            return SimTime::from_secs_f64(self.link.interconnect_max_wait_s);
        }
        *backlog_bits += f64::from(size_bytes) * 8.0;
        self.xlink_backlog_bits.set(*backlog_bits as u64);
        self.xlink_wait_s.observe(wait_s);
        SimTime::from_secs_f64(wait_s)
    }

    /// Conservative cross-shard lookahead for a space-partitioned world:
    /// the minimum base one-way propagation delay over every host pair in
    /// *different shards* (`shard_of` maps node index → shard) — the pairs
    /// whose messages travel through the outbox and are ingested at the
    /// window barrier.
    ///
    /// Every delay component this medium adds on top of base propagation —
    /// jitter, interconnect wait, serialization — is non-negative, and
    /// latency disturbances never *shrink* propagation, so a message sent
    /// at `t` on such a pair can never arrive before `t + lookahead`.
    /// Returns `None` when no pair qualifies (single-shard worlds have
    /// unbounded lookahead).
    ///
    /// Computed from per-`(shard, ISP)` minimum edge delays rather than
    /// all host pairs, so it is O(hosts + shards² · ISPs²).
    #[must_use]
    pub fn conservative_lookahead(&self, shard_of: &[usize], shards: usize) -> Option<SimTime> {
        let n_isp = Isp::ALL.len();
        let mut edge_min = vec![vec![SimTime::MAX; n_isp]; shards];
        for (id, host) in self.topology.iter() {
            let s = shard_of[id.index()];
            let i = host.isp as usize;
            edge_min[s][i] = edge_min[s][i].min(host.edge_delay);
        }
        let mut best: Option<SimTime> = None;
        for s in 0..shards {
            for t in (0..shards).filter(|&t| t != s) {
                for (ia, &a) in Isp::ALL.iter().enumerate() {
                    if edge_min[s][ia] == SimTime::MAX {
                        continue;
                    }
                    for (ib, &b) in Isp::ALL.iter().enumerate() {
                        if edge_min[t][ib] == SimTime::MAX {
                            continue;
                        }
                        let core = SimTime::from_secs_f64(core_one_way_ms(a, b) / 1e3);
                        let d = edge_min[s][ia] + core + edge_min[t][ib];
                        best = Some(best.map_or(d, |x| x.min(d)));
                    }
                }
            }
        }
        best
    }

    /// The topology this medium routes over.
    #[must_use]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }
}

impl<P> Medium<P> for Underlay {
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bytes: u32,
        _now: SimTime,
        rng: &mut SmallRng,
    ) -> Delivery {
        let ha = *self.topology.host(from);
        let hb = *self.topology.host(to);

        let (loss_add, latency_factor, capacity_scale, partitioned) =
            if self.active_faults.is_empty() {
                (0.0, 1.0, 1.0, false)
            } else {
                self.disturbance(ha.isp, hb.isp, _now)
            };
        if partitioned {
            return Delivery::Drop;
        }

        let p_loss = (self.link.loss_probability(ha.isp, hb.isp) + loss_add).min(1.0);
        if p_loss > 0.0 && rng.random::<f64>() < p_loss {
            return Delivery::Drop;
        }

        let propagation = self.topology.base_one_way(from, to);
        let congestion_mean =
            congestion_extra_ms(ha.isp, hb.isp) / 1e3 * self.link.congestion_scale;
        let jitter_mean =
            (propagation.as_secs_f64() * self.link.jitter_frac + congestion_mean) * latency_factor;
        let jitter = if jitter_mean > 0.0 {
            let u: f64 = rng.random::<f64>();
            SimTime::from_secs_f64(-jitter_mean * (1.0 - u).ln())
        } else {
            SimTime::ZERO
        };
        // Avoid a float round-trip on the common undisturbed path.
        let propagation = if latency_factor > 1.0 {
            SimTime::from_secs_f64(propagation.as_secs_f64() * latency_factor)
        } else {
            propagation
        };
        let bottleneck = ha.bandwidth.up_bps.min(hb.bandwidth.down_bps);
        let serialization = transfer_time(size_bytes, bottleneck);
        let xwait = self.interconnect_wait(ha.isp, hb.isp, size_bytes, _now, capacity_scale);

        Delivery::After(propagation + jitter + xwait + serialization)
    }

    fn on_fault(&mut self, now: SimTime, _fault: &FaultEvent) {
        self.refresh_active(now);
    }

    fn on_run_end(&mut self, horizon: SimTime) {
        // Settle every directed interconnect queue to the horizon at
        // nominal capacity and publish the total residual backlog as the
        // gauge's final value. Draining at *nominal* (not disturbed)
        // capacity keeps this independent of fault state, so the
        // single-shard run and every shard of a partitioned run settle
        // their disjoint queue sets identically and the merged gauge
        // (sum of currents, max of peaks) reproduces the reference. Each
        // queue's residual is truncated to whole bits before it is added:
        // truncating the sum instead would make the total depend on how
        // the queues are grouped into shards whenever residuals are
        // fractional (a capacity that is not a whole number of Mbit/s).
        let mut residual_bits = 0u64;
        for (i, &a) in Isp::ALL.iter().enumerate() {
            for (j, &b) in Isp::ALL.iter().enumerate() {
                let Some(capacity_mbps) = self.pair_capacity_mbps(a, b) else {
                    continue;
                };
                let (backlog_bits, last) = &mut self.xlink_backlog[i][j];
                let elapsed = horizon.saturating_sub(*last).as_secs_f64();
                *backlog_bits = (*backlog_bits - elapsed * capacity_mbps * 1e6).max(0.0);
                if horizon > *last {
                    *last = horizon;
                }
                residual_bits += *backlog_bits as u64;
            }
        }
        self.xlink_backlog_bits.finalize(residual_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandwidthClass, TopologyBuilder};
    use rand::SeedableRng;

    fn two_host_underlay(link: LinkModel) -> (Underlay, NodeId, NodeId) {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = TopologyBuilder::new();
        let x = b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        let y = b.add_host(Isp::Foreign, BandwidthClass::Campus, &mut rng);
        (Underlay::new(Arc::new(b.build()), link), x, y)
    }

    /// Transits one packet and returns its delay, or a descriptive `Err`
    /// when the medium drops it — so tests propagate failures with `?`
    /// instead of `panic!`.
    fn transit_delay(
        u: &mut Underlay,
        from: NodeId,
        to: NodeId,
        size: u32,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Result<SimTime, String> {
        match Medium::<()>::transit(u, from, to, size, now, rng) {
            Delivery::After(d) => Ok(d),
            Delivery::Drop => Err(format!(
                "packet {from}->{to} ({size} B) unexpectedly dropped at {now}"
            )),
        }
    }

    /// Advances the medium's clock-driven fault state to `now`, as the DES
    /// kernel does when a scheduled boundary event fires.
    fn fire_boundary(u: &mut Underlay, now: SimTime) {
        Medium::<()>::on_fault(u, now, &FaultEvent::begin("boundary"));
    }

    #[test]
    fn ideal_link_gives_deterministic_delay() {
        let (mut u, x, y) = two_host_underlay(LinkModel::ideal());
        let mut rng = SmallRng::seed_from_u64(0);
        let d1 = Medium::<()>::transit(&mut u, x, y, 0, SimTime::ZERO, &mut rng);
        let d2 = Medium::<()>::transit(&mut u, x, y, 0, SimTime::ZERO, &mut rng);
        assert_eq!(d1, d2);
        let base = u.topology().base_one_way(x, y);
        assert_eq!(d1, Delivery::After(base));
    }

    #[test]
    fn serialization_adds_size_dependent_delay() -> Result<(), String> {
        let (mut u, x, y) = two_host_underlay(LinkModel::ideal());
        let mut rng = SmallRng::seed_from_u64(0);
        let small = transit_delay(&mut u, x, y, 100, SimTime::ZERO, &mut rng)?;
        let large = transit_delay(&mut u, x, y, 100_000, SimTime::ZERO, &mut rng)?;
        assert!(large > small);
        Ok(())
    }

    #[test]
    fn loss_probability_orders_by_distance() {
        let m = LinkModel::default();
        assert!(m.loss_probability(Isp::Tele, Isp::Tele) < m.loss_probability(Isp::Tele, Isp::Cnc));
        assert!(
            m.loss_probability(Isp::Tele, Isp::Cnc) < m.loss_probability(Isp::Tele, Isp::Foreign)
        );
    }

    #[test]
    fn lossy_link_eventually_drops() {
        let link = LinkModel {
            loss_transoceanic: 0.5,
            ..LinkModel::default()
        };
        let (mut u, x, y) = two_host_underlay(link);
        let mut rng = SmallRng::seed_from_u64(1);
        let drops = (0..1000)
            .filter(|_| {
                matches!(
                    Medium::<()>::transit(&mut u, x, y, 10, SimTime::ZERO, &mut rng),
                    Delivery::Drop
                )
            })
            .count();
        // ~500 expected; be generous.
        assert!((300..700).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn jitter_is_nonnegative_and_variable() {
        let link = LinkModel {
            jitter_frac: 0.5,
            loss_intra: 0.0,
            loss_cross_cn: 0.0,
            loss_transoceanic: 0.0,
            ..LinkModel::ideal()
        };
        let (mut u, x, y) = two_host_underlay(link);
        let base = u.topology().base_one_way(x, y);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut delays = Vec::new();
        for _ in 0..100 {
            if let Delivery::After(d) =
                Medium::<()>::transit(&mut u, x, y, 0, SimTime::ZERO, &mut rng)
            {
                assert!(d >= base);
                delays.push(d);
            }
        }
        delays.dedup();
        assert!(delays.len() > 50, "jitter should vary");
    }

    #[test]
    fn partition_window_cuts_pair_then_restores() -> Result<(), String> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut b = TopologyBuilder::new();
        let tele_a = b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        let tele_b = b.add_host(Isp::Tele, BandwidthClass::Adsl, &mut rng);
        let cnc = b.add_host(Isp::Cnc, BandwidthClass::Adsl, &mut rng);
        let mut u = Underlay::new(Arc::new(b.build()), LinkModel::ideal()).with_faults(vec![
            LinkFault::partition(
                Isp::Tele,
                Isp::Cnc,
                SimTime::from_secs(10),
                SimTime::from_secs(20),
            ),
        ]);
        let mut rng = SmallRng::seed_from_u64(0);

        transit_delay(&mut u, tele_a, cnc, 10, SimTime::from_secs(5), &mut rng)?;

        fire_boundary(&mut u, SimTime::from_secs(10));
        for _ in 0..20 {
            let d =
                Medium::<()>::transit(&mut u, tele_a, cnc, 10, SimTime::from_secs(12), &mut rng);
            assert_eq!(d, Delivery::Drop, "partitioned pair must drop");
            let r =
                Medium::<()>::transit(&mut u, cnc, tele_a, 10, SimTime::from_secs(12), &mut rng);
            assert_eq!(r, Delivery::Drop, "partition is symmetric");
        }
        // Intra-ISP traffic is untouched by the partition.
        transit_delay(&mut u, tele_a, tele_b, 10, SimTime::from_secs(12), &mut rng)?;

        fire_boundary(&mut u, SimTime::from_secs(20));
        transit_delay(&mut u, tele_a, cnc, 10, SimTime::from_secs(25), &mut rng)?;
        Ok(())
    }

    #[test]
    fn loss_ramp_scales_drop_probability_over_time() -> Result<(), String> {
        let (u, x, y) = two_host_underlay(LinkModel::ideal());
        let mut u = u.with_faults(vec![LinkFault::loss_ramp(
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimTime::from_secs(50),
            1.0,
        )]);
        let mut rng = SmallRng::seed_from_u64(5);

        // At the window start the ramp contributes nothing.
        transit_delay(&mut u, x, y, 10, SimTime::ZERO, &mut rng)?;

        // Mid-ramp intensity is 0.5 — drop rate ~50%.
        let drops = (0..400)
            .filter(|_| {
                matches!(
                    Medium::<()>::transit(&mut u, x, y, 10, SimTime::from_secs(25), &mut rng),
                    Delivery::Drop
                )
            })
            .count();
        assert!((120..280).contains(&drops), "mid-ramp drops = {drops}");

        // Past the ramp the added loss saturates at 1.0: everything drops.
        for _ in 0..20 {
            let d = Medium::<()>::transit(&mut u, x, y, 10, SimTime::from_secs(60), &mut rng);
            assert_eq!(d, Delivery::Drop);
        }

        // After the window closes, delivery resumes.
        fire_boundary(&mut u, SimTime::from_secs(100));
        transit_delay(&mut u, x, y, 10, SimTime::from_secs(101), &mut rng)?;
        Ok(())
    }

    #[test]
    fn latency_ramp_multiplies_one_way_delay() -> Result<(), String> {
        let (u, x, y) = two_host_underlay(LinkModel::ideal());
        let mut u = u.with_faults(vec![LinkFault::latency_ramp(
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimTime::ZERO,
            3.0,
        )]);
        let mut rng = SmallRng::seed_from_u64(0);
        let base = u.topology().base_one_way(x, y);
        let d = transit_delay(&mut u, x, y, 0, SimTime::from_secs(1), &mut rng)?;
        assert_eq!(d, SimTime::from_secs_f64(base.as_secs_f64() * 3.0));

        // Outside the window the delay is back to the undisturbed base.
        fire_boundary(&mut u, SimTime::from_secs(100));
        let after = transit_delay(&mut u, x, y, 0, SimTime::from_secs(101), &mut rng)?;
        assert_eq!(after, base);
        Ok(())
    }

    #[test]
    fn degraded_interconnect_grows_queue_wait() -> Result<(), String> {
        let link = LinkModel {
            interconnect_mbps: 1.0,
            interconnect_max_wait_s: 1e9,
            ..LinkModel::ideal()
        };
        let build = || {
            let mut rng = SmallRng::seed_from_u64(11);
            let mut b = TopologyBuilder::new();
            let t = b.add_host(Isp::Tele, BandwidthClass::Campus, &mut rng);
            let c = b.add_host(Isp::Cnc, BandwidthClass::Campus, &mut rng);
            (Underlay::new(Arc::new(b.build()), link), t, c)
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let size = 125_000; // 1 Mbit: a 1-second backlog at nominal capacity.

        let (mut nominal, t, c) = build();
        transit_delay(&mut nominal, t, c, size, SimTime::ZERO, &mut rng)?;
        let queued_nominal = transit_delay(&mut nominal, t, c, size, SimTime::ZERO, &mut rng)?;

        let (degraded, t, c) = build();
        let mut degraded = degraded.with_faults(vec![LinkFault::degraded_interconnect(
            SimTime::ZERO,
            SimTime::from_secs(100),
            0.1,
        )]);
        transit_delay(&mut degraded, t, c, size, SimTime::ZERO, &mut rng)?;
        let queued_degraded = transit_delay(&mut degraded, t, c, size, SimTime::ZERO, &mut rng)?;

        assert!(
            queued_degraded > queued_nominal,
            "degraded wait {queued_degraded} should exceed nominal {queued_nominal}"
        );
        Ok(())
    }

    #[test]
    fn attached_metrics_record_queue_depth_and_waits() -> Result<(), String> {
        let link = LinkModel {
            interconnect_mbps: 1.0,
            ..LinkModel::ideal()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut b = TopologyBuilder::new();
        let t = b.add_host(Isp::Tele, BandwidthClass::Campus, &mut rng);
        let c = b.add_host(Isp::Cnc, BandwidthClass::Campus, &mut rng);
        let mut u = Underlay::new(Arc::new(b.build()), link);
        let registry = MetricsRegistry::new();
        u.attach_metrics(&registry);

        let mut rng = SmallRng::seed_from_u64(0);
        let size = 125_000; // 1 Mbit: a 1-second backlog per packet at 1 Mbit/s.
        transit_delay(&mut u, t, c, size, SimTime::ZERO, &mut rng)?;
        transit_delay(&mut u, t, c, size, SimTime::ZERO, &mut rng)?;

        let snap = registry.snapshot();
        let gauge = snap.gauge("net.interconnect_backlog_bits").unwrap();
        assert!(gauge.peak >= 1_000_000, "peak backlog {} bits", gauge.peak);
        let hist = snap.histogram("net.interconnect_wait_s").unwrap();
        assert_eq!(hist.count, 2);
        assert!(hist.sum() > 0.0, "second packet waited behind the first");
        Ok(())
    }

    #[test]
    fn interconnect_queues_are_directed() -> Result<(), String> {
        let link = LinkModel {
            interconnect_mbps: 1.0,
            interconnect_max_wait_s: 1e9,
            ..LinkModel::ideal()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut b = TopologyBuilder::new();
        let t = b.add_host(Isp::Tele, BandwidthClass::Campus, &mut rng);
        let c = b.add_host(Isp::Cnc, BandwidthClass::Campus, &mut rng);
        let mut u = Underlay::new(Arc::new(b.build()), link);
        let mut rng = SmallRng::seed_from_u64(0);
        let size = 125_000; // 1 Mbit: a 1-second backlog at 1 Mbit/s.

        let first = transit_delay(&mut u, t, c, size, SimTime::ZERO, &mut rng)?;
        let queued = transit_delay(&mut u, t, c, size, SimTime::ZERO, &mut rng)?;
        assert!(queued > first, "same direction queues");
        // The reverse direction has its own (empty) queue, so its delay
        // matches the unloaded forward delay.
        let reverse = transit_delay(&mut u, c, t, size, SimTime::ZERO, &mut rng)?;
        assert_eq!(reverse, first, "full-duplex: reverse queue is empty");
        Ok(())
    }

    #[test]
    fn on_run_end_settles_backlog_and_keeps_peak() -> Result<(), String> {
        let link = LinkModel {
            interconnect_mbps: 1.0,
            interconnect_max_wait_s: 1e9,
            ..LinkModel::ideal()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let mut b = TopologyBuilder::new();
        let t = b.add_host(Isp::Tele, BandwidthClass::Campus, &mut rng);
        let c = b.add_host(Isp::Cnc, BandwidthClass::Campus, &mut rng);
        let mut u = Underlay::new(Arc::new(b.build()), link);
        let registry = MetricsRegistry::new();
        u.attach_metrics(&registry);
        let mut rng = SmallRng::seed_from_u64(0);
        transit_delay(&mut u, t, c, 125_000, SimTime::ZERO, &mut rng)?;
        transit_delay(&mut u, t, c, 125_000, SimTime::ZERO, &mut rng)?;
        let peak_before = registry
            .snapshot()
            .gauge("net.interconnect_backlog_bits")
            .unwrap()
            .peak;
        assert!(peak_before >= 1_000_000);

        // A long-enough horizon drains the queue entirely; the high-water
        // mark survives the settlement.
        Medium::<()>::on_run_end(&mut u, SimTime::from_secs(1_000));
        let gauge = registry
            .snapshot()
            .gauge("net.interconnect_backlog_bits")
            .unwrap();
        assert_eq!(gauge.current, 0);
        assert_eq!(gauge.peak, peak_before);
        Ok(())
    }

    #[test]
    fn conservative_lookahead_is_the_min_cross_shard_base_delay() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = TopologyBuilder::new();
        let mut ids = Vec::new();
        for isp in [
            Isp::Tele,
            Isp::Tele,
            Isp::Cnc,
            Isp::Cnc,
            Isp::Cer,
            Isp::Foreign,
        ] {
            ids.push(b.add_host(isp, BandwidthClass::Adsl, &mut rng));
        }
        let u = Underlay::new(Arc::new(b.build()), LinkModel::ideal());
        // Tele in shard 0, everyone else in shard 1.
        let shard_of: Vec<usize> = u
            .topology()
            .iter()
            .map(|(_, h)| usize::from(h.isp != Isp::Tele))
            .collect();
        let got = u.conservative_lookahead(&shard_of, 2).unwrap();
        let brute = ids
            .iter()
            .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| shard_of[a.index()] != shard_of[b.index()])
            .map(|(a, b)| u.topology().base_one_way(a, b))
            .min()
            .unwrap();
        assert_eq!(got, brute);
        assert!(got > SimTime::ZERO);

        // All hosts in one shard: no cross-shard pair, unbounded lookahead.
        let one = vec![0usize; u.topology().len()];
        assert_eq!(u.conservative_lookahead(&one, 1), None);
    }

    #[test]
    fn fault_boundaries_are_sorted_and_deduped() {
        let (u, _, _) = two_host_underlay(LinkModel::ideal());
        let u = u.with_faults(vec![
            LinkFault::window(SimTime::from_secs(30), SimTime::from_secs(60)),
            LinkFault::window(SimTime::from_secs(10), SimTime::from_secs(30)),
        ]);
        assert_eq!(
            u.fault_boundaries(),
            vec![
                SimTime::from_secs(10),
                SimTime::from_secs(30),
                SimTime::from_secs(60)
            ]
        );
    }

    #[test]
    fn intensity_ramps_linearly_and_labels_describe_faults() {
        let f = LinkFault::loss_ramp(
            SimTime::from_secs(10),
            SimTime::from_secs(110),
            SimTime::from_secs(40),
            0.08,
        );
        assert_eq!(f.intensity(SimTime::from_secs(5)), 0.0);
        assert_eq!(f.intensity(SimTime::from_secs(10)), 0.0);
        assert!((f.intensity(SimTime::from_secs(30)) - 0.5).abs() < 1e-9);
        assert_eq!(f.intensity(SimTime::from_secs(60)), 1.0);
        assert_eq!(f.intensity(SimTime::from_secs(110)), 0.0);
        assert_eq!(f.label(), "loss-ramp:+0.080");

        let p = LinkFault::partition(Isp::Tele, Isp::Cnc, SimTime::ZERO, SimTime::from_secs(1));
        assert!(p.cuts(Isp::Cnc, Isp::Tele, SimTime::ZERO), "unordered pair");
        assert!(!p.cuts(Isp::Tele, Isp::Cer, SimTime::ZERO));
        assert_eq!(p.label(), "partition:Tele-Cnc");
    }
}
