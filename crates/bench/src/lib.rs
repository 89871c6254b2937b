//! Shared plumbing for the benchmark harness.
//!
//! Each bench binary regenerates one family of the paper's tables/figures
//! (printing the rows the paper reports, at `Scale::Tiny` so `cargo bench`
//! stays fast) and then times the regeneration. The canonical full-scale
//! regeneration is `cargo run --release --example locality_study paper`.
//!
//! The `engine` bench additionally emits a machine-readable
//! `BENCH_engine.json` at the workspace root (see [`EngineReport`]) so CI
//! and perf-tracking scripts can diff kernel throughput and parallel-engine
//! speedup across commits without parsing human-oriented bench output.

use pplive_locality::{Scale, Suite};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The shared (popular, unpopular) session pair used by all figure benches;
/// simulated once per bench binary.
pub fn bench_suite() -> &'static Suite {
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(|| Suite::run(Scale::Tiny, 42))
}

/// Scale used when a bench needs to run fresh simulations in the timing
/// loop.
pub const BENCH_SCALE: Scale = Scale::Tiny;

/// Machine-readable results of the `engine` bench, serialized to
/// `BENCH_engine.json` at the workspace root.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// DES kernel events dispatched in the deep-queue throughput run.
    pub events_processed: u64,
    /// Deep-queue kernel throughput under the default (calendar)
    /// scheduler, events per wall-clock second.
    pub events_per_sec: f64,
    /// Same workload under the reference binary-heap scheduler.
    pub events_per_sec_heap: f64,
    /// Same workload under the calendar-queue scheduler (equals
    /// `events_per_sec`; spelled out so gates can key on it exactly).
    pub events_per_sec_calendar: f64,
    /// `events_per_sec_calendar / events_per_sec_heap`.
    pub calendar_speedup: f64,
    /// High-water mark of the event queue during the throughput run.
    pub peak_queue_depth: u64,
    /// Heap allocations observed in the deep-queue run's sustained-churn
    /// window (simulated 5–30 ms, after the event pool is populated and
    /// the calendar width learned, before the end-of-run drain) — the hot
    /// loop's steady-state allocation count.
    pub steady_state_allocs: u64,
    /// Pool size the parallel suite run was configured with (the
    /// machine's available parallelism).
    pub threads_configured: usize,
    /// Workers the parallel suite run could actually occupy:
    /// `min(threads_configured, jobs)`, 1 when the pool is sequential.
    pub threads: usize,
    /// Set when the thread count collapsed to 1 (single-core host): the
    /// seq and par walls then time identical code paths and `speedup` is
    /// pure noise, so gates must not compare it against a multi-threaded
    /// baseline.
    pub threads_warning: Option<String>,
    /// Whether the parallel suite run dispatched inline (a sequential
    /// pool) instead of fanning out.
    pub inline_fallback: bool,
    /// Scale label of the sequential-vs-parallel suite comparison.
    pub suite_scale: String,
    /// Wall-clock seconds of the sequential suite run.
    pub seq_wall_s: f64,
    /// Wall-clock seconds of the parallel suite run.
    pub par_wall_s: f64,
    /// `seq_wall_s / par_wall_s`; ~1.0 on a single-core host.
    pub speedup: f64,
    /// Heap bytes of the measured capture in the old row layout
    /// (`Vec<TraceRecord>` plus per-record peer-list spill).
    pub row_bytes: u64,
    /// Heap bytes of the same capture in the columnar `TraceStore`.
    pub columnar_bytes: u64,
    /// Set when `columnar_bytes` exceeds `row_bytes` at the measured
    /// scale: the columnar store pre-allocates fixed-capacity pages
    /// (8192 rows), so below roughly one page of rows its footprint is
    /// dominated by reserved-but-unused capacity and the row layout wins.
    /// The crossover favors columnar as captures grow; the note keeps the
    /// small-scale reading honest instead of hiding it.
    pub columnar_note: Option<String>,
    /// Wall-clock seconds to analyze every probe via the old row path
    /// (per-probe clone-filter, then the seven per-figure passes).
    pub row_analysis_s: f64,
    /// Wall-clock seconds for the same analysis streaming the columnar
    /// store's row cursors in place.
    pub columnar_analysis_s: f64,
    /// Node-layer peer-list ring throughput with arena-interned
    /// (zero-copy) lists, messages per wall-clock second.
    pub node_msgs_per_sec: f64,
    /// Same ring with the pre-arena owned path: each reply rebuilds,
    /// sorts, and moves a fresh owned list into the message.
    pub node_msgs_per_sec_owned: f64,
    /// `node_msgs_per_sec / node_msgs_per_sec_owned`.
    pub node_list_speedup: f64,
    /// Gossip peer-list requests issued per wall-clock second by a small
    /// live world (source, tracker, bootstrap, 32 viewers) simulated for
    /// five minutes.
    pub node_gossip_ticks_per_sec: f64,
    /// Heap allocations in the zero-copy ring's sustained mid-run window
    /// (simulated 5–30 ms) — the node message path's steady-state
    /// allocation count.
    pub node_steady_state_allocs: u64,
    /// Kernel events per wall-clock second of the sustained-churn world
    /// run with four shards.
    pub sharded_events_per_sec: f64,
    /// Wall-clock ratio of the 1-shard run over the 4-shard run of the
    /// same world (both produce bit-identical output). `None` on a
    /// single-core host: the shards then time-slice one core and the
    /// ratio would be a misleading measurement of windowing overhead, so
    /// the report records `null` and sets `shard_warning`.
    pub sharded_speedup_4x: Option<f64>,
    /// Kernel events per wall-clock second of the same world run with
    /// eight shards — past the five-ISP ceiling, so the partition is
    /// sub-ISP host groups and the split ISPs' directed queues are
    /// reconstructed by owner replay.
    pub sharded_events_per_sec_8x: f64,
    /// Wall-clock ratio of the 5-shard run (the ISP-atom ceiling) over
    /// the 8-shard sub-ISP run of the same world. Above 1.0 means sub-ISP
    /// sharding beats the best the ISP-granular partition could ever do.
    /// `None` on a single-core host, as for `sharded_speedup_4x`.
    pub sub_isp_speedup: Option<f64>,
    /// Windowed advancement rounds the fixed-stride window executes
    /// across the Paper10x 8-shard fleet (`shards × ceil(horizon /
    /// lookahead)`), computed from the partition plan without running the
    /// simulation. `None` when the plan degenerates to a single shard.
    pub window_rounds_8x: Option<u64>,
    /// Rate imbalance of the Paper10x 8-shard partition actually chosen:
    /// heaviest shard's summed expected event rate over the ideal.
    /// `None` when the plan degenerates.
    pub rate_imbalance: Option<f64>,
    /// Heap allocations in the cross-shard exchange's steady state: 512
    /// publish/drain rounds over a warmed 4-shard `ShardExchange`
    /// (batches cross by buffer swap, so this must be 0).
    pub outbox_steady_state_allocs: u64,
    /// Threads that actually drove the 4-shard run:
    /// `min(available parallelism, 4)`.
    pub shard_threads: usize,
    /// Set when fewer than four cores backed the 4-shard run: the shards
    /// then time-slice the same cores and the speedup ratios measure
    /// windowing overhead, not parallelism — gates must not compare them
    /// against a multi-core baseline (and on a single-core host the
    /// ratios are recorded as `null`).
    pub shard_warning: Option<String>,
    /// Wall-clock seconds of the three-point smoke locality-frontier sweep
    /// (gossip-race anchor plus two bias quotas) on the bench pool. A
    /// seconds value, so CI gates it with a *ceiling*: regressions make it
    /// grow.
    pub frontier_sweep_secs: f64,
    /// Peak resident column bytes while replaying the measured capture
    /// through a `TraceStore` under a tight spill budget (sealed pages
    /// stream to the per-run spill file). Bytes-valued, so the CI gate is
    /// a *ceiling*: a broken budget makes it grow toward the unbounded
    /// footprint.
    pub capture_peak_rss_bytes: u64,
    /// Rows streamed per wall-clock second by the columnar analysis path
    /// (every probe's `ProbeReport` walks the full store through its row
    /// cursor, so rows = `store.len() × probes`). Gated with a floor.
    pub streaming_analysis_rows_per_sec: f64,
}

impl EngineReport {
    /// Renders the report as a JSON object (hand-rolled: every field is a
    /// number or a plain label, so no serializer dependency is needed).
    #[must_use]
    pub fn to_json(&self) -> String {
        let quote_opt = |w: &Option<String>| {
            w.as_ref().map_or_else(
                || "null".to_string(),
                |w| format!("\"{}\"", w.replace('"', "'")),
            )
        };
        let ratio_opt =
            |r: &Option<f64>| r.map_or_else(|| "null".to_string(), |r| format!("{r:.3}"));
        let imbalance_opt =
            |r: &Option<f64>| r.map_or_else(|| "null".to_string(), |r| format!("{r:.4}"));
        let count_opt = |r: &Option<u64>| r.map_or_else(|| "null".to_string(), |r| r.to_string());
        let threads_warning = quote_opt(&self.threads_warning);
        let shard_warning = quote_opt(&self.shard_warning);
        let columnar_note = quote_opt(&self.columnar_note);
        let sharded_speedup_4x = ratio_opt(&self.sharded_speedup_4x);
        let sub_isp_speedup = ratio_opt(&self.sub_isp_speedup);
        let window_rounds_8x = count_opt(&self.window_rounds_8x);
        let rate_imbalance = imbalance_opt(&self.rate_imbalance);
        format!(
            concat!(
                "{{\n",
                "  \"events_processed\": {},\n",
                "  \"events_per_sec\": {:.1},\n",
                "  \"events_per_sec_heap\": {:.1},\n",
                "  \"events_per_sec_calendar\": {:.1},\n",
                "  \"calendar_speedup\": {:.3},\n",
                "  \"peak_queue_depth\": {},\n",
                "  \"steady_state_allocs\": {},\n",
                "  \"threads_configured\": {},\n",
                "  \"threads\": {},\n",
                "  \"threads_warning\": {},\n",
                "  \"inline_fallback\": {},\n",
                "  \"suite_scale\": \"{}\",\n",
                "  \"seq_wall_s\": {:.4},\n",
                "  \"par_wall_s\": {:.4},\n",
                "  \"speedup\": {:.3},\n",
                "  \"row_bytes\": {},\n",
                "  \"columnar_bytes\": {},\n",
                "  \"columnar_note\": {},\n",
                "  \"row_analysis_s\": {:.4},\n",
                "  \"columnar_analysis_s\": {:.4},\n",
                "  \"node_msgs_per_sec\": {:.1},\n",
                "  \"node_msgs_per_sec_owned\": {:.1},\n",
                "  \"node_list_speedup\": {:.3},\n",
                "  \"node_gossip_ticks_per_sec\": {:.1},\n",
                "  \"node_steady_state_allocs\": {},\n",
                "  \"sharded_events_per_sec\": {:.1},\n",
                "  \"sharded_speedup_4x\": {},\n",
                "  \"sharded_events_per_sec_8x\": {:.1},\n",
                "  \"sub_isp_speedup\": {},\n",
                "  \"window_rounds_8x\": {},\n",
                "  \"rate_imbalance\": {},\n",
                "  \"outbox_steady_state_allocs\": {},\n",
                "  \"shard_threads\": {},\n",
                "  \"shard_warning\": {},\n",
                "  \"frontier_sweep_secs\": {:.4},\n",
                "  \"capture_peak_rss_bytes\": {},\n",
                "  \"streaming_analysis_rows_per_sec\": {:.1}\n",
                "}}\n"
            ),
            self.events_processed,
            self.events_per_sec,
            self.events_per_sec_heap,
            self.events_per_sec_calendar,
            self.calendar_speedup,
            self.peak_queue_depth,
            self.steady_state_allocs,
            self.threads_configured,
            self.threads,
            threads_warning,
            self.inline_fallback,
            self.suite_scale,
            self.seq_wall_s,
            self.par_wall_s,
            self.speedup,
            self.row_bytes,
            self.columnar_bytes,
            columnar_note,
            self.row_analysis_s,
            self.columnar_analysis_s,
            self.node_msgs_per_sec,
            self.node_msgs_per_sec_owned,
            self.node_list_speedup,
            self.node_gossip_ticks_per_sec,
            self.node_steady_state_allocs,
            self.sharded_events_per_sec,
            sharded_speedup_4x,
            self.sharded_events_per_sec_8x,
            sub_isp_speedup,
            window_rounds_8x,
            rate_imbalance,
            self.outbox_steady_state_allocs,
            self.shard_threads,
            shard_warning,
            self.frontier_sweep_secs,
            self.capture_peak_rss_bytes,
            self.streaming_analysis_rows_per_sec,
        )
    }
}

/// Where `BENCH_engine.json` lives: the workspace root.
#[must_use]
pub fn engine_report_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// Writes the report to [`engine_report_path`] and returns the path.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_engine_report(report: &EngineReport) -> std::io::Result<PathBuf> {
    let path = engine_report_path();
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let r = EngineReport {
            events_processed: 100_000,
            events_per_sec: 1.25e6,
            events_per_sec_heap: 0.8e6,
            events_per_sec_calendar: 1.25e6,
            calendar_speedup: 1.75,
            peak_queue_depth: 4096,
            steady_state_allocs: 0,
            threads_configured: 4,
            threads: 2,
            threads_warning: None,
            inline_fallback: false,
            suite_scale: "reduced".to_string(),
            seq_wall_s: 10.0,
            par_wall_s: 2.5,
            speedup: 4.0,
            row_bytes: 2_000_000,
            columnar_bytes: 1_200_000,
            columnar_note: None,
            row_analysis_s: 0.5,
            columnar_analysis_s: 0.2,
            node_msgs_per_sec: 3.0e6,
            node_msgs_per_sec_owned: 1.5e6,
            node_list_speedup: 2.0,
            node_gossip_ticks_per_sec: 12_345.6,
            node_steady_state_allocs: 0,
            sharded_events_per_sec: 2.5e6,
            sharded_speedup_4x: Some(3.1),
            sharded_events_per_sec_8x: 3.5e6,
            sub_isp_speedup: Some(1.4),
            window_rounds_8x: Some(118),
            rate_imbalance: Some(1.08),
            outbox_steady_state_allocs: 0,
            shard_threads: 4,
            shard_warning: None,
            frontier_sweep_secs: 1.5,
            capture_peak_rss_bytes: 524_288,
            streaming_analysis_rows_per_sec: 4.2e6,
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"events_per_sec\": 1250000.0"));
        assert!(json.contains("\"events_per_sec_calendar\": 1250000.0"));
        assert!(json.contains("\"calendar_speedup\": 1.750"));
        assert!(json.contains("\"steady_state_allocs\": 0"));
        assert!(json.contains("\"threads_warning\": null"));
        assert!(json.contains("\"inline_fallback\": false"));
        assert!(json.contains("\"speedup\": 4.000"));
        assert!(json.contains("\"suite_scale\": \"reduced\""));
        assert!(json.contains("\"row_bytes\": 2000000"));
        assert!(json.contains("\"columnar_bytes\": 1200000"));
        assert!(json.contains("\"columnar_analysis_s\": 0.2000"));
        assert!(json.contains("\"node_msgs_per_sec\": 3000000.0"));
        assert!(json.contains("\"node_msgs_per_sec_owned\": 1500000.0"));
        assert!(json.contains("\"node_list_speedup\": 2.000"));
        assert!(json.contains("\"node_gossip_ticks_per_sec\": 12345.6"));
        assert!(json.contains("\"node_steady_state_allocs\": 0,"));
        assert!(json.contains("\"sharded_events_per_sec\": 2500000.0"));
        assert!(json.contains("\"sharded_speedup_4x\": 3.100"));
        assert!(json.contains("\"sharded_events_per_sec_8x\": 3500000.0"));
        assert!(json.contains("\"sub_isp_speedup\": 1.400"));
        assert!(json.contains("\"columnar_note\": null,"));
        assert!(json.contains("\"window_rounds_8x\": 118,"));
        assert!(json.contains("\"rate_imbalance\": 1.0800,"));
        assert!(json.contains("\"outbox_steady_state_allocs\": 0,"));
        assert!(json.contains("\"shard_threads\": 4"));
        assert!(json.contains("\"shard_warning\": null,"));
        assert!(json.contains("\"frontier_sweep_secs\": 1.5000,\n"));
        assert!(json.contains("\"capture_peak_rss_bytes\": 524288"));
        assert!(json.contains("\"streaming_analysis_rows_per_sec\": 4200000.0\n"));
    }

    #[test]
    fn report_json_quotes_thread_warning() {
        let mut r = EngineReport {
            events_processed: 1,
            events_per_sec: 1.0,
            events_per_sec_heap: 1.0,
            events_per_sec_calendar: 1.0,
            calendar_speedup: 1.0,
            peak_queue_depth: 1,
            steady_state_allocs: 0,
            threads_configured: 1,
            threads: 1,
            threads_warning: None,
            inline_fallback: true,
            suite_scale: "tiny".to_string(),
            seq_wall_s: 1.0,
            par_wall_s: 1.0,
            speedup: 1.0,
            row_bytes: 0,
            columnar_bytes: 0,
            columnar_note: None,
            row_analysis_s: 0.0,
            columnar_analysis_s: 0.0,
            node_msgs_per_sec: 1.0,
            node_msgs_per_sec_owned: 1.0,
            node_list_speedup: 1.0,
            node_gossip_ticks_per_sec: 0.0,
            node_steady_state_allocs: 0,
            sharded_events_per_sec: 1.0,
            sharded_speedup_4x: None,
            sharded_events_per_sec_8x: 1.0,
            sub_isp_speedup: None,
            window_rounds_8x: None,
            rate_imbalance: None,
            outbox_steady_state_allocs: 0,
            shard_threads: 1,
            shard_warning: None,
            frontier_sweep_secs: 0.1,
            capture_peak_rss_bytes: 0,
            streaming_analysis_rows_per_sec: 0.0,
        };
        r.threads_warning = Some("thread pool collapsed to 1".to_string());
        r.shard_warning = Some("1 core backs 4 shards".to_string());
        r.columnar_note = Some("page pre-allocation dominates".to_string());
        let json = r.to_json();
        assert!(json.contains("\"threads_warning\": \"thread pool collapsed to 1\""));
        assert!(json.contains("\"inline_fallback\": true"));
        assert!(json.contains("\"shard_warning\": \"1 core backs 4 shards\""));
        assert!(json.contains("\"columnar_note\": \"page pre-allocation dominates\""));
        // Single-core honesty: the speedup ratios must be recorded as
        // null, not as a misleading windowing-overhead measurement. The
        // window-round and rate-imbalance fields are plan-derived counts,
        // not wall-clock ratios, so a degenerate plan records null too.
        assert!(json.contains("\"sharded_speedup_4x\": null,"));
        assert!(json.contains("\"sub_isp_speedup\": null,"));
        assert!(json.contains("\"window_rounds_8x\": null,"));
        assert!(json.contains("\"rate_imbalance\": null,"));
        assert!(json.contains("\"outbox_steady_state_allocs\": 0,"));
    }
}
