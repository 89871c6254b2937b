//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `../BENCHMARK.json` lists the same sets (a unit test
//! holds the two equal) and adds the regression bounds, which live only
//! there so that `plbench compare` and the driver read one source.

use crate::json::{self, Value};
use pplive_locality::Scale;
use std::path::{Path, PathBuf};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: [MetricDef; 4] = [
    lower("wall_s", "s"),
    higher("work_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single-layer numbers from the traced run, `<crate>.<metric>`. A layer a
/// workload never enters reports 0 there. Counts of simulated behaviour
/// repeat exactly for a seed; a direction on them says which way a model
/// change would have to move them to mean more useful work per run.
pub const PER_LAYER: [MetricDef; 48] = [
    lower("workload.plan_s", "s"),
    higher("workload.sessions", "count"),
    lower("node.build_s", "s"),
    lower("node.run_s", "s"),
    lower("node.ns_per_event", "ns"),
    lower("node.residual_ns_per_event", "ns"),
    lower("node.invariants_s", "s"),
    higher("node.bytes_down", "count"),
    higher("node.chunks_played", "count"),
    lower("node.gossip_requests_sent", "count"),
    lower("node.data_requests_sent", "count"),
    lower("node.stalls", "count"),
    higher("node.peers_flushed", "count"),
    lower("des.events", "count"),
    lower("des.messages_sent", "count"),
    lower("des.messages_dropped", "count"),
    lower("des.peak_queue_depth", "count"),
    lower("des.sched_ns_per_event", "ns"),
    lower("des.sched_share", "ratio"),
    lower("net.transit_ns_per_msg", "ns"),
    lower("net.transit_share", "ratio"),
    lower("net.interconnect_wait_count", "count"),
    lower("proto.peerlist_ns_per_msg", "ns"),
    higher("capture.rows", "count"),
    lower("capture.rows_per_event", "ratio"),
    lower("capture.ingest_ns_per_row", "ns"),
    lower("capture.spill_ingest_ns_per_row", "ns"),
    lower("capture.spilled_pages", "count"),
    lower("capture.peak_resident_bytes", "count"),
    lower("telemetry.spill_read_ns_per_row", "ns"),
    lower("telemetry.snapshot_json_s", "s"),
    lower("analysis.report_s", "s"),
    lower("analysis.fold_ns_per_row", "ns"),
    lower("shard.window_rounds", "count"),
    lower("shard.window_rounds_global", "count"),
    lower("shard.split_isps", "count"),
    lower("shard.owner_replayed_queues", "count"),
    lower("shard.rate_imbalance", "ratio"),
    higher("shard.events_per_round", "ratio"),
    lower("shard.partition_plan_s", "s"),
    lower("shard.overhead_ratio", "ratio"),
    lower("shard.wall_2t_s", "s"),
    lower("shard.thread_ratio_2t", "ratio"),
    lower("core.pool_seq_wall_s", "s"),
    higher("core.pool_parallel_efficiency", "ratio"),
    higher("core.pool_threaded_runs", "count"),
    lower("core.pool_inline_runs", "count"),
    lower("trace.overhead_share", "ratio"),
];

/// The five workloads. Each stresses a different mix of layers; the
/// one-line reasons are in `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WorldUnpopularReduced,
    WorldPopularReduced,
    WorldSharded8,
    Fig6Sweep,
    CaptureReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WorldUnpopularReduced,
        Workload::WorldPopularReduced,
        Workload::WorldSharded8,
        Workload::Fig6Sweep,
        Workload::CaptureReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WorldUnpopularReduced => "world_unpopular_reduced",
            Workload::WorldPopularReduced => "world_popular_reduced",
            Workload::WorldSharded8 => "world_sharded8",
            Workload::Fig6Sweep => "fig6_sweep",
            Workload::CaptureReplay => "capture_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::WorldUnpopularReduced
            | Workload::WorldPopularReduced
            | Workload::WorldSharded8 => "events",
            Workload::Fig6Sweep => "sessions",
            Workload::CaptureReplay => "rows",
        }
    }
}

/// Full size is what `BENCHMARK.json` measures; smoke size runs the same
/// code on `Scale::Tiny` worlds so a CI job can check every workload's
/// correctness in seconds without owning the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    pub fn from_label(label: &str) -> Option<Size> {
        [Size::Full, Size::Smoke]
            .into_iter()
            .find(|s| s.label() == label)
    }

    /// Scale of the `world_*` sessions and of `capture_replay`'s input.
    pub fn world_scale(self) -> Scale {
        match self {
            Size::Full => Scale::Reduced,
            Size::Smoke => Scale::Tiny,
        }
    }

    /// Days per channel of the Figure 6 sweep (two sessions a day).
    pub fn fig6_days(self) -> u32 {
        match self {
            Size::Full => 14,
            Size::Smoke => 2,
        }
    }

    /// Resident-byte budget `capture_replay` re-ingests under; small enough
    /// that the capture spills at either size.
    pub fn replay_budget(self) -> u64 {
        match self {
            Size::Full => 256 * 1024,
            Size::Smoke => 64 * 1024,
        }
    }
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// `BENCHMARK.json` beside this package.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Reads the end-to-end bounds from `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            let better = match e.get("better").and_then(Value::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = e.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {e}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// `(name, unit, better)` of every entry of a `BENCHMARK.json` list.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).unwrap().to_string();
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let text = std::fs::read_to_string(benchmark_json_path()).unwrap();
        let doc = json::parse(&text).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));

        let bounds = parse_bounds(&text).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        for (b, m) in bounds.iter().zip(&END_TO_END) {
            assert_eq!((b.name.as_str(), b.better), (m.name, m.better));
            assert!(
                b.bound > 0.0 && b.bound <= 0.25,
                "{} bound {}",
                b.name,
                b.bound
            );
        }
        let paths = doc.get("paths").and_then(Value::as_arr).unwrap();
        assert_eq!(paths, [Value::str("benchmark")]);
    }
}
