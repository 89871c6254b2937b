//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! The simulator itself carries no spans yet, so a span here is one public
//! call (`World::build`, `World::run`, one `ProbeReport::new`, ...) seen
//! from outside. With tracing off [`Tracer::span`] only calls the closure,
//! so the untraced run times the same program minus two clock reads per
//! layer call; the difference between the two runs is reported as
//! `trace.overhead_share`.

use crate::json::Value;
use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to (0 = set-up, before any op).
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration; 0 for a span a panicking operation never closed.
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off; a traced run alternates traced and
    /// untraced operations to price the tracing itself.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts the next operation; spans recorded from now on carry its id.
    /// Operations never nest, so any span a panicking operation left open
    /// is abandoned here.
    pub fn next_op(&mut self) -> u32 {
        self.open.clear();
        self.op += 1;
        self.op
    }

    /// Runs `f` as a child span of whatever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total seconds inside spans called `name` during operation `op`.
    pub fn seconds_in(&self, name: &str, op: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(|s| s.ns() as f64 / 1e9)
            .sum()
    }

    /// A span's own time: its duration minus what its child spans cover.
    fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::ns)
            .sum();
        self.spans[idx].ns().saturating_sub(children)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::obj([
                        ("id", Value::from(i as u64)),
                        ("name", Value::str(s.name)),
                        ("op", Value::from(u64::from(s.op))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        ("self_ns", Value::from(self.self_ns(i))),
                    ])
                })
                .collect(),
        )
    }
}

/// FNV-1a over whatever is written into it — the simulator's own hasher, so
/// a digest printed here means the same thing as one printed by its tests.
/// Values are hashed through their `Debug` text: a later model change that
/// adds a field or a record kind changes digests, as it should, without
/// breaking this package's build.
#[derive(Debug, Default)]
pub struct Digest(plsim_node::Fnv1a);

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    pub fn debug(&mut self, value: &impl std::fmt::Debug) {
        write!(self, "{value:?};").expect("hashing cannot fail");
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        tr.span("op", |tr| {
            tr.span("build", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("run", |_| ());
        });
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert!(tr.spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        let total = tr.spans[0].end_ns - tr.spans[0].start_ns;
        assert!(tr.self_ns(0) < total - 1_000_000, "children not subtracted");
        assert!(tr.seconds_in("build", 1) >= 0.002);
        assert_eq!(tr.seconds_in("build", 2), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |tr| tr.span("inner", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let of = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.debug(p);
            }
            d.finish()
        };
        assert_eq!(of(&["a", "b"]), of(&["a", "b"]));
        assert_ne!(of(&["a", "b"]), of(&["b", "a"]));
        assert_ne!(of(&["ab"]), of(&["a", "b"]));
    }
}
