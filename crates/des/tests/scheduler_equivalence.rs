//! Property tests proving the heap and calendar schedulers are
//! observationally identical: same `(time, origin, seq, slot)` pop
//! sequences for arbitrary interleaved push/pop workloads from several
//! origins (including same-timestamp bursts), and bit-identical
//! full-simulation outcomes with faults.

use plsim_des::{
    Actor, CalendarScheduler, Context, EventKey, FaultEvent, FixedDelay, HeapScheduler, Monitor,
    NodeId, Scheduler, SchedulerKind, SimTime, Simulation,
};
use plsim_telemetry::MetricsRegistry;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Origins the raw workload schedules from; each has its own `seq`
/// counter, as each actor has in the kernel.
const ORIGINS: u32 = 6;

/// One step of a raw scheduler workload.
#[derive(Debug, Clone)]
enum Op {
    /// Push `n` events at the given microsecond offset past the clock
    /// floor, the first from `origin` and each next one from the origin
    /// below it — so within one instant later pushes sort *before* earlier
    /// ones and only the `origin` field can order them.
    Push { offset: u64, origin: u32, n: u32 },
    /// Pop with a bound the given microseconds past the clock floor.
    PopBefore(u64),
    /// Pop unbounded.
    Pop,
}

fn push(offsets: std::ops::Range<u64>, burst: std::ops::Range<u32>) -> impl Strategy<Value = Op> {
    (offsets, 0..ORIGINS, burst).prop_map(|(offset, origin, n)| Op::Push { offset, origin, n })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Zero/tiny offsets exercise same-timestamp bursts and the
    // zero-delay-timer path; large offsets exercise sparse sweeps and the
    // direct-search fallback. The next three arms are a world's shape: a
    // dense 1-500 ms band of in-flight messages (keys that land between
    // two queued ones: the calendar's walk-from-head insert), a thin
    // 20-300 s tail of session timers that wraps the calendar, and
    // same-instant bursts deep enough to trip the grow and hot-bucket
    // rebuilds; the final drain shrinks it back. Push arms outnumber pops
    // so queues deepen.
    prop_oneof![
        push(0..1, 1..2),
        push(1..100, 1..2),
        push(100..1_000_000, 1..2),
        push(1_000_000..10_000_000_000, 1..2),
        push(1_000..500_000, 1..4),
        push(20_000_000..300_000_000, 1..2),
        push(1_000..500_000, 20..80),
        (0u64..2_000_000).prop_map(Op::PopBefore),
        Just(Op::Pop),
    ]
}

/// One popped key: `(at, origin, seq, slot)`.
type Popped = (u64, u32, u64, u32);

/// Drives one scheduler through the ops, enforcing the kernel's discipline
/// (pushes never behind the last popped time), and returns the pop trace.
fn drive(sched: &mut impl Scheduler, ops: &[Op]) -> Vec<Option<Popped>> {
    let mut floor = 0u64;
    let mut seqs = [0u64; ORIGINS as usize];
    let mut slot = 0u32;
    let mut trace = Vec::with_capacity(ops.len());
    let popped = |k: EventKey| (k.at.as_micros(), k.origin, k.seq, k.slot);
    for op in ops {
        let bound = match *op {
            Op::Push { offset, origin, n } => {
                for i in 0..n {
                    let origin = (origin + ORIGINS - i % ORIGINS) % ORIGINS;
                    let seq = &mut seqs[origin as usize];
                    sched.push(EventKey {
                        at: SimTime::from_micros(floor + offset),
                        seq: *seq,
                        origin,
                        slot,
                    });
                    *seq += 1;
                    slot += 1;
                }
                continue;
            }
            Op::PopBefore(margin) => SimTime::from_micros(floor + margin),
            Op::Pop => SimTime::MAX,
        };
        let got = sched.pop_next_before(bound);
        if let Some(k) = got {
            floor = k.at.as_micros();
        }
        trace.push(got.map(popped));
    }
    // Drain what is left so every pushed key is accounted for.
    while let Some(k) = sched.pop_next_before(SimTime::MAX) {
        trace.push(Some(popped(k)));
    }
    trace
}

/// One observed delivery: arrival time, sender, payload.
type Delivery = (SimTime, Option<NodeId>, u64);

/// Records every delivery a node observes, with timestamps.
struct Recorder {
    log: Arc<Mutex<Vec<Delivery>>>,
    /// Forward even payloads to the next node with a payload-derived delay,
    /// so the two simulations exercise sends, timers and bursts.
    next: NodeId,
}

impl Actor<u64> for Recorder {
    fn on_event(&mut self, ctx: &mut Context<'_, u64>, from: Option<NodeId>, payload: u64) {
        self.log.lock().unwrap().push((ctx.now(), from, payload));
        if payload > 0 {
            if payload.is_multiple_of(2) {
                ctx.send(self.next, payload - 1, 64);
            } else {
                ctx.schedule(SimTime::from_micros(payload % 977), payload - 1);
            }
        }
    }
}

/// Captures the interleaving of traffic and fault markers.
#[derive(Clone, Default)]
struct FaultTap {
    seen: Arc<Mutex<Vec<(SimTime, String, bool)>>>,
}

impl Monitor<u64> for FaultTap {
    fn on_fault(&mut self, now: SimTime, fault: &FaultEvent) {
        self.seen
            .lock()
            .unwrap()
            .push((now, fault.label.clone(), fault.begins));
    }
}

type SimTrace = (
    Vec<Delivery>,
    Vec<(SimTime, String, bool)>,
    plsim_des::SimStats,
    SimTime,
);

/// Runs the same injected workload (messages + faults) under one scheduler.
fn run_sim(kind: SchedulerKind, events: &[(u64, u64)], faults: &[(u64, bool)]) -> SimTrace {
    let log = Arc::new(Mutex::new(Vec::new()));
    let tap = FaultTap::default();
    let mut sim: Simulation<u64> = Simulation::with_scheduler(
        7,
        FixedDelay(SimTime::from_micros(137)),
        MetricsRegistry::new(),
        kind,
    );
    assert_eq!(sim.scheduler_kind(), kind);
    let a = sim.add_actor(Box::new(Recorder {
        log: log.clone(),
        next: NodeId(1),
    }));
    let b = sim.add_actor(Box::new(Recorder {
        log: log.clone(),
        next: NodeId(0),
    }));
    sim.set_monitor(tap.clone());
    for (i, &(at, payload)) in events.iter().enumerate() {
        let to = if i % 2 == 0 { a } else { b };
        sim.inject(SimTime::from_micros(at), to, None, payload, 0);
    }
    for &(at, begins) in faults {
        let ev = if begins {
            FaultEvent::begin("blip")
        } else {
            FaultEvent::end("blip")
        };
        sim.inject_fault(SimTime::from_micros(at), ev);
    }
    let stats = sim.run_until(SimTime::from_secs(3_600));
    let now = sim.now();
    drop(sim);
    let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    let seen = tap.seen.lock().unwrap().clone();
    (log, seen, stats, now)
}

proptest! {
    /// Raw schedulers: identical pop traces for arbitrary interleaved
    /// push/pop workloads, including same-timestamp bursts and bounded
    /// pops that leave the queue untouched.
    #[test]
    fn heap_and_calendar_pop_identically(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let heap_trace = drive(&mut HeapScheduler::new(), &ops);
        let cal_trace = drive(&mut CalendarScheduler::new(), &ops);
        prop_assert_eq!(heap_trace, cal_trace);
    }

    /// Same-timestamp bursts pop in `(origin, seq)` order under both
    /// schedulers.
    #[test]
    fn equal_time_bursts_preserve_seq_order(n in 1usize..300, at in 0u64..5_000_000) {
        let ops = [Op::Push { offset: at, origin: 0, n: n as u32 * ORIGINS }];
        let heap_trace = drive(&mut HeapScheduler::new(), &ops);
        let cal_trace = drive(&mut CalendarScheduler::new(), &ops);
        prop_assert_eq!(&heap_trace, &cal_trace);
        // Pushed interleaved across origins, popped origin by origin,
        // each origin's keys in the order it pushed them.
        let popped: Vec<(u32, u64)> = heap_trace.iter().flatten().map(|&(_, o, s, _)| (o, s)).collect();
        let expect: Vec<(u32, u64)> = (0..ORIGINS)
            .flat_map(|o| (0..n as u64).map(move |s| (o, s)))
            .collect();
        prop_assert_eq!(popped, expect);
    }

    /// Full simulations — sends, timers, and `inject_fault` events — are
    /// bit-identical under both schedulers: same delivery log, same fault
    /// interleaving, same kernel counters, same final clock.
    #[test]
    fn simulations_are_bit_identical_across_schedulers(
        events in proptest::collection::vec((0u64..60_000_000, 0u64..40), 1..60),
        faults in proptest::collection::vec((0u64..60_000_000, any::<bool>()), 0..10),
    ) {
        let heap = run_sim(SchedulerKind::Heap, &events, &faults);
        let calendar = run_sim(SchedulerKind::Calendar, &events, &faults);
        prop_assert_eq!(heap, calendar);
    }
}
