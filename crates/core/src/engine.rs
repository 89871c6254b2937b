//! Deterministic parallel experiment engine.
//!
//! Every headline artifact of the reproduction is a set of *independent*
//! deterministic simulations (two channel sessions per figure suite, one
//! run per ablation variant, 2 × N day-sessions for Figure 6, seed
//! sweeps).  [`JobPool`] executes such jobs concurrently and merges the
//! results **in job order**, so the output of a parallel run is
//! bit-identical to a sequential one: each job owns its seeded RNG and
//! shares no mutable state, and the merge ignores completion order.
//!
//! Dispatch has two arms. A sequential pool, or a batch of at most one
//! job, runs inline on the calling thread; everything else fans out over
//! scoped worker threads with the caller draining the queue alongside
//! them. Every job this crate issues is a whole simulated session, far
//! heavier than a thread spawn, so there is no work-size heuristic in
//! between. Every decision is recorded in [`JobPool::dispatch_stats`],
//! which `plbench` reads (`core.pool_threaded_runs`,
//! `core.pool_inline_runs`) to report whether a "parallel" run actually
//! fanned out.
//!
//! The pool size is whatever the caller passes to [`JobPool::new`];
//! [`JobPool::default`] uses [`std::thread::available_parallelism`].
//!
//! Every artifact driver is a grid of labelled [`Scenario`] rows and a
//! reducer, run through the one fan-out, [`sweep`].

use crate::scenario::{Scenario, ScenarioRun};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How dispatches resolved so far, from [`JobPool::dispatch_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchStats {
    /// Batches that ran entirely on the calling thread (single worker or
    /// at most one job).
    pub inline_runs: u64,
    /// Batches that fanned out over worker threads.
    pub threaded_runs: u64,
}

#[derive(Debug, Default)]
struct DispatchCounters {
    inline: AtomicU64,
    threaded: AtomicU64,
}

/// A fixed-size pool executing independent jobs with deterministic,
/// job-order output.
///
/// # Examples
///
/// ```
/// use pplive_locality::JobPool;
///
/// let pool = JobPool::new(4);
/// let squares = pool.map((0u64..32).collect(), |x| x * x);
/// assert_eq!(squares[5], 25);
/// ```
#[derive(Debug, Clone)]
pub struct JobPool {
    threads: usize,
    // Shared across clones so a harness can hand pools around and still
    // read one dispatch history.
    stats: Arc<DispatchCounters>,
}

impl Default for JobPool {
    /// A pool sized to the machine's available parallelism.
    fn default() -> Self {
        JobPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

impl JobPool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> JobPool {
        JobPool {
            threads: threads.max(1),
            stats: Arc::new(DispatchCounters::default()),
        }
    }

    /// A pool that runs every job inline on the calling thread, in order.
    #[must_use]
    pub fn sequential() -> JobPool {
        JobPool::new(1)
    }

    /// Number of worker threads this pool uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How this pool's dispatches resolved so far (shared across clones).
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats {
            inline_runs: self.stats.inline.load(Ordering::Relaxed),
            threaded_runs: self.stats.threaded.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every item and returns the outputs in item order.
    ///
    /// A sequential pool or a batch of at most one item runs inline;
    /// anything else fans out, the caller draining the queue alongside
    /// the spawned workers.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job after all workers have finished.
    #[must_use]
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            self.stats.inline.fetch_add(1, Ordering::Relaxed);
            return items.into_iter().map(f).collect();
        }
        self.stats.threaded.fetch_add(1, Ordering::Relaxed);
        self.map_threaded(items, &f)
    }

    /// Scoped fan-out of `items` (at least two, per [`JobPool::map`]) over
    /// `min(threads, len)` workers, the caller included, pulling from a
    /// shared queue.
    fn map_threaded<I, T, F>(&self, items: Vec<I>, f: &F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let queue = Mutex::new(items.into_iter().enumerate());
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // The calling thread participates, so spawn one fewer.
        let spawned = self.threads.min(n) - 1;
        let queue = &queue;
        let slots = &results;
        let drain = move || loop {
            // Hold the queue lock only to pull the next item.
            let next = queue.lock().expect("job queue poisoned").next();
            let Some((idx, item)) = next else { break };
            let out = f(item);
            *slots[idx].lock().expect("result slot poisoned") = Some(out);
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(drain)).collect();
            drain();
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        results
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .unwrap_or_else(|| panic!("job {idx} produced no result"))
            })
            .collect()
    }
}

/// Runs each row's scenario on `pool` and folds the finished session
/// with `reduce(label, scenario, run)` inside the row's job, so a session
/// is dropped before its worker takes the next row: at most
/// `pool.threads()` sessions are resident at a time, unless `reduce`
/// keeps them. Results come back in row order, whatever the pool size.
///
/// # Panics
///
/// Propagates a panic from any session or reducer.
#[must_use]
pub fn sweep<T, F>(pool: &JobPool, rows: Vec<(String, Scenario)>, reduce: F) -> Vec<T>
where
    T: Send,
    F: Fn(&str, &Scenario, ScenarioRun) -> T + Sync,
{
    pool.map(rows, |(label, scenario)| {
        let run = scenario.run();
        reduce(&label, &scenario, run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        let pool = JobPool::new(4);
        let out = pool.map((0u64..100).collect(), |x| x * 3);
        assert_eq!(out, (0u64..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let work = |x: u64| {
            // A little deterministic arithmetic per job.
            (0..1000u64).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let seq = JobPool::sequential().map((0u64..64).collect(), work);
        let par = JobPool::new(8).map((0u64..64).collect(), work);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(JobPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_and_single_item_work() {
        let pool = JobPool::new(4);
        assert!(pool.map(Vec::<u64>::new(), |x| x).is_empty());
        assert_eq!(pool.map(vec![9u64], |x| x + 1), vec![10]);
    }

    #[test]
    fn heavy_jobs_fan_out() {
        let pool = JobPool::new(2);
        let before = pool.dispatch_stats();
        // Two jobs on two workers: the batch fans out.
        let out = pool.map(vec![1u64, 2], |x| {
            (0..200_000u64).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert_eq!(out.len(), 2);
        let after = pool.dispatch_stats();
        assert_eq!(after.threaded_runs, before.threaded_runs + 1);
    }

    #[test]
    fn dispatch_stats_shared_across_clones() {
        let pool = JobPool::new(4);
        let clone = pool.clone();
        let _ = clone.map(vec![1u64], |x| x);
        assert!(pool.dispatch_stats().inline_runs >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let pool = JobPool::new(2);
        let _ = pool.map(vec![0u64, 1, 2, 3], |x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
