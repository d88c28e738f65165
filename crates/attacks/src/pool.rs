//! Reusable parallel work-queue executor.
//!
//! Every experiment in the evaluation fans the same shape of work out: a
//! list of independent jobs (victim seeds, table cells, benchmark programs)
//! whose results must be reported **in input order** no matter which worker
//! finishes first.  [`JobPool`] is that executor, extracted from the
//! campaign engine so Table I rows, Table III/IV cells and the Fig. 5
//! program sweep can all share it: scoped worker threads claim shards of
//! job indices from an atomic cursor and a coordinator hands the results
//! back in index order.
//!
//! Because jobs are pure functions of their input, the output vector is
//! identical whatever the worker count — parallelism only changes wall
//! time, never results.
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::pool::JobPool;
//!
//! let squares = JobPool::with_workers(3).run(&[1u64, 2, 3, 4], |_, &n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Outcome of a [`JobPool::run_sharded`] fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcome<R> {
    /// Results of the settled prefix, in job-index order.  This is the
    /// *deterministic* part of the outcome: for a pure `job` and a pure
    /// `settle`, `results` is identical whatever the worker count or shard
    /// size.
    pub results: Vec<R>,
    /// Number of jobs actually executed, including speculative work past
    /// the settle point that was discarded.  Scheduling telemetry: in
    /// parallel runs this varies with timing, so it must not flow into
    /// deterministic reports.
    pub executed: usize,
    /// Number of shards workers claimed (same caveat as `executed`).
    pub shards_claimed: usize,
    /// `Some(n)` when `settle` fired at prefix length `n` and the remaining
    /// shards were cancelled; `None` when every job's result was kept.
    pub settled_at: Option<usize>,
}

/// A fixed-width pool of scoped worker threads draining an indexed work
/// queue.  Construction is cheap — threads are only spawned inside
/// [`JobPool::run_sharded`] and join before it returns.
///
/// ```
/// use polycanary_attacks::pool::JobPool;
///
/// let pool = JobPool::with_workers(4);
/// let doubled = pool.run(&["a", "bb"], |index, item| format!("{index}:{item}{item}"));
/// assert_eq!(doubled, vec!["0:aa", "1:bbbb"]); // input order, any worker count
/// assert_eq!(pool.resolved_workers(2), 2);     // width capped at the job count
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    workers: usize,
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::new()
    }
}

impl JobPool {
    /// A pool with one worker per available CPU.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        JobPool { workers }
    }

    /// A pool with exactly `workers` threads (`0` is treated as `1`).
    pub fn with_workers(workers: usize) -> Self {
        JobPool { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count actually used for `jobs` jobs: the configured width
    /// capped at the job count (never below 1).
    pub fn resolved_workers(&self, jobs: usize) -> usize {
        self.workers.min(jobs).max(1)
    }

    /// Worker count for pools nested inside a fan-out over `outer_jobs`
    /// jobs on this pool: the CPUs are split between the outer fan-out and
    /// each job's inner pool so nesting does not oversubscribe (results
    /// are identical either way — only wall time changes).
    pub fn nested_workers(&self, outer_jobs: usize) -> usize {
        (self.workers / self.resolved_workers(outer_jobs)).max(1)
    }

    /// Runs `job(index, &item)` for every item and returns the results in
    /// input order — [`JobPool::run_sharded`] with unit shards and no
    /// early stop.  `job` must be a pure function of its inputs for the
    /// determinism guarantee to hold (the pool guarantees only ordering).
    pub fn run<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_sharded(items.len(), 1, |i| job(i, &items[i]), |_, _| false).results
    }

    /// Runs `jobs` indexed jobs in shards of `shard_size` contiguous
    /// indices, with event-driven early stopping: `settle(index, &result)`
    /// is invoked exactly once per job **in strict index order on the
    /// contiguous prefix of completed results** (never on worker finish
    /// order), and the first `true` it returns cancels every shard not yet
    /// claimed and truncates the results at that prefix.
    ///
    /// The scheduling contract, in full:
    ///
    /// * Workers claim whole shards from an atomic cursor and execute their
    ///   indices in order, bailing out between jobs once a settle boundary
    ///   is published.
    /// * `settle` runs under the coordinator lock, so it may carry state
    ///   (e.g. a success counter) without further synchronisation; it sees
    ///   each prefix exactly once, in order, regardless of parallelism.
    /// * `results` contains the jobs before the settle point and nothing
    ///   else — speculative results computed past it are discarded, exactly
    ///   as if the run had been serial and stopped there.  Only
    ///   [`ShardOutcome::executed`] / [`ShardOutcome::shards_claimed`]
    ///   reveal the speculation, and those are telemetry, not results.
    ///
    /// ```
    /// use polycanary_attacks::pool::JobPool;
    ///
    /// // Square 0..10, stopping once a square reaches 9: the settled
    /// // prefix is the same for every worker count and shard size.
    /// for workers in [1, 4] {
    ///     let outcome =
    ///         JobPool::with_workers(workers).run_sharded(10, 2, |i| i * i, |_, &sq| sq >= 9);
    ///     assert_eq!(outcome.results, vec![0, 1, 4, 9]);
    ///     assert_eq!(outcome.settled_at, Some(4));
    /// }
    /// ```
    pub fn run_sharded<R, F, S>(
        &self,
        jobs: usize,
        shard_size: usize,
        job: F,
        mut settle: S,
    ) -> ShardOutcome<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        S: FnMut(usize, &R) -> bool + Send,
    {
        let shard_size = shard_size.max(1);
        if jobs == 0 {
            return ShardOutcome {
                results: Vec::new(),
                executed: 0,
                shards_claimed: 0,
                settled_at: None,
            };
        }
        let workers = self.resolved_workers(jobs);
        if workers == 1 {
            // Serial fast path: execute in index order, settle as results
            // arrive, stop at the boundary.
            let mut results = Vec::new();
            let mut settled_at = None;
            for index in 0..jobs {
                let result = job(index);
                let stop = settle(index, &result);
                results.push(result);
                if stop {
                    settled_at = Some(index + 1);
                    break;
                }
            }
            let executed = results.len();
            return ShardOutcome {
                results,
                executed,
                shards_claimed: executed.div_ceil(shard_size),
                settled_at,
            };
        }

        // Parallel path.  Workers claim whole shards from `next_shard`;
        // `boundary` is the first index no new work may start at (published
        // once `settle` fires).  The coordinator owns the seed-ordered
        // prefix walk: results are deposited under their index and consumed
        // in strictly increasing order, so `settle` observes exactly the
        // sequence a serial run would have produced.
        struct Coordinator<R, S> {
            pending: HashMap<usize, R>,
            ordered: Vec<R>,
            settled_at: Option<usize>,
            executed: usize,
            settle: S,
        }
        let boundary = AtomicUsize::new(jobs);
        let next_shard = AtomicUsize::new(0);
        let shards_claimed = AtomicUsize::new(0);
        let coordinator = Mutex::new(Coordinator {
            pending: HashMap::new(),
            ordered: Vec::new(),
            settled_at: None,
            executed: 0,
            settle,
        });

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                    let Some(start) = shard.checked_mul(shard_size).filter(|&s| s < jobs) else {
                        break;
                    };
                    if start >= boundary.load(Ordering::Acquire) {
                        break;
                    }
                    shards_claimed.fetch_add(1, Ordering::Relaxed);
                    let end = (start + shard_size).min(jobs);
                    for index in start..end {
                        if index >= boundary.load(Ordering::Acquire) {
                            break;
                        }
                        let result = job(index);
                        let mut coord =
                            coordinator.lock().expect("no worker panicked in the coordinator");
                        coord.executed += 1;
                        if coord.settled_at.is_some_and(|limit| index >= limit) {
                            continue; // speculative result past the stop point
                        }
                        coord.pending.insert(index, result);
                        // Advance the contiguous prefix as far as it goes.
                        while coord.settled_at.is_none() {
                            let at = coord.ordered.len();
                            let Some(next) = coord.pending.remove(&at) else { break };
                            let stop = (coord.settle)(at, &next);
                            coord.ordered.push(next);
                            if stop {
                                coord.settled_at = Some(at + 1);
                                boundary.store(at + 1, Ordering::Release);
                                coord.pending.clear();
                            }
                        }
                    }
                });
            }
        });

        let coordinator = coordinator.into_inner().expect("worker scope completed");
        ShardOutcome {
            results: coordinator.ordered,
            executed: coordinator.executed,
            shards_claimed: shards_claimed.into_inner(),
            settled_at: coordinator.settled_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|n| n * 3 + 1).collect();
        for workers in [1, 2, 5, 64] {
            let got = JobPool::with_workers(workers).run(&items, |_, &n| n * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_receives_its_input_index() {
        let items = ["a", "b", "c"];
        let got = JobPool::with_workers(2).run(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_and_zero_workers_are_well_defined() {
        let empty: Vec<u64> = Vec::new();
        assert!(JobPool::with_workers(0).run(&empty, |_, &n| n).is_empty());
        assert_eq!(JobPool::with_workers(0).workers(), 1);
        assert_eq!(JobPool::with_workers(8).resolved_workers(3), 3);
        assert_eq!(JobPool::with_workers(8).resolved_workers(0), 1);
    }

    #[test]
    fn sharded_results_match_serial_for_any_worker_count_and_shard_size() {
        let serial = JobPool::with_workers(1).run_sharded(50, 1, |i| i * 7, |_, &r| r >= 210);
        assert_eq!(serial.results, (0..=30).map(|i| i * 7).collect::<Vec<_>>());
        assert_eq!(serial.settled_at, Some(31));
        assert_eq!(serial.executed, 31);
        for workers in [2, 4, 8] {
            for shard_size in [1, 3, 16, 100] {
                let got = JobPool::with_workers(workers).run_sharded(
                    50,
                    shard_size,
                    |i| i * 7,
                    |_, &r| r >= 210,
                );
                assert_eq!(
                    got.results, serial.results,
                    "workers = {workers}, shard_size = {shard_size}"
                );
                assert_eq!(got.settled_at, Some(31));
                assert!(got.executed >= 31, "speculation may overshoot, never undershoot");
            }
        }
    }

    #[test]
    fn sharded_run_without_settling_keeps_every_result() {
        for workers in [1, 4] {
            let got = JobPool::with_workers(workers).run_sharded(17, 4, |i| i + 1, |_, _| false);
            assert_eq!(got.results, (1..=17).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(got.settled_at, None);
            assert_eq!(got.executed, 17);
        }
    }

    #[test]
    fn sharded_settle_sees_strict_prefix_order_even_in_parallel() {
        // The settle closure records the indices it observes; the contract
        // says they are exactly 0..settled_at in order, whatever the
        // worker count.
        for workers in [1, 8] {
            let mut seen = Vec::new();
            let outcome = JobPool::with_workers(workers).run_sharded(
                40,
                2,
                |i| i,
                |index, _| {
                    seen.push(index);
                    index == 9
                },
            );
            assert_eq!(seen, (0..=9).collect::<Vec<_>>(), "workers = {workers}");
            assert_eq!(outcome.settled_at, Some(10));
        }
    }

    #[test]
    fn sharded_cancellation_bounds_speculation_by_claimed_shards() {
        // Settling on the very first job cancels all unclaimed shards:
        // with W workers and shard size 1 at most W shards are in flight,
        // far fewer than the 1000 jobs requested.
        let outcome = JobPool::with_workers(4).run_sharded(1000, 1, |i| i, |index, _| index == 0);
        assert_eq!(outcome.results, vec![0]);
        assert_eq!(outcome.settled_at, Some(1));
        assert!(
            outcome.executed < 1000,
            "cancellation must prevent exhaustive execution (executed {})",
            outcome.executed
        );
    }

    #[test]
    fn sharded_edge_cases_are_well_defined() {
        // Empty input.
        let empty = JobPool::with_workers(4).run_sharded(0, 8, |i| i, |_, _| true);
        assert!(empty.results.is_empty());
        assert_eq!(empty.executed, 0);
        assert_eq!(empty.shards_claimed, 0);
        assert_eq!(empty.settled_at, None);
        // Shard size 0 behaves as 1.
        let unit = JobPool::with_workers(1).run_sharded(3, 0, |i| i, |_, _| false);
        assert_eq!(unit.results, vec![0, 1, 2]);
        assert_eq!(unit.shards_claimed, 3);
    }

    #[test]
    fn nested_workers_split_the_pool_without_oversubscribing() {
        let pool = JobPool::with_workers(8);
        // 4 outer jobs on 8 CPUs leave 2 workers per inner pool ...
        assert_eq!(pool.nested_workers(4), 2);
        // ... more outer jobs than CPUs leave serial inner pools ...
        assert_eq!(pool.nested_workers(16), 1);
        // ... and a single outer job keeps the whole pool.
        assert_eq!(pool.nested_workers(1), 8);
        assert_eq!(pool.nested_workers(0), 8);
        assert_eq!(JobPool::with_workers(1).nested_workers(5), 1);
    }
}
