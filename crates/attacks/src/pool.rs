//! Reusable parallel work-queue executor.
//!
//! Every experiment in the evaluation fans the same shape of work out: a
//! list of independent jobs (victim seeds, table cells, benchmark programs)
//! whose results must be reported **in input order** no matter which worker
//! finishes first.  [`JobPool`] is that executor, extracted from the
//! campaign engine so Table I rows, Table III/IV cells and the Fig. 5
//! program sweep can all share it.  There is one execution path for every
//! worker count: the calling thread and `workers - 1` scoped helpers run
//! the same loop, claiming shards of job indices from an atomic cursor,
//! running each shard into a local buffer and depositing it once under
//! the one lock, where an in-order walk hands the results back in index
//! order.  A shard that lands at the prefix is walked straight from the
//! worker's buffer, which the worker keeps for its next shard.  A worker
//! can keep state of its own across its jobs too
//! ([`JobPool::run_sharded_with`]): a campaign worker keeps one victim
//! server and boots each of its victims into it.
//!
//! Because jobs are pure functions of their input, the output vector is
//! identical whatever the worker count — parallelism only changes wall
//! time, never results.  A job that panics cancels the run (no further
//! shard is claimed) and its own panic payload reaches the caller.
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::pool::JobPool;
//!
//! let squares = JobPool::with_workers(3).run(&[1u64, 2, 3, 4], |_, &n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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

/// A fixed-width pool draining an indexed work queue: the calling thread
/// plus `workers - 1` scoped helpers.  Construction is cheap — helpers are
/// only spawned inside [`JobPool::run_sharded`] and join before it returns.
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
    /// * The calling thread and `workers - 1` scoped helpers run one loop:
    ///   claim a whole shard from an atomic cursor, run all of it into a
    ///   local buffer and deposit that once under the walk lock.  A shard
    ///   that continues the prefix is settled straight from the buffer;
    ///   one that lands past it waits in the walk's window.
    /// * `settle` runs under that lock, so it may carry state (e.g. a
    ///   success counter) without further synchronisation; it sees each
    ///   prefix exactly once, in order, regardless of parallelism.
    /// * `results` contains the jobs before the settle point and nothing
    ///   else — speculative results computed past it are discarded, exactly
    ///   as if the run had been serial and stopped there.  Speculation comes
    ///   in whole shards, at one worker too; only [`ShardOutcome::executed`]
    ///   / [`ShardOutcome::shards_claimed`] reveal it, and those are
    ///   telemetry, not results.
    /// * A panic in `job` or `settle` cancels the run (no shard is claimed
    ///   after it) and resumes on the caller with its own payload once
    ///   every worker has stopped.
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
        settle: S,
    ) -> ShardOutcome<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        S: FnMut(usize, &R) -> bool + Send,
    {
        self.run_sharded_with(jobs, shard_size, || (), |(), index| job(index), settle)
    }

    /// [`JobPool::run_sharded`] with per-worker state: each worker calls
    /// `init` once, before its first job, and hands the value to every job
    /// it runs as `job(&mut state, index)`.  The value lives for the whole
    /// run — across every shard the worker claims — and is dropped when
    /// the worker stops, so a job can reuse what an earlier job on the
    /// same worker allocated (a campaign worker keeps one victim server
    /// and boots every victim it runs into it).
    ///
    /// Which jobs share a value depends on scheduling, so the determinism
    /// guarantee needs `job`'s result to be independent of the state it
    /// is handed: a job may reuse the state's allocations, never its
    /// contents.  A worker that claims no shard never calls `init`, and a
    /// panic in `init` cancels the run like a panic in `job`.
    ///
    /// ```
    /// use polycanary_attacks::pool::JobPool;
    ///
    /// // Each worker keeps one scratch buffer across all of its jobs.
    /// let outcome = JobPool::with_workers(2).run_sharded_with(
    ///     6,
    ///     2,
    ///     Vec::<u64>::new,
    ///     |scratch, i| {
    ///         scratch.clear();
    ///         scratch.extend(0..=i as u64);
    ///         scratch.iter().sum::<u64>()
    ///     },
    ///     |_, _| false,
    /// );
    /// assert_eq!(outcome.results, vec![0, 1, 3, 6, 10, 15]);
    /// ```
    pub fn run_sharded_with<W, R, I, F, S>(
        &self,
        jobs: usize,
        shard_size: usize,
        init: I,
        job: F,
        settle: S,
    ) -> ShardOutcome<R>
    where
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, usize) -> R + Sync,
        S: FnMut(usize, &R) -> bool + Send,
    {
        let shard_size = shard_size.max(1);
        // `boundary` is the first index no shard may start at: `jobs`,
        // lowered to the settle point when `settle` fires and to 0 when a
        // worker panics.
        let boundary = AtomicUsize::new(jobs);
        let [next_shard, shards_claimed, executed] = [0; 3].map(AtomicUsize::new);
        let walk = Mutex::new(Walk {
            results: Vec::new(),
            window: VecDeque::new(),
            settled_at: None,
            settle,
        });
        let work = || {
            let _cancel = CancelOnPanic(&boundary);
            // The worker's shard buffer, kept across shards that land at
            // the prefix and so are walked straight from it, and its
            // state, made on its first claimed shard.
            let mut buffer = Vec::new();
            let mut state = None;
            loop {
                let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                let start = shard.saturating_mul(shard_size);
                if start >= boundary.load(Ordering::Acquire) {
                    return;
                }
                shards_claimed.fetch_add(1, Ordering::Relaxed);
                let end = start.saturating_add(shard_size).min(jobs);
                let state = state.get_or_insert_with(&init);
                buffer.clear();
                buffer.extend((start..end).map(|index| job(state, index)));
                executed.fetch_add(buffer.len(), Ordering::Relaxed);
                // A poisoned lock means `settle` panicked on another worker,
                // which cancels the run: stop without touching the walk.
                let Ok(mut guard) = walk.lock() else { return };
                let walk = &mut *guard;
                if walk.settled_at.is_some() {
                    continue; // a speculative shard past the settle point
                }
                let slot = shard - walk.results.len() / shard_size;
                if slot == 0 {
                    // The shard continues the prefix: its window slot, if
                    // any, is empty, and its results never leave the buffer.
                    walk.window.pop_front();
                    walk.extend(buffer.drain(..));
                } else {
                    walk.window.resize_with(walk.window.len().max(slot + 1), || None);
                    walk.window[slot] = Some(std::mem::take(&mut buffer));
                }
                // Advance the contiguous prefix as far as it goes.
                while walk.settled_at.is_none() {
                    let Some(results) = walk.window.front_mut().and_then(Option::take) else {
                        break;
                    };
                    walk.window.pop_front();
                    walk.extend(results);
                }
                if let Some(settled_at) = walk.settled_at {
                    boundary.fetch_min(settled_at, Ordering::Release);
                }
            }
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> =
                (1..self.resolved_workers(jobs)).map(|_| scope.spawn(work)).collect();
            work();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let walk = walk.into_inner().unwrap_or_else(PoisonError::into_inner);
        ShardOutcome {
            results: walk.results,
            executed: executed.into_inner(),
            shards_claimed: shards_claimed.into_inner(),
            settled_at: walk.settled_at,
        }
    }
}

/// The in-order walk of a [`JobPool::run_sharded`] run, behind its lock.
/// Slot `k` of `window` holds the shard that starts `k` shards past the
/// prefix, once it has been deposited out of order.
struct Walk<R, S> {
    results: Vec<R>,
    window: VecDeque<Option<Vec<R>>>,
    settled_at: Option<usize>,
    settle: S,
}

impl<R, S: FnMut(usize, &R) -> bool> Walk<R, S> {
    /// Settles `shard`, which starts at the end of the prefix, result by
    /// result, and appends it up to the first result `settle` stops at.
    fn extend(&mut self, shard: impl IntoIterator<Item = R>) {
        for result in shard {
            let index = self.results.len();
            let stop = (self.settle)(index, &result);
            self.results.push(result);
            if stop {
                self.settled_at = Some(index + 1);
                self.window.clear();
                return;
            }
        }
    }
}

/// Publishes boundary 0 when a worker unwinds, so that after a panic in
/// `job` or `settle` no worker claims another shard.
struct CancelOnPanic<'a>(&'a AtomicUsize);

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

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

    /// SplitMix64's finalizer: a cheap, seeded source of job costs.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A job with skewed, seeded costs: the first `slow` indices spin ten
    /// times longer than the slowest of the rest, so later shards are
    /// deposited before the first one and wait in the walk's window.
    fn skewed_job(slow: usize) -> impl Fn(usize) -> u64 + Sync {
        move |index| {
            let mut x = mix(index as u64);
            let spins = if index < slow { 20_000 } else { x % 2_000 };
            for _ in 0..spins {
                x = mix(x);
            }
            x
        }
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

        // Skewed costs with the first shard the slowest, so shards finish
        // out of order: the results, the settle point and the indices
        // `settle` sees must still be exactly the serial run's.
        const JOBS: usize = 60;
        for shard_size in [1, 2, 5] {
            let job = skewed_job(shard_size);
            for stop_at in [Some(0), Some(6), Some(17), Some(48), None] {
                let run = |workers| {
                    let mut seen = Vec::new();
                    let outcome = JobPool::with_workers(workers).run_sharded(
                        JOBS,
                        shard_size,
                        &job,
                        |index, _| {
                            seen.push(index);
                            Some(index) == stop_at
                        },
                    );
                    (outcome, seen)
                };
                let (serial, serial_seen) = run(1);
                let settled = serial.settled_at.unwrap_or(JOBS);
                assert_eq!(serial.settled_at, stop_at.map(|index| index + 1));
                assert_eq!(serial_seen, (0..settled).collect::<Vec<_>>());
                assert_eq!(
                    serial.executed,
                    settled.next_multiple_of(shard_size).min(JOBS),
                    "one worker runs the settling shard to its end, and no further"
                );
                for workers in [2, 3, 8] {
                    let context = format!("workers {workers}, shard {shard_size}, {stop_at:?}");
                    let (got, seen) = run(workers);
                    assert_eq!(got.results, serial.results, "{context}");
                    assert_eq!(got.settled_at, serial.settled_at, "{context}");
                    assert_eq!(seen, serial_seen, "{context}");
                    assert!((settled..=JOBS).contains(&got.executed), "{context}");
                }
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

    /// Sets its flag when dropped: held in a thread-local, it marks that
    /// thread's exit.
    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<SetOnDrop>> = const { RefCell::new(None) };
        static SAW_PANIC: Cell<bool> = const { Cell::new(false) };
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => {
                payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string())
            }
        }
    }

    #[test]
    fn a_job_panic_cancels_the_run_and_reaches_the_caller_with_its_payload() {
        const JOBS: usize = 20_000;
        // One worker: the caller runs the job that panics, and nothing after it.
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            JobPool::with_workers(1).run_sharded(
                JOBS,
                1,
                |index| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if index == 5 {
                        panic!("job 5 failed");
                    }
                },
                |_, _| false,
            )
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "job 5 failed");
        assert_eq!(ran.into_inner(), 6);

        // Four workers: the first job past index 5 on a helper thread
        // panics.  Every other job past index 5 waits until the panicking
        // helper has exited, i.e. until its unwinding has published the
        // cancellation, and then marks its own thread.  A job that starts
        // on a marked thread was claimed after the panic; there must be
        // none, so each worker runs at most one job past index 5.
        let caller = std::thread::current().id();
        let exited = Arc::new(AtomicBool::new(false));
        let (panicked, late) = (AtomicBool::new(false), AtomicUsize::new(0));
        let (ran, panicking_index) = (AtomicUsize::new(0), AtomicUsize::new(usize::MAX));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            JobPool::with_workers(4).run_sharded(
                JOBS,
                1,
                |index| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if SAW_PANIC.get() {
                        late.fetch_add(1, Ordering::Relaxed);
                    }
                    if index < 5 {
                        return;
                    }
                    let on_helper = std::thread::current().id() != caller;
                    if on_helper && !panicked.swap(true, Ordering::AcqRel) {
                        panicking_index.store(index, Ordering::Relaxed);
                        ON_EXIT.set(Some(SetOnDrop(Arc::clone(&exited))));
                        panic!("job {index} failed");
                    }
                    while !exited.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    SAW_PANIC.set(true);
                },
                |_, _| false,
            )
        }));
        let index = panicking_index.into_inner();
        assert_eq!(panic_message(caught.unwrap_err()), format!("job {index} failed"));
        assert_eq!(late.into_inner(), 0, "a shard was claimed after the panic was published");
        assert!(ran.into_inner() <= 5 + 4, "each worker runs at most one job past index 5");
    }

    #[test]
    fn a_settle_panic_reaches_the_caller_and_stops_every_worker() {
        for workers in [1, 4] {
            let caught = catch_unwind(|| {
                JobPool::with_workers(workers).run_sharded(
                    20_000,
                    1,
                    |index| index,
                    |index, _| {
                        if index == 5 {
                            panic!("settle 5 failed");
                        }
                        false
                    },
                )
            });
            assert_eq!(panic_message(caught.unwrap_err()), "settle 5 failed", "workers {workers}");
        }
    }

    #[test]
    fn worker_state_is_made_at_most_once_per_worker() {
        for workers in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let outcome = JobPool::with_workers(workers).run_sharded_with(
                100,
                3,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, index| index,
                |_, _| false,
            );
            assert_eq!(outcome.results, (0..100).collect::<Vec<_>>(), "workers {workers}");
            let inits = inits.into_inner();
            assert!((1..=workers).contains(&inits), "workers {workers}: {inits} inits");
        }
        // Two workers but one shard: the worker that claims nothing never
        // makes its state.
        let inits = AtomicUsize::new(0);
        let outcome = JobPool::with_workers(2).run_sharded_with(
            2,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, index| index,
            |_, _| false,
        );
        assert_eq!(outcome.results, vec![0, 1]);
        assert_eq!(inits.into_inner(), 1);
    }

    #[test]
    fn worker_state_persists_across_the_workers_shards() {
        // Each worker's state is (token, jobs run so far).  Every token's
        // counts are exactly 1..=k, so no worker's state was made twice
        // or shared; at one worker the one state sees all 20 shards.
        for workers in [1, 2, 8] {
            let tokens = AtomicUsize::new(0);
            let outcome = JobPool::with_workers(workers).run_sharded_with(
                40,
                2,
                || (tokens.fetch_add(1, Ordering::Relaxed), 0usize),
                |(token, ran), _| {
                    *ran += 1;
                    (*token, *ran)
                },
                |_, _| false,
            );
            let mut per_token = vec![Vec::new(); tokens.into_inner()];
            for (token, ran) in outcome.results {
                per_token[token].push(ran);
            }
            for (token, mut counts) in per_token.into_iter().enumerate() {
                counts.sort_unstable();
                let expected: Vec<_> = (1..=counts.len()).collect();
                assert_eq!(counts, expected, "workers {workers}, token {token}");
            }
        }
        let serial = JobPool::with_workers(1).run_sharded_with(
            40,
            2,
            || 0usize,
            |ran, _| {
                *ran += 1;
                *ran
            },
            |_, _| false,
        );
        assert_eq!(serial.results, (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn stateful_results_match_across_worker_counts() {
        // The state is scratch whose contents each job overwrites, so the
        // results, the settle point and the indices settle sees are the
        // same at every worker count, with skewed costs too.
        let job = skewed_job(4);
        let run = |workers| {
            let mut seen = Vec::new();
            let outcome = JobPool::with_workers(workers).run_sharded_with(
                60,
                4,
                Vec::<u64>::new,
                |scratch, index| {
                    scratch.clear();
                    scratch.extend((0..=index as u64).map(mix));
                    scratch.iter().fold(job(index), |acc, &x| acc ^ x)
                },
                |index, _| {
                    seen.push(index);
                    index == 45
                },
            );
            (outcome.results, outcome.settled_at, seen)
        };
        let serial = run(1);
        assert_eq!(serial.1, Some(46));
        assert_eq!(serial.2, (0..46).collect::<Vec<_>>());
        for workers in [2, 8] {
            assert_eq!(run(workers), serial, "workers {workers}");
        }
    }

    #[test]
    fn an_init_panic_reaches_the_caller_with_its_payload() {
        // One worker: the caller's own `init` panics.
        let caught = catch_unwind(|| {
            JobPool::with_workers(1).run_sharded_with(
                100,
                1,
                || -> usize { panic!("init failed") },
                |_, index| index,
                |_, _| false,
            )
        });
        assert_eq!(panic_message(caught.unwrap_err()), "init failed");

        // Four workers: only a helper's `init` panics.  The caller's first
        // job waits until a helper has reached `init`, so the panic
        // happens, and the run must still end with the helper's payload.
        let caller = std::thread::current().id();
        let reached = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            JobPool::with_workers(4).run_sharded_with(
                20_000,
                1,
                || {
                    if std::thread::current().id() != caller {
                        reached.store(true, Ordering::Release);
                        panic!("helper init failed");
                    }
                },
                |_, index| {
                    while !reached.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    index
                },
                |_, _| false,
            )
        }));
        assert_eq!(panic_message(caught.unwrap_err()), "helper init failed");
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
