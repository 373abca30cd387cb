//! A work-stealing job scheduler over scoped threads.
//!
//! Campaign analysis is embarrassingly parallel — every `(program, seed,
//! site)` job is a pure function — but jobs are wildly uneven: one site
//! may solve in microseconds (interval presolve) while its neighbour runs
//! several enforcement iterations of CDCL search. A fixed partition would
//! leave cores idle behind the slow sites, so the scheduler uses the
//! classic injector/deque shape:
//!
//! * a global **injector** receives the initial job batch;
//! * each worker owns a **deque**: jobs it spawns (e.g. per-site jobs
//!   discovered while running a stage-1 identification job) are pushed to
//!   the *front* of its own deque and popped LIFO for locality;
//! * an idle worker first drains its own deque, then the injector, then
//!   **steals** from the *back* of a sibling's deque, scanning siblings
//!   starting at its own index so thieves spread out.
//!
//! Everything is plain `std`: scoped threads (`std::thread::scope`) let
//! jobs borrow the campaign's programs and formats, and short critical
//! sections around `VecDeque`s stand in for lock-free Chase–Lev deques —
//! the jobs here are milliseconds long, so queue overhead is noise.
//!
//! Determinism: the scheduler makes **no ordering promises** (completion
//! order depends on stealing), so it returns results tagged however the
//! caller's `worker` function chooses; `diode-engine`'s campaign layer
//! re-aggregates them in site-label order, which is what makes campaigns
//! byte-identical at every worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diode_obs::{Recorder, SchedGauges};

/// Handle workers use to spawn follow-up jobs onto their own deque.
pub struct Spawner<'a, J> {
    me: usize,
    local: &'a Mutex<VecDeque<J>>,
    pending: &'a AtomicUsize,
    gauges: Option<&'a SchedGauges>,
}

impl<J> Spawner<'_, J> {
    /// Enqueues a job at the front of the calling worker's deque (LIFO:
    /// it will typically run next on this worker, unless stolen).
    pub fn spawn(&self, job: J) {
        // Count before publishing so no worker can observe an empty system
        // while this job is in flight.
        self.pending.fetch_add(1, Ordering::SeqCst);
        if let Some(g) = self.gauges {
            g.job_queued();
        }
        self.local.lock().unwrap().push_front(job);
    }

    /// The calling worker's index (`0..threads`). Lets jobs attribute
    /// telemetry (e.g. a worker-state table slot) to the worker actually
    /// running them.
    #[must_use]
    pub fn index(&self) -> usize {
        self.me
    }
}

struct Queues<J> {
    injector: Mutex<VecDeque<J>>,
    deques: Vec<Mutex<VecDeque<J>>>,
    /// Jobs created (initial + spawned) and not yet finished.
    pending: AtomicUsize,
}

/// Where [`Queues::next_job`] found a job — feeds the scheduler's steal
/// counter when a recorder is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobSource {
    /// The worker's own deque.
    Local,
    /// The global injector.
    Injector,
    /// Stolen from a sibling's deque.
    Steal,
}

impl<J> Queues<J> {
    /// Next job for worker `me`: own deque (front), injector, then steal
    /// from siblings (back).
    fn next_job(&self, me: usize) -> Option<(J, JobSource)> {
        if let Some(job) = self.deques[me].lock().unwrap().pop_front() {
            return Some((job, JobSource::Local));
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some((job, JobSource::Injector));
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(job) = self.deques[victim].lock().unwrap().pop_back() {
                return Some((job, JobSource::Steal));
            }
        }
        None
    }
}

/// The number of workers to use when the caller does not pin one:
/// all available cores.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `initial` jobs (plus any jobs they spawn) across `threads`
/// workers, returning every job's result in an **unspecified order**.
///
/// `worker` must be a pure function of the job for campaign determinism;
/// the scheduler guarantees each job runs exactly once. Two optional
/// observers ride along without changing results: a [`Recorder`] gets
/// queue-wait time (volatile spans + a histogram) and steal/job counters,
/// and live [`SchedGauges`] get the queue-depth/steal/retire counters the
/// pulse heartbeat sampler reads. `None` keeps the hot path free of any
/// telemetry stores.
pub fn execute<J, R, F>(
    initial: Vec<J>,
    threads: usize,
    recorder: Option<&Arc<Recorder>>,
    gauges: Option<&SchedGauges>,
    worker: F,
) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J, &Spawner<'_, J>) -> R + Sync,
{
    let threads = threads.max(1);
    let total_hint = initial.len();
    if let Some(g) = gauges {
        for _ in 0..total_hint {
            g.job_queued();
        }
    }
    let queues = Queues {
        pending: AtomicUsize::new(initial.len()),
        injector: Mutex::new(initial.into()),
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
    };
    let recorder = recorder.map(Arc::as_ref);
    let results: Mutex<Vec<R>> = Mutex::new(Vec::with_capacity(total_hint));
    if threads == 1 {
        // Degenerate single-worker pool: run inline, no thread spawn.
        run_worker(0, &queues, &results, recorder, gauges, &worker);
    } else {
        std::thread::scope(|scope| {
            for me in 0..threads {
                let queues = &queues;
                let results = &results;
                let worker = &worker;
                scope.spawn(move || run_worker(me, queues, results, recorder, gauges, worker));
            }
        });
    }
    debug_assert_eq!(queues.pending.load(Ordering::SeqCst), 0);
    results.into_inner().unwrap()
}

fn run_worker<J, R, F>(
    me: usize,
    queues: &Queues<J>,
    results: &Mutex<Vec<R>>,
    recorder: Option<&Recorder>,
    gauges: Option<&SchedGauges>,
    worker: &F,
) where
    F: Fn(J, &Spawner<'_, J>) -> R,
{
    let spawner = Spawner {
        me,
        local: &queues.deques[me],
        pending: &queues.pending,
        gauges,
    };
    // Balances `pending` even when a job panics: without it, an unwinding
    // worker would leave `pending > 0` forever and every sibling would spin
    // in the idle branch while `thread::scope` waits to join them. With the
    // guard, siblings drain the remaining jobs and exit, and the scope then
    // propagates the original panic to the caller.
    struct PendingGuard<'a>(&'a AtomicUsize);
    impl Drop for PendingGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let mut idle_spins: u32 = 0;
    // Set while the worker is between jobs; cleared (and reported as
    // queue-wait) when the next job arrives.
    let mut idle_since: Option<(Instant, u64)> = None;
    loop {
        if let Some((job, source)) = queues.next_job(me) {
            idle_spins = 0;
            if let Some(g) = gauges {
                g.job_dequeued();
                if source == JobSource::Steal {
                    g.steal();
                }
            }
            if let Some(rec) = recorder {
                if let Some((idle_start, start_ns)) = idle_since.take() {
                    let waited = idle_start.elapsed().as_nanos() as u64;
                    rec.record_volatile(diode_obs::Phase::QueueWait, start_ns, waited);
                    rec.observe_direct("scheduler.queue_wait_ns", waited);
                }
                rec.count_direct("scheduler.jobs", 1);
                if source == JobSource::Steal {
                    rec.count_direct("scheduler.steals", 1);
                }
            }
            // Decrement only after the result (and any spawned jobs) are
            // published — i.e. when the guard drops — so `pending == 0`
            // really means "all done".
            let _finished = PendingGuard(&queues.pending);
            let result = worker(job, &spawner);
            results.lock().unwrap().push(result);
            if let Some(g) = gauges {
                g.job_done();
            }
            continue;
        }
        if queues.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        if recorder.is_some() && idle_since.is_none() {
            idle_since = Some((
                Instant::now(),
                recorder.map(Recorder::now_ns).unwrap_or_default(),
            ));
        }
        // Another worker still owns in-flight jobs that may spawn more:
        // back off politely instead of hammering the queue locks.
        idle_spins += 1;
        if idle_spins < 16 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_job_exactly_once() {
        let jobs: Vec<u64> = (0..1000).collect();
        let mut out = execute(jobs, 8, None, None, |j, _| j);
        out.sort_unstable();
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_jobs_run_too() {
        // Each root job i spawns i children; children return 1.
        #[derive(Clone, Copy)]
        enum Job {
            Root(u64),
            Child,
        }
        let roots: Vec<Job> = (0..20).map(Job::Root).collect();
        let out = execute(roots, 4, None, None, |j, spawner| match j {
            Job::Root(n) => {
                for _ in 0..n {
                    spawner.spawn(Job::Child);
                }
                0u64
            }
            Job::Child => 1,
        });
        let children: u64 = out.iter().sum();
        assert_eq!(children, (0..20).sum::<u64>());
        assert_eq!(out.len(), 20 + 190);
    }

    #[test]
    fn uneven_jobs_spread_across_workers() {
        // One long job plus many short ones: total work should not
        // serialize behind the long job (smoke-tested via wall clock).
        let counter = AtomicU64::new(0);
        let jobs: Vec<u32> = (0..64).collect();
        let out = execute(jobs, 8, None, None, |j, _| {
            let spins = if j == 0 { 2_000_000 } else { 10_000 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            counter.fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = execute(vec![1, 2, 3], 1, None, None, |j, _| j * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = execute(Vec::<u32>::new(), 4, None, None, |j, _| j);
        assert!(out.is_empty());
    }

    #[test]
    fn gauges_balance_and_count_retires() {
        let g = SchedGauges::new();
        let out = execute(
            (0..100u32).collect(),
            4,
            None,
            Some(&g),
            |j, s: &Spawner<'_, u32>| {
                if j < 10 {
                    s.spawn(j + 1000);
                }
                j
            },
        );
        assert_eq!(out.len(), 110);
        assert_eq!(g.jobs_done(), 110, "every job retires exactly once");
        assert_eq!(g.queued(), 0, "queue gauge balances back to zero");
    }

    #[test]
    fn spawner_reports_worker_index() {
        let out = execute(
            vec![(), (), ()],
            1,
            None,
            None,
            |(), s: &Spawner<'_, ()>| s.index(),
        );
        assert_eq!(out, vec![0, 0, 0], "inline single worker is index 0");
        let out = execute((0..64).collect::<Vec<u32>>(), 4, None, None, |_, s| {
            s.index()
        });
        assert!(out.iter().all(|&i| i < 4));
    }

    #[test]
    fn panicking_job_propagates_instead_of_hanging() {
        // A worker panic must not strand `pending` above zero: the other
        // workers drain the rest of the batch and the panic resurfaces at
        // the `execute` call instead of deadlocking the scope join.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute((0..64u32).collect(), 4, None, None, |j, _| {
                assert!(j != 13, "boom");
                j
            })
        }));
        assert!(result.is_err(), "the job's panic must propagate");
    }
}
