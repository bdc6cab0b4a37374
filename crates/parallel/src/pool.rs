//! The thread pool: one task queue that every worker pulls from, tasks
//! that never fork again (a worker runs its nested calls inline), and
//! panic containment per job.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// The pool's process-wide instruments, registered once on the global
/// `deepn-trace` registry. The queue high-water mark is always live (a
/// plain atomic, no clock); busy-time is recorded only while tracing is
/// enabled, because it needs two clock reads per task.
struct PoolMetrics {
    queue_high_water: Arc<deepn_trace::Gauge>,
    busy_ns: Arc<deepn_trace::Counter>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = deepn_trace::global();
        PoolMetrics {
            queue_high_water: registry.gauge(
                "deepn_parallel_queue_high_water",
                "Largest task-queue depth observed since process start",
            ),
            busy_ns: registry.counter(
                "deepn_parallel_worker_busy_ns_total",
                "Nanoseconds pool workers spent executing tasks (only advances while tracing is enabled)",
            ),
        }
    })
}

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// Every critical section in this module is a queue push/pop, a job
/// counter update, or a condvar wait that cannot be left half-done:
/// user-task panics are caught in [`run`] *outside* these locks,
/// so a poisoned mutex here means a thread died between acquiring and
/// releasing a lock around an operation that either happened or did not.
/// The protected data is therefore always consistent, and recovering is
/// sound — while propagating the poison would escalate one caught panic
/// into a dead pool for every other worker.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Depth of [`crate::run_sequential`] sections on this thread. Any
    /// non-zero depth forces every parallel entry point to run inline.
    /// Pool workers hold one section for their whole life.
    static FORCE_SEQUENTIAL: Cell<usize> = const { Cell::new(0) };
}

/// RAII guard incrementing the force-sequential depth (decrements on drop,
/// so the flag unwinds correctly through panics).
pub(crate) struct SequentialGuard;

impl SequentialGuard {
    pub(crate) fn new() -> Self {
        FORCE_SEQUENTIAL.with(|d| d.set(d.get() + 1));
        SequentialGuard
    }
}

impl Drop for SequentialGuard {
    fn drop(&mut self) {
        FORCE_SEQUENTIAL.with(|d| d.set(d.get() - 1));
    }
}

pub(crate) fn forced_sequential() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get) > 0
}

/// One batch of tasks submitted together by one `par_*` call: how many
/// have not finished yet, and the first panic among them. The panic is
/// rethrown on the thread that waits for the job, after every task of the
/// job has finished — a panic costs its job, never a pool thread.
struct Job {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    done: Condvar,
}

impl Job {
    fn finish(&self, outcome: std::thread::Result<()>) {
        let mut state = lock_unpoisoned(&self.state);
        state.0 -= 1;
        if let Err(payload) = outcome {
            state.1.get_or_insert(payload);
        }
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of the job finished, then rethrows the
    /// first task panic, if any.
    fn wait(&self) {
        let mut state = lock_unpoisoned(&self.state);
        while state.0 > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

/// One unit of queued work, bound to its job.
struct Task {
    run: Box<dyn FnOnce() + Send>,
    job: Arc<Job>,
}

/// The queue every worker pulls from. Pushes, pops and shutdown all
/// happen under its one lock, so a worker that saw it empty and waits on
/// [`Shared::ready`] cannot miss the push that follows.
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// Runs a task, charging its wall time to the process-wide busy total
/// when tracing is enabled (disabled cost: one relaxed atomic load, no
/// clock read), then reports it to its job — last, so the job's waiter
/// sees the busy time.
fn run(task: Task) {
    let start = deepn_trace::enabled().then(deepn_trace::tick);
    let outcome = catch_unwind(AssertUnwindSafe(task.run));
    if let Some(start) = start {
        metrics()
            .busy_ns
            .add(deepn_trace::tick().saturating_sub(start));
    }
    task.job.finish(outcome);
}

fn worker_loop(shared: &Shared) {
    // A task's own parallel calls run inline, so no worker ever waits on
    // the pool it runs on.
    let _inline = SequentialGuard::new();
    loop {
        let task = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run(task);
    }
}

/// A thread pool with one shared task queue.
///
/// A pool of `n` threads runs `n` dedicated workers; a caller blocks
/// while its job runs. A parallel call made on a worker (from inside a
/// task) runs inline, like one under [`crate::run_sequential`]. A pool of
/// one thread spawns nothing and executes every parallel operation inline
/// on the caller — the degenerate pool *is* the scalar path.
///
/// Most code uses the process-global pool through the crate-level free
/// functions; explicit pools exist so tests can pin a thread count
/// independently of `DEEPN_THREADS`.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with exactly `threads` compute threads (clamped to at
    /// least 1). `threads == 1` spawns no workers: every operation runs
    /// inline.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = if threads == 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("deepn-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // lint:allow(panic-policy): pool construction, not the
                    // request path — if the OS cannot spawn a thread at
                    // startup there is no pool to degrade to, and no work
                    // has been queued yet that could be lost.
                    .expect("spawning a pool worker")
            })
            .collect();
        Pool {
            shared,
            threads,
            workers,
        }
    }

    /// The pool's compute-thread count (1 means inline execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a parallel call entering now runs inline: a one-thread
    /// pool, or a [`crate::run_sequential`] section on this thread (which
    /// every pool worker is in).
    pub(crate) fn inline_now(&self) -> bool {
        self.threads == 1 || forced_sequential()
    }

    /// Runs a batch of closures to completion — inline (in order) on the
    /// degenerate paths, otherwise on the workers — and rethrows the first
    /// panic after **all** of them finished (borrowed data stays live for
    /// the full batch even when one task panics).
    pub(crate) fn exec_batch<'env>(&self, fns: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if self.inline_now() || fns.len() <= 1 {
            for f in fns {
                f();
            }
            return;
        }
        let job = Arc::new(Job {
            state: Mutex::new((fns.len(), None)),
            done: Condvar::new(),
        });
        // Registered (and the queue grown) before the first push: nothing
        // may unwind between queuing a borrowing task and waiting on it.
        let metrics = metrics();
        {
            let mut queue = lock_unpoisoned(&self.shared.queue);
            queue.tasks.reserve(fns.len());
            for f in fns {
                // SAFETY: `exec_batch` does not return before `job.wait`
                // observes every task completed (even on the panic path),
                // so the `'env` borrows captured by the closures outlive
                // every task execution.
                let run: Box<dyn FnOnce() + Send> = unsafe { std::mem::transmute(f) };
                queue.tasks.push_back(Task {
                    run,
                    job: Arc::clone(&job),
                });
            }
            metrics.queue_high_water.set_max(queue.tasks.len() as u64);
        }
        self.shared.ready.notify_all();
        job.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_busy_time_advances_only_under_tracing() {
        let pool = Pool::with_threads(2);
        let spin = |_: usize, &x: &u64| {
            let mut acc = x;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let items: Vec<u64> = (0..64).collect();
        // Tracing disabled (the default): the busy total must not move.
        // No other test in this crate enables tracing.
        let start = metrics().busy_ns.get();
        let before = pool.par_map_collect(&items, spin);
        assert_eq!(metrics().busy_ns.get(), start);
        deepn_trace::set_enabled(true);
        let after = pool.par_map_collect(&items, spin);
        deepn_trace::set_enabled(false);
        assert!(metrics().busy_ns.get() > start);
        // And instrumentation never changes results.
        assert_eq!(before, after);
    }
}
