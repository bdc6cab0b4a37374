//! The data-parallel operations built on the pool's task batch primitive.
//!
//! Every operation here has the same determinism contract: outputs are
//! assembled from per-chunk results in chunk-index order, and the work
//! inside one chunk runs in exactly the order the scalar loop would use —
//! so results are bit-identical to inline execution no matter how chunks
//! interleave across threads.

use crate::pool::{JobTracker, Pool};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// A handle for spawning tasks that may borrow from the enclosing
/// environment (`'env`); see [`Pool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    job: Arc<JobTracker>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawns a task into the scope. The task may borrow anything that
    /// outlives the [`Pool::scope`] call and may itself spawn further
    /// tasks through the scope it captures.
    ///
    /// Panics inside a task are captured and rethrown (first one wins)
    /// when the scope closes; they never kill a pool thread.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.inline_now() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                self.job.poison(payload);
            }
            return;
        }
        self.job.add_task();
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `Pool::scope` waits for every spawned task (panic or
        // not) before returning, so the `'env` borrows outlive the task.
        let erased = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        self.pool.submit(&self.job, vec![erased]);
    }
}

impl Pool {
    /// Structured fork/join: runs `f` with a [`Scope`] whose spawned tasks
    /// are all complete by the time `scope` returns.
    ///
    /// # Panics
    ///
    /// Rethrows a panic from the scope body, or the first captured task
    /// panic — in both cases only after every spawned task has finished.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            job: Arc::new(JobTracker::new(0)),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&scope.job);
        match result {
            Ok(value) => {
                scope.job.propagate_panic();
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Runs two closures, potentially in parallel, returning both results.
    /// `a` always runs on the calling thread; `b` is offered to the pool.
    ///
    /// # Panics
    ///
    /// Rethrows a panic from either closure (preferring `a`'s) after both
    /// have finished.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if self.inline_now() {
            return (a(), b());
        }
        let slot: Mutex<Option<RB>> = Mutex::new(None);
        let job = Arc::new(JobTracker::new(1));
        {
            let slot = &slot;
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *slot.lock().expect("join slot never poisoned") = Some(b());
            });
            // SAFETY: `wait` below blocks until the task completed (even
            // when `a` panics), so the borrows of `slot` and `b` are live
            // for the task's whole execution.
            let erased = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(task)
            };
            self.submit(&job, vec![erased]);
        }
        let ra = catch_unwind(AssertUnwindSafe(a));
        self.wait(&job);
        let ra = match ra {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        };
        job.propagate_panic();
        let rb = slot
            .into_inner()
            .expect("join slot never poisoned")
            .expect("join task completed without panicking");
        (ra, rb)
    }

    /// Calls `f(chunk_index, chunk)` for every `chunk_size`-sized piece of
    /// `data` (the last chunk may be shorter), in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`; rethrows the first task panic.
    pub fn par_chunks<T, F>(&self, data: &[T], chunk_size: usize, f: F)
    where
        T: Sync,
        F: Fn(usize, &[T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, chunk)| Box::new(move || f(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.exec_batch(tasks);
    }

    /// Calls `f(chunk_index, chunk)` for every `chunk_size`-sized mutable
    /// piece of `data`, in parallel. Chunks are disjoint, so no
    /// synchronization is needed inside `f`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`; rethrows the first task panic.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_size > 0, "chunk size must be positive");
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(i, chunk)| Box::new(move || f(i, chunk)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.exec_batch(tasks);
    }

    /// Maps `f(index, item)` over `items` and collects the results in
    /// input order. Items are processed in contiguous chunks; the output
    /// is identical to `items.iter().enumerate().map(..).collect()`.
    ///
    /// # Panics
    ///
    /// Rethrows the first task panic.
    pub fn par_map_collect<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        if self.inline_now() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk_size = chunk_size_for(self, items.len());
        let chunk_count = items.len().div_ceil(chunk_size);
        let slots: Vec<Mutex<Vec<U>>> = (0..chunk_count).map(|_| Mutex::new(Vec::new())).collect();
        {
            let f = &f;
            let slots = &slots;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
                .chunks(chunk_size)
                .enumerate()
                .map(|(ci, chunk)| {
                    Box::new(move || {
                        let base = ci * chunk_size;
                        let out: Vec<U> = chunk
                            .iter()
                            .enumerate()
                            .map(|(j, t)| f(base + j, t))
                            .collect();
                        *slots[ci].lock().expect("slot never poisoned") = out;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.exec_batch(tasks);
        }
        slots
            .into_iter()
            .flat_map(|slot| slot.into_inner().expect("slot never poisoned"))
            .collect()
    }
}

/// Oversubscription factor: more chunks than threads smooths out uneven
/// per-item cost via stealing, at negligible queuing overhead.
const CHUNKS_PER_THREAD: usize = 4;

/// `ceil(len / (threads * CHUNKS_PER_THREAD))` — the chunk size the pool
/// would pick for a `len`-item workload; exposed so slice-splitting call
/// sites (e.g. row-parallel matmul) can mirror `par_map_collect`'s policy.
pub fn chunk_size_for(pool: &Pool, len: usize) -> usize {
    len.div_ceil(pool.threads() * CHUNKS_PER_THREAD).max(1)
}
