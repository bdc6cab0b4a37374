//! # deepn-parallel
//!
//! A small data-parallel compute runtime for the DeepN-JPEG hot paths —
//! the workspace's stand-in for `rayon`, built from scratch because the
//! build environment has no crates.io access (the same way `deepn-store`
//! replaces serde).
//!
//! ## Model
//!
//! One process-global pool, lazily initialized on first use and sized from
//! the available cores, drives two data-parallel operations:
//!
//! - [`par_chunks_mut`] — disjoint mutable slice pieces in parallel;
//! - [`par_map_collect`] — an indexed map collected in input order.
//!
//! Every worker pulls tasks from one shared queue. A parallel call made on
//! a worker (from inside a task) runs inline, so no thread ever waits on
//! the pool it runs on. A panicking task poisons only its own job — the
//! panic payload is rethrown on the thread that waits for that job, after
//! every task of the job has finished — and never takes down a pool
//! thread.
//!
//! ## `DEEPN_THREADS` and determinism
//!
//! The pool size comes from the `DEEPN_THREADS` environment variable when
//! set to a positive integer, else from `std::thread::available_parallelism`.
//! `DEEPN_THREADS=1` degrades every operation to inline execution on the
//! calling thread — the scalar code path, bit for bit — which is the knob
//! for deterministic debugging and for CI's inline-executor leg.
//!
//! Results do **not** depend on the thread count: every operation computes
//! chunk outputs with the scalar loop's exact order and joins them in
//! chunk-index order (see `docs/PARALLELISM.md` for the full contract).
//! [`run_sequential`] additionally forces inline execution for one closure
//! on the current thread, which is how the parity tests and benchmarks
//! obtain the scalar baseline without restarting the process.
//!
//! ```
//! let squares = deepn_parallel::par_map_collect(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]

mod ops;
mod pool;

pub use ops::chunk_size_for;
pub use pool::Pool;

use std::sync::OnceLock;

/// Environment variable selecting the global pool's thread count.
const THREADS_ENV: &str = "DEEPN_THREADS";

/// Thread count the global pool will use: `DEEPN_THREADS` when it parses
/// as a positive integer (clamped to 256), else the machine's available
/// parallelism.
fn configured_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(256))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The process-global pool, created on first use.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::with_threads(configured_threads()))
}

/// Effective parallelism for a call made right now on this thread: 1
/// inside [`run_sequential`], on a pool worker, or with a one-thread
/// pool, else the global pool's thread count. Dispatch heuristics ("is
/// this worth forking?") should consult this, not the pool size.
pub fn current_threads() -> usize {
    if pool::forced_sequential() {
        1
    } else {
        global().threads()
    }
}

/// Runs `f` with every parallel operation on this thread forced inline —
/// the scalar reference path. Nestable; unwinds correctly through panics.
///
/// This is how tests assert the bit-identity contract and how benchmarks
/// measure the scalar baseline inside one process:
///
/// ```
/// let par = deepn_parallel::par_map_collect(&[1.0f32, 2.0], |_, &x| x.sqrt());
/// let seq = deepn_parallel::run_sequential(|| {
///     deepn_parallel::par_map_collect(&[1.0f32, 2.0], |_, &x| x.sqrt())
/// });
/// assert_eq!(par, seq);
/// ```
pub fn run_sequential<R>(f: impl FnOnce() -> R) -> R {
    let _guard = pool::SequentialGuard::new();
    f()
}

/// [`Pool::par_chunks_mut`] on the global pool.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().par_chunks_mut(data, chunk_size, f);
}

/// [`Pool::par_map_collect`] on the global pool.
pub fn par_map_collect<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    global().par_map_collect(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pools() -> Vec<Pool> {
        vec![
            Pool::with_threads(1),
            Pool::with_threads(2),
            Pool::with_threads(8),
        ]
    }

    #[test]
    fn par_map_collect_matches_scalar_across_thread_counts() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * x + i as u64)
            .collect();
        for pool in pools() {
            let got = pool.par_map_collect(&items, |i, &x| x * x + i as u64);
            assert_eq!(got, expect, "pool with {} threads", pool.threads());
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        for pool in pools() {
            let mut data = vec![0usize; 103];
            pool.par_chunks_mut(&mut data, 10, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = ci * 10 + j + 1;
                }
            });
            let expect: Vec<usize> = (1..=103).collect();
            assert_eq!(data, expect, "pool with {} threads", pool.threads());
        }
    }

    #[test]
    fn calls_made_on_a_worker_run_inline() {
        let pool = Pool::with_threads(2);
        let outer: Vec<usize> = (0..8).collect();
        let seen = pool.par_map_collect(&outer, |_, _| {
            let me = std::thread::current().id();
            let mut inner = vec![None; 16];
            pool.par_chunks_mut(&mut inner, 1, |_, slot| {
                slot[0] = Some(std::thread::current().id());
            });
            let on_this_thread = inner.iter().all(|&id| id == Some(me));
            (current_threads(), on_this_thread)
        });
        assert_eq!(seen, vec![(1, true); 8]);
        // The caller is not a worker: its parallelism is unchanged.
        assert_eq!(current_threads(), global().threads());
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let pool = Pool::with_threads(2);
        let out = pool.par_map_collect(&[10usize, 20, 30, 40], |_, &n| {
            let inner: Vec<usize> =
                pool.par_map_collect(&(0..n).collect::<Vec<usize>>(), |_, &x| x + 1);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![55, 210, 465, 820]);
    }

    #[test]
    fn panic_poisons_only_its_job_and_propagates() {
        let pool = Pool::with_threads(4);
        let items: Vec<usize> = (0..64).collect();
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_collect(&items, |_, &x| {
                if x == 13 {
                    panic!("task 13 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload survives");
        assert_eq!(msg, "task 13 exploded");
        // The job is poisoned, the pool is not: later jobs run normally.
        let after = pool.par_map_collect(&items, |_, &x| x * 2);
        assert_eq!(after[63], 126);
        assert!(completed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn chunk_panic_is_rethrown_after_every_sibling_finished() {
        let pool = Pool::with_threads(4);
        let mut data = vec![0u32; 16];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_chunks_mut(&mut data, 1, |ci, chunk| {
                if ci == 3 {
                    panic!("chunk 3 panicked");
                }
                // Long enough that an early rethrow would find siblings
                // still running.
                std::thread::sleep(std::time::Duration::from_millis(5));
                chunk[0] = 1;
            });
        }));
        assert!(result.is_err());
        assert_eq!(data.iter().sum::<u32>(), 15);
        assert_eq!(data[3], 0);
    }

    #[test]
    fn run_sequential_forces_inline_execution() {
        let outer = current_threads();
        let inner = run_sequential(current_threads);
        assert_eq!(inner, 1);
        assert_eq!(current_threads(), outer);
        // Nested sections unwind their depth correctly through panics.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_sequential(|| panic!("inside sequential"))
        }));
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn global_helpers_agree_with_scalar() {
        let data: Vec<f32> = (0..257).map(|i| i as f32 * 0.37).collect();
        let par = par_map_collect(&data, |i, &x| x.sin() + i as f32);
        let seq = run_sequential(|| par_map_collect(&data, |i, &x| x.sin() + i as f32));
        assert_eq!(par, seq);
    }
}
