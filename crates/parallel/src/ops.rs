//! The data-parallel operations built on the pool's task batch primitive.
//!
//! Both operations have the same determinism contract: outputs are
//! assembled from per-chunk results in chunk-index order, and the work
//! inside one chunk runs in exactly the order the scalar loop would use —
//! so results are bit-identical to inline execution no matter how chunks
//! interleave across threads.

use crate::pool::Pool;

impl Pool {
    /// Calls `f(chunk_index, chunk)` for every `chunk_size`-sized mutable
    /// piece of `data` (the last chunk may be shorter), in parallel.
    /// Chunks are disjoint, so no synchronization is needed inside `f`.
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
    /// input order. Items are processed in contiguous chunks, each into
    /// its own output vector; the output is identical to
    /// `items.iter().enumerate().map(..).collect()`.
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
        let mut outs: Vec<Vec<U>> = items.chunks(chunk_size).map(|_| Vec::new()).collect();
        self.par_chunks_mut(&mut outs, 1, |ci, out| {
            let base = ci * chunk_size;
            out[0] = items[base..items.len().min(base + chunk_size)]
                .iter()
                .enumerate()
                .map(|(j, t)| f(base + j, t))
                .collect();
        });
        outs.into_iter().flatten().collect()
    }
}

/// Oversubscription factor: more chunks than threads smooths out uneven
/// per-item cost through the shared queue, at negligible queuing
/// overhead.
const CHUNKS_PER_THREAD: usize = 4;

/// `ceil(len / (threads * CHUNKS_PER_THREAD))` — the chunk size the pool
/// would pick for a `len`-item workload; exposed so slice-splitting call
/// sites (e.g. row-parallel matmul) can mirror `par_map_collect`'s policy.
pub fn chunk_size_for(pool: &Pool, len: usize) -> usize {
    len.div_ceil(pool.threads() * CHUNKS_PER_THREAD).max(1)
}
