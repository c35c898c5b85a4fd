//! # uops-pool
//!
//! A small, dependency-free, work-stealing scoped thread pool for the
//! embarrassingly parallel sweeps of the characterization engine.
//!
//! The paper's tool characterizes >13,000 instruction variants per
//! microarchitecture; each variant's microbenchmarks are independent once
//! the per-architecture setup (blocking instructions, chain calibration) has
//! been built, so the sweep parallelizes trivially. This crate provides the
//! scheduling substrate: the input index range is split into chunks, the
//! chunks are distributed round-robin over per-worker deques, and idle
//! workers steal from the *front* of other workers' deques while owners pop
//! from the *back* (the classic Chase–Lev discipline, here with a mutex per
//! deque instead of lock-free operations — the workspace has no crates.io
//! access, so everything is built on `std`, in the same spirit as the
//! API-compatible stand-ins under `crates/compat/`).
//!
//! Results are reassembled in **input order** regardless of which worker ran
//! which chunk, so callers observe deterministic output; a panic in a worker
//! propagates to the caller after all other workers have drained (no
//! deadlock, no lost wakeups — all work is enqueued before the workers
//! start, and nobody blocks waiting for more).
//!
//! ## Quickstart
//!
//! ```rust
//! use uops_pool::{parallel_map_indexed, Parallelism};
//!
//! let squares = parallel_map_indexed(Parallelism::Fixed(4), 100, |i| i * i);
//! assert_eq!(squares[7], 49);
//! // `Parallelism::Serial` runs inline on the calling thread, `Auto` uses
//! // the number of available cores.
//! let same = parallel_map_indexed(Parallelism::Serial, 100, |i| i * i);
//! assert_eq!(squares, same);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;

/// How much parallelism a sweep may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available core (`std::thread::available_parallelism`).
    #[default]
    Auto,
    /// Exactly `n` workers (clamped to at least 1).
    Fixed(usize),
    /// Run inline on the calling thread; no threads are spawned.
    Serial,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to.
    #[must_use]
    pub fn thread_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            }
        }
    }

    /// Returns `true` if no threads are spawned for this setting.
    #[must_use]
    pub fn is_serial(self) -> bool {
        matches!(self, Parallelism::Serial) || self.thread_count() <= 1
    }
}

/// A scope for spawning threads that may borrow from the caller's stack
/// frame. Thin re-export of [`std::thread::Scope`] so that callers of this
/// crate need no direct `std::thread` imports.
pub type Scope<'scope, 'env> = std::thread::Scope<'scope, 'env>;

/// Runs `f` with a [`Scope`] in which borrowed-data threads can be spawned;
/// all spawned threads are joined before `scope` returns, and a panic in any
/// of them propagates to the caller.
///
/// This is the escape hatch for irregular parallelism (e.g. one long-lived
/// task per microarchitecture); regular index-shaped sweeps should prefer
/// [`parallel_map_indexed`].
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

/// How many chunks each worker's deque is seeded with. More chunks mean
/// better load balancing when item costs vary (characterization cost varies
/// wildly between a 1-µop ALU instruction and a divider), at slightly more
/// stealing traffic.
const CHUNKS_PER_WORKER: usize = 4;

/// One worker's deque of pending index chunks. The owner pops from the back
/// (LIFO — keeps its cache warm on the most recently pushed range); thieves
/// steal from the front (FIFO — take the oldest, largest-distance work).
struct ChunkDeque {
    chunks: Mutex<VecDeque<Range<usize>>>,
}

impl ChunkDeque {
    fn new() -> ChunkDeque {
        ChunkDeque { chunks: Mutex::new(VecDeque::new()) }
    }

    fn push(&self, chunk: Range<usize>) {
        self.chunks.lock().expect("deque mutex").push_back(chunk);
    }

    fn pop_back(&self) -> Option<Range<usize>> {
        self.chunks.lock().expect("deque mutex").pop_back()
    }

    fn steal_front(&self) -> Option<Range<usize>> {
        self.chunks.lock().expect("deque mutex").pop_front()
    }
}

/// Splits `0..len` into roughly equal chunks, at least one item each.
fn chunk_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let target = (workers * CHUNKS_PER_WORKER).max(1);
    let chunk_size = len.div_ceil(target).max(1);
    let mut out = Vec::with_capacity(len.div_ceil(chunk_size));
    let mut start = 0;
    while start < len {
        let end = (start + chunk_size).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Maps `f` over the index range `0..len`, returning the results in index
/// order. Work is distributed over a work-stealing pool sized by
/// `parallelism`; with [`Parallelism::Serial`] (or one worker, or at most
/// one item) everything runs inline on the calling thread.
///
/// Every index is evaluated exactly once. A panic inside `f` propagates to
/// the caller once the remaining workers have drained their queues.
pub fn parallel_map_indexed<T, F>(parallelism: Parallelism, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_indexed_with(parallelism, len, || (), move |(), i| f(i))
}

/// Like [`parallel_map_indexed`], but each worker first builds a private
/// context with `init` and threads it through all of its items. This lets
/// hot loops hoist per-worker state (scratch buffers, a calibrated analyzer)
/// out of the per-item path without sharing or locking.
pub fn parallel_map_indexed_with<C, T, I, F>(
    parallelism: Parallelism,
    len: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    let workers = parallelism.thread_count().min(len.max(1));
    if parallelism.is_serial() || workers <= 1 || len <= 1 {
        let mut ctx = init();
        return (0..len).map(|i| f(&mut ctx, i)).collect();
    }

    // All chunks are enqueued before any worker starts: workers terminate
    // when every deque is empty, so there are no missed-wakeup hazards and a
    // panicking worker cannot deadlock the others.
    let deques: Vec<ChunkDeque> = (0..workers).map(|_| ChunkDeque::new()).collect();
    for (i, chunk) in chunk_ranges(len, workers).into_iter().enumerate() {
        deques[i % workers].push(chunk);
    }

    // Each worker returns its finished chunks as `(start, values)` pairs;
    // the chunk count is small (O(workers)), so reassembly is cheap.
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());

    scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let done = &done;
            let init = &init;
            let f = &f;
            s.spawn(move || {
                let mut ctx = init();
                let mut finished: Vec<(usize, Vec<T>)> = Vec::new();
                loop {
                    // Own work first (back), then steal (front), scanning
                    // the other deques starting after our own.
                    let chunk = deques[w].pop_back().or_else(|| {
                        (1..workers).find_map(|d| deques[(w + d) % workers].steal_front())
                    });
                    let Some(chunk) = chunk else { break };
                    let mut values = Vec::with_capacity(chunk.len());
                    let start = chunk.start;
                    for i in chunk {
                        values.push(f(&mut ctx, i));
                    }
                    finished.push((start, values));
                }
                if !finished.is_empty() {
                    done.lock().expect("result mutex").extend(finished);
                }
            });
        }
    });

    let mut chunks = done.into_inner().expect("result mutex");
    chunks.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(len);
    for (start, values) in chunks {
        debug_assert_eq!(start, out.len(), "chunk reassembly out of order");
        out.extend(values);
    }
    assert_eq!(out.len(), len, "every index must be produced exactly once");
    out
}

/// Maps `f` over a slice, returning results in input order. Convenience
/// wrapper around [`parallel_map_indexed`].
pub fn parallel_map<T, U, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_indexed(parallelism, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallelism_thread_counts() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Fixed(0).thread_count(), 1);
        assert_eq!(Parallelism::Fixed(7).thread_count(), 7);
        assert!(Parallelism::Auto.thread_count() >= 1);
        assert!(Parallelism::Serial.is_serial());
        assert!(Parallelism::Fixed(1).is_serial());
        assert!(!Parallelism::Fixed(2).is_serial());
    }

    #[test]
    fn chunking_covers_the_range_without_overlap() {
        for len in [0, 1, 2, 7, 100, 1023] {
            for workers in [1, 2, 4, 13] {
                let chunks = chunk_ranges(len, workers);
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next);
                    assert!(c.end > c.start);
                    next = c.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let expected: Vec<usize> = (0..500).map(|i| i * 3 + 1).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Fixed(1),
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Fixed(9),
            Parallelism::Auto,
        ] {
            assert_eq!(parallel_map_indexed(par, 500, |i| i * 3 + 1), expected, "{par:?}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(parallel_map_indexed(Parallelism::Fixed(4), 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(Parallelism::Fixed(4), 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..311).map(|_| AtomicUsize::new(0)).collect();
        parallel_map_indexed(Parallelism::Fixed(4), hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn per_worker_context_is_reused() {
        // Count context constructions: at most one per worker.
        let inits = AtomicUsize::new(0);
        let out = parallel_map_indexed_with(
            Parallelism::Fixed(3),
            100,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |ctx, i| {
                *ctx += 1;
                i
            },
        );
        assert_eq!(out.len(), 100);
        assert!(inits.load(Ordering::Relaxed) <= 3, "inits = {inits:?}");
    }

    #[test]
    fn panic_in_worker_propagates_without_deadlock() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(Parallelism::Fixed(4), 64, |i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn parallel_map_over_slice() {
        let words = ["a", "bb", "ccc"];
        assert_eq!(parallel_map(Parallelism::Fixed(2), &words, |w| w.len()), vec![1, 2, 3]);
    }

    #[test]
    fn scope_joins_spawned_threads() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| counter.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }
}
