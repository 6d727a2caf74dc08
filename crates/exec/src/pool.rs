//! Morsel-driven scoped worker pool, and the host's thread count.
//!
//! A sharded kernel splits its iteration space into fixed-size **morsels**
//! (contiguous index ranges, after Leis et al.'s morsel-driven
//! parallelism). Workers are scoped threads that repeatedly
//! claim the next unclaimed morsel from a shared atomic cursor, so load
//! balances dynamically: a worker that drew cheap morsels simply claims
//! more of them. Results are reassembled in morsel order, which makes every
//! pool-backed kernel deterministic — output order never depends on thread
//! scheduling.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use deeplens_analyze::sync::{LockRank, OrderedMutex};

/// Hardware threads this process should assume, honoring the
/// `DEEPLENS_THREADS` environment variable.
///
/// Containers and CI runners frequently advertise a core count that has
/// nothing to do with the quota the process actually gets, and the test
/// suite needs to run under pinned thread shapes (the CI matrix exercises a
/// 1-thread and a many-thread configuration). `DEEPLENS_THREADS=<n>` (n ≥ 1)
/// overrides auto-detection everywhere a zero/auto worker count resolves,
/// starting with `WorkerPool::new(0)`. Unset, empty, or unparsable values
/// fall back to [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    match std::env::var("DEEPLENS_THREADS") {
        Ok(raw) => parse_thread_override(&raw).unwrap_or_else(available_threads),
        Err(_) => available_threads(),
    }
}

/// Parse a `DEEPLENS_THREADS` value: a positive integer, or `None` to fall
/// back to auto-detection.
fn parse_thread_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A scoped worker pool executing morsel-sharded kernels.
///
/// The pool is a *policy* object (thread count), not a set of live threads:
/// each [`WorkerPool::run_morsels`] call spawns scoped workers for exactly
/// the duration of the kernel, so borrowed inputs need no `'static` bound
/// and no shutdown protocol exists to get wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Pool with `threads` workers; `0` means one worker per available
    /// hardware thread (honoring the `DEEPLENS_THREADS` override — see
    /// [`configured_threads`]).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            configured_threads()
        } else {
            threads
        };
        WorkerPool { threads }
    }

    /// Number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Morsel size that gives each worker several morsels to claim (dynamic
    /// load balancing) without collapsing into per-item scheduling overhead.
    pub fn morsel_size(&self, items: usize) -> usize {
        items.div_ceil(self.threads * 4).max(1)
    }

    /// Run `f` over `0..items` sharded into `morsel`-sized ranges and return
    /// the per-morsel results **in morsel order**.
    ///
    /// `f` sees each contiguous range exactly once. With one worker (or one
    /// morsel) everything runs inline on the caller's thread — no spawn cost
    /// on the small-input path the optimizer routes away from parallelism
    /// anyway.
    pub fn run_morsels<T, F>(&self, items: usize, morsel: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        assert!(morsel > 0, "morsel size must be positive");
        if items == 0 {
            return Vec::new();
        }
        let n_morsels = items.div_ceil(morsel);
        let morsel_range = |m: usize| m * morsel..((m + 1) * morsel).min(items);
        if self.threads == 1 || n_morsels == 1 {
            return (0..n_morsels).map(|m| f(morsel_range(m))).collect();
        }

        let cursor = AtomicUsize::new(0);
        // `WorkerResults` is the innermost rank: each worker takes it once,
        // at the end of its morsel run, holding nothing else (workers are
        // fresh scoped threads with empty held stacks).
        let collected: OrderedMutex<Vec<(usize, T)>> = OrderedMutex::new(
            LockRank::WorkerResults,
            "WorkerPool::collected",
            Vec::with_capacity(n_morsels),
        );
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n_morsels) {
                s.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let m = cursor.fetch_add(1, Ordering::Relaxed);
                        if m >= n_morsels {
                            break;
                        }
                        local.push((m, f(morsel_range(m))));
                    }
                    collected.lock().extend(local);
                });
            }
        });
        let mut tagged = collected.into_inner();
        tagged.sort_unstable_by_key(|(m, _)| *m);
        debug_assert_eq!(tagged.len(), n_morsels);
        tagged.into_iter().map(|(_, v)| v).collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for items in [0usize, 1, 7, 64, 1000] {
                let pool = WorkerPool::new(threads);
                let ranges = pool.run_morsels(items, 13, |r| r);
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(flat, (0..items).collect::<Vec<_>>(), "{threads}t/{items}i");
            }
        }
    }

    #[test]
    fn results_arrive_in_morsel_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_morsels(100, 7, |r| r.start);
        let expect: Vec<usize> = (0..100).step_by(7).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_threads_resolves_to_hardware() {
        assert!(WorkerPool::new(0).threads() >= 1);
        assert_eq!(WorkerPool::new(3).threads(), 3);
    }

    #[test]
    fn one_worker_or_one_morsel_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on_caller = |pool: WorkerPool, items: usize, morsel: usize| {
            pool.run_morsels(items, morsel, |_| std::thread::current().id() == caller)
        };
        // One worker over many morsels, and many workers over one morsel.
        let one_worker = on_caller(WorkerPool::new(1), 100, 7);
        assert_eq!(one_worker.len(), 15);
        assert!(one_worker.iter().all(|&inline| inline));
        assert_eq!(on_caller(WorkerPool::new(8), 5, 5), vec![true]);
    }

    #[test]
    fn thread_override_parsing() {
        // The pure parser behind DEEPLENS_THREADS (the env read itself is
        // not exercised here: the test harness runs tests concurrently and
        // process-global env mutation would race).
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("1"), Some(1));
        assert_eq!(parse_thread_override("0"), None, "zero means auto");
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("lots"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn morsel_size_scales_with_items() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.morsel_size(0), 1);
        assert!(pool.morsel_size(16) >= 1);
        // Large inputs give every worker several morsels.
        let m = pool.morsel_size(100_000);
        assert!(100_000usize.div_ceil(m) >= 4 * 4);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let data: Vec<u64> = (0..10_000).collect();
        let pool = WorkerPool::new(8);
        let partials = pool.run_morsels(data.len(), pool.morsel_size(data.len()), |r| {
            data[r].iter().sum::<u64>()
        });
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
