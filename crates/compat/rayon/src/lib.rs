//! Offline stand-in for `rayon`: the `par_iter().map(..)/.filter_map(..)
//! .collect()` shape used by this workspace, executed on `std::thread::scope`
//! threads.
//!
//! ## Scheduling
//!
//! Work is *self-scheduled*: every worker (the calling thread plus up to
//! `worker_budget() - 1` spawned threads) repeatedly claims the next unclaimed
//! block of items from a shared atomic index and processes it.  Unlike the
//! one-contiguous-chunk-per-core static split this replaces, a skewed workload
//! (one item a thousand times heavier than the rest — e.g. the attention
//! statements of a transformer among its element-wise epilogues) keeps every
//! other worker busy on the remaining items instead of serializing a whole
//! chunk behind the heavy one.  Results are written back by item index, so
//! collection order matches the sequential iteration order exactly regardless
//! of which worker processed what (the same guarantee real rayon gives for
//! indexed parallel iterators).
//!
//! ## Worker budget (nested parallelism)
//!
//! All parallel iterators share one process-wide *worker budget*
//! ([`worker_budget`]): the maximum number of threads doing parallel work at
//! any moment.  A `par_iter` reserves its extra workers from the shared pool
//! and returns them when done, so nested parallelism (a suite-level
//! `par_iter` over programs whose per-program analyses `par_iter` over
//! subgraphs) degrades gracefully instead of oversubscribing: once the outer
//! loop holds the whole budget, inner loops find the pool empty and run
//! inline on their caller.  The budget defaults to the `SOAP_THREADS`
//! environment variable (validated by [`parse_worker_threads`]) or, when
//! unset, to [`std::thread::available_parallelism`]; [`set_worker_budget`]
//! overrides it at runtime (CLI `--threads`, thread-scaling benches).
//!
//! ## Panic isolation
//!
//! Each item runs under [`std::panic::catch_unwind`]: one panicking item
//! never tears down the process (the old implementation's
//! `join().expect(..)` could abort outright when a second worker panicked
//! during unwinding) and never prevents the *other* items from completing.
//! After every item has run, the panic of the smallest panicking item index
//! is resumed on the caller — deterministically the same payload a
//! sequential run would have surfaced first, independent of thread count.
//! Callers that need per-item isolation (the batch engine's per-program
//! error discipline) catch around their own item body instead, in which case
//! no panic ever reaches this layer.
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The usual `use rayon::prelude::*;` surface.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Upper clamp of the worker budget: far above any plausible core count, low
/// enough that a typo (`SOAP_THREADS=100000`) cannot spawn an absurd number
/// of threads.
pub const MAX_WORKER_THREADS: usize = 512;

/// Parse a `SOAP_THREADS` / `--threads` override: a positive integer, clamped
/// to [`MAX_WORKER_THREADS`].  `None` for anything that does not parse as a
/// positive integer — callers fall back to the hardware default rather than
/// guessing what a typo meant (the same validation contract as
/// `parse_timeout_ms` in `soap-sdg`).
pub fn parse_worker_threads(raw: &str) -> Option<usize> {
    let n: usize = raw.trim().parse().ok().filter(|&n| n > 0)?;
    Some(n.min(MAX_WORKER_THREADS))
}

/// The process-wide worker pool: the budget (target maximum concurrency) and
/// the number of *extra* workers currently available for reservation (the
/// calling thread of a `par_iter` is always a worker and is never counted
/// here, so `idle_extra` ranges over `0..=budget-1`).
struct Pool {
    budget: AtomicUsize,
    idle_extra: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let budget = std::env::var("SOAP_THREADS")
            .ok()
            .and_then(|raw| parse_worker_threads(&raw))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Pool {
            budget: AtomicUsize::new(budget),
            idle_extra: AtomicUsize::new(budget.saturating_sub(1)),
        }
    })
}

/// The current worker budget: the maximum number of threads this process
/// aims to keep doing parallel work at any moment (across *all* concurrent
/// and nested `par_iter`s combined).
pub fn worker_budget() -> usize {
    pool().budget.load(Ordering::Relaxed)
}

/// Override the worker budget (clamped to `1..=`[`MAX_WORKER_THREADS`]) and
/// return the previous value.  `1` makes every `par_iter` run inline on its
/// caller — the reference single-thread mode of the determinism tests.
///
/// Intended for process setup (CLI `--threads`) and between-run
/// reconfiguration (thread-scaling benches); calling it while parallel work
/// is in flight is safe but the new budget only shapes *future* reservations.
pub fn set_worker_budget(n: usize) -> usize {
    let n = n.clamp(1, MAX_WORKER_THREADS);
    let p = pool();
    let prev = p.budget.swap(n, Ordering::Relaxed);
    p.idle_extra.store(n - 1, Ordering::Relaxed);
    prev
}

/// Reserve up to `want` extra workers from the shared pool.  Returns how many
/// were granted (possibly 0: run inline).
fn reserve_extra(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let mut granted = 0;
    let _ = pool()
        .idle_extra
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |avail| {
            granted = avail.min(want);
            Some(avail - granted)
        });
    granted
}

/// Return `n` extra workers to the pool, clamped to the budget cap so
/// releases cannot compound the idle count past any budget they observed.
///
/// The cap is read *before* the `fetch_update`, so a concurrent
/// [`set_worker_budget`] shrink landing between the two can transiently
/// leave `idle_extra = old_budget - 1`; the next reserve/release cycle
/// re-clamps it (model-checked: see
/// `tests/interleave_pool.rs::release_clamp_bounded_by_largest_observed_budget`
/// and docs/CORRECTNESS.md).  Idle extras never exceed
/// `max(budgets observed) - 1`, so the pool still cannot oversubscribe
/// relative to any configured budget.
fn release_extra(n: usize) {
    if n == 0 {
        return;
    }
    let p = pool();
    let cap = p.budget.load(Ordering::Relaxed).saturating_sub(1);
    let _ = p
        .idle_extra
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |avail| {
            Some((avail + n).min(cap))
        });
}

/// Types whose references can be iterated in parallel.
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by the parallel iterator.
    type Item: Sync + 'a;

    /// Start a parallel iteration over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
    min_len: usize,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Claim at least `min` items per scheduling step (default 1).  Raising
    /// it amortizes the shared-index atomics for very cheap items; 1 is the
    /// maximum-balance policy for heavy ones.  Purely a scheduling knob —
    /// results and their order are identical for any value.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            min_len: self.min_len,
            f,
        }
    }

    /// Parallel filter-map.
    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&T) -> Option<R> + Sync,
    {
        ParFilterMap {
            items: self.items,
            min_len: self.min_len,
            f,
        }
    }
}

/// Result of [`ParIter::map`], awaiting collection.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Run the map on the worker pool and gather the results in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
        C: From<Vec<R>>,
    {
        C::from(run_self_scheduled(self.items, self.min_len, &self.f))
    }
}

/// Result of [`ParIter::filter_map`], awaiting collection.
pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    min_len: usize,
    f: F,
}

impl<'a, T: Sync, F> ParFilterMap<'a, T, F> {
    /// Run the filter-map on the worker pool and gather the retained results
    /// in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&T) -> Option<R> + Sync,
        C: From<Vec<R>>,
    {
        let per_item: Vec<Option<R>> = run_self_scheduled(self.items, self.min_len, &self.f);
        C::from(per_item.into_iter().flatten().collect::<Vec<R>>())
    }
}

/// The payload of a caught item panic.
type Panic = Box<dyn std::any::Any + Send + 'static>;

/// Run `f` over every item on the calling thread plus up to
/// `worker_budget() - 1` reserved extra workers, self-scheduling blocks of
/// `min_len` items off a shared atomic index, and return the outputs in item
/// order.
///
/// Every item runs — a panicking item is caught, the remaining items still
/// execute, and after the pool drains the panic of the *smallest* panicking
/// index is resumed on the caller (the payload a sequential run would have
/// surfaced, so the observable failure is thread-count-independent).
fn run_self_scheduled<T: Sync, R: Send>(
    items: &[T],
    min_len: usize,
    f: &(impl Fn(&T) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    if n <= 1 || worker_budget() <= 1 || min_len >= n {
        return items.iter().map(f).collect();
    }
    let extra = reserve_extra((worker_budget() - 1).min(n - 1));
    if extra == 0 {
        // Pool exhausted (e.g. nested under an outer par_iter that holds the
        // whole budget): run inline instead of oversubscribing.
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let worker = || -> Vec<(usize, Result<R, Panic>)> {
        let mut out = Vec::new();
        loop {
            let start = next.fetch_add(min_len, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for (i, item) in items
                .iter()
                .enumerate()
                .take((start + min_len).min(n))
                .skip(start)
            {
                out.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            }
        }
        out
    };

    let mut buckets: Vec<Vec<(usize, Result<R, Panic>)>> = Vec::with_capacity(extra + 1);
    let mut worker_panic: Option<Panic> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..extra).map(|_| scope.spawn(worker)).collect();
        buckets.push(worker());
        for h in handles {
            match h.join() {
                Ok(bucket) => buckets.push(bucket),
                // Unreachable in practice (item panics are caught above), but
                // a panic in the scheduling loop itself must still surface
                // exactly once instead of aborting via a double panic.
                Err(payload) => worker_panic = Some(payload),
            }
        }
    });
    release_extra(extra);
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }

    let mut slots: Vec<Option<Result<R, Panic>>> = (0..n).map(|_| None).collect();
    for (i, outcome) in buckets.into_iter().flatten() {
        slots[i] = Some(outcome);
    }
    let mut results = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.unwrap_or_else(|| panic!("item {i} was never scheduled")) {
            Ok(r) => results.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Serializes the tests that mutate the process-wide worker budget (unit
    /// tests of one binary run concurrently).
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    /// Run `f` with the budget forced to `n`, restoring the previous value.
    fn with_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = super::set_worker_budget(n);
        let result = f();
        super::set_worker_budget(prev);
        result
    }

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = with_budget(4, || input.par_iter().map(|x| x * 2).collect());
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_preserves_order_and_drops() {
        let input: Vec<u64> = (0..1000).collect();
        let evens: Vec<u64> = with_budget(4, || {
            input
                .par_iter()
                .filter_map(|x| (x % 2 == 0).then_some(*x))
                .collect()
        });
        assert_eq!(evens, (0..1000).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn min_len_chunking_preserves_order() {
        let input: Vec<u64> = (0..997).collect();
        let out: Vec<u64> = with_budget(4, || {
            input.par_iter().with_min_len(16).map(|x| x + 1).collect()
        });
        assert_eq!(out, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_items_are_balanced_by_self_scheduling() {
        // One item 1000x heavier than the rest must not pin the others to the
        // same worker: with self-scheduling every item still completes and
        // order is preserved.  (The timing win itself is measured by the
        // perf harness; this pins the correctness under skew.)
        let mut weights = vec![1u64; 64];
        weights[0] = 1000;
        let out: Vec<u64> = with_budget(8, || {
            weights
                .par_iter()
                .map(|w| (0..*w).map(|i| i % 7).sum::<u64>())
                .collect()
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1..], vec![0u64; 63][..]);
    }

    #[test]
    fn one_poisoned_item_does_not_kill_the_rest() {
        // Every non-poisoned item must run to completion even though item 3
        // panics, and the caller observes exactly one panic (no process
        // abort from a second panicking worker, which the old
        // `join().expect(..)` implementation risked).
        let input: Vec<u64> = (0..100).collect();
        let completed = AtomicUsize::new(0);
        let observed = with_budget(4, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Vec<u64> = input
                    .par_iter()
                    .map(|x| {
                        if *x == 3 {
                            panic!("poisoned item");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                        *x
                    })
                    .collect();
            }))
        });
        let payload = observed.expect_err("the poisoned item's panic must resurface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "poisoned item");
        assert_eq!(completed.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn first_panicking_index_wins_deterministically() {
        // With several poisoned items the caller must always observe the
        // smallest index's payload, matching what a sequential run surfaces.
        let input: Vec<u64> = (0..64).collect();
        for budget in [1usize, 4] {
            let observed = with_budget(budget, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _: Vec<u64> = input
                        .par_iter()
                        .map(|x| {
                            if *x % 10 == 7 {
                                panic!("poisoned {x}");
                            }
                            *x
                        })
                        .collect();
                }))
            });
            let payload = observed.expect_err("a panic must resurface");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "poisoned 7", "budget {budget}");
        }
    }

    #[test]
    fn nested_parallelism_stays_within_budget_and_is_correct() {
        // An outer par_iter holding the whole budget forces inner par_iters
        // inline; the combined result must still be correct and in order.
        let outer: Vec<u64> = (0..16).collect();
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let sums: Vec<u64> = with_budget(3, || {
            outer
                .par_iter()
                .map(|o| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let inner: Vec<u64> = (0..50u64).collect();
                    let s: Vec<u64> = inner.par_iter().map(|i| o * 100 + i).collect();
                    live.fetch_sub(1, Ordering::SeqCst);
                    s.iter().sum()
                })
                .collect()
        });
        let expected: Vec<u64> = (0..16)
            .map(|o| (0..50).map(|i| o * 100 + i).sum())
            .collect();
        assert_eq!(sums, expected);
        // The outer loop may use at most the budget's worth of workers; the
        // inner loops found the pool empty and ran inline on those workers.
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak {peak:?}");
    }

    #[test]
    fn budget_one_runs_inline() {
        let input: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = with_budget(1, || input.par_iter().map(|x| x * 3).collect());
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parse_worker_threads_validates_like_cache_shards() {
        assert_eq!(super::parse_worker_threads("1"), Some(1));
        assert_eq!(super::parse_worker_threads(" 8 "), Some(8));
        assert_eq!(
            super::parse_worker_threads("100000"),
            Some(super::MAX_WORKER_THREADS)
        );
        assert_eq!(super::parse_worker_threads("0"), None);
        assert_eq!(super::parse_worker_threads("-4"), None);
        assert_eq!(super::parse_worker_threads("eight"), None);
        assert_eq!(super::parse_worker_threads(""), None);
    }

    #[test]
    fn set_worker_budget_clamps_and_returns_previous() {
        let _guard = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let original = super::worker_budget();
        let prev = super::set_worker_budget(0);
        assert_eq!(prev, original);
        assert_eq!(super::worker_budget(), 1);
        super::set_worker_budget(usize::MAX);
        assert_eq!(super::worker_budget(), super::MAX_WORKER_THREADS);
        super::set_worker_budget(original);
    }
}
