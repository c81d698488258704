//! Minimal data-parallelism substrate for the Voiceprint reproduction.
//!
//! The comparison phase is an embarrassingly parallel set of independent
//! pair computations whose results land in disjoint, preallocated slots,
//! and so is a city of independent observer shards. This crate provides
//! exactly that shape — [`par_fill_with`] — plus the conveniences built
//! on it, with three properties the workspace relies on:
//!
//! 1. **Determinism.** Work item `k` writes only slot `k` and is computed
//!    by a pure function of `k`, so results are bit-identical to a
//!    sequential loop regardless of thread count or scheduling.
//! 2. **Per-worker scratch.** Each worker owns one scratch value for its
//!    whole lifetime, so hot kernels can reuse allocations across items
//!    instead of allocating per call.
//! 3. **No nested oversubscription.** A parallel region entered from
//!    inside another parallel region runs sequentially on the calling
//!    worker, so `compare()` inside a parallelised training sweep does
//!    not multiply thread counts.
//!
//! Each region spawns scoped `std::thread`s — no external dependencies,
//! no `unsafe`, no pool outliving the call. The thread budget comes from
//! `VP_NUM_THREADS` (see [`max_threads`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// `true` while the current thread is a worker inside a parallel
    /// region; nested regions then run inline instead of fanning out.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// `true` when called from inside a parallel region's worker, in which
/// case further `par_*` calls run sequentially on this thread.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL.with(|f| f.get())
}

/// The thread budget for parallel regions.
///
/// `VP_NUM_THREADS` when it holds a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("VP_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cooperative cancellation for parallel sweeps.
///
/// A token is shared (cheaply, via `Arc`) between the party that imposes
/// a budget and the workers that honour it. Workers call
/// [`CancelToken::should_stop`] between work items; once it reports
/// `true` they finish nothing further. Three budget shapes cover the
/// runtime's needs:
///
/// * [`CancelToken::manual`] — never fires until [`CancelToken::cancel`]
///   is called (external abort).
/// * [`CancelToken::deadline`] — fires once the wall clock passes the
///   deadline (production sweep budgets).
/// * [`CancelToken::after_items`] — fires after `n` work items have been
///   claimed (a deterministic compute budget, used by the runtime's
///   `PairBudget` deadline, by tests, and by throughput benchmarks that
///   must not depend on machine speed).
///
/// Cancellation is *cooperative and monotonic*: once fired, the token
/// stays fired. Under a wall-clock or manual token, which in-flight items
/// complete after the trigger is scheduling-dependent — callers must
/// treat such a sweep's output as partial and flag it, never diff it
/// bitwise. An item budget is the exception: it always computes exactly
/// the items `0..n` (see [`CancelToken::after_items`]).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Remaining item budget; `u64::MAX` means unlimited.
    items_left: AtomicU64,
}

impl CancelToken {
    fn with(deadline: Option<Instant>, items: u64) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline,
                items_left: AtomicU64::new(items),
            }),
        }
    }

    /// A token that only fires on an explicit [`CancelToken::cancel`].
    pub fn manual() -> Self {
        Self::with(None, u64::MAX)
    }

    /// A token that fires once `budget` wall-clock time has elapsed from
    /// now (checked lazily, at each [`CancelToken::should_stop`] call).
    pub fn deadline(budget: Duration) -> Self {
        // vp-lint: allow(wall-clock) — deadline cancellation is wall-clock by contract (DESIGN.md §11); cancelled sweeps yield flagged-partial verdicts, never silently different ones
        Self::with(Instant::now().checked_add(budget), u64::MAX)
    }

    /// A token that fires after `n` work items have been claimed, total,
    /// across every worker consulting it. Deterministic twice over: the
    /// count is independent of machine speed, and [`par_fill_with_cancel`]
    /// runs a sweep under an item budget on a single worker at any thread
    /// budget, so exactly items `0..n` are computed.
    pub fn after_items(n: u64) -> Self {
        Self::with(None, n)
    }

    /// Fires the token; idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once the token has fired. Does not consume item budget.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// `true` when the token carries an item budget. A finite budget only
    /// counts down, so it never reaches the unlimited sentinel.
    fn has_item_budget(&self) -> bool {
        self.inner.items_left.load(Ordering::Relaxed) != u64::MAX
    }

    /// Claims one work item against the budget; returns `true` when the
    /// caller must stop *instead of* processing the item.
    pub fn should_stop(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            // vp-lint: allow(wall-clock) — lazy deadline check of the WallClock budget (DESIGN.md §11)
            if Instant::now() >= deadline {
                self.cancel();
                return true;
            }
        }
        if self.has_item_budget() {
            // `fetch_update` keeps the budget exact under contention.
            let claimed = self
                .inner
                .items_left
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |left| {
                    left.checked_sub(1)
                })
                .is_ok();
            if !claimed {
                self.cancel();
                return true;
            }
        }
        false
    }
}

/// Fills every slot of `slots` by calling `f(k, &mut slots[k], &mut
/// scratch)` for each index `k`, fanning the indices out over at most
/// [`max_threads`] workers.
///
/// Each worker calls `init()` exactly once and reuses the resulting
/// scratch value for every item it processes. Slot `k`'s value depends
/// only on `k` (and the data `f` captures immutably), so the result is
/// bit-identical to the sequential loop `for k in 0..slots.len() { f(k,
/// &mut slots[k], &mut scratch) }` for any thread count.
///
/// Runs inline (sequentially) when the region is nested inside another
/// parallel region, when the budget is one thread, or when `slots` is
/// small enough that fan-out costs more than it saves.
pub fn par_fill_with<T, S, FI, F>(slots: &mut [T], init: FI, f: F)
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    par_fill_with_threads(slots, max_threads(), init, f);
}

/// [`par_fill_with`] with an explicit thread budget (mainly for tests
/// and benchmarks that pin `threads = 1` as the sequential reference).
pub fn par_fill_with_threads<T, S, FI, F>(slots: &mut [T], threads: usize, init: FI, f: F)
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    // Fan-out threshold: spawning threads for a handful of cheap items
    // costs more than it saves; 4 items per worker is the break-even
    // neighbourhood for DTW-sized work.
    par_fill_with_min_fanout(slots, threads, 8, init, f);
}

/// [`par_fill_with_threads`] with an explicit fan-out floor: parallel
/// execution is used whenever `slots.len() >= min_fanout` (and the budget
/// allows). Use a small floor only when each item is expensive enough to
/// amortise a thread spawn — e.g. whole-detector evaluations rather than
/// single DTW pairs.
pub fn par_fill_with_min_fanout<T, S, FI, F>(
    slots: &mut [T],
    threads: usize,
    min_fanout: usize,
    init: FI,
    f: F,
) where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    let n = slots.len();
    let threads = threads.max(1).min(n.max(1));
    let inline = threads == 1 || n < min_fanout.max(2) || in_parallel_region();
    // Span around the whole region (with no sink installed, one relaxed
    // load). Timing wraps the fan-out, so spawn/join overhead is part of
    // the reported duration.
    let span = vp_obs::span("par.region")
        .field("slots", n)
        .field("threads", if inline { 1usize } else { threads })
        .field("inline", inline);
    if inline {
        let mut scratch = init();
        for (k, slot) in slots.iter_mut().enumerate() {
            f(k, slot, &mut scratch);
        }
    } else {
        fork_join(slots, threads, &init, &f);
    }
    span.finish();
}

/// Cancellable form of [`par_fill_with_threads`]: before each item, every
/// worker consults `token` and stops claiming new items once it fires.
/// Returns the number of slots actually computed; slots that were never
/// reached keep whatever value they held on entry (callers pre-fill with
/// a sentinel and treat the sweep as partial when the count is short).
///
/// With a token that never fires the result — values *and* count — is
/// identical to [`par_fill_with_threads`]. A wall-clock or manual token
/// that fires mid-sweep leaves a scheduling-dependent subset computed
/// when the fill fans out; the single-worker path always leaves the clean
/// prefix `0..count`.
///
/// The fill takes the single-worker path when the effective worker count
/// is one (a one-thread budget, a nested region, or fewer slots than the
/// fan-out floor would ever split) and whenever the token carries an item
/// budget, so [`CancelToken::after_items`] is deterministic at any thread
/// budget. That path bypasses the fork-join entirely: a plain loop with a
/// local counter, no shared atomic, no closure indirection. The token is
/// still consulted before every item, so budget semantics are unchanged.
pub fn par_fill_with_cancel<T, S, FI, F>(
    slots: &mut [T],
    threads: usize,
    token: &CancelToken,
    init: FI,
    f: F,
) -> usize
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    let single_worker = threads.max(1).min(slots.len().max(1)) == 1
        || slots.len() < 8
        || in_parallel_region()
        || token.has_item_budget();
    if single_worker {
        let mut scratch = init();
        let mut completed = 0usize;
        for (k, slot) in slots.iter_mut().enumerate() {
            if token.should_stop() {
                break;
            }
            f(k, slot, &mut scratch);
            completed += 1;
        }
        return completed;
    }
    let completed = AtomicUsize::new(0);
    par_fill_with_threads(slots, threads, &init, |k, slot, scratch| {
        if token.should_stop() {
            return;
        }
        f(k, slot, scratch);
        completed.fetch_add(1, Ordering::Relaxed);
    });
    completed.into_inner()
}

/// Scoped-thread fork-join: split `slots` into blocks, deal the blocks
/// round-robin across `threads` workers (static, deterministic
/// assignment), run one worker per scoped thread.
// vp-lint: allow(panic-reachability) — split_at_mut take is clamped to rest.len(); the round-robin index is b % threads
fn fork_join<T, S, FI, F>(slots: &mut [T], threads: usize, init: &FI, f: &F)
where
    T: Send,
    FI: Fn() -> S + Sync,
    F: Fn(usize, &mut T, &mut S) + Sync,
{
    let n = slots.len();
    // Several blocks per worker smooth over per-item cost variance
    // (e.g. pruned vs unpruned pairs) without an atomic work queue.
    let block = (n / (threads * 8)).max(1);
    let blocks: Vec<(usize, &mut [T])> = {
        let mut out = Vec::with_capacity(n / block + 1);
        let mut rest = slots;
        let mut offset = 0;
        while !rest.is_empty() {
            let take = block.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            out.push((offset, head));
            offset += take;
            rest = tail;
        }
        out
    };
    // Deal blocks round-robin: worker w gets blocks w, w+T, w+2T, …
    let mut assignments: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (b, item) in blocks.into_iter().enumerate() {
        assignments[b % threads].push(item);
    }
    std::thread::scope(|scope| {
        for work in assignments {
            scope.spawn(move || {
                IN_PARALLEL.with(|flag| flag.set(true));
                let mut scratch = init();
                for (offset, chunk) in work {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        f(offset + k, slot, &mut scratch);
                    }
                }
            });
        }
    });
}

/// Maps `f` over `items` in parallel, preserving order, for *coarse*
/// items: fans out from two items upward instead of eight, for work where
/// each item is orders of magnitude more expensive than a thread spawn (a
/// whole detector pass, a whole training outcome). Same determinism and
/// nesting rules as [`par_fill_with`].
pub fn par_map_coarse<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut out: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    par_fill_with_min_fanout(
        &mut out,
        max_threads(),
        2,
        || (),
        |k, slot, ()| *slot = Some(f(&items[k])),
    );
    collect_filled(out)
}

/// Unwraps the slots of a completed (uncancellable) fill. `par_fill_with`
/// visits every index exactly once, so an empty slot is unreachable by
/// construction; the `unreachable!` keeps that invariant loud instead of
/// hiding it behind a silent default.
fn collect_filled<U>(out: Vec<Option<U>>) -> Vec<U> {
    out.into_iter()
        .map(|v| match v {
            Some(v) => v,
            // vp-lint: allow(forbidden-panic) — loud invariant guard, unreachable by construction (doc above)
            None => unreachable!("par_fill_with writes every slot"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fills_every_slot_in_order() {
        let mut slots = vec![0usize; 1000];
        par_fill_with(&mut slots, || (), |k, slot, ()| *slot = k * k);
        for (k, &v) in slots.iter().enumerate() {
            assert_eq!(v, k * k);
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let f = |k: usize| ((k as f64) * 0.731).sin() / ((k + 1) as f64);
        let mut seq = vec![0.0f64; 513];
        par_fill_with_threads(&mut seq, 1, || (), |k, s, ()| *s = f(k));
        for threads in [2, 3, 8] {
            let mut par = vec![0.0f64; 513];
            par_fill_with_threads(&mut par, threads, || (), |k, s, ()| *s = f(k));
            assert!(
                seq.iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads} not bit-identical"
            );
        }
    }

    #[test]
    fn scratch_is_initialised_at_most_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let mut slots = vec![0usize; 64];
        par_fill_with_threads(
            &mut slots,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |k, slot, scratch| {
                *scratch += 1;
                *slot = k;
            },
        );
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn nested_region_runs_inline() {
        let outer_threads = 4;
        let mut slots = vec![false; 64];
        par_fill_with_threads(
            &mut slots,
            outer_threads,
            || (),
            |_, slot, ()| {
                // From inside a worker, a nested region must not fan out.
                assert!(in_parallel_region());
                let mut inner = vec![0usize; 32];
                par_fill_with(&mut inner, || (), |k, s, ()| *s = k);
                *slot = inner.iter().enumerate().all(|(k, &v)| v == k);
            },
        );
        assert!(slots.iter().all(|&ok| ok));
        // Back on the caller thread, we are no longer inside a region.
        assert!(!in_parallel_region());
    }

    #[test]
    fn empty_and_single_slot() {
        let mut empty: Vec<u32> = Vec::new();
        par_fill_with(&mut empty, || (), |_, _, ()| unreachable!());
        let mut one = vec![0u32];
        par_fill_with(&mut one, || (), |k, s, ()| *s = k as u32 + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn unfired_token_is_invisible() {
        // A manual token that never fires must leave the cancellable fill
        // bit-identical to the plain one, with a full completion count.
        let f = |k: usize| ((k as f64) * 0.311).cos() * (k as f64 + 1.0);
        let mut plain = vec![0.0f64; 257];
        par_fill_with_threads(&mut plain, 4, || (), |k, s, ()| *s = f(k));
        for threads in [1, 4] {
            let token = CancelToken::manual();
            let mut cancellable = vec![0.0f64; 257];
            let done = par_fill_with_cancel(
                &mut cancellable,
                threads,
                &token,
                || (),
                |k, s, ()| *s = f(k),
            );
            assert_eq!(done, 257);
            assert!(!token.is_cancelled());
            assert!(plain
                .iter()
                .zip(&cancellable)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn item_budget_is_exact() {
        // `after_items(n)` claims exactly n items, across any fan-out.
        for threads in [1, 3, 8] {
            let token = CancelToken::after_items(40);
            let mut slots = vec![u32::MAX; 200];
            let done =
                par_fill_with_cancel(&mut slots, threads, &token, || (), |k, s, ()| *s = k as u32);
            assert_eq!(done, 40, "threads={threads}");
            assert!(token.is_cancelled());
            // Exactly the computed slots lost their sentinel.
            let touched = slots.iter().filter(|&&v| v != u32::MAX).count();
            assert_eq!(touched, 40, "threads={threads}");
        }
    }

    #[test]
    fn single_threaded_cancel_leaves_a_clean_prefix() {
        // An item budget runs single-threaded at any thread budget, so
        // the computed slots are exactly the prefix `0..n`.
        for threads in [1, 3, 8] {
            let token = CancelToken::after_items(10);
            let mut slots = vec![u32::MAX; 64];
            let done =
                par_fill_with_cancel(&mut slots, threads, &token, || (), |k, s, ()| *s = k as u32);
            assert_eq!(done, 10, "threads={threads}");
            for (k, &v) in slots.iter().enumerate() {
                if k < 10 {
                    assert_eq!(v, k as u32, "threads={threads}");
                } else {
                    assert_eq!(v, u32::MAX, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn single_worker_cancel_bypasses_fork_join() {
        // With a one-thread budget the cancellable fill must run on the
        // calling thread itself (no spawned workers — observable because
        // the worker flag stays unset), and still honour the token.
        let token = CancelToken::manual();
        let mut slots = vec![false; 100];
        let done = par_fill_with_cancel(
            &mut slots,
            1,
            &token,
            || (),
            |_, slot, ()| {
                *slot = !in_parallel_region();
            },
        );
        assert_eq!(done, 100);
        assert!(slots.iter().all(|&on_caller| on_caller));
    }

    #[test]
    fn pre_cancelled_token_computes_nothing() {
        let token = CancelToken::manual();
        token.cancel();
        let mut slots = vec![u32::MAX; 64];
        let done = par_fill_with_cancel(&mut slots, 4, &token, || (), |k, s, ()| *s = k as u32);
        assert_eq!(done, 0);
        assert!(slots.iter().all(|&v| v == u32::MAX));
    }

    #[test]
    fn elapsed_deadline_fires() {
        // A zero budget has already expired by the first check; a
        // generous one never fires within the test.
        let expired = CancelToken::deadline(Duration::ZERO);
        assert!(expired.should_stop());
        assert!(expired.is_cancelled());
        let generous = CancelToken::deadline(Duration::from_secs(3600));
        assert!(!generous.should_stop());
    }

    #[test]
    fn cancelled_clone_is_shared() {
        let token = CancelToken::after_items(1);
        let clone = token.clone();
        assert!(!token.should_stop()); // claims the single item
        assert!(clone.should_stop());
        assert!(token.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn coarse_map_fans_out_small_lists() {
        // Two expensive items: par_map_coarse must still produce ordered,
        // correct results (and actually runs them on workers when the
        // budget allows — observable via the region flag).
        let items = [10usize, 20];
        let out = par_map_coarse(&items, |&x| {
            (x * 2, in_parallel_region() || max_threads() == 1)
        });
        assert_eq!(out[0].0, 20);
        assert_eq!(out[1].0, 40);
        for (_, on_worker) in out {
            assert!(on_worker, "coarse map item ran inline despite budget");
        }
    }
}
