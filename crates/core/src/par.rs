//! Parallel execution layer for the combinatorially scheduled detectors.
//!
//! The §3.3 general algorithms ([`crate::singular::possibly_singular_subsets`],
//! [`crate::singular::possibly_singular_chains`]) schedule `∏ᵢ kᵢ` (resp.
//! `∏ᵢ cᵢ`) *independent* Garg–Waldecker scans — a textbook fan-out. This
//! module provides the scheduling primitives:
//!
//! * [`search_first`] — run `n` independent trials across the worker
//!   pool, returning a witness as soon as any worker finds one; an
//!   [`AtomicBool`] cancellation flag stops the remaining workers at
//!   their next work-item boundary.
//! * [`search_combinations`] — the same fan-out over the mixed-radix
//!   combination space (one digit per clause) the §3.3 algorithms walk.
//! * [`map_indexed`] — order-preserving parallel map, used for the
//!   per-clause chain-cover construction (DAG build + transitive closure
//!   + matching are independent per clause).
//! * [`fanout_chunks`] (crate-internal) — the raw work-stealing engine
//!   the lattice sweeps in `enumerate.rs` and the §3.3 odometer walk in
//!   `scan.rs` build on directly.
//!
//! # Threading model
//!
//! `threads = 0` and `threads = 1` run on the caller's thread with no
//! pool, no atomics traffic and *identical iteration order* to the
//! historical sequential code — default behavior is unchanged. For
//! `threads ≥ 2`, the fan-out runs on the persistent process-global
//! worker pool ([`crate::pool`]): threads are spawned once per process
//! and parked between waves, so a level-synchronous sweep no longer pays
//! a spawn/join cycle per lattice level.
//!
//! Within a fan-out, scheduling is **work-stealing over chunked
//! deques**: the chunk space `0..⌈total/chunk⌉` is split into contiguous
//! per-worker spans (one atomic `(lo, hi)` word each — the rooted
//! sub-lattice partitions of the Chauhan–Garg work-optimal design).
//! Each worker pops single chunks off the front of its own span; a
//! worker whose span runs dry steals the *back half* of a victim's span
//! (one CAS), installs it as its new span, and continues. A worker exits
//! after one full fruitless sweep over all victims. Stealing moves whole
//! spans of untouched chunks, never splits a chunk, and every chunk is
//! claimed exactly once — so the total work stays exactly the
//! sequential work (O(work-optimal)), while idle workers shrink the
//! span instead of waiting at a barrier.
//! `gpd::counters::{par_waves, par_steals, par_threads_spawned}` meter
//! the pooled waves, successful steals, and pool spawns.
//!
//! # Determinism contract
//!
//! For a fixed input the **verdict** (`Some` vs `None`) is identical at
//! every thread count: the searched space is the same finite set and
//! workers only stop early once a witness is in hand. The *witness*
//! returned by [`search_first`] and [`search_combinations`] may differ
//! from the sequential one (whichever worker wins the race reports
//! first), but every witness satisfies the predicate. The detectors
//! canonicalize instead: the level sweeps in `enumerate.rs` and the
//! §3.3 odometer walk in `scan.rs` publish hits with `fetch_min` and
//! keep the *lowest-index* one, so their witnesses are byte-identical at
//! every thread count. `tests/parallel_agreement.rs` exercises both.
//!
//! # Panic isolation
//!
//! A worker whose closure panics can never cascade into a process abort:
//! every closure call runs under `catch_unwind`, the first panic payload
//! is stashed (cancelling the remaining workers), and the payload is
//! re-raised **once, on the calling thread** after the fan-out retires.
//! No shared lock is ever acquired with `.expect` — all lock handling is
//! poison-recovering ([`lock_unpoisoned`]), so even a panic at an
//! unfortunate instant leaves the witness slot readable. Callers that
//! want a structured error instead of a propagated panic wrap the call in
//! `crate::budget::catch_detect` (every budgeted engine does).

use crate::budget::ExhaustReason;
use crate::pool;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cooperative cancellation shared by one fan-out's workers.
#[derive(Debug, Default)]
pub(crate) struct Cancellation {
    flag: AtomicBool,
}

impl Cancellation {
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals every worker to stop at its next work-item boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Caps the requested worker count to the actual work and the machine.
fn worker_count(threads: usize, work: usize) -> usize {
    if threads <= 1 {
        // No hardware query: it reads cgroup files on every call, and
        // sequential walks fan out once per wave or level.
        return threads.min(work);
    }
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    threads.min(work).min(hw.max(1) * 2)
}

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Sound here because every shared slot in this module holds plain data
/// (an `Option` witness) whose every individual write is atomic from the
/// lock's perspective — a panicked worker cannot leave it half-updated.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_unpoisoned`] for consuming a mutex after the fan-out retired.
pub(crate) fn into_inner_unpoisoned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// First panic payload raised by any worker of one fan-out. Workers
/// store the payload instead of unwinding across the pool (which would
/// leave a poisoned witness slot behind); after the fan-out,
/// [`PanicSlot::rethrow`] re-raises it exactly once on the calling
/// thread.
#[derive(Default)]
pub(crate) struct PanicSlot {
    payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl PanicSlot {
    pub(crate) fn capture(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = lock_unpoisoned(&self.payload);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the captured panic (if any) on the current thread.
    pub(crate) fn rethrow(self) {
        if let Some(payload) = into_inner_unpoisoned(self.payload) {
            resume_unwind(payload);
        }
    }
}

/// One worker's chunk span: a contiguous range `lo..hi` of chunk
/// indexes packed into a single atomic word, so both the owner's
/// pop-front and a thief's steal-back-half are one CAS. Chunk indexes
/// are capped at `u32::MAX` by [`fanout_chunks`]'s chunk-size scaling.
struct ChunkSpan(AtomicU64);

#[inline]
fn pack_span(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack_span(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl ChunkSpan {
    fn new(lo: u32, hi: u32) -> Self {
        ChunkSpan(AtomicU64::new(pack_span(lo, hi)))
    }

    /// The owner takes the front chunk. (Safe for non-owners too — the
    /// CAS arbitrates — the owner just always takes from this end.)
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_span(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack_span(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(seen) => cur = seen,
            }
        }
    }

    /// A thief takes the back half (rounded up, so a single remaining
    /// chunk is stealable). Chunk indexes are globally unique and never
    /// re-enter a span after being claimed, so the full-word CAS cannot
    /// suffer ABA.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_span(cur);
            let rem = hi - lo;
            if rem == 0 {
                return None;
            }
            let take = rem.div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                pack_span(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take, hi)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Replaces the span. Only the owner calls this, and only while its
    /// span is empty (thieves racing `steal_half` against the store see
    /// either the empty span or the full new one).
    fn refill(&self, lo: u32, hi: u32) {
        self.0.store(pack_span(lo, hi), Ordering::Release);
    }
}

/// The shared work source of one [`fanout_chunks`] fan-out: per-worker
/// chunk spans plus the cancellation flag. Workers drain it with
/// [`WorkSource::next`] until it returns `None`.
pub(crate) struct WorkSource<'a> {
    spans: &'a [ChunkSpan],
    chunk: usize,
    total: usize,
    cancel: &'a Cancellation,
}

impl WorkSource<'_> {
    /// The item range of chunk `c`.
    #[inline]
    fn chunk_range(&self, c: u32) -> std::ops::Range<usize> {
        let start = c as usize * self.chunk;
        start..(start + self.chunk).min(self.total)
    }

    /// The next item range for worker `w`: the front chunk of `w`'s own
    /// span, else the first chunk of a span half stolen from a victim
    /// (the rest becomes `w`'s new span). Returns `None` when the
    /// fan-out is cancelled or when one full sweep over all victims
    /// finds no remaining work — any still-running chunks finish with
    /// the workers that claimed them, so no work is lost or repeated.
    pub(crate) fn next(&self, w: usize) -> Option<std::ops::Range<usize>> {
        if self.cancel.is_cancelled() {
            return None;
        }
        if let Some(c) = self.spans[w].pop_front() {
            return Some(self.chunk_range(c));
        }
        let n = self.spans.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some((lo, hi)) = self.spans[victim].steal_half() {
                crate::counters::record_par_steal();
                if lo + 1 < hi {
                    self.spans[w].refill(lo + 1, hi);
                }
                return Some(self.chunk_range(lo));
            }
        }
        None
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    pub(crate) fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// Records `reason` as a budgeted fan-out's halt cause (first writer
/// wins) and cancels the fan-out so the other workers drain out.
pub(crate) fn halt_fanout(
    halt: &Mutex<Option<ExhaustReason>>,
    reason: ExhaustReason,
    src: &WorkSource,
) {
    lock_unpoisoned(halt).get_or_insert(reason);
    src.cancel();
}

/// Runs `worker(w, source)` for every worker index of one fan-out over
/// the chunked space `0..total`, on the persistent pool with
/// work-stealing scheduling (see module docs). `worker` must drain the
/// source (`while let Some(range) = source.next(w) { … }`); it may stop
/// early only via cancellation. With one worker the chunks arrive in
/// exact sequential order on the caller's thread.
///
/// Worker panics cancel the fan-out and are re-raised once on the
/// calling thread after every worker has retired.
pub(crate) fn fanout_chunks(
    threads: usize,
    total: usize,
    chunk: usize,
    worker: &(dyn Fn(usize, &WorkSource) + Sync),
) {
    let mut chunk = chunk.max(1);
    // Chunk indexes must fit the packed u32 span halves; absurdly large
    // spaces get proportionally larger chunks.
    while total.div_ceil(chunk) > u32::MAX as usize {
        chunk *= 2;
    }
    let nchunks = total.div_ceil(chunk);
    let workers = worker_count(threads, nchunks).max(1);
    let cancel = Cancellation::new();
    // Balanced contiguous partition of the chunk space: worker w roots
    // the w-th span, the per-process sub-lattice decomposition.
    let spans: Vec<ChunkSpan> = (0..workers)
        .map(|w| {
            let lo = (nchunks * w / workers) as u32;
            let hi = (nchunks * (w + 1) / workers) as u32;
            ChunkSpan::new(lo, hi)
        })
        .collect();
    let source = WorkSource {
        spans: &spans,
        chunk,
        total,
        cancel: &cancel,
    };
    if workers <= 1 {
        // Sequential: in-order chunks on the caller, panics propagate
        // directly.
        worker(0, &source);
        return;
    }
    let panics = PanicSlot::default();
    pool::run(workers - 1, &panics, &|w| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(w, &source))) {
            cancel.cancel();
            panics.capture(payload);
        }
    });
    panics.rethrow();
}

/// Searches `f(0), …, f(count - 1)` for the first `Some`, fanning the
/// trials out over `threads` workers with first-witness cancellation.
///
/// With `threads ≤ 1` this is exactly the sequential in-order search. In
/// parallel the returned witness is whichever one a worker finds first;
/// the `Some`/`None` verdict is the same either way.
pub fn search_first<T, F>(threads: usize, count: usize, f: F) -> Option<T>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let workers = worker_count(threads, count);
    if workers <= 1 {
        return (0..count).find_map(f);
    }
    let found: Mutex<Option<T>> = Mutex::new(None);
    fanout_chunks(threads, count, 1, &|w, source| {
        while let Some(range) = source.next(w) {
            for i in range {
                if source.is_cancelled() {
                    return;
                }
                if let Some(witness) = f(i) {
                    source.cancel();
                    let mut slot = lock_unpoisoned(&found);
                    // First writer wins; later witnesses are equally
                    // valid, so dropping them is fine.
                    if slot.is_none() {
                        *slot = Some(witness);
                    }
                    return;
                }
            }
        }
    });
    into_inner_unpoisoned(found)
}

/// [`search_first`] over the mixed-radix space `{0..sizes[0]} × … ×
/// {0..sizes[g-1]}` — the combination space of the §3.3 algorithms. Any
/// zero-sized dimension means an empty space (`None`); an empty `sizes`
/// visits the single empty combination once.
///
/// Combination `i` is decoded as the little-endian-odometer index
/// sequence the sequential walk would visit `i`-th, so `threads ≤ 1`
/// visits combinations in the historical order.
pub fn search_combinations<T, F>(threads: usize, sizes: &[usize], f: F) -> Option<T>
where
    T: Send,
    F: Fn(&[usize]) -> Option<T> + Sync,
{
    let mut total: usize = 1;
    for &s in sizes {
        if s == 0 {
            return None;
        }
        // A space too large to index cannot be searched exhaustively in
        // any case; saturate and let the search run until cancelled or
        // the caller's predicate is found.
        total = total.saturating_mul(s);
    }
    search_first(threads, total, |i| {
        let mut digits = vec![0usize; sizes.len()];
        let mut rest = i;
        // Most-significant digit first, matching the odometer order.
        for (d, &s) in digits.iter_mut().zip(sizes).rev() {
            *d = rest % s;
            rest /= s;
        }
        f(&digits)
    })
}

/// Order-preserving parallel map over `0..count`: returns
/// `[g(0), …, g(count - 1)]` computed on up to `threads` workers.
///
/// Each worker owns a contiguous span and idle workers steal, so
/// unevenly expensive items (e.g. one wide clause among narrow ones)
/// balance across workers. With `threads ≤ 1` it is a plain sequential
/// map.
pub fn map_indexed<T, F>(threads: usize, count: usize, g: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(threads, count);
    if workers <= 1 {
        return (0..count).map(g).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    fanout_chunks(threads, count, 1, &|w, source| {
        while let Some(range) = source.next(w) {
            for i in range {
                // A panic elsewhere cancels; stop filling slots.
                if source.is_cancelled() {
                    return;
                }
                *lock_unpoisoned(&slots[i]) = Some(g(i));
            }
        }
    });
    // fanout_chunks re-raised any panic already; on the success path
    // every index was claimed by exactly one worker.
    slots
        .into_iter()
        .map(|slot| {
            into_inner_unpoisoned(slot).expect("every index was assigned to exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_search_matches_find_map() {
        for threads in [0, 1] {
            let visited = AtomicUsize::new(0);
            let hit = search_first(threads, 10, |i| {
                visited.fetch_add(1, Ordering::Relaxed);
                (i == 3).then_some(i)
            });
            assert_eq!(hit, Some(3));
            // Sequential mode short-circuits exactly like the old code.
            assert_eq!(visited.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn parallel_search_finds_a_witness() {
        for threads in [2, 4, 8] {
            let hit = search_first(threads, 1000, |i| (i % 977 == 10).then_some(i));
            // Any satisfying index is a valid witness: workers root
            // different spans, so either hit can win the race.
            assert!(
                hit == Some(10) || hit == Some(987),
                "threads = {threads}, hit = {hit:?}"
            );
            let miss: Option<usize> = search_first(threads, 1000, |_| None);
            assert_eq!(miss, None, "threads = {threads}");
        }
    }

    #[test]
    fn cancellation_stops_remaining_workers() {
        // After a witness is found, the work counter must stop well
        // short of the full space (the tail is cancelled).
        let visited = AtomicUsize::new(0);
        let hit = search_first(4, 1_000_000, |i| {
            visited.fetch_add(1, Ordering::Relaxed);
            (i % 250_000 == 2).then_some(i)
        });
        assert!(hit.is_some());
        assert!(
            visited.load(Ordering::Relaxed) < 100_000,
            "cancellation should cut the sweep short, visited {}",
            visited.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn chunk_span_pop_and_steal_partition_the_range() {
        let span = ChunkSpan::new(0, 10);
        assert_eq!(span.pop_front(), Some(0));
        // 9 remain (1..10); the thief takes the back ⌈9/2⌉ = 5.
        assert_eq!(span.steal_half(), Some((5, 10)));
        assert_eq!(span.pop_front(), Some(1));
        assert_eq!(span.steal_half(), Some((3, 5)));
        assert_eq!(span.pop_front(), Some(2));
        assert_eq!(span.pop_front(), None);
        // A single remaining chunk is stealable.
        let one = ChunkSpan::new(7, 8);
        assert_eq!(one.steal_half(), Some((7, 8)));
        assert_eq!(one.steal_half(), None);
        assert_eq!(one.pop_front(), None);
    }

    #[test]
    fn combinations_agree_with_sequential_walk() {
        // The parallel decode must cover exactly the odometer space.
        let sizes = [3usize, 1, 4];
        let seen: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
        let none: Option<()> = search_combinations(4, &sizes, |digits| {
            seen.lock().unwrap().push(digits.to_vec());
            None
        });
        assert_eq!(none, None);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 12);
        for digits in &seen {
            assert!(digits.iter().zip(&sizes).all(|(&d, &s)| d < s));
        }
    }

    #[test]
    fn combinations_empty_dimension_is_unsatisfiable() {
        for threads in [0, 4] {
            let hit: Option<()> =
                search_combinations(threads, &[2, 0, 5], |_| panic!("must not visit"));
            assert_eq!(hit, None);
        }
    }

    #[test]
    fn combinations_zero_dimensions_visit_once() {
        for threads in [0, 4] {
            let hit = search_combinations(threads, &[], |digits| {
                assert!(digits.is_empty());
                Some(42)
            });
            assert_eq!(hit, Some(42));
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [0, 1, 2, 4] {
            let out = map_indexed(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn stealing_covers_wildly_unbalanced_work() {
        // One worker's span holds all the slow items; the others must
        // steal it dry rather than idle, and every index must still be
        // mapped exactly once.
        let out = map_indexed(4, 64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_propagate_once_and_leave_the_pool_reusable() {
        for threads in [0, 1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                search_first(threads, 100, |i| -> Option<usize> {
                    if i == 13 {
                        panic!("bad predicate");
                    }
                    None
                })
            });
            assert!(caught.is_err(), "search_first, threads = {threads}");

            let caught = std::panic::catch_unwind(|| {
                map_indexed(threads, 50, |i| {
                    if i == 17 {
                        panic!("bad item");
                    }
                    i
                })
            });
            assert!(caught.is_err(), "map_indexed, threads = {threads}");
        }
        // Nothing global was poisoned: fresh fan-outs still work.
        assert_eq!(search_first(4, 10, |i| (i == 3).then_some(i)), Some(3));
        assert_eq!(map_indexed(4, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_beats_witness_when_both_happen() {
        // A worker that panics while another finds a witness must still
        // surface the panic (the caller cannot trust a partial sweep).
        // The witness-finder waits until the panic has fired, so both
        // genuinely happen in every interleaving — with rooted spans the
        // witness could otherwise win and cancel the panicking item away.
        for threads in [2, 4] {
            let panicked = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                search_first(threads, 1000, |i| {
                    if i == 0 {
                        panicked.store(true, Ordering::Release);
                        panic!("early panic");
                    }
                    if i == 999 {
                        let start = std::time::Instant::now();
                        while !panicked.load(Ordering::Acquire)
                            && start.elapsed() < std::time::Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                        return Some(i);
                    }
                    None
                })
            });
            assert!(caught.is_err(), "threads = {threads}");
        }
    }
}
