//! Deterministic multi-threaded execution for the crowd-RL workspace: a persistent
//! worker pool behind a [`ThreadPool::par_chunks`] / [`ThreadPool::par_join`] surface.
//!
//! # Design
//!
//! The build environment is offline, so no external thread-pool crate (rayon, crossbeam)
//! is available; everything here is `std`. A [`ThreadPool`] is a *handle*, not a set of
//! OS threads: it is just a thread count, and every parallel call dispatches through the
//! process-wide [`PersistentPool`] — long-lived parked workers fed closures over
//! channels (see the [`persistent`] module for the full design). A call shards the work,
//! runs the first shard on the calling thread, sends the tail shards to parked workers,
//! and blocks on a completion latch before returning. That keeps the pool
//!
//! * **scoped** — shard closures borrow the caller's data; the dispatch layer erases the
//!   lifetime to cross the worker channels, which is sound because every call waits for
//!   all of its shards before returning (the `thread::scope` guarantee, without the
//!   per-call spawns — see [`PersistentPool::scoped_run`]);
//! * **panic-correct** — every shard runs to completion, then a shard panic is re-raised
//!   on the calling thread (caller's shard first, then lowest shard index), and the
//!   workers themselves survive, so a panic inside a shard propagates exactly like a
//!   panic in a serial loop and the pool stays usable (tested below);
//! * **cheap to thread through APIs** — the handle is `Copy` (it is just a thread count),
//!   so layers pass it by value without lifetime plumbing.
//!
//! Workers spawn lazily on first use and are then reused warm: a parallel call costs a
//! channel send and a wake per tail shard (single-digit microseconds), not a
//! `thread::spawn`/join per worker (tens of microseconds). Callers still parallelise
//! *chunky* work — a round of session stepping, one large stacked matmul, one gradient
//! update per branch, a deep batch of per-shard platform events (a sharded
//! `crowd-sim::Platform`), or a `SessionBatch` round's env-only advance — and the
//! tensor layer gates its row-sharded kernels on a minimum work size so small matrices
//! never pay even a dispatch (see `crowd-tensor`'s `matmul_par`).
//!
//! **Nesting**: a `par_*` call made from *inside* a shard (i.e. on a pool worker) runs
//! its shards inline on that worker, in shard order — bit-identical by the serial/
//! parallel contract, and immune to pool-saturation deadlock. Threads created with
//! [`spawn_dedicated`] are not pool workers; their `par_*` calls parallelise normally.
//!
//! # Determinism
//!
//! Parallelism in this workspace is **deterministic by construction**, never by locking:
//! work is sharded so that every unit owns its inputs and outputs (a session owns its
//! policy and RNG, a matmul shard owns its output rows, a learner owns its replay memory
//! and sampling RNG), so results are bit-identical at any thread count. The pool supports
//! that discipline by only offering *structured* parallelism over disjoint data:
//!
//! * [`ThreadPool::par_chunks`] splits one mutable slice into contiguous shards whose
//!   boundaries depend only on the length, the granule and the thread count — never on
//!   timing — and returns the per-shard results in shard order;
//! * [`ThreadPool::par_join`] runs two independent closures and returns both results in
//!   argument order.
//!
//! There is no work stealing, no shared queue, and no unordered reduction anywhere.
//!
//! ```
//! use crowd_parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let mut xs = [1u64, 2, 3, 4, 5, 6, 7];
//! // Each shard doubles its elements and reports its own sum: deterministic shards,
//! // deterministic per-shard results, in shard order.
//! let sums = pool.par_chunks(&mut xs, 1, |_offset, chunk| {
//!     chunk.iter_mut().for_each(|x| *x *= 2);
//!     chunk.iter().sum::<u64>()
//! });
//! assert_eq!(xs, [2, 4, 6, 8, 10, 12, 14]);
//! assert_eq!(sums.iter().sum::<u64>(), 56);
//!
//! let (a, b) = pool.par_join(|| 2 + 2, || "both".len());
//! assert_eq!((a, b), (4, 4));
//! ```

pub mod dedicated;
pub mod persistent;

pub use dedicated::{spawn_dedicated, DEDICATED_STACK_BYTES};
pub use persistent::PersistentPool;

use std::num::NonZeroUsize;

/// A deterministic worker-pool handle over the process-wide [`PersistentPool`].
///
/// See the [crate docs](crate) for the design; the handle itself is just a thread count
/// and is `Copy`, so it can be threaded by value from the session layer down to the
/// tensor kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: NonZeroUsize,
}

impl Default for ThreadPool {
    /// The default pool is serial — parallelism is always opt-in.
    fn default() -> Self {
        ThreadPool::serial()
    }
}

impl ThreadPool {
    /// A pool running `threads` workers per parallel call. `threads == 0` is clamped to 1.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to at least 1"),
        }
    }

    /// The serial pool: every `par_*` call degenerates to an inline loop on the calling
    /// thread, with no scope opened and no thread spawned.
    pub fn serial() -> Self {
        ThreadPool::new(1)
    }

    /// A pool sized to the machine's available parallelism (1 when it cannot be queried).
    pub fn available() -> Self {
        ThreadPool::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A pool sized from the `CROWD_THREADS` environment variable, falling back to
    /// [`ThreadPool::available`] when the variable is unset or unparseable. This is the
    /// standard way the experiment binaries, the examples and CI pick their thread count.
    pub fn from_env() -> Self {
        match std::env::var("CROWD_THREADS") {
            Ok(value) => Self::parse(&value).unwrap_or_else(Self::available),
            Err(_) => Self::available(),
        }
    }

    /// Parses a thread-count string (`"4"` → 4 workers); `None` when unparseable or zero.
    pub fn parse(value: &str) -> Option<Self> {
        value
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(ThreadPool::new)
    }

    /// Number of workers a parallel call may use (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// True when every `par_*` call runs inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }

    /// Deterministic shard boundaries: splits `len` elements — in whole multiples of
    /// `granule` — into at most [`ThreadPool::threads`] contiguous, near-equal ranges.
    /// Boundaries depend only on `(len, granule, threads)`, never on timing. `granule`
    /// is clamped to at least 1; a `len` that is not a multiple of `granule` puts the
    /// remainder in the last shard.
    fn shard_bounds(&self, len: usize, granule: usize) -> Vec<(usize, usize)> {
        let granule = granule.max(1);
        let units = len / granule;
        let shards = self.threads().min(units.max(if len > 0 { 1 } else { 0 }));
        let mut bounds = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let end_unit = units * (s + 1) / shards;
            // The last shard absorbs the sub-granule remainder.
            let end = if s + 1 == shards {
                len
            } else {
                end_unit * granule
            };
            if end > start {
                bounds.push((start, end));
                start = end;
            }
        }
        if start < len {
            // All-units-in-zero-shards corner (len < granule): one shard takes everything.
            bounds.push((start, len));
        }
        bounds
    }

    /// Splits `items` into at most [`ThreadPool::threads`] contiguous shards — each a
    /// whole multiple of `granule` elements (the last shard absorbs any remainder) — and
    /// runs `f(offset, shard)` on every shard in parallel, where `offset` is the index of
    /// the shard's first element within `items`. Returns the per-shard results **in shard
    /// order**.
    ///
    /// Shard boundaries are a pure function of `(items.len(), granule, threads)`, so a
    /// deterministic `f` makes the whole call deterministic; and because the shards are
    /// disjoint `&mut` sub-slices, `f` needs no synchronisation. Zero items run nothing;
    /// a single shard (serial pool, or fewer granules than threads would each get one)
    /// runs inline on the calling thread without touching the pool; a call from inside a
    /// pool worker runs every shard inline in shard order (see the [crate docs](crate),
    /// "Nesting").
    ///
    /// # Panics
    ///
    /// A panic inside any shard is re-raised on the calling thread after every shard has
    /// completed (the [`PersistentPool::scoped_run`] contract, matching what
    /// `std::thread::scope` guaranteed), so it propagates exactly like a panic in the
    /// equivalent serial loop and the pool stays usable afterwards.
    pub fn par_chunks<T, R, F>(&self, items: &mut [T], granule: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let bounds = self.shard_bounds(items.len(), granule);
        if bounds.is_empty() {
            return Vec::new();
        }
        if bounds.len() == 1 {
            return vec![f(0, items)];
        }
        // Split into disjoint &mut shards up front (pure slice arithmetic, no threads).
        let mut shards: Vec<(usize, &mut [T])> = Vec::with_capacity(bounds.len());
        let mut rest = items;
        let mut consumed = 0;
        for &(start, end) in &bounds {
            let (head, tail) = rest.split_at_mut(end - consumed);
            debug_assert_eq!(consumed, start);
            shards.push((start, head));
            rest = tail;
            consumed = end;
        }
        if persistent::on_worker_thread() {
            // Nested call from inside a pool job: same shards, run inline in shard
            // order — bit-identical and saturation-proof (crate docs, "Nesting").
            return shards
                .into_iter()
                .map(|(offset, chunk)| f(offset, chunk))
                .collect();
        }
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(bounds.len(), || None);
        let f = &f;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = shards
            .into_iter()
            .zip(slots.iter_mut())
            .map(|((offset, chunk), slot)| -> Box<dyn FnOnce() + Send + '_> {
                Box::new(move || *slot = Some(f(offset, chunk)))
            })
            .collect();
        PersistentPool::global().scoped_run(tasks);
        slots
            .into_iter()
            .map(|slot| slot.expect("scoped_run completed every shard"))
            .collect()
    }

    /// Runs `a` and `b` in parallel (on the calling thread and one pool worker) and
    /// returns `(a(), b())`. On a serial pool — or when called from inside a pool
    /// worker (see the [crate docs](crate), "Nesting") — they run back to back, `a`
    /// first: the same order a sequential caller would use, so serial and parallel
    /// execution differ only in wall clock, never in which closure runs.
    ///
    /// # Panics
    ///
    /// A panic in either closure is re-raised on the calling thread after both sides
    /// have completed; when both panic, `a`'s panic wins (it ran on the caller).
    pub fn par_join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        if self.is_serial() || persistent::on_worker_thread() {
            let ra = a();
            let rb = b();
            (ra, rb)
        } else {
            let (mut ra, mut rb) = (None, None);
            {
                let (ra, rb) = (&mut ra, &mut rb);
                PersistentPool::global().scoped_run(vec![
                    Box::new(move || *ra = Some(a())),
                    Box::new(move || *rb = Some(b())),
                ]);
            }
            (
                ra.expect("scoped_run completed the caller side"),
                rb.expect("scoped_run completed the worker side"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped_and_reported() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::new(8).threads(), 8);
        assert!(ThreadPool::serial().is_serial());
        assert!(!ThreadPool::new(2).is_serial());
        assert!(ThreadPool::available().threads() >= 1);
        assert_eq!(ThreadPool::default(), ThreadPool::serial());
    }

    #[test]
    fn parse_accepts_positive_integers_only() {
        assert_eq!(ThreadPool::parse("4"), Some(ThreadPool::new(4)));
        assert_eq!(ThreadPool::parse(" 2 "), Some(ThreadPool::new(2)));
        assert_eq!(ThreadPool::parse("0"), None);
        assert_eq!(ThreadPool::parse("-1"), None);
        assert_eq!(ThreadPool::parse("many"), None);
        assert_eq!(ThreadPool::parse(""), None);
    }

    #[test]
    fn shard_bounds_are_deterministic_and_cover_everything() {
        for threads in [1usize, 2, 3, 8, 16] {
            let pool = ThreadPool::new(threads);
            for len in [0usize, 1, 2, 7, 16, 100] {
                for granule in [1usize, 3, 5] {
                    let bounds = pool.shard_bounds(len, granule);
                    assert_eq!(bounds, pool.shard_bounds(len, granule), "non-deterministic");
                    // Contiguous cover of 0..len with at most `threads` shards.
                    assert!(bounds.len() <= threads.max(1));
                    let mut expected_start = 0;
                    for &(start, end) in &bounds {
                        assert_eq!(start, expected_start);
                        assert!(end > start);
                        expected_start = end;
                    }
                    assert_eq!(expected_start, len);
                    // Every boundary except the last is granule-aligned.
                    for &(_, end) in bounds.iter().rev().skip(1) {
                        assert_eq!(end % granule, 0, "len {len} granule {granule}");
                    }
                }
            }
        }
    }

    #[test]
    fn par_chunks_on_zero_items_runs_nothing() {
        let pool = ThreadPool::new(4);
        let mut empty: [u32; 0] = [];
        let results: Vec<u32> = pool.par_chunks(&mut empty, 1, |_, chunk| {
            assert!(!chunk.is_empty(), "must not be called on empty input");
            0
        });
        assert!(results.is_empty());
    }

    #[test]
    fn par_chunks_on_one_item_runs_inline() {
        let pool = ThreadPool::new(8);
        let caller = std::thread::current().id();
        let mut one = [41u32];
        let results = pool.par_chunks(&mut one, 1, |offset, chunk| {
            chunk[0] += 1;
            // A single shard must not pay a thread spawn.
            assert_eq!(std::thread::current().id(), caller);
            offset
        });
        assert_eq!(one, [42]);
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn par_chunks_with_more_threads_than_items_gives_each_item_a_shard() {
        let pool = ThreadPool::new(16);
        let mut items = [0u32; 5];
        let results = pool.par_chunks(&mut items, 1, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as u32 * 10;
            }
            chunk.len()
        });
        assert_eq!(items, [0, 10, 20, 30, 40]);
        assert_eq!(results.len(), 5, "one shard per item, not per thread");
        assert!(results.iter().all(|&n| n == 1));
    }

    #[test]
    fn par_chunks_results_come_back_in_shard_order() {
        let pool = ThreadPool::new(4);
        let mut items: Vec<usize> = (0..23).collect();
        let offsets = pool.par_chunks(&mut items, 1, |offset, chunk| {
            // Each shard sees exactly its own contiguous window.
            for (i, &x) in chunk.iter().enumerate() {
                assert_eq!(x, offset + i);
            }
            offset
        });
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "results must be in shard order");
        assert_eq!(offsets[0], 0);
    }

    #[test]
    fn par_chunks_respects_the_granule() {
        let pool = ThreadPool::new(3);
        // 10 rows of width 4; shards must never split a row.
        let mut flat = vec![0f32; 40];
        pool.par_chunks(&mut flat, 4, |offset, chunk| {
            assert_eq!(offset % 4, 0, "shard start must be row-aligned");
            let row0 = offset / 4;
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (row0 + i / 4) as f32;
            }
        });
        for row in 0..10 {
            for col in 0..4 {
                assert_eq!(flat[row * 4 + col], row as f32);
            }
        }
    }

    #[test]
    fn par_chunks_propagates_a_worker_panic() {
        let pool = ThreadPool::new(4);
        let mut items = [0u8; 16];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_chunks(&mut items, 1, |offset, _chunk| {
                if offset > 0 {
                    panic!("worker shard failed");
                }
            });
        }));
        assert!(result.is_err(), "a worker panic must reach the caller");
        // The handle is stateless, so the pool stays usable after a propagated panic.
        let mut after = [1u32, 2, 3];
        let sums = pool.par_chunks(&mut after, 1, |_, c| c.iter().sum::<u32>());
        assert_eq!(sums.iter().sum::<u32>(), 6);
    }

    #[test]
    fn par_join_returns_both_results_in_argument_order() {
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (a, b) = pool.par_join(|| "left".to_string(), || 7u64);
            assert_eq!(a, "left");
            assert_eq!(b, 7);
        }
    }

    #[test]
    fn par_join_propagates_panics_from_either_side() {
        let pool = ThreadPool::new(2);
        let spawned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_join(|| 1, || -> u32 { panic!("spawned side failed") })
        }));
        assert!(spawned.is_err());
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_join(|| -> u32 { panic!("caller side failed") }, || 1)
        }));
        assert!(caller.is_err());
    }

    #[test]
    fn from_env_selects_the_width_via_crowd_threads() {
        // The only test in the workspace that mutates CROWD_THREADS in-process (CI sets
        // it per job instead), so there is no racing reader.
        std::env::set_var("CROWD_THREADS", "3");
        assert_eq!(ThreadPool::from_env().threads(), 3);
        std::env::set_var("CROWD_THREADS", "not-a-number");
        assert_eq!(ThreadPool::from_env(), ThreadPool::available());
        std::env::remove_var("CROWD_THREADS");
        assert_eq!(ThreadPool::from_env(), ThreadPool::available());
    }

    #[test]
    fn repeated_par_chunks_calls_reuse_warm_global_workers() {
        let pool = ThreadPool::new(4);
        let mut items = vec![0u64; 64];
        pool.par_chunks(&mut items, 1, |offset, chunk| {
            chunk.iter_mut().for_each(|x| *x += offset as u64)
        });
        // Other tests share the global pool, so the only stable claim is an upper
        // bound: many repeat dispatches must not keep spawning threads.
        let after_warmup = PersistentPool::global().workers_spawned();
        for _ in 0..32 {
            pool.par_chunks(&mut items, 1, |offset, chunk| {
                chunk.iter_mut().for_each(|x| *x += offset as u64)
            });
        }
        let after_reuse = PersistentPool::global().workers_spawned();
        // Concurrent tests may legitimately grow the pool a little; 32 dispatches of
        // width 4 would have spawned ~96 workers under a spawn-per-call design.
        assert!(
            after_reuse <= after_warmup + 8,
            "warm dispatches must reuse parked workers ({after_warmup} -> {after_reuse})"
        );
    }

    #[test]
    fn nested_par_join_inside_par_chunks_runs_inline_on_workers() {
        let pool = ThreadPool::new(4);
        let mut items: Vec<u64> = (0..16).collect();
        let sums = pool.par_chunks(&mut items, 1, |offset, chunk| {
            let me = std::thread::current().id();
            let on_worker = persistent::on_worker_thread();
            let (left, right) = pool.par_join(
                || (std::thread::current().id(), chunk.iter().sum::<u64>()),
                || (std::thread::current().id(), offset as u64),
            );
            if on_worker {
                // Documented nesting contract: on a pool worker, nested calls stay
                // on that worker instead of re-entering the pool.
                assert_eq!(left.0, me);
                assert_eq!(right.0, me);
            }
            left.1 + right.1
        });
        // 4 deterministic shards of 4 items: item total (0+..+15 = 120) plus the
        // shard offsets (0 + 4 + 8 + 12 = 24).
        assert_eq!(sums.iter().sum::<u64>(), 144);
    }

    #[test]
    fn nested_par_chunks_inside_par_chunks_matches_the_serial_result() {
        let serial: Vec<u64> = (0..48).map(|v| v * 3 + 1).collect();
        let pool = ThreadPool::new(4);
        let mut items: Vec<u64> = (0..48).collect();
        pool.par_chunks(&mut items, 1, |offset, chunk| {
            // A second level of sharding over this shard's own data.
            pool.par_chunks(chunk, 1, |inner_offset, inner| {
                for (i, x) in inner.iter_mut().enumerate() {
                    let v = (offset + inner_offset + i) as u64;
                    *x = v * 3 + 1;
                }
            });
        });
        assert_eq!(items, serial);
    }

    #[test]
    fn par_chunks_mutations_match_the_serial_loop_at_any_thread_count() {
        let serial: Vec<u64> = (0..97).map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 5, 8, 32] {
            let pool = ThreadPool::new(threads);
            let mut items: Vec<u64> = (0..97).collect();
            pool.par_chunks(&mut items, 1, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    let v = (offset + i) as u64;
                    *x = v * v + 1;
                }
            });
            assert_eq!(items, serial, "threads = {threads}");
        }
    }
}
