//! The persistent worker pool behind [`ThreadPool`](crate::ThreadPool): long-lived
//! parked threads fed lifetime-erased closures through per-worker channels, replacing
//! the per-call `std::thread::scope` spawns of earlier revisions.
//!
//! # Why persistent
//!
//! A scoped pool pays one `thread::spawn` + join per worker per parallel call — tens of
//! microseconds that dominate a `crowd-serve` micro-batch round or a single packed
//! matmul. A [`PersistentPool`] spawns each worker **once** (via
//! [`spawn_dedicated`](crate::spawn_dedicated): named, 16 MiB stack) and parks it on an
//! [`mpsc`](std::sync::mpsc) channel of boxed jobs; a parallel call afterwards costs a
//! channel send and a futex wake, not a clone-and-spawn of an OS thread.
//!
//! # How scoped dispatch stays safe
//!
//! [`PersistentPool::scoped_run`] accepts closures that **borrow the caller's stack**
//! (`Box<dyn FnOnce() + Send + 'a>`) and transmutes them to `'static` to fit through
//! the worker channels. The erasure is sound because `scoped_run` *always* blocks on a
//! completion latch before returning — even when a task panics (each job runs under
//! [`catch_unwind`] and reports its payload through the latch; the caller's own task is
//! caught the same way so the wait cannot be skipped by an unwind). No borrowed data
//! can therefore outlive the call frame that owns it, which is exactly the
//! `std::thread::scope` guarantee without the per-call spawns.
//!
//! # Semantics preserved from the scoped design
//!
//! * **Caller runs the first task inline** while workers chew on the tail, so a
//!   single-task call never touches a channel and the calling thread is never idle.
//! * **Panic propagation**: a panic in any task is re-raised on the calling thread
//!   after *every* task has finished — the caller's own task takes precedence, then
//!   the lowest-indexed panicking tail task — matching the old `thread::scope` joins.
//!   Workers survive job panics (the payload travels through the latch, not the
//!   thread), so the pool stays fully usable afterwards.
//! * **Determinism**: the pool only moves closures to threads; *which* worker runs a
//!   task can vary, but tasks own disjoint data and report results positionally, so
//!   results are bit-identical no matter how checkout and round-robin land.
//!
//! # Nesting
//!
//! Worker threads are flagged ([`on_worker_thread`]); a
//! [`ThreadPool`](crate::ThreadPool) call made *from inside a pool job* (e.g. a
//! session shard stepping a policy whose matmul is itself parallel) runs its shards
//! inline on that worker instead of re-entering the pool. Waiting on nested dispatch
//! from within a worker could deadlock a saturated pool; inline nested execution is
//! bit-identical anyway (that is the whole serial/parallel contract), so nesting
//! *works* — it just doesn't multiply threads. Dedicated threads
//! ([`spawn_dedicated`](crate::spawn_dedicated)) are not pool workers; pool calls made
//! from them parallelise normally.
//!
//! # Shutdown
//!
//! The process-wide pool ([`PersistentPool::global`]) lives for the whole process —
//! its parked workers cost a few KiB of resident stack each and die with the process.
//! An *owned* pool (unit tests, embedders) joins every worker on drop: dropping the
//! job senders ends each worker's receive loop, and `Drop` then joins the handles, so
//! no worker outlives the pool object. Dropping a pool while another thread still has
//! a `scoped_run` in flight blocks until that call completes.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased job as it travels through a worker channel.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A panic payload carried from a worker back to the dispatching caller.
type Payload = Box<dyn Any + Send + 'static>;

/// Upper bound on workers the process-wide pool will ever spawn. A dispatch that wants
/// more parallelism than this (e.g. a 300-thread [`ThreadPool`](crate::ThreadPool)
/// handle over hundreds of shards) still completes every shard — excess tail tasks
/// queue round-robin on the existing workers — it just tops out at this much real
/// concurrency.
const GLOBAL_MAX_WORKERS: usize = 256;

thread_local! {
    /// True on threads whose whole life is the pool's worker loop.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is a persistent-pool worker — used by
/// [`ThreadPool`](crate::ThreadPool) to run nested parallel calls inline (see the
/// [module docs](self), "Nesting").
pub fn on_worker_thread() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// Completion latch for one `scoped_run` dispatch: counts outstanding tail tasks and
/// collects panic payloads with their task indices.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panics: Vec<(usize, Payload)>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panics: Vec::new(),
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, index: usize, panic: Option<Payload>) {
        let mut st = self.state.lock().expect("latch lock");
        if let Some(payload) = panic {
            st.panics.push((index, payload));
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task has completed; returns the panic payload of the
    /// lowest-indexed panicking task, if any.
    fn wait(&self) -> Option<Payload> {
        let mut st = self.state.lock().expect("latch lock");
        while st.remaining > 0 {
            st = self.done.wait(st).expect("latch wait");
        }
        st.panics.sort_by_key(|&(index, _)| index);
        if st.panics.is_empty() {
            None
        } else {
            Some(st.panics.remove(0).1)
        }
    }
}

/// One parked worker's job inlet. Checked out of the free list for the duration of a
/// dispatch, so a worker never interleaves two callers' jobs.
struct WorkerChan {
    sender: Sender<Job>,
}

struct PoolState {
    /// Workers not currently serving a dispatch.
    free: Vec<WorkerChan>,
    /// Total workers ever spawned by this pool (free + checked out).
    spawned: usize,
    /// Join handles, collected by `Drop`.
    handles: Vec<JoinHandle<()>>,
}

/// A set of long-lived parked worker threads with scoped, panic-propagating dispatch.
///
/// Most code never touches this type directly: [`ThreadPool`](crate::ThreadPool)
/// routes `par_chunks`/`par_join` through the process-wide instance
/// ([`PersistentPool::global`]). Owned instances exist for lifecycle control and
/// lifecycle *tests* — an owned pool joins all of its workers on drop.
pub struct PersistentPool {
    state: Mutex<PoolState>,
    max_workers: usize,
    /// Workers currently inside their receive loop; shared with the worker threads so
    /// tests can observe that drop really joined everyone.
    live: Arc<AtomicUsize>,
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("max_workers", &self.max_workers)
            .field("spawned", &self.workers_spawned())
            .finish()
    }
}

impl PersistentPool {
    /// A pool that will lazily spawn up to `max_workers` parked workers on demand.
    pub fn new(max_workers: usize) -> Self {
        PersistentPool {
            state: Mutex::new(PoolState {
                free: Vec::new(),
                spawned: 0,
                handles: Vec::new(),
            }),
            max_workers: max_workers.max(1),
            live: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The process-wide pool every [`ThreadPool`](crate::ThreadPool) call dispatches
    /// through. Created on first use; its workers spawn lazily as parallel calls
    /// demand them and stay parked (never joined) for the life of the process.
    pub fn global() -> &'static PersistentPool {
        static GLOBAL: OnceLock<PersistentPool> = OnceLock::new();
        GLOBAL.get_or_init(|| PersistentPool::new(GLOBAL_MAX_WORKERS))
    }

    /// Workers this pool has spawned so far (parked or busy). Warm reuse means this
    /// stops growing once the pool has seen its widest dispatch.
    pub fn workers_spawned(&self) -> usize {
        self.state.lock().expect("pool lock").spawned
    }

    /// Checks out up to `want` parked workers, lazily spawning while under
    /// `max_workers`. May return fewer (even zero) when the pool is saturated by
    /// concurrent dispatches or thread creation fails — callers must tolerate that by
    /// queueing more jobs per worker or running jobs inline.
    fn checkout(&self, want: usize) -> Vec<WorkerChan> {
        let mut st = self.state.lock().expect("pool lock");
        let mut out = Vec::with_capacity(want.min(self.max_workers));
        while out.len() < want {
            if let Some(worker) = st.free.pop() {
                out.push(worker);
            } else if st.spawned < self.max_workers {
                let (sender, receiver) = channel::<Job>();
                let name = format!("pool-{}", st.spawned);
                let live = Arc::clone(&self.live);
                match crate::spawn_dedicated(&name, move || {
                    IS_POOL_WORKER.with(|flag| flag.set(true));
                    live.fetch_add(1, Ordering::SeqCst);
                    // Jobs arrive pre-wrapped in catch_unwind, so the loop only ends
                    // when every sender is gone (pool drop).
                    while let Ok(job) = receiver.recv() {
                        job();
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                }) {
                    Ok(handle) => {
                        st.spawned += 1;
                        st.handles.push(handle);
                        out.push(WorkerChan { sender });
                    }
                    // Spawn failure (resource exhaustion): make do with what we have.
                    Err(_) => break,
                }
            } else {
                break;
            }
        }
        out
    }

    fn check_in(&self, workers: Vec<WorkerChan>) {
        self.state.lock().expect("pool lock").free.extend(workers);
    }

    /// Runs every task to completion, the first on the calling thread and the rest on
    /// checked-out workers (round-robin when the pool cannot supply one worker per
    /// task). Returns only after all tasks finished; a panic in any task is then
    /// re-raised on the caller (caller's task first, then lowest task index). Tasks may
    /// borrow the caller's stack — see the [module docs](self) for why the internal
    /// `'static` erasure is sound.
    pub fn scoped_run<'a>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else { return };
        let tail: Vec<_> = tasks.collect();
        if tail.is_empty() {
            return first();
        }
        let latch = Arc::new(Latch::new(tail.len()));
        let workers = self.checkout(tail.len());
        let mut jobs: Vec<Job> = Vec::with_capacity(tail.len());
        for (index, task) in tail.into_iter().enumerate() {
            // SAFETY: the job cannot outlive this call frame — `scoped_run` waits on
            // the latch below before returning on every path (including panics, which
            // are caught here and re-raised only after the wait), and each job signals
            // the latch after its closure finished or unwound.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            let latch = Arc::clone(&latch);
            jobs.push(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                latch.complete(index, result.err());
            }));
        }
        if workers.is_empty() {
            // Saturated pool (or spawn failure): run the tail inline. Same results,
            // same order guarantees, no parallelism.
            for job in jobs {
                job();
            }
        } else {
            for (i, job) in jobs.into_iter().enumerate() {
                workers[i % workers.len()]
                    .sender
                    .send(job)
                    .expect("persistent pool worker exited while checked out");
            }
        }
        let caller_result = catch_unwind(AssertUnwindSafe(first));
        let tail_panic = latch.wait();
        self.check_in(workers);
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = tail_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for PersistentPool {
    /// Joins every worker: dropping the free-list senders ends each worker's receive
    /// loop. All workers must be checked in (no dispatch in flight) — concurrent
    /// `scoped_run` calls hold their workers' senders, and this join blocks until they
    /// return them by finishing.
    fn drop(&mut self) {
        let mut st = self.state.lock().expect("pool lock");
        st.free.clear();
        for handle in st.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn scoped_run_runs_every_task_and_borrows_the_stack() {
        let pool = PersistentPool::new(3);
        let mut cells = [0u32; 7];
        {
            let tasks = cells
                .iter_mut()
                .enumerate()
                .map(|(i, cell)| boxed(move || *cell = i as u32 + 1))
                .collect();
            pool.scoped_run(tasks);
        }
        assert_eq!(cells, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn workers_are_spawned_once_and_reused_warm() {
        let pool = PersistentPool::new(4);
        assert_eq!(pool.workers_spawned(), 0, "workers spawn lazily");
        let run = |pool: &PersistentPool| {
            let counter = AtomicU32::new(0);
            let tasks = (0..5)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            pool.scoped_run(tasks);
            assert_eq!(counter.load(Ordering::SeqCst), 5);
        };
        run(&pool);
        let after_first = pool.workers_spawned();
        assert!((1..=4).contains(&after_first));
        for _ in 0..10 {
            run(&pool);
        }
        assert_eq!(
            pool.workers_spawned(),
            after_first,
            "repeat dispatches must reuse the parked workers, not spawn"
        );
    }

    #[test]
    fn tail_task_panic_propagates_and_the_pool_stays_usable() {
        let pool = PersistentPool::new(2);
        let completed = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_run(vec![
                boxed(|| {
                    completed.fetch_add(1, Ordering::SeqCst);
                }),
                boxed(|| panic!("tail task failed")),
                boxed(|| {
                    completed.fetch_add(1, Ordering::SeqCst);
                }),
            ]);
        }));
        assert!(result.is_err(), "the tail panic must reach the caller");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            2,
            "non-panicking tasks still ran to completion"
        );
        let spawned = pool.workers_spawned();
        // The worker survived the panic: the next dispatch reuses it and works.
        let ok = AtomicU32::new(0);
        pool.scoped_run(vec![
            boxed(|| {
                ok.fetch_add(1, Ordering::SeqCst);
            }),
            boxed(|| {
                ok.fetch_add(1, Ordering::SeqCst);
            }),
        ]);
        assert_eq!(ok.load(Ordering::SeqCst), 2);
        assert_eq!(pool.workers_spawned(), spawned, "no replacement spawns");
    }

    #[test]
    fn caller_task_panic_wins_over_tail_panics() {
        let pool = PersistentPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped_run(vec![
                boxed(|| panic!("caller task failed")),
                boxed(|| panic!("tail task failed")),
            ]);
        }));
        let payload = result.expect_err("must panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload is the literal");
        assert_eq!(message, "caller task failed");
    }

    #[test]
    fn drop_joins_every_worker() {
        let pool = PersistentPool::new(3);
        pool.scoped_run((0..6).map(|_| boxed(|| {})).collect());
        assert!(pool.workers_spawned() >= 1);
        let live = Arc::clone(&pool.live);
        drop(pool);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "drop must join all workers, leaving none live"
        );
    }

    #[test]
    fn oversubscribed_dispatch_round_robins_on_a_small_pool() {
        let pool = PersistentPool::new(2);
        let counter = AtomicU32::new(0);
        // 40 tasks through at most 2 workers + the caller.
        let tasks = (0..40)
            .map(|_| {
                boxed(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.scoped_run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 40);
        assert!(pool.workers_spawned() <= 2);
    }

    #[test]
    fn empty_and_single_task_dispatches_stay_inline() {
        let pool = PersistentPool::new(4);
        pool.scoped_run(Vec::new());
        let caller = std::thread::current().id();
        let mut ran_on = None;
        pool.scoped_run(vec![boxed(|| ran_on = Some(std::thread::current().id()))]);
        assert_eq!(ran_on, Some(caller), "a single task must not pay a channel");
        assert_eq!(pool.workers_spawned(), 0);
    }

    #[test]
    fn worker_threads_are_flagged_and_the_caller_is_not() {
        assert!(!on_worker_thread());
        let pool = PersistentPool::new(2);
        let (flag_caller, flag_worker) = (AtomicU32::new(9), AtomicU32::new(9));
        pool.scoped_run(vec![
            boxed(|| flag_caller.store(on_worker_thread() as u32, Ordering::SeqCst)),
            boxed(|| flag_worker.store(on_worker_thread() as u32, Ordering::SeqCst)),
        ]);
        assert_eq!(flag_caller.load(Ordering::SeqCst), 0);
        assert_eq!(flag_worker.load(Ordering::SeqCst), 1);
    }
}
