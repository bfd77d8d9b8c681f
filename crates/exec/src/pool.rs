//! The persistent worker pool behind every morsel-parallel phase.
//!
//! Before this module existed, every parallel phase spawned and joined a
//! fresh set of scoped threads — pure overhead paid dozens of times per
//! query (`BENCH_parallel.json` recorded *sub-1.0* speedups). A
//! [`WorkerPool`] instead spawns its workers **once** and parks them on a
//! condvar-backed injector queue; a phase submission is one queue push plus
//! a wakeup, and the pool is shared across phases, queries, and concurrent
//! sessions (which also unlocks inter-query parallelism: sessions no longer
//! spin up private workers).
//!
//! # Submission protocol
//!
//! A phase calls `WorkerPool::run_phase` with a *participant closure*.
//! The closure wraps a claim loop over one shared atomic cursor (see
//! `parallel::run_indexed`): every participant — pool workers *and the
//! submitting caller* — claims morsel indices until none remain, then
//! returns. `run_phase`:
//!
//! 1. enqueues the job and wakes up to `cap` parked workers,
//! 2. runs `task` on the calling thread (the caller is always the first
//!    participant, so the inline fast path needs no handoff),
//! 3. removes the job from the queue and blocks until every pool worker
//!    that joined the job has left it.
//!
//! Ordering is reconstructed by the caller (outputs are tagged with their
//! morsel index and sorted), so which thread runs which morsel — and how
//! many workers actually wake in time to participate — cannot affect the
//! result: output stays bit-identical at any worker count.
//!
//! # Why the borrowed closure is sound
//!
//! Pool workers are `'static` threads, but `task` borrows the submitting
//! caller's stack frame. The job stores a lifetime-erased raw pointer to
//! the closure (`RawTask`); the protocol makes that sound:
//!
//! * a worker may reach the pointer only by taking the job from the queue,
//!   and it increments the job's `active` count **under the queue lock**
//!   before first dereferencing it;
//! * before returning (even on panic — step 3 runs in a drop guard), the
//!   caller removes the job from the queue and then waits under the same
//!   lock until `active == 0`.
//!
//! So no worker can adopt the job after the caller's removal, and the
//! caller cannot return while any worker still holds the pointer: the
//! closure strictly outlives every dereference.
//!
//! # Panic containment
//!
//! Each participant's claim loop runs under `catch_unwind`. A panicking
//! morsel poisons only its own phase: the first payload is parked in the
//! job, the surviving participants drain the remaining morsels, and the
//! caller re-raises the payload after the job quiesces — the queue, the
//! workers, and other sessions' jobs are untouched.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A phase's participant closure, lifetime-erased. See the module docs for
/// the protocol that keeps the pointer valid while workers hold it.
struct RawTask(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync` (so `&`-calls from several threads are
// fine) and the submission protocol guarantees it outlives every
// dereference; the raw pointer itself is Plain Old Data.
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

/// One submitted phase, shared between the queue, the participating
/// workers, and the submitting caller.
struct JobCore {
    task: RawTask,
    /// Most pool workers allowed to join (the caller participates on top).
    cap: usize,
    /// Pool workers that ever joined (enforces `cap`).
    joined: AtomicUsize,
    /// Pool workers currently inside `task`. Incremented/decremented under
    /// the queue lock — the caller's quiesce wait reads it there.
    active: AtomicUsize,
    /// First panic payload raised by a pool worker's participation.
    // lock-order: 13 (pool job panic payload; leaf)
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Queue state behind the pool mutex.
struct QueueState {
    /// Submitted jobs still accepting workers, oldest first.
    jobs: Vec<Arc<JobCore>>,
    /// Workers parked on `work_cv`.
    idle: usize,
    /// Set once by `Drop`; workers exit when no eligible job remains.
    shutdown: bool,
}

struct PoolShared {
    // lock-order: 12 (worker-pool job queue)
    queue: Mutex<QueueState>,
    /// Workers park here; submissions and shutdown notify it.
    work_cv: Condvar,
    /// Callers waiting for their job to quiesce park here.
    done_cv: Condvar,
    /// Phases ever submitted (includes inline `cap == 0` runs).
    dispatched: AtomicU64,
}

impl PoolShared {
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A long-lived pool of morsel workers. `Database` owns one sized
/// `parallelism - 1` (the submitting session thread is the remaining
/// participant). Dropping the pool shuts the workers down and **joins**
/// them — no thread outlives its owner.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Spawned once in [`WorkerPool::new`], drained by `Drop`.
    handles: Vec<JoinHandle<()>>,
}

// A panicking phase leaves the pool fully usable (module docs, "Panic
// containment"), and the join handles are touched only by `Drop`, so a
// `&WorkerPool` may cross a `catch_unwind` boundary.
impl std::panic::RefUnwindSafe for WorkerPool {}

impl WorkerPool {
    /// A pool with exactly `workers` eagerly spawned workers. A failed OS
    /// spawn degrades to a smaller pool instead of failing construction.
    pub fn new(workers: usize) -> WorkerPool {
        clamp_malloc_arenas_for_single_core();
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                jobs: Vec::new(),
                idle: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            dispatched: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("hs-worker-{id}"));
            match builder.spawn(move || worker_main(shared)) {
                Ok(h) => handles.push(h),
                Err(_) => break, // thread exhaustion: run with fewer workers
            }
        }
        WorkerPool { shared, handles }
    }

    /// Workers this pool owns.
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Phases ever submitted to this pool (inline `parallelism <= 1` runs
    /// bypass the pool and are not counted; `cap == 0` submissions are).
    pub fn jobs_dispatched(&self) -> u64 {
        self.shared.dispatched.load(Ordering::Relaxed)
    }

    /// Assert the pool has no queued or in-flight jobs — every submitted
    /// phase has quiesced. The `analysis`-feature quiesce checks call this
    /// alongside the cache pin-leak detectors; it holds whenever no
    /// `run_phase` call is live, because submission removes the job and
    /// waits out its participants before returning.
    pub fn assert_quiesced(&self) {
        let q = self.shared.lock_queue();
        assert!(
            q.jobs.is_empty(),
            "worker pool not quiesced: {} job(s) still queued",
            q.jobs.len()
        );
    }

    /// Run one phase: enqueue `task` for up to `pool_workers_wanted` pool
    /// workers, participate on the calling thread, and return once every
    /// participant has left the closure. Panics from any participant are
    /// re-raised here with their original payload (caller's own first)
    /// after the job quiesces.
    pub(crate) fn run_phase(&self, pool_workers_wanted: usize, task: &(dyn Fn() + Sync)) {
        self.shared.dispatched.fetch_add(1, Ordering::Relaxed);
        let cap = pool_workers_wanted.min(self.handles.len());
        if cap == 0 {
            // No pool workers configured (serial engine): the phase is the
            // caller's claim loop alone.
            task();
            return;
        }
        let raw: *const (dyn Fn() + Sync) = task;
        // SAFETY: lifetime erasure only — the vtable and data pointer are
        // unchanged. The submission protocol (module docs) guarantees the
        // closure outlives every dereference: the drop guard below removes
        // the job and waits for `active == 0` before this frame can die.
        let raw = unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(raw)
        };
        let job = Arc::new(JobCore {
            task: RawTask(raw),
            cap,
            joined: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut q = self.shared.lock_queue();
            q.jobs.push(Arc::clone(&job));
            // Wake at most `cap` parked workers; busy workers pick the job
            // up from the queue when they finish their current one.
            for _ in 0..cap.min(q.idle) {
                self.shared.work_cv.notify_one();
            }
        }
        let guard = PhaseGuard {
            shared: &self.shared,
            job: &job,
        };
        // The caller is a participant too — the phase makes progress even
        // if every worker is busy with other sessions' jobs.
        let caller_outcome = catch_unwind(AssertUnwindSafe(task));
        // Retire the job and wait out straggler workers (also runs on the
        // unwind path if the catch above ever stops covering it).
        drop(guard);
        let worker_panic = job
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Err(payload) = caller_outcome {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

/// Removes the job from the queue and waits until no worker is inside it —
/// the step that makes the borrowed-closure protocol sound, so it runs in
/// a `Drop` impl and survives caller panics.
struct PhaseGuard<'a> {
    shared: &'a PoolShared,
    job: &'a Arc<JobCore>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let mut q = self.shared.lock_queue();
        q.jobs.retain(|j| !Arc::ptr_eq(j, self.job));
        // `active` only changes under the queue lock, so this cannot miss
        // a decrement-then-notify.
        while self.job.active.load(Ordering::Relaxed) > 0 {
            q = self
                .shared
                .done_cv
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn worker_main(shared: Arc<PoolShared>) {
    let mut q = shared.lock_queue();
    loop {
        let job = q
            .jobs
            .iter()
            .find(|j| j.joined.load(Ordering::Relaxed) < j.cap)
            .cloned();
        match job {
            Some(job) => {
                job.joined.fetch_add(1, Ordering::Relaxed);
                // Under the queue lock: the submitter's removal + quiesce
                // check runs under the same lock, so it either sees this
                // increment or has already made the job unreachable.
                job.active.fetch_add(1, Ordering::Relaxed);
                drop(q);
                // SAFETY: `active > 0` pins the closure (module docs) —
                // the submitting frame cannot return until we decrement.
                let task = unsafe { &*job.task.0 };
                let outcome = catch_unwind(AssertUnwindSafe(task));
                q = shared.lock_queue();
                match outcome {
                    Ok(()) => {
                        // A normal return means the claim space is drained:
                        // retire the entry so it stops attracting workers
                        // (the submitter's guard also removes it —
                        // whichever runs first wins).
                        q.jobs.retain(|j| !Arc::ptr_eq(j, &job));
                    }
                    Err(payload) => {
                        // Park the first payload for the submitter; other
                        // participants keep draining the phase.
                        let mut slot = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                }
                job.active.fetch_sub(1, Ordering::Relaxed);
                shared.done_cv.notify_all();
            }
            None => {
                if q.shutdown {
                    return;
                }
                q.idle += 1;
                q = shared
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                q.idle -= 1;
            }
        }
    }
}

impl Drop for WorkerPool {
    /// Shut down and **join** every worker: after drop returns, no pool
    /// thread survives. Jobs still queued (impossible through the public
    /// API — submission outlives its job) would be drained first, since
    /// workers prefer work over the shutdown flag.
    fn drop(&mut self) {
        {
            let mut q = self.shared.lock_queue();
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// On a **single-core** host, clamp glibc to one malloc arena
/// (best-effort, GNU libc only; a no-op everywhere else).
///
/// glibc gives each thread its own malloc arena on first contention, so
/// pool workers allocate phase output (rows, morsel buffers) from worker
/// arenas that the submitting thread later frees into — and past the tiny
/// per-thread cache, every such free takes the foreign arena's lock. On
/// the Fig. 9 mix that cross-arena tax measured ~15% of total wall-clock
/// on a 1-core container, dwarfing the scheduler's own overhead. With one
/// core, extra arenas can never pay for themselves — two threads never
/// run concurrently, so arena-level contention the extra arenas would
/// relieve cannot occur — which makes one arena strictly better there.
/// Multi-core hosts keep glibc's default, where per-thread arenas do
/// relieve real contention.
///
/// Runs once per process, before the first worker spawns, so worker
/// threads never trigger creation of an arena past the clamp.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn clamp_malloc_arenas_for_single_core() {
    use std::sync::OnceLock;
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let single_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        if !single_core {
            return;
        }
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` is a thread-safe glibc tuning call with no
        // pointer arguments; failure only leaves the default arena limit.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    });
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn clamp_malloc_arenas_for_single_core() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Count every participant call and which indices ran.
    fn counting_task<'a>(
        next: &'a AtomicUsize,
        count: usize,
        hits: &'a AtomicU32,
    ) -> impl Fn() + Sync + 'a {
        move || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn phase_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let next = AtomicUsize::new(0);
            let hits = AtomicU32::new(0);
            pool.run_phase(3, &counting_task(&next, 100, &hits));
            assert_eq!(hits.load(Ordering::Relaxed), 100);
        }
        pool.assert_quiesced();
        assert_eq!(pool.worker_count(), 3);
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let next = AtomicUsize::new(0);
        let hits = AtomicU32::new(0);
        pool.run_phase(4, &counting_task(&next, 10, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(pool.worker_count(), 0);
    }

    #[test]
    fn panicking_phase_poisons_only_itself() {
        let pool = WorkerPool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            let next = AtomicUsize::new(0);
            pool.run_phase(2, &|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 8 {
                    return;
                }
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        let payload = boom.expect_err("panic must propagate to the submitter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool survives: the queue is clean and the workers serve the
        // next phase.
        pool.assert_quiesced();
        let next = AtomicUsize::new(0);
        let hits = AtomicU32::new(0);
        pool.run_phase(2, &counting_task(&next, 64, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Deterministic from the pool's side: Drop joins the handles, so
        // returning at all proves no worker outlives the pool.
        let pool = WorkerPool::new(4);
        let next = AtomicUsize::new(0);
        let hits = AtomicU32::new(0);
        pool.run_phase(4, &counting_task(&next, 32, &hits));
        drop(pool);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = WorkerPool::new(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        let next = AtomicUsize::new(0);
                        let hits = AtomicU32::new(0);
                        pool.run_phase(3, &counting_task(&next, 64, &hits));
                        assert_eq!(hits.load(Ordering::Relaxed), 64);
                    }
                });
            }
        });
        pool.assert_quiesced();
        assert_eq!(pool.worker_count(), 3, "no per-phase spawning");
    }
}
