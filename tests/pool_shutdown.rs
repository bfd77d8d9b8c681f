//! `Database::drop` must join every pool worker — no detached threads.
//! This is the only test in its binary so the OS thread count it samples
//! from `/proc/self/task` (Linux) is not perturbed by sibling tests.

use std::time::{Duration, Instant};

use hashstash::Database;
use hashstash_storage::tpch::{generate, TpchConfig};

/// Threads in this process, per the kernel (`None` off Linux).
fn os_thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn database_drop_joins_all_pool_workers() {
    let before = os_thread_count();

    let db = Database::builder(generate(TpchConfig::new(0.003, 11)))
        .parallelism(8)
        .build();
    assert_eq!(db.worker_pool().worker_count(), 7);
    if let (Some(before), Some(alive)) = (before, os_thread_count()) {
        assert!(
            alive >= before + 7,
            "7 pool workers are running ({before} -> {alive})"
        );
    }

    drop(db);
    // `WorkerPool::drop` *joins* the workers, so none runs once drop
    // returns. The kernel still lists a joined thread until it reaps the
    // task (`release_task`), which comes after the futex wake that lets
    // `pthread_join` return — so poll, for at most a second, until the
    // count is back; a detached worker never leaves and still fails.
    if let Some(before) = before {
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut after = os_thread_count();
        while after != Some(before) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            after = os_thread_count();
        }
        assert_eq!(
            after,
            Some(before),
            "dropping the database leaves no detached threads"
        );
    }
}
