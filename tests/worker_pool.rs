//! Lifecycle tests for the persistent worker pool: one pool per
//! `Database`, reused across sequential queries, and panic containment at
//! the phase boundary. (Thread-join-on-drop has its
//! own single-test binary, `tests/pool_shutdown.rs`, so nothing else
//! creates threads while it counts them.)

use hashstash::Database;
use hashstash_exec::parallel::{collect_morsels, run_morsels};
use hashstash_exec::{min_parallel_morsels, Scheduler, WorkerPool, MORSEL_ROWS};
use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder, QuerySpec};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_types::Value;

/// Big enough that the orders scan comfortably exceeds the derived
/// morsel fan-out threshold, so queries actually submit pool phases.
fn catalog() -> hashstash_storage::Catalog {
    generate(TpchConfig::new(0.03, 7321))
}

fn q_age(id: u32, lo: i64, hi: i64) -> QuerySpec {
    QueryBuilder::new(id)
        .join(
            "customer",
            "customer.c_custkey",
            "orders",
            "orders.o_custkey",
        )
        .filter(
            "customer.c_age",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )
        .group_by("customer.c_age")
        .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
        .build()
        .unwrap()
}

/// Rows that split into comfortably more morsels than the fan-out
/// threshold requires.
fn engaged_total() -> usize {
    MORSEL_ROWS * (min_parallel_morsels() + 3)
}

/// One database-owned pool serves query after query — no workers are
/// created or destroyed between them, and every parallel query submits
/// phases to the same pool.
#[test]
fn pool_is_reused_across_sequential_queries() {
    let db = Database::builder(catalog()).parallelism(4).build();
    let pool = db.worker_pool();
    assert_eq!(
        pool.worker_count(),
        3,
        "parallelism 4 = the session thread + 3 pool workers"
    );

    let mut session = db.session();
    session.execute(&q_age(1, 20, 60)).unwrap();
    let after_first = pool.jobs_dispatched();
    assert!(
        after_first > 0,
        "a parallel query above the threshold submits pool phases"
    );
    session.execute(&q_age(2, 25, 65)).unwrap();
    assert!(
        db.worker_pool().jobs_dispatched() > after_first,
        "the second query reuses the same pool"
    );
    assert_eq!(db.worker_pool().worker_count(), 3, "no per-query spawning");
    #[cfg(feature = "analysis")]
    db.assert_quiesced();
}

/// A serial database never touches its (empty) pool.
#[test]
fn serial_database_keeps_an_empty_pool() {
    let db = Database::builder(catalog()).parallelism(1).build();
    assert_eq!(db.worker_pool().worker_count(), 0);
    let mut session = db.session();
    session.execute(&q_age(1, 20, 60)).unwrap();
    assert_eq!(
        db.worker_pool().jobs_dispatched(),
        0,
        "serial execution stays on the inline path"
    );
}

/// A panicking morsel poisons only its own phase: the submitting caller
/// gets the original payload, and the same pool immediately serves the
/// next phase — including one submitted by a different "session" thread.
#[test]
fn phase_panic_leaves_the_pool_serving_others() {
    let pool = WorkerPool::new(3);
    let sched = Scheduler {
        parallelism: 4,
        pool: Some(&pool),
    };
    let total = engaged_total();

    let outcome = std::panic::catch_unwind(|| {
        run_morsels(sched, total, |r| {
            if r.start >= MORSEL_ROWS {
                panic!("morsel exploded");
            }
            r.len()
        })
    });
    let payload = outcome.expect_err("the panic must reach the submitter");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"morsel exploded"));
    pool.assert_quiesced();

    // The pool is not poisoned: another thread's phases still drain on it.
    let next: Vec<usize> = std::thread::scope(|s| {
        s.spawn(|| collect_morsels(sched, total, |r| r.collect()))
            .join()
            .expect("clean phase after a panicked one")
    });
    assert_eq!(next, (0..total).collect::<Vec<_>>());
    pool.assert_quiesced();
}
