//! Stress test for the `Database`/`Session` split: many threads drive
//! sessions against one shared database and must (a) get correct answers
//! and (b) get cache hits from hash tables *other* sessions published.

use std::sync::Arc;
use std::thread;

use hashstash::{Database, EngineStrategy};
use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder, QuerySpec};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_types::{Row, Value};

fn catalog() -> hashstash_storage::Catalog {
    generate(TpchConfig::new(0.003, 4321))
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

fn normalized(mut rows: Vec<Row>) -> Vec<Vec<String>> {
    rows.sort();
    rows.iter()
        .map(|r| r.values().iter().map(|v| v.to_string()).collect())
        .collect()
}

/// Two threads sharing one `Database` get cache hits from each other's
/// hash tables (the facade-redesign acceptance criterion).
#[test]
fn two_sessions_reuse_each_others_tables() {
    let db = Database::open(catalog());

    // Thread A runs a query; thread B (spawned after A joins) runs the
    // *same* query from a brand-new session and must reuse A's tables.
    let db_a = Arc::clone(&db);
    // Raw spawns model independent client sessions (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    thread::spawn(move || {
        let mut session = db_a.session();
        session.execute(&q_age(1, 20, 60)).unwrap();
    })
    .join()
    .unwrap();
    assert!(db.cache_stats().publishes > 0, "thread A published tables");

    let db_b = Arc::clone(&db);
    #[allow(clippy::disallowed_methods)]
    let reused = thread::spawn(move || {
        let mut session = db_b.session();
        let r = session.execute(&q_age(2, 20, 60)).unwrap();
        r.decisions.iter().any(|(_, c)| c.is_some())
    })
    .join()
    .unwrap();
    assert!(reused, "thread B reused thread A's hash tables");
    assert!(db.cache_stats().reuses > 0);
}

/// Many concurrent sessions over overlapping predicates: every thread's
/// answers match a sequential no-reuse reference, and after a warm-up
/// query every thread sees reuse — across sessions, not just within one.
#[test]
fn concurrent_sessions_stress() {
    const THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 6;

    // Shared database under test plus a sequential reference.
    let db = Database::open(catalog());
    let mut reference = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .build()
        .session();

    // The query grid every thread executes (identical across threads, so
    // whichever thread runs a shape first seeds all the others).
    let grid: Vec<QuerySpec> = (0..QUERIES_PER_THREAD as u32)
        .map(|i| q_age(i, 20 + (i as i64 % 3) * 5, 60 + (i as i64 % 3) * 5))
        .collect();
    let expected: Vec<_> = grid
        .iter()
        .map(|q| normalized(reference.execute(q).unwrap().rows.into_vec()))
        .collect();
    let expected = Arc::new(expected);
    let grid = Arc::new(grid);

    // Warm the cache so even the globally-first query of the parallel
    // phase has a candidate.
    db.session().execute(&grid[0]).unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let grid = Arc::clone(&grid);
            let expected = Arc::clone(&expected);
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                let mut session = db.session();
                let mut reused_queries = 0usize;
                // Stagger starting offsets so threads interleave shapes.
                for k in 0..grid.len() {
                    let i = (k + t) % grid.len();
                    let r = session.execute(&grid[i]).unwrap();
                    assert_eq!(
                        normalized(r.rows.into_vec()),
                        expected[i],
                        "thread {t} query {i} diverges"
                    );
                    if r.decisions.iter().any(|(_, c)| c.is_some()) {
                        reused_queries += 1;
                    }
                }
                assert_eq!(session.stats().queries, grid.len() as u64);
                reused_queries
            })
        })
        .collect();

    let mut total_reused = 0;
    for h in handles {
        let reused = h.join().expect("thread panicked");
        assert!(reused > 0, "every thread must hit the shared cache");
        total_reused += reused;
    }
    assert!(
        total_reused >= THREADS,
        "cross-session reuse happened on every thread (got {total_reused})"
    );
    assert!(db.cache_stats().reuses >= total_reused as u64);
    assert_eq!(
        db.total_stats().queries,
        (THREADS * QUERIES_PER_THREAD) as u64 + 1,
        "database totals aggregate every session"
    );
}

/// Eight sessions hammering one parallelism-4 database share its one
/// worker pool: phases from different sessions interleave on the same
/// three workers (no per-session or per-phase spawning), answers stay
/// correct, and the pool is quiesced once the clients join.
#[test]
fn eight_sessions_share_one_worker_pool() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;

    // Big enough that scans clear the derived morsel threshold — the
    // sessions must actually submit pool phases, not just inline work.
    let big = || generate(TpchConfig::new(0.03, 977));
    let db = Database::builder(big()).parallelism(4).build();
    let mut reference = Database::builder(big())
        .strategy(EngineStrategy::NoReuse)
        .parallelism(1)
        .build()
        .session();
    let shapes: Vec<QuerySpec> = (0..4u32)
        .map(|i| q_age(i, 18 + i as i64 * 6, 52 + i as i64 * 8))
        .collect();
    let expected: Vec<_> = shapes
        .iter()
        .map(|q| normalized(reference.execute(q).unwrap().rows.into_vec()))
        .collect();
    let shapes = Arc::new(shapes);
    let expected = Arc::new(expected);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let shapes = Arc::clone(&shapes);
            let expected = Arc::clone(&expected);
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                let mut session = db.session();
                for round in 0..ROUNDS {
                    for k in 0..shapes.len() {
                        let i = (k + t) % shapes.len();
                        let r = session.execute(&shapes[i]).unwrap();
                        assert_eq!(
                            normalized(r.rows.into_vec()),
                            expected[i],
                            "thread {t} round {round} query {i}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread panicked");
    }

    let pool = db.worker_pool();
    assert_eq!(pool.worker_count(), 3, "one pool, never grown per session");
    assert!(
        pool.jobs_dispatched() > 0,
        "sessions submitted phases to the shared pool"
    );
    pool.assert_quiesced();
    #[cfg(feature = "analysis")]
    db.assert_quiesced();
}

/// Concurrency under memory pressure: GC evictions racing with reuse from
/// several sessions must never corrupt answers.
#[test]
fn concurrent_sessions_with_tight_gc_budget() {
    const THREADS: usize = 3;
    let db = Database::builder(catalog()).gc_budget(64 * 1024).build();
    let mut reference = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .build()
        .session();
    let shapes: Vec<QuerySpec> = (0..5u32)
        .map(|i| q_age(i, 18 + i as i64 * 7, 40 + i as i64 * 9))
        .collect();
    let expected: Vec<_> = shapes
        .iter()
        .map(|q| normalized(reference.execute(q).unwrap().rows.into_vec()))
        .collect();
    let shapes = Arc::new(shapes);
    let expected = Arc::new(expected);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let shapes = Arc::clone(&shapes);
            let expected = Arc::clone(&expected);
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                let mut session = db.session();
                for round in 0..3 {
                    for (i, q) in shapes.iter().enumerate() {
                        let r = session.execute(q).unwrap();
                        assert_eq!(
                            normalized(r.rows.into_vec()),
                            expected[i],
                            "thread {t} round {round} query {i}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread panicked");
    }
    assert!(db.cache_stats().bytes <= 64 * 1024, "budget holds");
}
