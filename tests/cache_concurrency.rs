//! Concurrency and leak-safety tests for the sharded, `Arc`-backed Hash
//! Table Manager.
//!
//! * **Leak regression** (the PR's headline bugfix): an executor error
//!   between checkout and check-in used to drop the `CheckedOut` value and
//!   strand the cache entry — never a candidate again, never evictable,
//!   still charged to the GC budget. The RAII guard must return the table
//!   instead, on both read-only and mutating reuse paths.
//! * **Shared readers**: exact-match reuse is a handle clone; any number of
//!   checkouts coexist, which is what lets sessions execute concurrently.
//! * **Shard contention stress**: 8 threads × mixed exact/partial reuse
//!   under a tight GC budget; at quiesce the atomic statistics must agree
//!   exactly with a recount of the shard contents (no lost bytes).

use std::sync::{Arc, Barrier};
use std::thread;

use hashstash_cache::{ColumnHt, GcConfig, HtManager, StoredHt};
use hashstash_exec::plan::{PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext};
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_types::{DataType, Field, Row, Schema, Value};

fn customer_fp(lo: i64, hi: i64) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("customer")).collect(),
        edges: vec![],
        region: Region::from_box(PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )),
        key_attrs: vec![Arc::from("customer.c_custkey")],
        payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
        aggregates: vec![],
    }
}

fn join_table(n: u64) -> StoredHt {
    let mut ht = ColumnHt::new(16, &[DataType::Int, DataType::Int]);
    for i in 0..n {
        let row = Row::new(vec![Value::Int(i as i64), Value::Int(30)]);
        ht.insert(i, &row).unwrap();
    }
    StoredHt::Rows(ht)
}

fn join_schema() -> Schema {
    Schema::new(vec![
        Field::new("customer.c_custkey", DataType::Int),
        Field::new("customer.c_age", DataType::Int),
    ])
}

/// Headline bugfix: an executor error *after* checkout (here: the cached
/// table has the wrong kind for the operator) must check the table back in
/// on the error path. Pre-PR, the dropped `CheckedOut` left `ht: None`
/// forever: unavailable, not a candidate, yet still counted in
/// `CacheStats.bytes`.
#[test]
fn executor_error_path_returns_checked_out_table() {
    let cat = generate(TpchConfig::new(0.002, 5));
    let htm = HtManager::unbounded();

    // An *aggregate* payload published under a join-build fingerprint: the
    // join operator checks it out, then errors on the kind mismatch.
    let mut agg = hashstash_cache::AggHt::new(16, &[DataType::Int], &[]);
    let groups = [hashstash_storage::Column::Int(vec![1])];
    agg.fold(&[1], &groups, &[], None).unwrap();
    let fp = customer_fp(0, 100);
    let id = htm.publish(fp.clone(), join_schema(), StoredHt::Agg(agg));
    let bytes_before = htm.stats().bytes;
    assert!(bytes_before > 0);

    let plan = PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("orders"))),
        build: None,
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: Some(ReuseSpec {
            id,
            case: ReuseCase::Exact,
            post_filter: None,
            request_region: fp.region.clone(),
            cached_region: fp.region.clone(),
            schema: join_schema(),
        }),
        publish: None,
    };
    let mut ctx = ExecContext::new(&cat, &htm);
    assert!(
        execute(&plan, &mut ctx).is_err(),
        "kind mismatch must error"
    );

    // The table came back: available, a candidate again, bytes accounted.
    assert!(htm.is_available(id), "error path returned the table");
    assert_eq!(htm.candidates(&fp).len(), 1, "candidate again");
    assert_eq!(htm.stats().bytes, bytes_before, "bytes still accounted");
    let (audit_bytes, audit_entries) = htm.audit();
    assert_eq!(audit_bytes, htm.stats().bytes);
    assert_eq!(audit_entries, 1);
    // The pin counter agrees: the error path returned the guard.
    #[cfg(feature = "analysis")]
    htm.assert_quiesced();
}

/// Same property on the *mutating* (partial reuse) path: the executor
/// errors after `checkout_mut` while inserting the delta (build schema
/// mismatch). The guard must abandon the private copy and leave the cached
/// version untouched and available.
#[test]
fn mutating_error_path_keeps_cached_version() {
    let cat = generate(TpchConfig::new(0.002, 5));
    let htm = HtManager::unbounded();

    let fp = customer_fp(40, 60);
    let id = htm.publish(fp.clone(), join_schema(), join_table(10));
    let bytes_before = htm.stats().bytes;

    // The delta build plan scans *all* customer columns, which mismatches
    // the cached two-column schema — an error after the exclusive checkout.
    let plan = PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("orders"))),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("customer")))),
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: Some(ReuseSpec {
            id,
            case: ReuseCase::Partial,
            post_filter: None,
            request_region: customer_fp(30, 60).region.clone(),
            cached_region: fp.region.clone(),
            schema: join_schema(),
        }),
        publish: None,
    };
    let mut ctx = ExecContext::new(&cat, &htm);
    assert!(
        execute(&plan, &mut ctx).is_err(),
        "schema mismatch must error"
    );

    assert!(htm.is_available(id), "writer guard released on error");
    let cands = htm.candidates(&fp);
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0].entries, 10, "cached version untouched");
    assert!(
        cands[0].fingerprint.region.set_eq(&fp.region),
        "lineage not widened by the failed attempt"
    );
    assert_eq!(htm.stats().bytes, bytes_before, "bytes still accounted");
    // And the table is still fully usable.
    let w = htm.checkout_mut(id).unwrap();
    drop(w);
    // Both the failed attempt and the probe guard were returned.
    #[cfg(feature = "analysis")]
    htm.assert_quiesced();
}

/// Exact-match reuse is genuinely concurrent: all eight threads hold a
/// shared checkout of the *same* table at the same time (the barrier can
/// only be passed while every guard is live) and probe it in parallel.
/// Under the pre-PR exclusive-ownership protocol the second checkout
/// would have failed and this test could never pass.
#[test]
fn shared_checkouts_of_one_table_coexist_across_threads() {
    const THREADS: usize = 8;
    let htm = Arc::new(HtManager::unbounded());
    let id = htm.publish(customer_fp(0, 100), join_schema(), join_table(256));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let htm = Arc::clone(&htm);
            let barrier = Arc::clone(&barrier);
            // Raw spawns model independent client sessions (see clippy.toml).
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                let co = htm.checkout(id).expect("shared checkout never blocks");
                // Every thread holds its guard here simultaneously.
                barrier.wait();
                let StoredHt::Rows(t) = co.table() else {
                    panic!("join table")
                };
                let mut hits = 0usize;
                for k in 0..256u64 {
                    hits += t.probe(k).count();
                }
                hits
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("no panics"), 256);
    }
    assert!(htm.is_available(id));
    assert_eq!(htm.stats().reuses, THREADS as u64);
    // All eight shared guards dropped cleanly.
    #[cfg(feature = "analysis")]
    htm.assert_quiesced();
}

/// 8 threads × mixed exact/partial reuse over several plan shapes under a
/// tight GC budget: no operation may lose bytes — at quiesce the atomic
/// `CacheStats` must agree exactly with a recount of every shard, and the
/// budget must hold.
#[test]
fn shard_contention_stress_no_lost_bytes() {
    const THREADS: usize = 8;
    const OPS: usize = 60;

    fn shaped_fp(shape: usize, lo: i64, hi: i64) -> HtFingerprint {
        let table: Arc<str> = Arc::from(format!("t{shape}"));
        let key: Arc<str> = Arc::from(format!("t{shape}.k"));
        let attr: Arc<str> = Arc::from(format!("t{shape}.v"));
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(table).collect(),
            edges: vec![],
            region: Region::from_box(PredBox::all().with(
                attr.to_string(),
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )),
            key_attrs: vec![key.clone()],
            payload_attrs: vec![key],
            aggregates: vec![],
        }
    }

    let budget = join_table(64).logical_bytes() * 6;
    let htm = Arc::new(HtManager::with_shards(
        GcConfig {
            budget_bytes: Some(budget),
            ..GcConfig::default()
        },
        8,
    ));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let htm = Arc::clone(&htm);
            let barrier = Arc::clone(&barrier);
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let shape = (t + i) % 5;
                    let lo = ((t * 7 + i * 3) % 40) as i64;
                    let fp = shaped_fp(shape, lo, lo + 10);
                    // Publish under GC pressure.
                    htm.publish(fp.clone(), join_schema(), join_table(64));
                    // Mixed reuse against whatever is currently cached.
                    let cands = htm.candidates(&shaped_fp(shape, 0, 60));
                    if let Some(c) = cands.first() {
                        if i % 3 == 0 {
                            // Partial-style mutating reuse: COW, widen, publish.
                            if let Ok(mut co) = htm.checkout_mut(c.id) {
                                if let Ok(StoredHt::Rows(tab)) = co.table_mut() {
                                    let base = 1000 + i as u64;
                                    let row =
                                        Row::new(vec![Value::Int(base as i64), Value::Int(30)]);
                                    tab.insert(base, &row).unwrap();
                                }
                                let widened = co.fingerprint.region.union(&fp.region);
                                std::sync::Arc::make_mut(&mut co.fingerprint).region = widened;
                                co.checkin().expect("entry is pinned, checkin succeeds");
                            }
                        } else {
                            // Exact-style shared reuse: concurrent readers.
                            if let Ok(co) = htm.checkout(c.id) {
                                assert!(!co.table().is_empty());
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }

    // Quiesce: with the `analysis` feature on, the pin-leak detector runs
    // first — every checkout guard across all 480 mixed-mode ops must have
    // been returned before the byte accounting is trusted.
    #[cfg(feature = "analysis")]
    htm.assert_quiesced();

    // Quiesce: nothing is checked out, so the stats must be exact.
    let stats = htm.stats();
    let (audit_bytes, audit_entries) = htm.audit();
    assert_eq!(
        stats.bytes, audit_bytes,
        "atomic byte accounting drifted from shard contents"
    );
    assert_eq!(stats.entries, audit_entries, "entry count drifted");
    htm.enforce_budget();
    assert!(
        htm.stats().bytes <= budget,
        "budget holds at quiesce ({} > {budget})",
        htm.stats().bytes
    );
    // Every op published exactly once; each call either created an entry
    // or deduplicated onto an identical lineage still in cache. The two
    // counters must account for every call — no drops, no double counts.
    assert_eq!(
        stats.publishes + stats.publish_dedups,
        (THREADS * OPS) as u64,
        "publish accounting drifted (publishes={}, dedups={})",
        stats.publishes,
        stats.publish_dedups
    );
    assert!(stats.publishes > 0);
}

/// A session executes (and reuses) while another client holds a shared
/// checkout of a cached table — impossible under the pre-PR design, where
/// one mutex was held from optimization through execution.
#[test]
fn session_executes_while_cache_handle_is_held() {
    use hashstash::Database;
    use hashstash_plan::{AggExpr, AggFunc, QueryBuilder};

    let db = Database::open(generate(TpchConfig::new(0.003, 99)));
    let q = |id: u32| {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(20), Value::Int(60)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .build()
            .unwrap()
    };
    // Warm the cache, then pin one of the published tables from outside any
    // session, exactly like a long-running reader would.
    let warm = db.session().execute(&q(1)).unwrap();
    // Ids encode their home shard (`raw * shards + shard`), so just scan a
    // small prefix of the id space for the tables the warm query published.
    let seeded: Vec<_> = (1..=256)
        .map(hashstash_types::HtId)
        .filter(|&id| db.cache().is_available(id))
        .collect();
    assert!(!seeded.is_empty(), "warm query published tables");
    let _held = db.cache().checkout(seeded[0]).unwrap();

    // A fresh session still executes — and still gets cache hits — while
    // the handle is held on another "thread".
    let db2 = Arc::clone(&db);
    #[allow(clippy::disallowed_methods)]
    let (rows, reused) = thread::spawn(move || {
        let mut s = db2.session();
        let r = s.execute(&q(2)).unwrap();
        (r.rows.len(), r.decisions.iter().any(|(_, c)| c.is_some()))
    })
    .join()
    .unwrap();
    assert_eq!(rows, warm.rows.len());
    assert!(reused, "read-only reuse proceeds despite the held handle");
}
