//! Stress: 8 threads racing **parallel builds** and publishes against a
//! tight cache budget, so evictions land mid-build, publishes race
//! identical-lineage dedup, and reuse checkouts race eviction. Invariants at
//! quiesce: `stats == audit()` (no leaked bytes or entries), the budget
//! holds, every surviving entry is checkable-out (no stranded writer pins),
//! and — because parallel-built tables are bit-identical to serial ones —
//! every answer equals the serial no-reuse reference *including row order*.
//!
//! Error paths are exercised deliberately: a mutating-reuse plan whose delta
//! scan fails *after* the exclusive checkout is held, and a fresh-build plan
//! whose probe fails *after* the (parallel) build completed — neither may
//! leak a partial table or strand the cached entry.

use std::sync::Arc;

use hashstash_cache::{GcConfig, HtManager};
use hashstash_exec::plan::{PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext, WorkerPool, MIN_PARALLEL_BUILD_ROWS};
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, HsError, Row, Value};

const DIM_ROWS: i64 = 6_000;
const VARIANTS: usize = 8;
const THREADS: usize = 8;
const ROUNDS: usize = 6;
const WORKERS: usize = 8;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let mut d = TableBuilder::new(
        "dim",
        vec![("d_key", DataType::Int), ("d_attr", DataType::Int)],
    );
    for i in 0..DIM_ROWS {
        d.push_row(vec![Value::Int(i), Value::Int(i % 311)]);
    }
    cat.register(d.finish());
    let mut f = TableBuilder::new("fact", vec![("f_key", DataType::Int)]);
    for i in 0..DIM_ROWS {
        f.push_row(vec![Value::Int((i * 13) % DIM_ROWS)]);
    }
    cat.register(f.finish());
    cat
}

/// Per-variant build region: all cross the partitioned-build threshold.
fn hi_of(variant: usize) -> i64 {
    let hi = 4_500 + 150 * variant as i64;
    assert!(hi as usize >= MIN_PARALLEL_BUILD_ROWS);
    hi
}

fn fp_of(variant: usize) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region: Region::from_box(PredBox::all().with(
            "dim.d_key",
            Interval::closed(Value::Int(0), Value::Int(hi_of(variant))),
        )),
        key_attrs: vec![Arc::from("dim.d_key")],
        payload_attrs: vec![Arc::from("dim.d_key"), Arc::from("dim.d_attr")],
        aggregates: vec![],
    }
}

fn build_scan(variant: usize, table: &str) -> PhysicalPlan {
    PhysicalPlan::Scan(
        ScanSpec::filtered(
            table,
            PredBox::all().with(
                "dim.d_key",
                Interval::closed(Value::Int(0), Value::Int(hi_of(variant))),
            ),
        )
        .project(&["dim.d_key", "dim.d_attr"]),
    )
}

fn join(
    probe_table: &str,
    build: Option<PhysicalPlan>,
    reuse: Option<ReuseSpec>,
    publish: Option<HtFingerprint>,
) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full(probe_table))),
        build: build.map(Box::new),
        probe_key: "fact.f_key".into(),
        build_key: "dim.d_key".into(),
        reuse,
        publish,
    }
}

fn fresh_plan(variant: usize) -> PhysicalPlan {
    join(
        "fact",
        Some(build_scan(variant, "dim")),
        None,
        Some(fp_of(variant)),
    )
}

#[test]
fn racing_parallel_builds_and_publishes_audit_clean() {
    let cat = catalog();

    // Serial no-reuse references, one per variant. Parallel builds are
    // bit-identical to serial ones, and an exact reuse probes the very
    // chains the fresh build created — so even the row ORDER must match.
    let reference: Vec<Vec<Row>> = (0..VARIANTS)
        .map(|v| {
            let htm = HtManager::unbounded();
            let mut ctx = ExecContext::new(&cat, &htm).with_parallelism(1);
            let plan = join("fact", Some(build_scan(v, "dim")), None, None);
            execute(&plan, &mut ctx).expect("reference").1.into_vec()
        })
        .collect();
    let reference = Arc::new(reference);

    // Tight budget: roughly two tables' worth, so publishes constantly
    // evict while other threads are mid-build or mid-reuse.
    let budget = 340 * 1024;
    let htm = HtManager::new(GcConfig {
        budget_bytes: Some(budget),
        ..GcConfig::default()
    });
    // One pool shared by every racing thread, as sessions share a
    // database's.
    let pool = WorkerPool::new(WORKERS - 1);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cat = &cat;
            let htm = &htm;
            let pool = &pool;
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let v = (t + round) % VARIANTS;
                    let fp = fp_of(v);

                    // 1. Try exact reuse of a cached candidate; fall back to
                    //    a fresh parallel build + publish. A candidate can
                    //    be evicted between lookup and checkout — that
                    //    CacheError is the re-plan path, never a failure.
                    let cands = htm.candidates(&fp);
                    let exact = cands
                        .iter()
                        .find(|c| c.fingerprint.region.set_eq(&fp.region));
                    let plan = match exact {
                        Some(c) => join(
                            "fact",
                            None,
                            Some(ReuseSpec {
                                id: c.id,
                                case: ReuseCase::Exact,
                                post_filter: None,
                                request_region: fp.region.clone(),
                                cached_region: c.fingerprint.region.clone(),
                                schema: c.schema.clone(),
                            }),
                            None,
                        ),
                        None => fresh_plan(v),
                    };
                    let mut ctx = ExecContext::new(cat, htm)
                        .with_parallelism(WORKERS)
                        .with_pool(pool);
                    let rows = match execute(&plan, &mut ctx) {
                        Ok((_, rows)) => rows.into_vec(),
                        Err(HsError::CacheError(_)) => {
                            // Candidate vanished or got writer-locked:
                            // re-plan as a fresh build.
                            let mut ctx = ExecContext::new(cat, htm)
                                .with_parallelism(WORKERS)
                                .with_pool(pool);
                            execute(&fresh_plan(v), &mut ctx)
                                .expect("replan executes")
                                .1
                                .into_vec()
                        }
                        Err(e) => panic!("thread {t} round {round}: {e}"),
                    };
                    assert_eq!(
                        rows, reference[v],
                        "thread {t} round {round} variant {v}: rows and order"
                    );

                    // 2. Error path A: mutating reuse whose delta scan fails
                    //    *after* the exclusive checkout is held. The guard
                    //    must release the entry, not strand it.
                    if let Some(c) = htm.candidates(&fp).first() {
                        let bad = join(
                            "fact",
                            Some(PhysicalPlan::Scan(ScanSpec::full("no_such_table"))),
                            Some(ReuseSpec {
                                id: c.id,
                                case: ReuseCase::Partial,
                                post_filter: None,
                                request_region: Region::all(),
                                cached_region: c.fingerprint.region.clone(),
                                schema: c.schema.clone(),
                            }),
                            None,
                        );
                        let mut ctx = ExecContext::new(cat, htm)
                            .with_parallelism(WORKERS)
                            .with_pool(pool);
                        // Catalog error once the checkout is held; cache
                        // error if the entry was evicted/locked first —
                        // either way it must fail and release the guard.
                        assert!(
                            execute(&bad, &mut ctx).is_err(),
                            "delta scan of a missing table must fail"
                        );
                    }

                    // 3. Error path B: fresh parallel build completes, then
                    //    the probe fails — the built table must be dropped,
                    //    never published or charged to the budget.
                    let bad_probe = join(
                        "no_such_table",
                        Some(build_scan(v, "dim")),
                        None,
                        Some(fp.clone()),
                    );
                    let mut ctx = ExecContext::new(cat, htm)
                        .with_parallelism(WORKERS)
                        .with_pool(pool);
                    assert!(
                        execute(&bad_probe, &mut ctx).is_err(),
                        "probe of a missing table must fail"
                    );
                }
            });
        }
    });

    // Quiesce invariants: accounting audits clean, budget holds, and no
    // entry is stranded half-built or writer-pinned.
    let stats = htm.stats();
    let (audit_bytes, audit_entries) = htm.audit();
    assert_eq!(stats.bytes, audit_bytes, "byte accounting audits clean");
    assert_eq!(
        stats.entries, audit_entries,
        "entry accounting audits clean"
    );
    assert!(
        stats.bytes <= budget,
        "budget holds at quiesce: {} <= {budget}",
        stats.bytes
    );
    assert!(stats.evictions > 0, "the tight budget actually evicted");
    for v in 0..VARIANTS {
        for c in htm.candidates(&fp_of(v)) {
            let co = htm
                .checkout(c.id)
                .expect("surviving entries are checkable-out (no stranded pins)");
            assert!(!co.table().is_empty(), "no half-built table survived");
            drop(co);
        }
    }
}
