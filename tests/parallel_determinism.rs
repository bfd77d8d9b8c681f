//! Morsel-parallel execution must be **bit-identical** to the serial
//! interpreter: same rows, same order, same counters, for every plan shape
//! — scans, fresh joins, aggregates, exact/subsuming/partial reuse and
//! shared plans — at any worker count. Plus a stress test running parallel
//! queries concurrently with cache eviction under a tight GC budget.
//!
//! The `*_build_phase_*` tests use build sides large enough to cross the
//! partitioned-build fan-out threshold
//! ([`hashstash_exec::MIN_PARALLEL_BUILD_ROWS`]), so they pin the *build*
//! phase end to end: parallel-built tables must publish with identical
//! lineage, statistics and footprint, dedup identically, and serve
//! exact/subsuming/partial reuse with byte-identical results.

use std::sync::Arc;

use hashstash::{Database, EngineStrategy};
use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::shared::{execute_shared, SharedGroupSpec, SharedOutput, SharedPlanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, QueryBuilder, Region, ReuseCase,
};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Row, Schema, Value};

fn catalog() -> Catalog {
    generate(TpchConfig::new(0.01, 99))
}

fn scan_all(table: &str) -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec::full(table))
}

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

fn join_publishing(lo: i64, hi: i64, fp: &HtFingerprint) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(scan_all("orders")),
        build: Some(Box::new(PhysicalPlan::Scan(
            ScanSpec::filtered(
                "customer",
                PredBox::all().with(
                    "customer.c_age",
                    Interval::closed(Value::Int(lo), Value::Int(hi)),
                ),
            )
            .project(&["customer.c_custkey", "customer.c_age"]),
        ))),
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: None,
        publish: Some(fp.clone()),
    }
}

/// Execute a reuse-heavy plan sequence — fresh scan, fresh join + publish,
/// exact reuse, subsuming reuse (post-filter), partial reuse (delta), hash
/// aggregate — under one worker count, returning every result verbatim.
fn run_sequence(cat: &Catalog, parallelism: usize) -> Vec<(Schema, Vec<Row>, ExecMetrics)> {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(parallelism - 1);
    let mut results = Vec::new();
    let mut run = |plan: &PhysicalPlan| {
        let mut ctx = ExecContext::new(cat, &htm)
            .with_parallelism(parallelism)
            .with_pool(&pool);
        let (schema, rows) = execute(plan, &mut ctx).expect("plan executes");
        results.push((schema, rows.into_vec(), ctx.metrics));
    };

    // 1. Filtered scan.
    run(&PhysicalPlan::Scan(ScanSpec::filtered(
        "customer",
        PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(50)),
        ),
    )));

    // 2. Fresh join over ages [30, 60], published.
    let fp = customer_fp(30, 60);
    run(&join_publishing(30, 60, &fp));
    let htm_ref = &htm;
    let cand = htm_ref.candidates(&fp).remove(0);

    // 3. Exact reuse.
    run(&PhysicalPlan::HashJoin {
        probe: Box::new(scan_all("orders")),
        build: None,
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Exact,
            post_filter: None,
            request_region: fp.region.clone(),
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        publish: None,
    });

    // 4. Subsuming reuse: ages [40, 50] answered by post-filtering [30, 60].
    let narrow = PredBox::all().with(
        "customer.c_age",
        Interval::closed(Value::Int(40), Value::Int(50)),
    );
    run(&PhysicalPlan::HashJoin {
        probe: Box::new(scan_all("orders")),
        build: None,
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Subsuming,
            post_filter: Some(narrow.clone()),
            request_region: Region::from_box(narrow),
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        publish: None,
    });

    // 5. Partial reuse: widen to [20, 60] with a delta build over [20, 29].
    let request = Region::from_box(PredBox::all().with(
        "customer.c_age",
        Interval::closed(Value::Int(20), Value::Int(60)),
    ));
    let delta = request.difference(&fp.region);
    run(&PhysicalPlan::HashJoin {
        probe: Box::new(scan_all("orders")),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec {
            table: "customer".into(),
            region: delta,
            projection: vec!["customer.c_custkey".into(), "customer.c_age".into()],
        }))),
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Partial,
            post_filter: None,
            request_region: request,
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        publish: None,
    });

    // 6. Hash aggregate with group-by (fresh build + output pass).
    run(&PhysicalPlan::HashAggregate {
        input: Some(Box::new(scan_all("customer"))),
        group_by: vec!["customer.c_age".into()],
        aggs: vec![
            AggExpr::new(AggFunc::Sum, "customer.c_acctbal"),
            AggExpr::new(AggFunc::Count, "customer.c_custkey"),
        ],
        output_aggs: vec![OutputAgg::Direct(0), OutputAgg::Direct(1)],
        reuse: None,
        publish: None,
        post_group_by: None,
    });

    results
}

#[test]
fn parallel_plans_match_serial_row_for_row() {
    let cat = catalog();
    let serial = run_sequence(&cat, 1);
    for workers in [4, 8] {
        let parallel = run_sequence(&cat, workers);
        assert_eq!(parallel.len(), serial.len());
        for (i, ((ss, sr, sm), (ps, pr, pm))) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(ps, ss, "plan {i}, {workers} workers: schema");
            assert_eq!(pr, sr, "plan {i}, {workers} workers: rows (unsorted)");
            assert_eq!(pm, sm, "plan {i}, {workers} workers: metrics");
        }
    }
}

#[test]
fn parallel_shared_plan_matches_serial() {
    let cat = catalog();
    let queries: Vec<_> = (0..3u32)
        .map(|i| {
            QueryBuilder::new(i)
                .join(
                    "customer",
                    "customer.c_custkey",
                    "orders",
                    "orders.o_custkey",
                )
                .filter(
                    "customer.c_age",
                    Interval::closed(
                        Value::Int(20 + i as i64 * 10),
                        Value::Int(50 + i as i64 * 10),
                    ),
                )
                .group_by("customer.c_age")
                .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
                .build()
                .unwrap()
        })
        .collect();
    let join = PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(
            ScanSpec::full("orders").project(&["orders.o_orderkey", "orders.o_custkey"]),
        )),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec {
            table: "customer".into(),
            region: union_region(&queries).project_table("customer"),
            projection: vec!["customer.c_custkey".into(), "customer.c_age".into()],
        }))),
        probe_key: "orders.o_custkey".into(),
        build_key: "customer.c_custkey".into(),
        reuse: None,
        publish: None,
    };
    let spec = shared_spec(queries, join, "customer.c_age", "orders.o_orderkey");
    let run = |parallelism: usize| {
        let htm = HtManager::unbounded();
        let pool = WorkerPool::new(parallelism - 1);
        let mut ctx = ExecContext::new(&cat, &htm)
            .with_parallelism(parallelism)
            .with_pool(&pool);
        let results = execute_shared(&spec, &mut ctx).unwrap();
        (
            results
                .into_iter()
                .map(|r| (r.query, r.rows))
                .collect::<Vec<_>>(),
            ctx.metrics,
        )
    };
    let (serial_rows, serial_metrics) = run(1);
    for workers in [4, 8] {
        let (rows, metrics) = run(workers);
        assert_eq!(rows, serial_rows, "{workers} workers");
        assert_eq!(metrics, serial_metrics, "{workers} workers");
    }
}

// ---------------------------------------------------------------------------
// Build-phase coverage: build sides above MIN_PARALLEL_BUILD_ROWS, so the
// partitioned parallel build actually engages at workers > 1.
// ---------------------------------------------------------------------------

/// Synthetic star schema with a build side (12k dim rows) well above the
/// partitioned-build threshold, a float measure (so aggregate accumulation
/// order is observable bit for bit) and fact fan-out 2.
fn big_catalog() -> Catalog {
    let n = 12_000i64;
    let mut cat = Catalog::new();
    let mut d = TableBuilder::new(
        "dim",
        vec![
            ("d_key", DataType::Int),
            ("d_attr", DataType::Int),
            ("d_val", DataType::Float),
        ],
    );
    for i in 0..n {
        d.push_row(vec![
            Value::Int(i),
            Value::Int(i % 797),
            Value::float((i % 101) as f64 * 0.25 - 7.5),
        ]);
    }
    cat.register(d.finish());
    let mut f = TableBuilder::new("fact", vec![("f_key", DataType::Int)]);
    for i in 0..n * 2 {
        f.push_row(vec![Value::Int((i * 7) % n)]);
    }
    cat.register(f.finish());
    cat
}

fn dim_join_fp(lo: i64, hi: i64) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region: Region::from_box(PredBox::all().with(
            "dim.d_key",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )),
        key_attrs: vec![Arc::from("dim.d_key")],
        payload_attrs: vec![Arc::from("dim.d_key"), Arc::from("dim.d_attr")],
        aggregates: vec![],
    }
}

fn dim_filtered_scan(lo: i64, hi: i64) -> PhysicalPlan {
    PhysicalPlan::Scan(
        ScanSpec::filtered(
            "dim",
            PredBox::all().with(
                "dim.d_key",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            ),
        )
        .project(&["dim.d_key", "dim.d_attr"]),
    )
}

fn dim_join(
    build: Option<PhysicalPlan>,
    reuse: Option<ReuseSpec>,
    fp: Option<HtFingerprint>,
) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(scan_all("fact")),
        build: build.map(Box::new),
        probe_key: "fact.f_key".into(),
        build_key: "dim.d_key".into(),
        reuse,
        publish: fp,
    }
}

/// Everything a worker-count run of the build-heavy sequence observes:
/// per-plan outputs + metrics, the published tables' lineage/statistics,
/// and the cache counters (publishes, dedups, reuses).
struct BuildRun {
    results: Vec<(Schema, Vec<Row>, ExecMetrics)>,
    join_stats: (usize, usize, usize, usize),
    join_region: Region,
    agg_stats: (usize, usize, usize, usize),
    agg_region: Region,
    cache: hashstash_cache::CacheStats,
}

/// Build-bound sequence: fresh parallel-built join publish, an
/// identical-lineage re-publish (dedup), exact / subsuming / partial reuse
/// of the parallel-built table, a fresh parallel-built aggregate publish
/// (float sums), and an exact aggregate reuse.
fn run_build_sequence(cat: &Catalog, parallelism: usize) -> BuildRun {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(parallelism - 1);
    let mut results = Vec::new();
    let mut run = |plan: &PhysicalPlan| {
        let mut ctx = ExecContext::new(cat, &htm)
            .with_parallelism(parallelism)
            .with_pool(&pool);
        let (schema, rows) = execute(plan, &mut ctx).expect("plan executes");
        results.push((schema, rows.into_vec(), ctx.metrics));
    };

    // 1. Fresh join: 8001-row build side (parallel build at workers > 1),
    //    published.
    let fp = dim_join_fp(0, 8000);
    run(&dim_join(
        Some(dim_filtered_scan(0, 8000)),
        None,
        Some(fp.clone()),
    ));
    let cand = htm.candidates(&fp).remove(0);

    // 2. Identical-lineage re-publish: the parallel-built table must dedup
    //    against the cached one exactly like a serially built table.
    run(&dim_join(
        Some(dim_filtered_scan(0, 8000)),
        None,
        Some(fp.clone()),
    ));

    // 3. Exact reuse of the parallel-built table.
    run(&dim_join(
        None,
        Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Exact,
            post_filter: None,
            request_region: fp.region.clone(),
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        None,
    ));

    // 4. Subsuming reuse: post-filter the parallel-built table to d_key
    //    [2000, 6000].
    let narrow = PredBox::all().with(
        "dim.d_key",
        Interval::closed(Value::Int(2000), Value::Int(6000)),
    );
    run(&dim_join(
        None,
        Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Subsuming,
            post_filter: Some(narrow.clone()),
            request_region: Region::from_box(narrow),
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        None,
    ));

    // 5. Partial (mutating) reuse: widen to [0, 10000] — the serial delta
    //    insert extends the parallel-built chain history.
    let request = Region::from_box(PredBox::all().with(
        "dim.d_key",
        Interval::closed(Value::Int(0), Value::Int(10_000)),
    ));
    let delta = request.difference(&fp.region);
    run(&dim_join(
        Some(PhysicalPlan::Scan(ScanSpec {
            table: "dim".into(),
            region: delta,
            projection: vec!["dim.d_key".into(), "dim.d_attr".into()],
        })),
        Some(ReuseSpec {
            id: cand.id,
            case: ReuseCase::Partial,
            post_filter: None,
            request_region: request,
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        }),
        None,
    ));

    // 6. Fresh aggregate: 12k input rows (parallel grouped build), float
    //    sums whose accumulation order is observable, published.
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, "dim.d_val"),
        AggExpr::new(AggFunc::Count, "dim.d_key"),
    ];
    let agg_fp = HtFingerprint {
        kind: HtKind::Aggregate,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region: Region::all(),
        key_attrs: vec![Arc::from("dim.d_attr")],
        payload_attrs: vec![Arc::from("dim.d_attr")],
        aggregates: aggs.clone(),
    };
    let agg_plan = |reuse: Option<ReuseSpec>, publish: Option<HtFingerprint>, input: bool| {
        PhysicalPlan::HashAggregate {
            input: input.then(|| Box::new(scan_all("dim"))),
            group_by: vec!["dim.d_attr".into()],
            aggs: aggs.clone(),
            output_aggs: vec![OutputAgg::Direct(0), OutputAgg::Direct(1)],
            reuse,
            publish,
            post_group_by: None,
        }
    };
    run(&agg_plan(None, Some(agg_fp.clone()), true));
    let agg_cand = htm.candidates(&agg_fp).remove(0);

    // 7. Exact reuse of the parallel-built aggregate.
    run(&agg_plan(
        Some(ReuseSpec {
            id: agg_cand.id,
            case: ReuseCase::Exact,
            post_filter: None,
            request_region: Region::all(),
            cached_region: agg_cand.fingerprint.region.clone(),
            schema: agg_cand.schema.clone(),
        }),
        None,
        false,
    ));

    let jc = htm.candidates(&fp).remove(0);
    let ac = htm.candidates(&agg_fp).remove(0);
    BuildRun {
        results,
        join_stats: (jc.entries, jc.distinct_keys, jc.tuple_width, jc.bytes),
        join_region: jc.fingerprint.region.clone(),
        agg_stats: (ac.entries, ac.distinct_keys, ac.tuple_width, ac.bytes),
        agg_region: ac.fingerprint.region.clone(),
        cache: htm.stats(),
    }
}

/// The build phase end to end: a parallel build must change *nothing*
/// observable — rows, order, metrics, published lineage and statistics,
/// dedup and reuse behavior — relative to the serial interpreter.
#[test]
fn parallel_build_phase_matches_serial_end_to_end() {
    let cat = big_catalog();
    let serial = run_build_sequence(&cat, 1);
    assert!(
        serial.cache.publish_dedups >= 1,
        "the identical-lineage re-publish must dedup"
    );
    for workers in [4, 8] {
        let parallel = run_build_sequence(&cat, workers);
        assert_eq!(parallel.results.len(), serial.results.len());
        for (i, ((ss, sr, sm), (ps, pr, pm))) in
            serial.results.iter().zip(&parallel.results).enumerate()
        {
            assert_eq!(ps, ss, "plan {i}, {workers} workers: schema");
            assert_eq!(pr, sr, "plan {i}, {workers} workers: rows (unsorted)");
            assert_eq!(pm, sm, "plan {i}, {workers} workers: metrics");
        }
        assert_eq!(
            parallel.join_stats, serial.join_stats,
            "{workers} workers: published join table statistics"
        );
        assert_eq!(
            parallel.agg_stats, serial.agg_stats,
            "{workers} workers: published aggregate statistics"
        );
        assert!(
            parallel.join_region.set_eq(&serial.join_region),
            "{workers} workers: join lineage region"
        );
        assert!(
            parallel.agg_region.set_eq(&serial.agg_region),
            "{workers} workers: aggregate lineage region"
        );
        assert_eq!(
            parallel.cache, serial.cache,
            "{workers} workers: cache counters (publishes/dedups/reuses/bytes)"
        );
    }
}

/// Shared plans with a build side above the fan-out threshold: the join
/// table is parallel-built in batch 1, published, then reused read-only by
/// batch 2 — results and metrics must match the serial interpreter at every
/// worker count.
#[test]
fn parallel_shared_build_phase_matches_serial() {
    let cat = big_catalog();
    let mk_query = |id: u32, lo: i64, hi: i64| {
        QueryBuilder::new(id)
            .join("dim", "dim.d_key", "fact", "fact.f_key")
            .filter(
                "dim.d_attr",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )
            .group_by("dim.d_attr")
            .agg(AggExpr::new(AggFunc::Count, "fact.f_key"))
            .build()
            .unwrap()
    };
    let mk_spec = |queries: Vec<hashstash_plan::QuerySpec>,
                   reuse: Option<ReuseSpec>,
                   publish: Option<HtFingerprint>| {
        let build = reuse.is_none().then(|| {
            Box::new(PhysicalPlan::Scan(ScanSpec {
                table: "dim".into(),
                region: union_region(&queries).project_table("dim"),
                projection: vec!["dim.d_key".into(), "dim.d_attr".into()],
            }))
        });
        let join = PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(
                ScanSpec::full("fact").project(&["fact.f_key"]),
            )),
            build,
            probe_key: "fact.f_key".into(),
            build_key: "dim.d_key".into(),
            reuse,
            publish,
        };
        shared_spec(queries, join, "dim.d_attr", "fact.f_key")
    };
    let published_fp = HtFingerprint {
        region: Region::from_box(PredBox::all().with(
            "dim.d_attr",
            Interval::closed(Value::Int(0), Value::Int(750)),
        )),
        ..dim_join_fp(0, 0)
    };
    let run = |parallelism: usize| {
        let htm = HtManager::unbounded();
        let pool = WorkerPool::new(parallelism - 1);
        // Batch 1: wide predicates → >11k-row build, published.
        let spec1 = mk_spec(
            vec![mk_query(1, 0, 500), mk_query(2, 250, 750)],
            None,
            Some(published_fp.clone()),
        );
        let mut ctx = ExecContext::new(&cat, &htm)
            .with_parallelism(parallelism)
            .with_pool(&pool);
        let r1 = execute_shared(&spec1, &mut ctx).unwrap();
        let cand = htm.candidates(&published_fp).remove(0);
        // Batch 2: subsuming, read-only reuse of the parallel-built table.
        let request = Region::from_box(PredBox::all().with(
            "dim.d_attr",
            Interval::closed(Value::Int(100), Value::Int(600)),
        ));
        let spec2 = mk_spec(
            vec![mk_query(10, 100, 400), mk_query(11, 300, 600)],
            Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Subsuming,
                post_filter: None,
                request_region: request,
                cached_region: published_fp.region.clone(),
                schema: cand.schema.clone(),
            }),
            None,
        );
        let r2 = execute_shared(&spec2, &mut ctx).unwrap();
        let out: Vec<_> = r1
            .into_iter()
            .chain(r2)
            .map(|r| (r.query, r.schema, r.rows))
            .collect();
        (
            out,
            ctx.metrics,
            (cand.entries, cand.distinct_keys, cand.bytes),
        )
    };
    let (serial_out, serial_metrics, serial_cand) = run(1);
    for workers in [4, 8] {
        let (out, metrics, cand) = run(workers);
        assert_eq!(out, serial_out, "{workers} workers");
        assert_eq!(metrics, serial_metrics, "{workers} workers");
        assert_eq!(
            cand, serial_cand,
            "{workers} workers: published join table stats"
        );
    }
}

fn union_region(queries: &[hashstash_plan::QuerySpec]) -> Region {
    queries
        .iter()
        .fold(Region::empty(), |acc, q| acc.union(&q.region()))
}

/// A shared plan over `join` with one grouping phase on `group_by` whose
/// every query counts `counted`.
fn shared_spec(
    queries: Vec<hashstash_plan::QuerySpec>,
    join: PhysicalPlan,
    group_by: &str,
    counted: &str,
) -> SharedPlanSpec {
    let outputs = queries
        .iter()
        .map(|q| SharedOutput::Aggregate {
            group_spec: 0,
            aggs: q.aggregates.clone(),
        })
        .collect();
    SharedPlanSpec {
        queries,
        join: Some(join),
        group_specs: vec![SharedGroupSpec {
            group_by: vec![group_by.into()],
            stored_attrs: vec![group_by.into(), counted.into()],
            reuse: None,
            publish: None,
        }],
        outputs,
    }
}

/// Parallel queries racing cache eviction under a tight GC budget: every
/// answer must match the no-reuse reference, and the cache byte accounting
/// must audit clean at quiesce.
#[test]
fn parallel_queries_race_eviction_under_tight_budget() {
    let mk_query = |id: u32, k: i64| {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(20 + k), Value::Int(60 + k)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .build()
            .unwrap()
    };

    // Serial, reuse-free reference answers (COUNT aggregates: exact ints).
    let reference = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .parallelism(1)
        .build();
    let mut ref_session = reference.session();
    let expected: Vec<Vec<Row>> = (0..8)
        .map(|k| {
            let mut rows = ref_session
                .execute(&mk_query(1000 + k, k as i64))
                .unwrap()
                .rows
                .into_vec();
            rows.sort();
            rows
        })
        .collect();

    let budget = 96 * 1024;
    let db = Database::builder(catalog())
        .gc_budget(budget)
        .parallelism(4)
        .build();
    let expected = Arc::new(expected);
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let db = Arc::clone(&db);
            let expected = Arc::clone(&expected);
            s.spawn(move || {
                let mut session = db.session();
                for round in 0..6u32 {
                    let k = ((t + round) % 8) as usize;
                    let q = mk_query(t * 100 + round, k as i64);
                    let mut rows = session
                        .execute(&q)
                        .expect("query survives eviction")
                        .rows
                        .into_vec();
                    rows.sort();
                    assert_eq!(rows, expected[k], "thread {t} round {round}");
                }
            });
        }
    });
    let stats = db.cache_stats();
    assert!(stats.bytes <= budget, "budget holds at quiesce");
    let (audit_bytes, audit_entries) = db.cache().audit();
    assert_eq!(stats.bytes, audit_bytes, "byte accounting audits clean");
    assert_eq!(stats.entries, audit_entries);
}
