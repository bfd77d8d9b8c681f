//! The vectorized columnar executor must be **indistinguishable** from the
//! row-at-a-time interpreter: same rows, same order, same semantic metrics,
//! same published hash tables (layout included), at every worker count.
//!
//! Three legs:
//!
//! 1. A vendored-proptest differential battery sweeping predicate op ×
//!    column type (Int / Float-with-NaN-and-negative-zero / Date /
//!    dictionary Str, plus a two-column conjunction) across the four plan
//!    shapes that have columnar paths — scan, filter, hash-join probe with
//!    publish, hash aggregate with publish — at 1/4/8 workers. Index
//!    access paths are inputs too (the shape of `customer.c_age`): an
//!    indexed column alone, with a residual on another column, a two-box
//!    region, and a cross-type bound that must keep the row arm.
//! 2. A fixed large-table run where the morsel fan-out genuinely engages,
//!    which additionally pins that the vectorized counters move (the
//!    columnar path really ran, index access paths included) and that the
//!    oracle's stay zero.
//! 3. Tight-GC-budget stress: a deterministic publish/reuse/evict sequence
//!    must make byte-for-byte identical eviction decisions in both regimes
//!    (footprints are only comparable if the tables are), plus a threaded
//!    engine-level race against the no-reuse reference, under a tight and
//!    an unbounded budget.
//!
//! The "row-at-a-time interpreter" is the executor's own fallback arm,
//! forced onto every scan through `ExecContext::with_row_oracle` — a hook
//! that exists only under `hashstash-exec`'s dev-only `oracle` feature.

use std::sync::Arc;

use proptest::prelude::*;

use hashstash::{Database, EngineStrategy};
use hashstash_cache::{GcConfig, HtManager, StoredHt};
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, QueryBuilder, Region, ReuseCase,
};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Row, Schema, Value};

/// Float domain with the order-sensitive edge cases: negative zero (must
/// compare equal to positive zero), NaN (total order: largest) and
/// infinities, so the `f64_order_key` lowering is exercised against the
/// boxed total order on every op.
const FLOATS: [f64; 8] = [
    f64::NEG_INFINITY,
    -3.5,
    -0.0,
    0.0,
    0.25,
    2.5,
    f64::INFINITY,
    f64::NAN,
];

/// Dictionary universe of the string column.
const DICT: [&str; 4] = ["alpha", "beta", "delta", "gamma"];

/// The worker counts every comparison runs at.
const WORKERS: [usize; 3] = [1, 4, 8];

// ---------------------------------------------------------------------------
// Catalog construction: `t.a` optionally carries a secondary index, so a
// box constraining it takes the index access path.
// ---------------------------------------------------------------------------

type TRow = (i64, i64, usize, i32, usize);

fn build_catalog(rows: &[TRow], dim_keys: i64, indexed: bool) -> Catalog {
    let mut cat = Catalog::new();
    let mut t = TableBuilder::with_capacity(
        "t",
        vec![
            ("k", DataType::Int),
            ("a", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
        ],
        rows.len(),
    );
    for &(k, a, f_idx, d, s_idx) in rows {
        t.push_row(vec![
            Value::Int(k),
            Value::Int(a),
            Value::float(FLOATS[f_idx % FLOATS.len()]),
            Value::Date(d),
            Value::str(DICT[s_idx % DICT.len()]),
        ]);
    }
    let indexes: &[&str] = if indexed { &["a"] } else { &[] };
    cat.register(t.finish_with_indexes(indexes).expect("index on t.a"));
    let mut dim = TableBuilder::with_capacity(
        "dim",
        vec![("d_key", DataType::Int), ("d_tag", DataType::Str)],
        dim_keys as usize,
    );
    for i in 0..dim_keys {
        dim.push_row(vec![
            Value::Int(i),
            Value::str(DICT[(i % DICT.len() as i64) as usize]),
        ]);
    }
    cat.register(dim.finish());
    cat
}

fn join_fp() -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region: Region::all(),
        key_attrs: vec![Arc::from("dim.d_key")],
        payload_attrs: vec![Arc::from("dim.d_key"), Arc::from("dim.d_tag")],
        aggregates: vec![],
    }
}

fn agg_exprs() -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Sum, "t.f"),
        AggExpr::new(AggFunc::Count, "t.k"),
        AggExpr::new(AggFunc::Min, "t.d"),
    ]
}

/// One generated input: the scan region's boxes (the filter shape uses
/// the first) and whether `t.a` is indexed.
#[derive(Debug, Clone)]
struct Case {
    boxes: Vec<PredBox>,
    indexed: bool,
}

impl Case {
    fn region(&self) -> Region {
        self.boxes.iter().fold(Region::empty(), |r, b| {
            r.union(&Region::from_box(b.clone()))
        })
    }
}

fn agg_fp(region: &Region) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::Aggregate,
        tables: std::iter::once(Arc::from("t")).collect(),
        edges: vec![],
        region: region.clone(),
        key_attrs: vec![Arc::from("t.a"), Arc::from("t.s")],
        payload_attrs: vec![Arc::from("t.a"), Arc::from("t.s")],
        aggregates: agg_exprs(),
    }
}

/// A scan of `t` over `region`.
fn scan_t(region: &Region) -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec {
        table: "t".into(),
        region: region.clone(),
        projection: vec![],
    })
}

/// The four plan shapes with columnar hot paths, parameterized by the
/// generated case.
fn plans(case: &Case) -> Vec<PhysicalPlan> {
    let region = case.region();
    vec![
        // 1. Filtered scan: selection-vector build per region box.
        scan_t(&region),
        // 2. Filter over a full scan: in-place selection refinement.
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan(ScanSpec::full("t"))),
            predicate: case.boxes[0].clone(),
        },
        // 3. Hash join: vectorized probe-key extraction over the filtered
        //    probe side, published build table.
        PhysicalPlan::HashJoin {
            probe: Box::new(scan_t(&region)),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::full("dim").project(&["dim.d_key", "dim.d_tag"]),
            ))),
            probe_key: "t.k".into(),
            build_key: "dim.d_key".into(),
            reuse: None,
            publish: Some(join_fp()),
        },
        // 4. Hash aggregate: vectorized multi-column group keys + folds,
        //    published accumulator table.
        PhysicalPlan::HashAggregate {
            input: Some(Box::new(scan_t(&region))),
            group_by: vec!["t.a".into(), "t.s".into()],
            aggs: agg_exprs(),
            output_aggs: vec![
                OutputAgg::Direct(0),
                OutputAgg::Direct(1),
                OutputAgg::Direct(2),
            ],
            reuse: None,
            publish: Some(agg_fp(&region)),
            post_group_by: None,
        },
    ]
}

/// Everything one (regime, worker-count) run observes, including the
/// published tables in **storage layout order** — `ExtendibleHashTable::
/// iter` walks the arena, so comparing the pair sequence compares the
/// physical layout, not just the logical content.
#[derive(Debug, PartialEq)]
struct RunOutput {
    plans: Vec<(Schema, Vec<Row>, ExecMetrics)>,
    // Rendered pair sequences: raw-f64 accumulators make the derived
    // `PartialEq` useless under NaN (NaN != NaN), while the Debug rendering
    // is stable, NaN-tolerant and still distinguishes -0.0 from 0.0.
    join_table: String,
    join_stats: (usize, usize, usize, usize),
    agg_table: String,
    agg_stats: (usize, usize, usize, usize),
}

/// A context at `parallelism` on `pool`, on the columnar arm or forced
/// onto the row oracle.
fn context<'a>(
    cat: &'a Catalog,
    htm: &'a HtManager,
    pool: &'a WorkerPool,
    vectorize: bool,
    parallelism: usize,
) -> ExecContext<'a> {
    let ctx = ExecContext::new(cat, htm)
        .with_parallelism(parallelism)
        .with_pool(pool);
    if vectorize {
        ctx
    } else {
        ctx.with_row_oracle()
    }
}

fn run_all(cat: &Catalog, case: &Case, vectorize: bool, parallelism: usize) -> RunOutput {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(parallelism - 1);
    let mut out = Vec::new();
    for plan in plans(case) {
        let mut ctx = context(cat, &htm, &pool, vectorize, parallelism);
        let (schema, rows) = execute(&plan, &mut ctx).expect("plan executes");
        out.push((schema, rows.into_vec(), ctx.metrics));
    }
    let jc = htm.candidates(&join_fp()).remove(0);
    let join_co = htm.checkout(jc.id).unwrap();
    let join_table = match join_co.table() {
        StoredHt::Rows(ht) => {
            let pairs: Vec<(u64, Row)> = ht.iter().map(|(k, v)| (k, v.clone())).collect();
            format!("{pairs:?}")
        }
        other => panic!("join fingerprint stored {other:?}"),
    };
    let ac = htm.candidates(&agg_fp(&case.region())).remove(0);
    let agg_co = htm.checkout(ac.id).unwrap();
    let agg_table = match agg_co.table() {
        StoredHt::Agg(ht) => {
            let groups: Vec<_> = ht.iter().collect();
            format!("{groups:?}")
        }
        other => panic!("aggregate fingerprint stored {other:?}"),
    };
    RunOutput {
        plans: out,
        join_table,
        join_stats: (jc.entries, jc.distinct_keys, jc.tuple_width, jc.bytes),
        agg_table,
        agg_stats: (ac.entries, ac.distinct_keys, ac.tuple_width, ac.bytes),
    }
}

/// The full differential matrix against the serial row oracle: semantic
/// equality across regimes, full-metric equality across worker counts
/// within each regime, and published-table layout identity everywhere.
fn assert_equivalent(cat: &Catalog, case: &Case) {
    let oracle = run_all(cat, case, false, 1);
    for vectorize in [false, true] {
        for workers in WORKERS {
            let run = run_all(cat, case, vectorize, workers);
            let label = format!("vectorize={vectorize} workers={workers}");
            assert_eq!(run.plans.len(), oracle.plans.len());
            for (i, ((s, r, m), (os, or, om))) in run.plans.iter().zip(&oracle.plans).enumerate() {
                assert_eq!(s, os, "{label} plan {i}: schema");
                assert_eq!(r, or, "{label} plan {i}: rows (order included)");
                assert_eq!(
                    m.semantic(),
                    om.semantic(),
                    "{label} plan {i}: semantic metrics"
                );
            }
            assert_eq!(run.join_table, oracle.join_table, "{label}: join layout");
            assert_eq!(run.join_stats, oracle.join_stats, "{label}: join stats");
            assert_eq!(run.agg_table, oracle.agg_table, "{label}: agg layout");
            assert_eq!(run.agg_stats, oracle.agg_stats, "{label}: agg stats");
        }
        // Within one regime the *full* metrics (vectorized counters
        // included) must be worker-invariant.
        let serial = run_all(cat, case, vectorize, 1);
        for workers in &WORKERS[1..] {
            let run = run_all(cat, case, vectorize, *workers);
            for (i, ((_, _, m), (_, _, sm))) in run.plans.iter().zip(&serial.plans).enumerate() {
                assert_eq!(
                    m, sm,
                    "vectorize={vectorize} workers={workers} plan {i}: full metrics"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Leg 1: the proptest battery.
// ---------------------------------------------------------------------------

fn interval<S>(v: fn() -> S) -> impl Strategy<Value = Interval> + 'static
where
    S: Strategy<Value = Value> + 'static,
{
    prop_oneof![
        v().prop_map(Interval::eq),
        v().prop_map(Interval::at_least),
        v().prop_map(Interval::greater_than),
        v().prop_map(Interval::at_most),
        v().prop_map(Interval::less_than),
        (v(), v()).prop_map(|(a, b)| Interval::closed(a, b)),
        (v(), v()).prop_map(|(a, b)| Interval::half_open(a, b)),
    ]
}

fn int_val() -> impl Strategy<Value = Value> + 'static {
    (-25i64..25).prop_map(Value::Int)
}

fn float_val() -> impl Strategy<Value = Value> + 'static {
    (0usize..FLOATS.len()).prop_map(|i| Value::float(FLOATS[i]))
}

fn date_val() -> impl Strategy<Value = Value> + 'static {
    (0i32..35).prop_map(Value::Date)
}

fn str_val() -> impl Strategy<Value = Value> + 'static {
    // Dictionary members plus out-of-dictionary bounds on both sides.
    const BOUNDS: [&str; 6] = ["alpha", "beta", "delta", "gamma", "aa", "zz"];
    (0usize..BOUNDS.len()).prop_map(|i| Value::str(BOUNDS[i]))
}

/// One predicate per column type, plus a two-column conjunction (first
/// check scans, second refines).
fn pred_box() -> impl Strategy<Value = PredBox> {
    prop_oneof![
        interval(int_val).prop_map(|iv| PredBox::all().with("t.a", iv)),
        interval(float_val).prop_map(|iv| PredBox::all().with("t.f", iv)),
        interval(date_val).prop_map(|iv| PredBox::all().with("t.d", iv)),
        interval(str_val).prop_map(|iv| PredBox::all().with("t.s", iv)),
        (interval(int_val), interval(str_val))
            .prop_map(|(a, s)| PredBox::all().with("t.a", a).with("t.s", s)),
    ]
}

/// The column-scan cases on an unindexed `t`, and the index access path
/// on an indexed one: `t.a` alone, with a residual on another column, as
/// two boxes, and with a cross-type (float) bound, which no kernel
/// evaluates — that scan must keep the row arm.
fn case() -> impl Strategy<Value = Case> {
    let indexed = prop_oneof![
        interval(int_val).prop_map(|a| vec![PredBox::all().with("t.a", a)]),
        (interval(int_val), interval(float_val))
            .prop_map(|(a, f)| vec![PredBox::all().with("t.a", a).with("t.f", f)]),
        (interval(int_val), interval(int_val), interval(str_val)).prop_map(|(a, b, s)| {
            vec![
                PredBox::all().with("t.a", a),
                PredBox::all().with("t.a", b).with("t.s", s),
            ]
        }),
        interval(float_val).prop_map(|f| vec![PredBox::all().with("t.a", f)]),
    ];
    prop_oneof![
        pred_box().prop_map(|b| Case {
            boxes: vec![b],
            indexed: false,
        }),
        indexed.prop_map(|boxes| Case {
            boxes,
            indexed: true,
        }),
    ]
}

fn t_rows() -> impl Strategy<Value = Vec<TRow>> {
    proptest::collection::vec(
        (
            0i64..16,
            -20i64..20,
            0usize..FLOATS.len(),
            0i32..30,
            0usize..DICT.len(),
        ),
        40..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every predicate op × column type, and the index access path, on
    // random data, through all four columnar plan shapes, at 1/4/8
    // workers, vectorized vs oracle.
    #[test]
    fn vectorized_matches_row_oracle(rows in t_rows(), case in case()) {
        let cat = build_catalog(&rows, 16, case.indexed);
        assert_equivalent(&cat, &case);
    }
}

// ---------------------------------------------------------------------------
// Leg 2: large fixed run — the morsel fan-out genuinely engages, and the
// vectorized counters prove which path ran.
// ---------------------------------------------------------------------------

/// Deterministic splitmix-style generator (no external RNG dependency).
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn big_catalog() -> Catalog {
    big_catalog_indexed(false)
}

fn big_catalog_indexed(indexed: bool) -> Catalog {
    let mut seed = 0x5eed_cafe_f00du64;
    let rows: Vec<TRow> = (0..24_576)
        .map(|_| {
            let r = mix(&mut seed);
            (
                (r % 4096) as i64,
                ((r >> 12) % 40) as i64 - 20,
                (r >> 18) as usize % FLOATS.len(),
                ((r >> 21) % 30) as i32,
                (r >> 26) as usize % DICT.len(),
            )
        })
        .collect();
    build_catalog(&rows, 4096, indexed)
}

#[test]
fn vectorized_matches_row_oracle_at_scale() {
    let pred = PredBox::all()
        .with("t.a", Interval::closed(Value::Int(-10), Value::Int(12)))
        .with("t.s", Interval::eq(Value::str("beta")));
    // Unindexed, the scans select over every row; indexed, over the hits
    // of `t.a`'s index, with `t.s` as the residual.
    for indexed in [false, true] {
        let cat = big_catalog_indexed(indexed);
        let case = Case {
            boxes: vec![pred.clone()],
            indexed,
        };
        assert_equivalent(&cat, &case);

        // The counters prove which interpreter ran: the columnar path
        // batches and filters, the oracle never touches either counter.
        let vectorized = run_all(&cat, &case, true, 4);
        let oracle = run_all(&cat, &case, false, 4);
        for (i, (_, _, m)) in vectorized.plans.iter().enumerate() {
            assert!(m.batches_processed > 0, "plan {i}: columnar path engaged");
            assert!(m.rows_filtered_vectorized > 0, "plan {i}: kernel filtering");
        }
        for (i, (_, _, m)) in oracle.plans.iter().enumerate() {
            assert_eq!(m.batches_processed, 0, "plan {i}: oracle stays row-wise");
            assert_eq!(m.rows_filtered_vectorized, 0, "plan {i}");
        }
        // The filter shape scans the whole table; the others read the
        // index exactly when there is one.
        for i in [0, 2, 3] {
            let (_, _, m) = &vectorized.plans[i];
            assert_eq!(m.index_rows > 0, indexed, "plan {i}: index access path");
        }
    }
}

/// A cross-type bound on the indexed column lowers to no kernel: the scan
/// keeps the row arm (and its index access path) on the vectorized
/// executor too, and still answers like the oracle.
#[test]
fn cross_type_bound_on_an_indexed_column_falls_back() {
    let cat = big_catalog_indexed(true);
    let case = Case {
        boxes: vec![PredBox::all().with("t.a", Interval::at_most(Value::float(2.5)))],
        indexed: true,
    };
    assert_equivalent(&cat, &case);
    let (_, rows, m) = &run_all(&cat, &case, true, 4).plans[0];
    assert!(
        !rows.is_empty() && m.index_rows > 0,
        "index access path taken"
    );
    assert_eq!(m.batches_processed, 0, "scan stayed on the row arm");
}

// ---------------------------------------------------------------------------
// Leg 3: tight-GC-budget stress.
// ---------------------------------------------------------------------------

/// Deterministic publish/reuse sequence under a budget that forces
/// evictions. Because vectorized tables are byte-identical to the oracle's,
/// every eviction decision, reuse hit and cache counter must line up too —
/// any footprint drift would desynchronize the decision log.
#[test]
fn tight_gc_budget_sequence_is_regime_invariant() {
    let cat = big_catalog();
    let fp_for = |lo: i64, hi: i64| HtFingerprint {
        region: Region::from_box(PredBox::all().with(
            "dim.d_key",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )),
        ..join_fp()
    };
    let build_scan = |lo: i64, hi: i64| {
        PhysicalPlan::Scan(
            ScanSpec::filtered(
                "dim",
                PredBox::all().with(
                    "dim.d_key",
                    Interval::closed(Value::Int(lo), Value::Int(hi)),
                ),
            )
            .project(&["dim.d_key", "dim.d_tag"]),
        )
    };
    let run = |vectorize: bool, parallelism: usize| {
        let htm = HtManager::new(GcConfig {
            budget_bytes: Some(96 * 1024),
            ..GcConfig::default()
        });
        let pool = WorkerPool::new(parallelism - 1);
        let mut decisions = Vec::new();
        let mut results = Vec::new();
        // Visit each range twice back to back: the immediate revisit is
        // served from cache while the march across ranges forces the GC to
        // evict older tables under the tight budget.
        for i in 0..5i64 {
            for round in [0, 1] {
                let (lo, hi) = (i * 300, 1000 + i * 400);
                let fp = fp_for(lo, hi);
                // Candidates are structural matches; emulate the matcher's
                // exact case by requiring region equality.
                let cand = htm
                    .candidates(&fp)
                    .into_iter()
                    .find(|c| c.fingerprint.region.set_eq(&fp.region));
                decisions.push((round, i, cand.is_some()));
                let plan = match cand {
                    Some(c) => PhysicalPlan::HashJoin {
                        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("t"))),
                        build: None,
                        probe_key: "t.k".into(),
                        build_key: "dim.d_key".into(),
                        reuse: Some(ReuseSpec {
                            id: c.id,
                            case: ReuseCase::Exact,
                            post_filter: None,
                            request_region: fp.region.clone(),
                            cached_region: fp.region.clone(),
                            schema: c.schema.clone(),
                        }),
                        publish: None,
                    },
                    None => PhysicalPlan::HashJoin {
                        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("t"))),
                        build: Some(Box::new(build_scan(lo, hi))),
                        probe_key: "t.k".into(),
                        build_key: "dim.d_key".into(),
                        reuse: None,
                        publish: Some(fp.clone()),
                    },
                };
                let mut ctx = context(&cat, &htm, &pool, vectorize, parallelism);
                let (schema, rows) = execute(&plan, &mut ctx).expect("survives eviction");
                results.push((schema, rows, ctx.metrics.semantic()));
            }
        }
        (decisions, results, htm.stats())
    };
    let (decisions, results, stats) = run(false, 1);
    assert!(
        stats.evictions > 0,
        "budget is tight enough to evict: {stats:?}"
    );
    assert!(
        decisions.iter().any(|&(_, _, hit)| hit),
        "some ranges are re-served from cache"
    );
    for vectorize in [false, true] {
        for workers in WORKERS {
            let (d, r, s) = run(vectorize, workers);
            let label = format!("vectorize={vectorize} workers={workers}");
            assert_eq!(d, decisions, "{label}: reuse/rebuild decision log");
            assert_eq!(r, results, "{label}: results + semantic metrics");
            assert_eq!(s, stats, "{label}: cache counters and footprint");
        }
    }
}

/// Engine-level race: parallel sessions under a tight budget (tables are
/// evicted out from under running queries) and under an unbounded one must
/// both match the serial no-reuse reference.
#[test]
fn vectorized_engine_races_eviction_correctly() {
    let mk_query = |id: u32, k: i64| {
        QueryBuilder::new(id)
            .join("dim", "dim.d_key", "t", "t.k")
            .filter(
                "dim.d_key",
                Interval::closed(Value::Int(200 * k), Value::Int(1500 + 200 * k)),
            )
            .group_by("dim.d_tag")
            .agg(AggExpr::new(AggFunc::Count, "t.k"))
            .build()
            .unwrap()
    };
    let reference = Database::builder(big_catalog())
        .strategy(EngineStrategy::NoReuse)
        .parallelism(1)
        .build();
    let mut ref_session = reference.session();
    let expected: Vec<Vec<Row>> = (0..6)
        .map(|k| {
            let mut rows = ref_session
                .execute(&mk_query(900 + k, k as i64))
                .unwrap()
                .rows
                .into_vec();
            rows.sort();
            rows
        })
        .collect();
    let expected = Arc::new(expected);
    for budget in [Some(128 * 1024), None] {
        let db = Database::builder(big_catalog())
            .gc_budget(budget)
            .parallelism(4)
            .build();
        std::thread::scope(|s| {
            for t in 0..3u32 {
                let db = Arc::clone(&db);
                let expected = Arc::clone(&expected);
                s.spawn(move || {
                    let mut session = db.session();
                    for round in 0..4u32 {
                        let k = ((t + round) % 6) as usize;
                        let q = mk_query(t * 100 + round, k as i64);
                        let mut rows = session
                            .execute(&q)
                            .expect("query survives eviction")
                            .rows
                            .into_vec();
                        rows.sort();
                        assert_eq!(rows, expected[k], "budget={budget:?} t={t} r={round}");
                    }
                });
            }
        });
        let (audit_bytes, audit_entries) = db.cache().audit();
        let stats = db.cache_stats();
        assert_eq!(stats.bytes, audit_bytes, "budget={budget:?}: audit");
        assert_eq!(stats.entries, audit_entries);
    }
}
