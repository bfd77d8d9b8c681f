//! Join chains: a hash join whose probe side is itself a join probes that
//! join's output in place, through its position columns, and builds no row
//! for it. The reference evaluator (`hashstash-reference`: `BTreeMap`
//! joins and group-bys over the catalog's rows, outside the engine) says
//! what every chain must answer.
//!
//! Two legs:
//!
//! 1. A drawn battery. Chains of 2–4 joins over a synthetic star: a base
//!    table `f` and dimensions `d1..d4`. The base scan's bound on `f.a` is
//!    an `Int` range, or crosses types (a `Float` upper bound, which every
//!    `Int` is below). Each join's table is fresh (published or not), or
//!    reused exactly, subsuming with a post-filter, or partially with a
//!    delta build. An outer probe reads its key from the base or from the
//!    previous table, and an inner join may sit under a reordering
//!    projection. The chain feeds an aggregate fold, a build side, a union
//!    or the reply. The rows must be the reference's answer (a multiset,
//!    sums within its tolerance); at 4 workers rows (bit for bit, through a
//!    digest), metrics and the whole cache afterwards must equal the serial
//!    run's.
//! 2. The paper's traces under a tight budget, at 1 and 4 workers: every
//!    answer is the reference's, and after every query the cache (ids,
//!    lineage, footprints, use counts, LRU order, tables) and its
//!    statistics are the same at both widths.
//!
//! Test names that say `row_oracle` keep the names these batteries had when
//! the executor's own row path was their oracle; the reference evaluator
//! has replaced it.

use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use hashstash_cache::{CacheStats, GcConfig, HtManager, StoredHt};
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{
    execute, min_parallel_morsels, ExecContext, ExecMetrics, WorkerPool, MORSEL_ROWS,
};
use hashstash_hashtable::CostGrid;
use hashstash_opt::{CostModel, CostParams, DbStats, EngineStrategy, Optimizer};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase,
};
use hashstash_reference::{evaluate, Answer, Relation};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Row, Schema, StableHasher, Value};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

/// Dimension tables, one per join of the longest chain.
const DIMS: usize = 4;

/// Columns of every dimension table `dN`: the join key (30 of its 90
/// values twice), a link into the next dimension's keys, the filtered
/// attribute, a string and a date.
const DIM_COLS: [&str; 5] = ["k", "fk", "v", "s", "dt"];

/// Columns of the base table `f`: one foreign key per dimension, then an
/// int, a float and a string.
const BASE_COLS: [&str; 7] = ["k1", "k2", "k3", "k4", "a", "x", "s"];

const WORDS: [&str; 5] = ["ash", "birch", "cedar", "fir", "oak"];

/// The worker counts every case runs at.
const WORKERS: [usize; 2] = [1, 4];

/// The star every drawn chain joins. The base table is large enough that
/// a four-way probe over it fans out.
fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut cat = Catalog::new();
        let n = MORSEL_ROWS * (min_parallel_morsels() + 1) + 17;
        let mut f = TableBuilder::with_capacity(
            "f",
            vec![
                ("k1", DataType::Int),
                ("k2", DataType::Int),
                ("k3", DataType::Int),
                ("k4", DataType::Int),
                ("a", DataType::Int),
                ("x", DataType::Float),
                ("s", DataType::Str),
            ],
            n,
        );
        for i in 0..n as i64 {
            f.push_row(vec![
                Value::Int(i * 7 % 97),
                Value::Int(i * 11 % 97),
                Value::Int(i * 13 % 97),
                Value::Int(i * 17 % 97),
                Value::Int(i % 10),
                Value::float((i % 31) as f64 * 0.25 - 2.0),
                Value::str(WORDS[(i % 5) as usize]),
            ]);
        }
        cat.register(f.finish());
        for d in 1..=DIMS as i64 {
            let mut t = TableBuilder::with_capacity(
                format!("d{d}"),
                vec![
                    ("k", DataType::Int),
                    ("fk", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                    ("dt", DataType::Date),
                ],
                120,
            );
            for i in 0..120i64 {
                t.push_row(vec![
                    Value::Int((i * 37 + d * 5) % 90),
                    Value::Int((i * 29 + d) % 97),
                    Value::Int((i * 7 + d) % 20),
                    Value::str(WORDS[((i + d) % 5) as usize]),
                    Value::Date((i % 13) as i32),
                ]);
            }
            cat.register(t.finish());
        }
        let mut g = TableBuilder::with_capacity("g", vec![("k", DataType::Int)], 200);
        for i in 0..200i64 {
            g.push_row(vec![Value::Int(i % 97)]);
        }
        cat.register(g.finish());
        cat
    })
}

fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(WORKERS[1] - 1))
}

fn names(attrs: &[String]) -> Vec<Arc<str>> {
    attrs.iter().map(|a| Arc::from(a.as_str())).collect()
}

fn dim_attrs(d: usize) -> Vec<String> {
    DIM_COLS.iter().map(|c| format!("d{d}.{c}")).collect()
}

/// `dN.v` in `[lo, hi]`.
fn v_region(d: usize, (lo, hi): (i64, i64)) -> Region {
    Region::from_box(PredBox::all().with(
        format!("d{d}.v"),
        Interval::closed(Value::Int(lo), Value::Int(hi)),
    ))
}

fn dim_fp(d: usize, region: &Region) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from(format!("d{d}").as_str())).collect(),
        edges: vec![],
        region: region.clone(),
        key_attrs: vec![Arc::from(format!("d{d}.k").as_str())],
        payload_attrs: names(&dim_attrs(d)),
        aggregates: vec![],
    }
}

fn dim_scan(d: usize, region: Region) -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec {
        table: format!("d{d}").into(),
        region,
        projection: names(&dim_attrs(d)),
    })
}

fn scan_g() -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec::full("g"))
}

/// How one join of the chain gets its table.
#[derive(Debug, Clone, Copy)]
enum TableCase {
    Fresh { publish: bool },
    Exact,
    Subsuming,
    Partial,
}

#[derive(Debug, Clone)]
struct JoinCase {
    table: TableCase,
    /// Probe on the previous table's link column instead of the base's key.
    key_from_prev: bool,
    /// Put this (inner) join under a reordering projection.
    project: bool,
    /// Shifts the request and cached ranges on `dN.v`.
    offset: i64,
}

impl JoinCase {
    fn request(&self) -> (i64, i64) {
        (self.offset + 2, self.offset + 12)
    }

    /// The cached table's range, for a reused table.
    fn cached(&self) -> Option<(i64, i64)> {
        let o = self.offset;
        match self.table {
            TableCase::Fresh { .. } => None,
            TableCase::Exact => Some(self.request()),
            TableCase::Subsuming => Some((o, o + 16)),
            TableCase::Partial => Some((o + 4, o + 9)),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Consumer {
    Reply,
    Aggregate,
    BuildSide,
    Union,
}

#[derive(Debug, Clone)]
struct Case {
    joins: Vec<JoinCase>,
    /// Bound the base scan across types.
    cross_type: bool,
    consumer: Consumer,
}

fn case() -> impl Strategy<Value = Case> {
    let table = prop_oneof![
        Just(TableCase::Fresh { publish: false }),
        Just(TableCase::Fresh { publish: true }),
        Just(TableCase::Exact),
        Just(TableCase::Subsuming),
        Just(TableCase::Partial),
    ];
    let join = (table, any::<bool>(), any::<bool>(), 0i64..5).prop_map(
        |(table, key_from_prev, project, offset)| JoinCase {
            table,
            key_from_prev,
            project,
            offset,
        },
    );
    let consumer = prop_oneof![
        Just(Consumer::Reply),
        Just(Consumer::Aggregate),
        Just(Consumer::BuildSide),
        Just(Consumer::Union),
    ];
    (
        proptest::collection::vec(join, 2..DIMS + 1),
        any::<bool>(),
        consumer,
    )
        .prop_map(|(joins, cross_type, consumer)| Case {
            joins,
            cross_type,
            consumer,
        })
}

/// The plans that publish the tables `case` reuses, one per reused join.
fn warm_plans(case: &Case) -> Vec<PhysicalPlan> {
    let mut plans = Vec::new();
    for (j, join) in case.joins.iter().enumerate() {
        let d = j + 1;
        if let Some(cached) = join.cached() {
            let region = v_region(d, cached);
            plans.push(PhysicalPlan::HashJoin {
                probe: Box::new(scan_g()),
                build: Some(Box::new(dim_scan(d, region.clone()))),
                probe_key: "g.k".into(),
                build_key: format!("d{d}.k").into(),
                reuse: None,
                publish: Some(dim_fp(d, &region)),
            });
        }
    }
    plans
}

/// The chain `case` draws, and its output attributes. A `twin` builds every
/// table fresh and publishes nothing (the second input of a union).
fn chain(case: &Case, htm: &HtManager, twin: bool) -> (PhysicalPlan, Vec<String>) {
    let a = base_bound(case);
    let mut attrs: Vec<String> = BASE_COLS.iter().map(|c| format!("f.{c}")).collect();
    let mut plan = PhysicalPlan::Scan(ScanSpec {
        table: "f".into(),
        region: Region::from_box(PredBox::all().with("f.a", a)),
        projection: names(&attrs),
    });
    let n = case.joins.len();
    for (j, join) in case.joins.iter().enumerate() {
        let d = j + 1;
        let request = v_region(d, join.request());
        let probe_key = if j > 0 && join.key_from_prev {
            format!("d{j}.fk")
        } else {
            format!("f.k{d}")
        };
        let table = if twin {
            TableCase::Fresh { publish: false }
        } else {
            join.table
        };
        let reuse = |case: ReuseCase, post_filter: Option<PredBox>| {
            let cached = v_region(d, join.cached().expect("reused table"));
            let cand = htm.candidates(&dim_fp(d, &cached)).remove(0);
            Some(ReuseSpec {
                id: cand.id,
                case,
                post_filter,
                request_region: request.clone(),
                cached_region: cand.fingerprint.region.clone(),
                schema: cand.schema.clone(),
            })
        };
        let (build, reuse, publish) = match table {
            TableCase::Fresh { publish } => (
                Some(dim_scan(d, request.clone())),
                None,
                publish.then(|| dim_fp(d, &request)),
            ),
            TableCase::Exact => (None, reuse(ReuseCase::Exact, None), None),
            TableCase::Subsuming => (
                None,
                reuse(ReuseCase::Subsuming, Some(request.boxes()[0].clone())),
                None,
            ),
            TableCase::Partial => {
                let cached = v_region(d, join.cached().expect("partial reuse"));
                let delta = request.difference(&cached);
                (
                    Some(dim_scan(d, delta)),
                    reuse(ReuseCase::Partial, None),
                    None,
                )
            }
        };
        plan = PhysicalPlan::HashJoin {
            probe: Box::new(plan),
            build: build.map(Box::new),
            probe_key: probe_key.into(),
            build_key: format!("d{d}.k").into(),
            reuse,
            publish,
        };
        attrs.extend(dim_attrs(d));
        if join.project && j + 1 < n {
            // This table's columns first, without its date.
            let own = format!("d{d}.");
            let mut kept: Vec<String> = dim_attrs(d)
                .into_iter()
                .filter(|a| !a.ends_with(".dt"))
                .collect();
            kept.extend(attrs.iter().filter(|a| !a.starts_with(&own)).cloned());
            attrs = kept;
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                attrs: names(&attrs),
            };
        }
    }
    (plan, attrs)
}

/// The base scan's bound on `f.a`.
fn base_bound(case: &Case) -> Interval {
    if case.cross_type {
        // An `Int` column under a `Float` bound: every int is below every
        // float, so this keeps `a >= 1`.
        Interval::closed(Value::Int(1), Value::float(0.0))
    } else {
        Interval::closed(Value::Int(1), Value::Int(9))
    }
}

/// What the reference answers for `case`'s plan: the star's tables
/// filtered as the chain asks (base on `f.a`, each dimension on its
/// request range), joined along its keys, under its consumer.
fn reference(case: &Case) -> Answer {
    let cat = catalog();
    let base = Region::from_box(PredBox::all().with("f.a", base_bound(case)));
    let mut chain = Relation::scan(cat, "f", &base).unwrap();
    let n = case.joins.len();
    for (j, join) in case.joins.iter().enumerate() {
        let d = j + 1;
        let dim = Relation::scan(cat, &format!("d{d}"), &v_region(d, join.request())).unwrap();
        let probe_key = if j > 0 && join.key_from_prev {
            format!("d{j}.fk")
        } else {
            format!("f.k{d}")
        };
        chain = chain.join(&probe_key, &dim, &format!("d{d}.k")).unwrap();
        if join.project && j + 1 < n {
            // The projected inner join drops its table's date.
            let kept: Vec<&str> = chain
                .schema
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .filter(|a| *a != format!("d{d}.dt"))
                .collect();
            chain = chain.project(&kept).unwrap();
        }
    }
    match case.consumer {
        Consumer::Reply => chain.answer(),
        Consumer::Union => chain.answer().repeated(2),
        Consumer::Aggregate => chain
            .aggregate(
                &["f.a".to_string(), format!("d{n}.s")],
                &[
                    AggExpr::new(AggFunc::Sum, "f.x"),
                    AggExpr::new(AggFunc::Count, "d1.k"),
                    AggExpr::new(AggFunc::Max, format!("d{n}.v").as_str()),
                ],
            )
            .unwrap(),
        Consumer::BuildSide => Relation::scan(cat, "g", &Region::all())
            .unwrap()
            .join("g.k", &chain, "f.k1")
            .unwrap()
            .answer(),
    }
}

/// The plan `case` runs: its chain under its consumer.
fn main_plan(case: &Case, htm: &HtManager) -> PhysicalPlan {
    let (plan, attrs) = chain(case, htm, false);
    let n = case.joins.len();
    let tables = || {
        std::iter::once(Arc::from("f"))
            .chain((1..=n).map(|d| Arc::from(format!("d{d}").as_str())))
            .collect()
    };
    match case.consumer {
        Consumer::Reply => plan,
        Consumer::Aggregate => {
            let group_by = names(&["f.a".into(), format!("d{n}.s")]);
            let aggs = vec![
                AggExpr::new(AggFunc::Sum, "f.x"),
                AggExpr::new(AggFunc::Count, "d1.k"),
                AggExpr::new(AggFunc::Max, format!("d{n}.v").as_str()),
            ];
            PhysicalPlan::HashAggregate {
                input: Some(Box::new(plan)),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                output_aggs: (0..aggs.len()).map(OutputAgg::Direct).collect(),
                reuse: None,
                publish: Some(HtFingerprint {
                    kind: HtKind::Aggregate,
                    tables: tables(),
                    edges: vec![],
                    region: Region::all(),
                    key_attrs: group_by.clone(),
                    payload_attrs: group_by,
                    aggregates: aggs,
                }),
                post_group_by: None,
            }
        }
        Consumer::BuildSide => PhysicalPlan::HashJoin {
            probe: Box::new(scan_g()),
            build: Some(Box::new(plan)),
            probe_key: "g.k".into(),
            build_key: "f.k1".into(),
            reuse: None,
            publish: Some(HtFingerprint {
                kind: HtKind::JoinBuild,
                tables: tables(),
                edges: vec![],
                region: Region::all(),
                key_attrs: vec![Arc::from("f.k1")],
                payload_attrs: names(&attrs),
                aggregates: vec![],
            }),
        },
        Consumer::Union => PhysicalPlan::Union {
            inputs: vec![plan, chain(case, htm, true).0],
        },
    }
}

/// Feed `row` to `h` bit for bit: a float feeds its bits, so `-0.0` and
/// `0.0` (equal as values) differ here, and so do NaN payloads.
fn hash_row(h: &mut StableHasher, row: &Row) {
    h.write_usize(row.values().len());
    for v in row.values() {
        match v {
            Value::Int(i) => {
                h.write_u8(0);
                h.write_i64(*i);
            }
            Value::Float(f) => {
                h.write_u8(1);
                h.write_u64(f.0.to_bits());
            }
            Value::Str(s) => {
                h.write_u8(2);
                h.write_usize(s.len());
                h.write(s.as_bytes());
            }
            Value::Date(d) => {
                h.write_u8(3);
                h.write_i32(*d);
            }
        }
    }
}

/// Rows, in order, as a bit-exact digest.
fn digest(rows: &[Row]) -> u64 {
    let mut h = StableHasher::new();
    for row in rows {
        hash_row(&mut h, row);
    }
    h.finish()
}

/// Every cached entry in LRU order, with its id, lineage, schema,
/// footprint, use count and table (its `(key, row)` arena digested bit for
/// bit, or an aggregate's groups and accumulators rendered): equal images
/// mean the two caches saw the same publishes, check-outs and evictions in
/// the same order, and hold equal tables.
fn cache_image(htm: &HtManager) -> Vec<String> {
    htm.snapshot_entries()
        .into_iter()
        .map(|e| {
            let table = match &*e.payload {
                StoredHt::Rows(t) => {
                    let mut h = StableHasher::new();
                    for (key, row) in t.iter() {
                        h.write_u64(key);
                        hash_row(&mut h, &row);
                    }
                    format!("{} entries {:#x}", t.len(), h.finish())
                }
                StoredHt::Agg(t) => format!("{:?}", t.iter().collect::<Vec<_>>()),
                StoredHt::Materialized(t) => {
                    let t = t.table();
                    let rows: Vec<Row> = (0..t.row_count()).map(|i| t.row(i)).collect();
                    format!("{:#x}", digest(&rows))
                }
            };
            format!(
                "{} {:?} {:?} {} {} {table}",
                e.id, e.fingerprint, e.schema, e.bytes, e.use_count
            )
        })
        .collect()
}

/// What one run of a case observes.
#[derive(Debug, PartialEq)]
struct Observed {
    schema: Schema,
    rows: usize,
    /// [`digest`] of the rows.
    digest: u64,
    metrics: ExecMetrics,
    cache: Vec<String>,
    stats: CacheStats,
}

fn observe(case: &Case, workers: usize) -> (Observed, Vec<Row>) {
    let cat = catalog();
    let htm = HtManager::unbounded();
    let context = || {
        ExecContext::new(cat, &htm)
            .with_parallelism(workers)
            .with_pool(pool())
    };
    for plan in warm_plans(case) {
        execute(&plan, &mut context()).expect("warm plan executes");
    }
    let plan = main_plan(case, &htm);
    let mut ctx = context();
    let (schema, rows) = execute(&plan, &mut ctx).expect("chain executes");
    let observed = Observed {
        schema,
        rows: rows.len(),
        digest: digest(&rows),
        metrics: ctx.metrics,
        cache: cache_image(&htm),
        stats: htm.stats(),
    };
    (observed, rows.into_vec())
}

proptest! {
    #[test]
    fn join_chains_match_the_row_oracle(case in case()) {
        let (want, rows) = observe(&case, WORKERS[0]);
        prop_assert_eq!(reference(&case).check(&want.schema, &rows), Ok(()), "{:?}", case);
        let (got, _) = observe(&case, WORKERS[1]);
        prop_assert!(got == want, "{} workers, {case:?}", WORKERS[1]);
    }
}

/// How many joins of `plan` probe another join (through projections).
fn chain_probes(plan: &PhysicalPlan) -> usize {
    fn is_join(plan: &PhysicalPlan) -> bool {
        match plan {
            PhysicalPlan::HashJoin { .. } => true,
            PhysicalPlan::Project { input, .. } => is_join(input),
            _ => false,
        }
    }
    match plan {
        PhysicalPlan::HashJoin { probe, build, .. } => {
            usize::from(is_join(probe))
                + chain_probes(probe)
                + build.as_deref().map_or(0, chain_probes)
        }
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Materialize { input, .. } => {
            chain_probes(input)
        }
        PhysicalPlan::HashAggregate { input, .. } => input.as_deref().map_or(0, chain_probes),
        PhysicalPlan::Union { inputs } => inputs.iter().map(chain_probes).sum(),
        PhysicalPlan::Scan(_) | PhysicalPlan::TempScan { .. } => 0,
    }
}

/// The paper's traces, replayed at 1 and 4 workers on two caches under a
/// budget that evicts. Every answer is the reference's, and after every
/// query both caches are the same.
#[test]
fn paper_traces_keep_cache_events_in_order() {
    let cat = generate(TpchConfig::new(0.002, 42));
    let stats = DbStats::from_catalog(&cat);
    let cost = CostModel::new(CostGrid::synthetic(), CostParams::default());
    let gc = GcConfig {
        budget_bytes: Some(96 * 1024),
        fine_grained: false,
    };
    let (mut probes, mut evictions) = (0, 0);
    for strategy in [EngineStrategy::HashStash, EngineStrategy::NoReuse] {
        let opt = Optimizer::new(&cat, &stats, &cost, strategy);
        for level in [
            ReusePotential::High,
            ReusePotential::Medium,
            ReusePotential::Low,
        ] {
            for seed in 0..=1 {
                let (serial, wide) = (HtManager::new(gc), HtManager::new(gc));
                let trace = generate_trace(TraceConfig::paper(level, seed));
                for (q, tq) in trace.iter().enumerate() {
                    let at = format!("{strategy:?} {level:?} seed {seed} q{q}");
                    let plan = opt.optimize(&tq.query, &serial).unwrap().plan;
                    let wide_plan = opt.optimize(&tq.query, &wide).unwrap().plan;
                    assert_eq!(format!("{plan:?}"), format!("{wide_plan:?}"), "{at}");
                    probes += chain_probes(&plan);
                    let mut ctx = ExecContext::new(&cat, &serial).with_parallelism(1);
                    let (schema, rows) = execute(&plan, &mut ctx).unwrap();
                    let mut wctx = ExecContext::new(&cat, &wide)
                        .with_parallelism(WORKERS[1])
                        .with_pool(pool());
                    let (wschema, wrows) = execute(&plan, &mut wctx).unwrap();
                    if let Err(e) = evaluate(&cat, &tq.query).unwrap().check(&schema, &rows) {
                        panic!("{at}: {e}");
                    }
                    assert_eq!(schema, wschema, "{at}");
                    assert_eq!(
                        format!("{:?}", &rows[..]),
                        format!("{:?}", &wrows[..]),
                        "{at}"
                    );
                    assert_eq!(ctx.metrics, wctx.metrics, "{at}");
                    assert_eq!(serial.stats(), wide.stats(), "{at}");
                    assert_eq!(cache_image(&serial), cache_image(&wide), "{at}");
                }
                evictions += serial.stats().evictions;
            }
        }
    }
    assert!(probes > 0, "no plan probed a join");
    assert!(evictions > 0, "the budget never evicted");
}
