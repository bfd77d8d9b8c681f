//! The selective-probe spine end to end: a tiny filtered build side probed
//! by a whole fact table — `hsbench`'s churn request, `customer ⋈
//! orders[one month] ⋈ lineitem` — where ≈ 99 % of the probe tuples miss.
//! The probe side is an unfiltered scan (a dense row range, no selection
//! vector) and almost every tuple ends at the directory's tag filter.
//!
//! Rows must be the reference evaluator's answer (`hashstash-reference`,
//! which joins by `BTreeMap` outside the engine), and rows (order
//! included) and metrics must equal the serial run's bit for bit at every
//! worker count, for the building run and for the exact reuse of the table
//! it published — and, with the churn request's aggregate on top (which
//! folds the join's match pairs without building its rows), for an
//! overlapping month too. Probes on `Date` and `Str`
//! keys run the exact key pre-filter and its tag-filter fallback. The counters keep their meaning:
//! `ht_probes` counts probe *tuples* (not chain walks), and `rows_scanned` /
//! `batches_processed` are what they were when the scan wrote an identity
//! selection vector — `hsbench`'s exact-count metrics rely on that.
//!
//! Test names that say `row_oracle` keep the names these batteries had when
//! the executor's own row path was their oracle; the reference evaluator
//! has replaced it.

use std::sync::Arc;

use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool, MORSEL_ROWS};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase,
};
use hashstash_reference::{Answer, Relation};
use hashstash_storage::tpch::{generate, min_order_date, TpchConfig};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Row, Schema, Value};

const WORKERS: [usize; 3] = [1, 4, 8];

/// Orders of one 25-day window (as the churn march asks for).
fn month() -> PredBox {
    let lo = min_order_date() + 400;
    PredBox::all().with(
        "orders.o_orderdate",
        Interval::closed(Value::Date(lo), Value::Date(lo + 24)),
    )
}

fn fingerprint() -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: ["customer", "orders"].into_iter().map(Arc::from).collect(),
        edges: vec![],
        region: Region::from_box(month()),
        key_attrs: vec![Arc::from("orders.o_orderkey")],
        payload_attrs: vec![Arc::from("orders.o_orderkey"), Arc::from("customer.c_age")],
        aggregates: vec![],
    }
}

fn lineitem_probe(build: Option<PhysicalPlan>, reuse: Option<ReuseSpec>) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(
            ScanSpec::full("lineitem").project(&["lineitem.l_orderkey", "lineitem.l_quantity"]),
        )),
        publish: build.as_ref().map(|_| fingerprint()),
        build: build.map(Box::new),
        probe_key: "lineitem.l_orderkey".into(),
        build_key: "orders.o_orderkey".into(),
        reuse,
    }
}

/// `customer ⋈ orders[month]`, projected to what the outer join stores.
fn build_side() -> PhysicalPlan {
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("orders", month())
                    .project(&["orders.o_orderkey", "orders.o_custkey"]),
            )),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::full("customer").project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        }),
        attrs: vec!["orders.o_orderkey".into(), "customer.c_age".into()],
    }
}

type Run = (Vec<Row>, ExecMetrics, Schema);

/// `table`'s rows in `region`, projected onto `attrs`.
fn scan(cat: &Catalog, table: &str, region: &Region, attrs: &[&str]) -> Relation {
    Relation::scan(cat, table, region)
        .and_then(|r| r.project(attrs))
        .unwrap()
}

/// The reference's `customer ⋈ orders[region]`, projected to `attrs`.
fn month_join(cat: &Catalog, region: &Region, attrs: &[&str]) -> Relation {
    let orders = Relation::scan(cat, "orders", region).unwrap();
    let customer = scan(
        cat,
        "customer",
        &Region::all(),
        &["customer.c_custkey", "customer.c_age"],
    );
    orders
        .join("orders.o_custkey", &customer, "customer.c_custkey")
        .and_then(|r| r.project(attrs))
        .unwrap()
}

/// The reference's `lineitem ⋈ (customer ⋈ orders[region])`.
fn churn_join(cat: &Catalog, region: &Region) -> Relation {
    let lineitem = scan(
        cat,
        "lineitem",
        &Region::all(),
        &["lineitem.l_orderkey", "lineitem.l_quantity"],
    );
    let month = month_join(cat, region, &["orders.o_orderkey", "customer.c_age"]);
    lineitem
        .join("lineitem.l_orderkey", &month, "orders.o_orderkey")
        .unwrap()
}

/// Whether a run answered `want`.
fn check(got: &Run, want: &Answer, what: &str) {
    if let Err(e) = want.check(&got.2, &got.0) {
        panic!("{what}: {e}");
    }
}

/// The building run, then the exact reuse of what it published.
fn run(cat: &Catalog, workers: usize) -> [Run; 2] {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(workers - 1);
    let context = || {
        ExecContext::new(cat, &htm)
            .with_parallelism(workers)
            .with_pool(&pool)
    };
    let mut ctx = context();
    let (schema, built) = execute(&lineitem_probe(Some(build_side()), None), &mut ctx).unwrap();
    let built = (built.into_vec(), ctx.metrics, schema);

    let cand = htm.candidates(&fingerprint()).remove(0);
    let reuse = ReuseSpec {
        id: cand.id,
        case: ReuseCase::Exact,
        post_filter: None,
        request_region: fingerprint().region,
        cached_region: cand.fingerprint.region.clone(),
        schema: cand.schema.clone(),
    };
    let mut ctx = context();
    let (schema, reused) = execute(&lineitem_probe(None, Some(reuse)), &mut ctx).unwrap();
    [built, (reused.into_vec(), ctx.metrics, schema)]
}

#[test]
fn churn_shaped_join_matches_the_row_oracle_at_every_worker_count() {
    let cat = generate(TpchConfig::new(0.01, 42));
    let lineitems = cat.get("lineitem").unwrap().row_count();
    let morsels = lineitems.div_ceil(MORSEL_ROWS) as u64;
    assert!(
        morsels as usize >= hashstash_exec::min_parallel_morsels(),
        "the probe side must engage the morsel fan-out"
    );

    let want = run(&cat, 1);
    let answer = churn_join(&cat, &Region::from_box(month())).answer();
    check(&want[0], &answer, "build + publish");
    check(&want[1], &answer, "exact reuse");
    let [(built_rows, built, _), (reused_rows, reused, _)] = &want;
    assert_eq!(built_rows, reused_rows, "exact reuse answers identically");
    assert!(
        !built_rows.is_empty() && built_rows.len() * 50 < lineitems,
        "selective: {} of {lineitems} probe tuples match",
        built_rows.len()
    );
    // One probe per probe tuple, hit or miss; the reuse run probes only the
    // fact table and scans nothing else.
    assert_eq!(reused.ht_probes, lineitems as u64);
    assert_eq!(reused.rows_scanned, lineitems as u64);
    // The building run adds the inner join: every customer inserted, the
    // month's orders probed into them and (one customer each) inserted
    // into the table that gets published.
    let customers = cat.get("customer").unwrap().row_count() as u64;
    let month_orders = built.ht_probes - lineitems as u64;
    assert_eq!(built.ht_inserts, customers + month_orders);
    assert_eq!((reused.built_tables, reused.reused_tables), (0, 1));
    assert_eq!((built.built_tables, built.reused_tables), (2, 0));

    for workers in WORKERS {
        let got = run(&cat, workers);
        for (i, what) in ["build + publish", "exact reuse"].iter().enumerate() {
            let label = format!("{what}, {workers} workers");
            assert_eq!(got[i].0, want[i].0, "{label}: rows, order included");
            assert_eq!(got[i].1, want[i].1, "{label}: metrics");
        }
        // The batch counters are worker-invariant and what an identity
        // selection vector used to report: one batch per morsel for the
        // dense scan, one for the probe over it, nothing filtered.
        let (_, m, _) = &got[1];
        assert_eq!(m.batches_processed, 2 * morsels, "{workers} workers");
        assert_eq!(m.rows_filtered_vectorized, 0, "{workers} workers");
    }
}

/// Run `steps` in order against one cache — each step plans against what
/// the earlier ones left there — and return every step's rows and metrics.
fn run_steps(
    cat: &Catalog,
    workers: usize,
    steps: &[&dyn Fn(&HtManager) -> PhysicalPlan],
) -> Vec<Run> {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(workers - 1);
    steps
        .iter()
        .map(|step| {
            let mut ctx = ExecContext::new(cat, &htm)
                .with_parallelism(workers)
                .with_pool(&pool);
            let (schema, rows) = execute(&step(&htm), &mut ctx).unwrap();
            (rows.into_vec(), ctx.metrics, schema)
        })
        .collect()
}

/// Every step answers as the reference does, and its rows (order
/// included) and metrics equal the serial run's at 1, 4 and 8 workers.
fn assert_matches_reference(
    cat: &Catalog,
    steps: &[&dyn Fn(&HtManager) -> PhysicalPlan],
    answers: &[Answer],
) -> Vec<Run> {
    let want = run_steps(cat, 1, steps);
    for (i, (got, answer)) in want.iter().zip(answers).enumerate() {
        check(got, answer, &format!("step {i}"));
    }
    for workers in WORKERS {
        let got = run_steps(cat, workers, steps);
        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
            let label = format!("step {i}, {workers} workers");
            assert_eq!(got.0, want.0, "{label}: rows, order included");
            assert_eq!(got.1, want.1, "{label}: metrics");
        }
    }
    want
}

/// `SUM(agg) GROUP BY group` over `input`, publishing nothing.
fn sum_by(input: PhysicalPlan, group: &str, agg: &str) -> PhysicalPlan {
    PhysicalPlan::HashAggregate {
        input: Some(Box::new(input)),
        group_by: vec![group.into()],
        aggs: vec![AggExpr::new(AggFunc::Sum, agg)],
        output_aggs: vec![OutputAgg::Direct(0)],
        reuse: None,
        publish: None,
        post_group_by: None,
    }
}

/// Orders of days `from..=to` of the churn march's window.
fn days(from: i32, to: i32) -> PredBox {
    let lo = min_order_date() + 400;
    PredBox::all().with(
        "orders.o_orderdate",
        Interval::closed(Value::Date(lo + from), Value::Date(lo + to)),
    )
}

/// The month table of the aggregate tests: it also stores the order date,
/// so an overlapping reuse can post-filter it.
const MONTH_PAYLOAD: [&str; 3] = ["orders.o_orderkey", "orders.o_orderdate", "customer.c_age"];

fn month_fingerprint(region: PredBox) -> HtFingerprint {
    HtFingerprint {
        region: Region::from_box(region),
        payload_attrs: MONTH_PAYLOAD.iter().map(|&a| Arc::from(a)).collect(),
        ..fingerprint()
    }
}

/// `customer ⋈ orders[region]`, projected to the month table's payload.
fn month_build(region: Region) -> PhysicalPlan {
    PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(ScanSpec {
                table: "orders".into(),
                region,
                projection: vec![
                    "orders.o_orderkey".into(),
                    "orders.o_orderdate".into(),
                    "orders.o_custkey".into(),
                ],
            })),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::full("customer").project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        }),
        attrs: MONTH_PAYLOAD.iter().map(|&a| a.into()).collect(),
    }
}

/// The churn request's shape — `SUM(l_quantity) GROUP BY c_age` over
/// `lineitem ⋈ (customer ⋈ orders[month])` — folded straight from the
/// join's match pairs: building and publishing the month table, reusing
/// it exactly, and reusing it for a month that overlaps it (delta insert
/// plus a post-filter on the order date).
#[test]
fn aggregate_over_the_churn_join_matches_the_row_oracle() {
    let cat = generate(TpchConfig::new(0.01, 42));
    let outer = |build: Option<PhysicalPlan>, reuse: Option<ReuseSpec>, publish| {
        let join = PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(
                ScanSpec::full("lineitem").project(&["lineitem.l_orderkey", "lineitem.l_quantity"]),
            )),
            build: build.map(Box::new),
            probe_key: "lineitem.l_orderkey".into(),
            build_key: "orders.o_orderkey".into(),
            reuse,
            publish,
        };
        sum_by(join, "customer.c_age", "lineitem.l_quantity")
    };
    let reuse = |htm: &HtManager, case: ReuseCase, request: PredBox| {
        let cand = htm.candidates(&month_fingerprint(days(0, 24))).remove(0);
        ReuseSpec {
            id: cand.id,
            case,
            post_filter: (case == ReuseCase::Overlapping).then(|| request.clone()),
            request_region: Region::from_box(request),
            cached_region: cand.fingerprint.region.clone(),
            schema: cand.schema.clone(),
        }
    };
    let fresh = |_: &HtManager| {
        let build = month_build(Region::from_box(days(0, 24)));
        outer(Some(build), None, Some(month_fingerprint(days(0, 24))))
    };
    let exact =
        |htm: &HtManager| outer(None, Some(reuse(htm, ReuseCase::Exact, days(0, 24))), None);
    let overlapping = |htm: &HtManager| {
        let spec = reuse(htm, ReuseCase::Overlapping, days(12, 36));
        let delta = spec.request_region.difference(&spec.cached_region);
        outer(Some(month_build(delta)), Some(spec), None)
    };
    let sum_by_age = |region: PredBox| {
        churn_join(&cat, &Region::from_box(region))
            .aggregate(
                &["customer.c_age"],
                &[AggExpr::new(AggFunc::Sum, "lineitem.l_quantity")],
            )
            .unwrap()
    };
    let month_answer = sum_by_age(days(0, 24));
    let answers = [month_answer.clone(), month_answer, sum_by_age(days(12, 36))];
    let want = assert_matches_reference(&cat, &[&fresh, &exact, &overlapping], &answers);
    let [(built, m, _), (reused, r, _), (shifted, o, _)] = &want[..] else {
        panic!("three steps");
    };
    assert_eq!(built, reused, "exact reuse answers identically");
    assert!(!built.is_empty() && !shifted.is_empty() && built != shifted);
    assert_eq!((m.built_tables, m.reused_tables), (3, 0));
    assert_eq!((r.built_tables, r.reused_tables), (1, 1));
    assert_eq!((o.built_tables, o.reused_tables), (2, 1));
    assert!(
        o.ht_inserts > r.ht_inserts,
        "the overlapping month inserts its delta"
    );

    // The answer is the fold of the materialized join's rows: the same
    // query with the join's output forced through a union of one input.
    let rows_of = |plan: PhysicalPlan| PhysicalPlan::Union { inputs: vec![plan] };
    let PhysicalPlan::HashAggregate {
        input: Some(join), ..
    } = fresh(&HtManager::unbounded())
    else {
        panic!("an aggregate over the join");
    };
    let folded_rows = sum_by(rows_of(*join), "customer.c_age", "lineitem.l_quantity");
    let htm = HtManager::unbounded();
    let (_, rows) = execute(&folded_rows, &mut ExecContext::new(&cat, &htm)).unwrap();
    assert_eq!(&rows.into_vec(), built, "pair fold == row fold");
}

/// A `Date`-keyed probe (`l_shipdate = o_orderdate`: integer keys, so the
/// probe of a whole fact table filters its keys exactly) and a `Str`-keyed
/// one (`c_mktsegment` against a table of segment names, every name twice
/// and some no customer has: hashed keys, so the tag filter decides), each
/// under an aggregate and as rows.
#[test]
fn date_and_string_keyed_probes_match_the_row_oracle() {
    let mut cat = generate(TpchConfig::new(0.01, 42));
    let customer = cat.get("customer").unwrap();
    let (names, _) = customer
        .column_by_name("c_mktsegment")
        .unwrap()
        .dict_parts()
        .unwrap();
    let mut segment = TableBuilder::new(
        "segment",
        vec![("seg_name", DataType::Str), ("seg_rank", DataType::Int)],
    );
    let others = ["NOBODY", "ZEBRA"].map(Arc::<str>::from);
    for (rank, name) in names.iter().chain(names).chain(&others).enumerate() {
        segment.push_row(vec![Value::Str(name.clone()), Value::Int(rank as i64)]);
    }
    cat.register(segment.finish());

    let by_date = PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(
            ScanSpec::full("lineitem").project(&["lineitem.l_shipdate", "lineitem.l_quantity"]),
        )),
        build: Some(Box::new(PhysicalPlan::Scan(
            ScanSpec::filtered("orders", days(0, 24))
                .project(&["orders.o_orderdate", "orders.o_custkey"]),
        ))),
        probe_key: "lineitem.l_shipdate".into(),
        build_key: "orders.o_orderdate".into(),
        reuse: None,
        publish: None,
    };
    let by_segment = PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("customer").project(&[
            "customer.c_mktsegment",
            "customer.c_acctbal",
            "customer.c_age",
        ]))),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("segment")))),
        probe_key: "customer.c_mktsegment".into(),
        build_key: "segment.seg_name".into(),
        reuse: None,
        publish: None,
    };
    let steps: [&dyn Fn(&HtManager) -> PhysicalPlan; 4] = [
        &|_| by_date.clone(),
        &|_| sum_by(by_date.clone(), "orders.o_orderdate", "lineitem.l_quantity"),
        &|_| by_segment.clone(),
        &|_| sum_by(by_segment.clone(), "segment.seg_name", "customer.c_acctbal"),
    ];
    let lineitem = scan(
        &cat,
        "lineitem",
        &Region::all(),
        &["lineitem.l_shipdate", "lineitem.l_quantity"],
    );
    let orders = scan(
        &cat,
        "orders",
        &Region::from_box(days(0, 24)),
        &["orders.o_orderdate", "orders.o_custkey"],
    );
    let shipped = lineitem
        .join("lineitem.l_shipdate", &orders, "orders.o_orderdate")
        .unwrap();
    let customers = scan(
        &cat,
        "customer",
        &Region::all(),
        &[
            "customer.c_mktsegment",
            "customer.c_acctbal",
            "customer.c_age",
        ],
    );
    let segments = Relation::scan(&cat, "segment", &Region::all()).unwrap();
    let by_name = customers
        .join("customer.c_mktsegment", &segments, "segment.seg_name")
        .unwrap();
    let sum = |rel: &Relation, group: &str, agg: &str| {
        rel.aggregate(&[group], &[AggExpr::new(AggFunc::Sum, agg)])
            .unwrap()
    };
    let answers = [
        shipped.clone().answer(),
        sum(&shipped, "orders.o_orderdate", "lineitem.l_quantity"),
        by_name.clone().answer(),
        sum(&by_name, "segment.seg_name", "customer.c_acctbal"),
    ];
    let want = assert_matches_reference(&cat, &steps, &answers);
    for (i, (rows, _, _)) in want.iter().enumerate() {
        assert!(!rows.is_empty(), "step {i} answers something");
    }
    let customers = customer.row_count();
    assert_eq!(
        want[2].0.len(),
        2 * customers,
        "every customer's segment, twice"
    );
    assert_eq!(
        want[3].0.len(),
        names.len(),
        "one group per segment a customer has"
    );
}
