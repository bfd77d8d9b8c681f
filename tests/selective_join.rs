//! The selective-probe spine end to end: a tiny filtered build side probed
//! by a whole fact table — `hsbench`'s churn request, `customer ⋈
//! orders[one month] ⋈ lineitem` — where ≈ 99 % of the probe tuples miss.
//! The probe side is an unfiltered scan (a dense row range, no selection
//! vector) and almost every tuple ends at the directory's tag filter.
//!
//! Rows (order included) and `ExecMetrics::semantic()` must equal the row
//! oracle's at every worker count, for the building run and for the exact
//! reuse of the table it published. The counters keep their meaning:
//! `ht_probes` counts probe *tuples* (not chain walks), and `rows_scanned` /
//! `batches_processed` are what they were when the scan wrote an identity
//! selection vector — `hsbench`'s exact-count metrics rely on that.

use std::sync::Arc;

use hashstash_cache::HtManager;
use hashstash_exec::plan::{PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool, MORSEL_ROWS};
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region, ReuseCase};
use hashstash_storage::tpch::{generate, min_order_date, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_types::{Row, Value};

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

type Run = (Vec<Row>, ExecMetrics);

/// The building run, then the exact reuse of what it published.
fn run(cat: &Catalog, workers: usize, oracle: bool) -> [Run; 2] {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(workers - 1);
    let context = || {
        let ctx = ExecContext::new(cat, &htm)
            .with_parallelism(workers)
            .with_pool(&pool);
        if oracle {
            ctx.with_row_oracle()
        } else {
            ctx
        }
    };
    let mut ctx = context();
    let (_, built) = execute(&lineitem_probe(Some(build_side()), None), &mut ctx).unwrap();
    let built = (built.into_vec(), ctx.metrics);

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
    let (_, reused) = execute(&lineitem_probe(None, Some(reuse)), &mut ctx).unwrap();
    [built, (reused.into_vec(), ctx.metrics)]
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

    let want = run(&cat, 1, true);
    let [(built_rows, built), (reused_rows, reused)] = &want;
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
        let oracle = run(&cat, workers, true);
        let columnar = run(&cat, workers, false);
        for (i, what) in ["build + publish", "exact reuse"].iter().enumerate() {
            for (arm, got) in [("oracle", &oracle[i]), ("columnar", &columnar[i])] {
                let label = format!("{what}, {arm}, {workers} workers");
                assert_eq!(got.0, want[i].0, "{label}: rows, order included");
                assert_eq!(got.1.semantic(), want[i].1.semantic(), "{label}: metrics");
            }
        }
        // The columnar counters are worker-invariant and what an identity
        // selection vector used to report: one batch per morsel for the
        // dense scan, one for the probe over it, nothing filtered.
        let (_, m) = &columnar[1];
        assert_eq!(m.batches_processed, 2 * morsels, "{workers} workers");
        assert_eq!(m.rows_filtered_vectorized, 0, "{workers} workers");
    }
}
