//! A multi-way join builds no row between pipeline breakers: the
//! allocations of a four-way join-aggregate do not grow with the number of
//! tuples its inner joins match.
//!
//! The plan probes `lineitem` against `orders`, then against `customer`
//! (keyed on a column of the orders table), then against `nation` (keyed on
//! a column of the customer table), and folds the result by region. Only
//! the `l_shipdate` range differs between the two runs: its wide range
//! matches at least ten times the tuples of the narrow one at every join,
//! while the tables, the groups and the output stay the same size.
//!
//! A counting `#[global_allocator]` (this file is its own test binary)
//! counts the allocations the executing thread makes. Execution runs at one
//! worker without a pool, so every allocation of the query lands on that
//! thread. A fresh allocation counts; growing an existing buffer in place
//! or by `realloc` does not, so a buffer sized by the match count costs the
//! same number in both runs, while a row per match would cost one each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics};
use hashstash_plan::{AggExpr, AggFunc, Interval, PredBox, Region};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_types::Value;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn scan(table: &str, region: Region, projection: &[&str]) -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec {
        table: table.into(),
        region,
        projection: projection.iter().map(|&a| a.into()).collect(),
    })
}

fn join(
    probe: PhysicalPlan,
    build: PhysicalPlan,
    probe_key: &str,
    build_key: &str,
) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(probe),
        build: Some(Box::new(build)),
        probe_key: probe_key.into(),
        build_key: build_key.into(),
        reuse: None,
        publish: None,
    }
}

/// Revenue per region of the lineitems shipped in `[lo, hi]`.
fn plan(lo: i32, hi: i32) -> PhysicalPlan {
    let shipped = Region::from_box(PredBox::all().with(
        "lineitem.l_shipdate",
        Interval::closed(Value::Date(lo), Value::Date(hi)),
    ));
    let lineitem = scan(
        "lineitem",
        shipped,
        &["lineitem.l_orderkey", "lineitem.l_extendedprice"],
    );
    let all = Region::all;
    let orders = scan("orders", all(), &["orders.o_orderkey", "orders.o_custkey"]);
    let customer = scan(
        "customer",
        all(),
        &["customer.c_custkey", "customer.c_nationkey"],
    );
    let nation = scan(
        "nation",
        all(),
        &["nation.n_nationkey", "nation.n_regionkey"],
    );
    let chain = join(
        join(
            join(lineitem, orders, "lineitem.l_orderkey", "orders.o_orderkey"),
            customer,
            "orders.o_custkey",
            "customer.c_custkey",
        ),
        nation,
        "customer.c_nationkey",
        "nation.n_nationkey",
    );
    PhysicalPlan::HashAggregate {
        input: Some(Box::new(chain)),
        group_by: vec!["nation.n_regionkey".into()],
        aggs: vec![
            AggExpr::new(AggFunc::Sum, "lineitem.l_extendedprice"),
            AggExpr::new(AggFunc::Count, "orders.o_custkey"),
        ],
        output_aggs: vec![OutputAgg::Direct(0), OutputAgg::Direct(1)],
        reuse: None,
        publish: None,
        post_group_by: None,
    }
}

/// Allocations and counters of one execution of `plan`, and its row count.
fn run(cat: &Catalog, plan: &PhysicalPlan) -> (u64, ExecMetrics, usize) {
    let htm = HtManager::unbounded();
    let mut ctx = ExecContext::new(cat, &htm).with_parallelism(1);
    let before = allocs();
    let (_, rows) = execute(plan, &mut ctx).expect("plan executes");
    let n = allocs() - before;
    (n, ctx.metrics, rows.len())
}

#[test]
fn join_chain_allocations_do_not_grow_with_inner_matches() {
    let cat = generate(TpchConfig::new(0.01, 42));
    let shipdate = cat
        .get("lineitem")
        .unwrap()
        .column_by_name("l_shipdate")
        .unwrap()
        .clone();
    let first = (0..shipdate.len())
        .map(|i| shipdate.get(i).as_date().unwrap())
        .min()
        .unwrap();
    let (narrow, wide) = (plan(first, first + 60), plan(first, first + 900));
    // Warm up once, so lazily initialized state is not counted.
    run(&cat, &wide);
    let (narrow_allocs, narrow_m, narrow_rows) = run(&cat, &narrow);
    let (wide_allocs, wide_m, wide_rows) = run(&cat, &wide);

    // An outer join is probed once per match of the join inside it, so the
    // probes beyond the base scan's are the inner matches.
    assert!(narrow_m.ht_probes >= 1_000, "{narrow_m:?}");
    assert!(
        wide_m.ht_probes >= 10 * narrow_m.ht_probes,
        "{narrow_m:?} vs {wide_m:?}"
    );
    assert_eq!(narrow_m.ht_inserts, wide_m.ht_inserts);
    assert_eq!(narrow_rows, wide_rows, "one row per region");
    // The wide run may build an exact key pre-filter where the narrow one
    // does not (one per join at most: a probe that outnumbers its table's
    // entries); nothing else may differ.
    assert!(
        wide_allocs <= narrow_allocs + 3,
        "allocations grew with the inner matches: {narrow_allocs} for {} probes, \
         {wide_allocs} for {}",
        narrow_m.ht_probes,
        wide_m.ht_probes,
    );
}
