//! Edge-case and failure-injection tests for the executor and engine:
//! empty inputs, degenerate predicates, eviction races and cache poisoning.

use hashstash::{decision_string, Database, EngineStrategy};
use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder, QuerySpec};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Value};

fn catalog() -> Catalog {
    generate(TpchConfig::new(0.003, 2024))
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

#[test]
fn empty_predicate_range_yields_empty_result() {
    let mut engine = Database::open(catalog()).session();
    // c_age in [200, 300] matches nothing (domain is 18..92).
    let r = engine.execute(&q_age(1, 200, 300)).unwrap();
    assert!(r.rows.is_empty());
    // A follow-up non-empty query still works (the cached empty tables must
    // not poison matching).
    let r2 = engine.execute(&q_age(2, 20, 80)).unwrap();
    assert!(!r2.rows.is_empty());
}

#[test]
fn inverted_range_is_empty_not_an_error() {
    let mut engine = Database::open(catalog()).session();
    let r = engine.execute(&q_age(1, 80, 20)).unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn single_table_aggregate_without_joins() {
    let mut engine = Database::open(catalog()).session();
    let q = QueryBuilder::new(1)
        .table("customer")
        .group_by("customer.c_mktsegment")
        .agg(AggExpr::new(AggFunc::Count, "customer.c_custkey"))
        .build()
        .unwrap();
    let r = engine.execute(&q).unwrap();
    assert_eq!(r.rows.len(), 5, "five market segments");
    let total: i64 = r.rows.iter().map(|row| row.get(1).as_int().unwrap()).sum();
    assert_eq!(
        total as usize,
        engine
            .database()
            .catalog()
            .get("customer")
            .unwrap()
            .row_count()
    );
    // Run again: exact reuse of the aggregate table.
    let r2 = engine.execute(&q).unwrap();
    assert!(r2.decisions.iter().any(|(_, c)| c.is_some()));
    assert_eq!(r.rows.len(), r2.rows.len());
}

#[test]
fn aggregate_without_group_by_returns_one_row() {
    let mut engine = Database::open(catalog()).session();
    let q = QueryBuilder::new(1)
        .table("orders")
        .filter(
            "orders.o_orderdate",
            Interval::at_least(Value::date_ymd(1995, 1, 1)),
        )
        .agg(AggExpr::new(AggFunc::Sum, "orders.o_totalprice"))
        .agg(AggExpr::new(AggFunc::Avg, "orders.o_totalprice"))
        .build()
        .unwrap();
    let r = engine.execute(&q).unwrap();
    assert_eq!(r.rows.len(), 1);
    let sum = r.rows[0].get(0).as_float().unwrap();
    let avg = r.rows[0].get(1).as_float().unwrap();
    assert!(sum > 0.0 && avg > 0.0 && avg < sum);
}

#[test]
fn empty_base_table_join() {
    let mut cat = catalog();
    // Register an empty table and join against it.
    let empty = TableBuilder::new(
        "promo",
        vec![("pr_custkey", DataType::Int), ("pr_pct", DataType::Float)],
    )
    .finish();
    cat.register(empty);
    let mut engine = Database::open(cat).session();
    let q = QueryBuilder::new(1)
        .join(
            "promo",
            "promo.pr_custkey",
            "customer",
            "customer.c_custkey",
        )
        .group_by("customer.c_age")
        .agg(AggExpr::new(AggFunc::Count, "promo.pr_pct"))
        .build()
        .unwrap();
    let r = engine.execute(&q).unwrap();
    assert!(r.rows.is_empty(), "join against empty table yields nothing");
}

#[test]
fn min_max_aggregates_on_dates() {
    let mut engine = Database::open(catalog()).session();
    let q = QueryBuilder::new(1)
        .table("orders")
        .group_by("orders.o_custkey")
        .agg(AggExpr::new(AggFunc::Min, "orders.o_orderdate"))
        .agg(AggExpr::new(AggFunc::Max, "orders.o_orderdate"))
        .build()
        .unwrap();
    let r = engine.execute(&q).unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows {
        let min = row.get(1).as_date().unwrap();
        let max = row.get(2).as_date().unwrap();
        assert!(min <= max);
    }
}

#[test]
fn alternating_queries_stress_cache_transitions() {
    // Alternate between two shapes so the cache flips between candidates;
    // verify against no-reuse at every step.
    let mut hs = Database::open(catalog()).session();
    let mut ns = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .build()
        .session();
    for i in 0..10u32 {
        let q = if i % 2 == 0 {
            q_age(i, 20 + i as i64, 60 + i as i64)
        } else {
            QueryBuilder::new(i)
                .join("part", "part.p_partkey", "lineitem", "lineitem.l_partkey")
                .filter(
                    "part.p_size",
                    Interval::closed(Value::Int(1), Value::Int(10 + i as i64)),
                )
                .group_by("part.p_mfgr")
                .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
                .build()
                .unwrap()
        };
        let mut got = hs.execute(&q).unwrap().rows.into_vec();
        let mut want = ns.execute(&q).unwrap().rows.into_vec();
        got.sort();
        want.sort();
        assert_eq!(got.len(), want.len(), "query {i}");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.get(0), b.get(0), "query {i} group keys");
        }
    }
}

#[test]
fn unknown_table_is_a_clean_error() {
    let mut engine = Database::open(catalog()).session();
    let q = QueryBuilder::new(1)
        .table("no_such_table")
        .agg(AggExpr::new(AggFunc::Count, "no_such_table.x"))
        .build()
        .unwrap();
    let err = engine.execute(&q).unwrap_err();
    assert!(err.to_string().contains("no_such_table"), "{err}");
}

#[test]
fn decision_string_marks_eliminated_operators() {
    let mut engine = Database::open(catalog()).session();
    let q = q_age(1, 20, 80);
    engine.execute(&q).unwrap();
    // Identical query: aggregate exact-reuse eliminates the join entirely.
    let r = engine.execute(&q_age(2, 20, 80)).unwrap();
    let s = decision_string(&r, &["customer.", "agg"]);
    assert_eq!(s.len(), 2);
    assert!(
        s == "XS" || s == "SS",
        "expected join eliminated or reused, got {s}"
    );
}
