//! The SQL front end must be **downstream-indistinguishable** from the
//! fluent [`QueryBuilder`]: a query written as text and the same query
//! assembled by hand lower to the same `QuerySpec`, and two engines fed
//! the two forms produce identical rows, metrics, reuse decisions and cache
//! counters. (Lowering is upstream of the executor, so one engine
//! configuration covers it.)
//!
//! This is the umbrella-level differential check behind the serving front
//! end: if it holds, every guarantee the engine-level suites establish for
//! built queries transfers to queries arriving over the wire.

use hashstash::Database;
use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder, QuerySpec};
use hashstash_server::CatalogSchema;
use hashstash_sql::parse_query;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_types::{date::parse_date, Value};

fn date(s: &str) -> Value {
    Value::Date(parse_date(s).expect("literal date"))
}

/// The workload: each entry is (SQL text, the hand-built equivalent).
/// The sequence is reuse-heavy on purpose — repeats hit the cache exactly,
/// widened ranges subsume — so the comparison also covers the reuse path,
/// not just cold execution.
fn workload() -> Vec<(String, QuerySpec)> {
    let scan = |id: u32, hi: i64| {
        (
            format!("SELECT c_custkey, c_age FROM customer WHERE c_age <= {hi}"),
            QueryBuilder::new(id)
                .table("customer")
                .filter("customer.c_age", Interval::at_most(Value::Int(hi)))
                .project(&["customer.c_custkey", "customer.c_age"])
                .build()
                .unwrap(),
        )
    };
    let join = |id: u32, cut: &str| {
        (
            format!(
                "SELECT c_age, SUM(l_quantity) FROM customer \
                 JOIN orders ON customer.c_custkey = orders.o_custkey \
                 JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
                 WHERE o_orderdate < '{cut}' GROUP BY c_age"
            ),
            QueryBuilder::new(id)
                .join(
                    "customer",
                    "customer.c_custkey",
                    "orders",
                    "orders.o_custkey",
                )
                .join(
                    "orders",
                    "orders.o_orderkey",
                    "lineitem",
                    "lineitem.l_orderkey",
                )
                .filter("orders.o_orderdate", Interval::less_than(date(cut)))
                .group_by("customer.c_age")
                .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
                .build()
                .unwrap(),
        )
    };
    let agg = |id: u32, lo: i64| {
        (
            format!(
                "SELECT c_age, COUNT(c_custkey), AVG(c_acctbal) FROM customer \
                 WHERE c_age >= {lo} GROUP BY c_age"
            ),
            QueryBuilder::new(id)
                .table("customer")
                .filter("customer.c_age", Interval::at_least(Value::Int(lo)))
                .group_by("customer.c_age")
                .agg(AggExpr::new(AggFunc::Count, "customer.c_custkey"))
                .agg(AggExpr::new(AggFunc::Avg, "customer.c_acctbal"))
                .build()
                .unwrap(),
        )
    };
    vec![
        scan(1, 40),
        join(2, "1994-06-01"),
        agg(3, 30),
        // Exact repeats: served from cache on both sides or neither.
        join(4, "1994-06-01"),
        agg(5, 30),
        // Widened ranges: subsumption reuse of the earlier builds.
        scan(6, 55),
        join(7, "1995-03-01"),
        agg(8, 25),
    ]
}

fn fresh_db() -> std::sync::Arc<Database> {
    Database::builder(generate(TpchConfig::new(0.005, 1234)))
        .parallelism(2)
        .build()
}

#[test]
fn sql_and_builder_queries_are_indistinguishable() {
    let sql_db = fresh_db();
    let hand_db = fresh_db();
    let mut sql_session = sql_db.session();
    let mut hand_session = hand_db.session();

    for (i, (sql, hand)) in workload().into_iter().enumerate() {
        let parsed = parse_query(&sql, hand.id.0, &CatalogSchema(sql_db.catalog()))
            .unwrap_or_else(|e| panic!("{sql}: {}", e.render(&sql)));
        // Strongest form first: the lowered spec *is* the built spec.
        assert_eq!(parsed, hand, "query {i}: spec");

        let a = sql_session.execute(&parsed).expect("sql-path query");
        let b = hand_session.execute(&hand).expect("hand-path query");
        assert_eq!(a.schema, b.schema, "query {i}: schema");
        assert_eq!(a.rows, b.rows, "query {i}: rows (order included)");
        assert_eq!(a.metrics, b.metrics, "query {i}: metrics");
        assert_eq!(a.decisions, b.decisions, "query {i}: reuse decisions");
    }

    // The engines saw identical work, so the caches must agree on
    // every counter — publishes, reuses, bytes, entries.
    let (s, h) = (sql_db.cache_stats(), hand_db.cache_stats());
    assert_eq!(s.publishes, h.publishes, "publishes");
    assert_eq!(s.reuses, h.reuses, "reuses");
    assert_eq!(s.evictions, h.evictions, "evictions");
    assert_eq!(s.bytes, h.bytes, "cached bytes");
    assert_eq!(s.entries, h.entries, "cached entries");
    assert!(s.reuses > 0, "workload produced no reuse; test is vacuous");
}
