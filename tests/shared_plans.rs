//! Shared plans through the public session API: their joins run on the
//! single-query executor, so they report real reuse decisions, skip join
//! work a covered batch never uses, and trade join tables with single
//! queries in both directions — always answering like `NoReuse`.

use hashstash::{decision_string, BatchMode, Database, EngineStrategy, QueryResult};
use hashstash_plan::{AggExpr, AggFunc, HtKind, Interval, QueryBuilder, QuerySpec};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_types::{Row, Value};

fn catalog() -> Catalog {
    generate(TpchConfig::new(0.002, 61))
}

/// customer ⋈ orders over an age band, grouped by `group_by`, with exact
/// (integer / min-max) aggregates so answers compare bit for bit.
fn widget(id: u32, lo: i64, hi: i64, group_by: &str) -> QuerySpec {
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
        .group_by(group_by)
        .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
        .agg(AggExpr::new(AggFunc::Max, "orders.o_orderkey"))
        .build()
        .unwrap()
}

fn age_batch(ids: u32, lo: i64, group_by: &str) -> Vec<QuerySpec> {
    (0..4)
        .map(|i| widget(ids + i, lo + 5 * i as i64, lo + 20 + 5 * i as i64, group_by))
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Every query's answer, computed alone without reuse.
fn reference(queries: &[QuerySpec]) -> Vec<Vec<Row>> {
    let db = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .build();
    let mut session = db.session();
    queries
        .iter()
        .map(|q| sorted(session.execute(q).unwrap().rows.into_vec()))
        .collect()
}

fn answers(results: &[QueryResult]) -> Vec<Vec<Row>> {
    results.iter().map(|r| sorted(r.rows.to_vec())).collect()
}

/// Use counts of the cached join tables, in id order.
fn join_table_uses(db: &Database) -> Vec<u64> {
    let mut uses: Vec<_> = db
        .cache()
        .snapshot_entries()
        .into_iter()
        .filter(|e| e.fingerprint.kind == HtKind::JoinBuild)
        .map(|e| (e.id, e.use_count))
        .collect();
    uses.sort();
    uses.into_iter().map(|(_, n)| n).collect()
}

/// Re-running an identical aggregate batch is answered from the cached
/// grouping table alone: no table is built, nothing is inserted, and no
/// join table is even checked out.
#[test]
fn covered_batch_skips_the_join_pipeline() {
    let db = Database::open(catalog());
    let mut session = db.session();
    let batch = age_batch(1, 20, "customer.c_age");
    let first = session
        .execute_batch(&batch, BatchMode::SharedWithReuse)
        .unwrap();
    let joins_before = join_table_uses(&db);
    assert!(
        !joins_before.is_empty(),
        "the first batch published a join table"
    );

    let again = session
        .execute_batch(&batch, BatchMode::SharedWithReuse)
        .unwrap();
    for r in &again {
        assert_eq!(r.metrics.built_tables, 0, "query {}", r.query);
        assert_eq!(r.metrics.ht_inserts, 0, "query {}", r.query);
        assert_eq!(r.metrics.reused_tables, 1, "only the grouping table");
    }
    assert_eq!(join_table_uses(&db), joins_before, "no join checkout");
    assert_eq!(answers(&again), answers(&first));
    assert_eq!(answers(&again), reference(&batch));
}

/// Shared results carry the join chain's and the grouping phase's real
/// decisions: `N` for a fresh table, `S` for a reused one, `X` for an
/// eliminated operator.
#[test]
fn shared_results_report_reuse_decisions() {
    let db = Database::open(catalog());
    let mut session = db.session();
    let order = ["customer", "agg"];
    let fresh = session
        .execute_batch(
            &age_batch(1, 20, "customer.c_age"),
            BatchMode::SharedWithReuse,
        )
        .unwrap();
    for r in &fresh {
        assert_eq!(decision_string(r, &order), "NN", "{:?}", r.decisions);
    }
    // Narrower ages, a different group-by over the same customer payload:
    // the join table is reused, the grouping table is new.
    let batch = age_batch(10, 25, "orders.o_orderdate");
    let reusing = session
        .execute_batch(&batch, BatchMode::SharedWithReuse)
        .unwrap();
    for r in &reusing {
        assert_eq!(decision_string(r, &order), "SN", "{:?}", r.decisions);
    }
    assert_eq!(answers(&reusing), reference(&batch));
    // The same batch again: the grouping table covers it, no join runs.
    let covered = session
        .execute_batch(&batch, BatchMode::SharedWithReuse)
        .unwrap();
    for r in &covered {
        assert_eq!(decision_string(r, &order), "XS", "{:?}", r.decisions);
    }
}

/// Join tables flow both ways: single queries reuse what a shared batch
/// published, and a shared batch reuses what single queries published
/// (a warm-up batch run one query at a time).
#[test]
fn single_and_shared_plans_reuse_each_others_join_tables() {
    // Shared batch first, then single queries inside its age range.
    let db = Database::open(catalog());
    let mut session = db.session();
    session
        .execute_batch(
            &age_batch(1, 20, "customer.c_age"),
            BatchMode::SharedWithReuse,
        )
        .unwrap();
    let reuses = db.cache_stats().reuses;
    let singles = age_batch(10, 22, "customer.c_age");
    let results: Vec<QueryResult> = singles
        .iter()
        .map(|q| session.execute(q).unwrap())
        .collect();
    assert!(db.cache_stats().reuses > reuses);
    // The first single query finds no aggregate to reuse; its join reads
    // the shared batch's customer table (later ones may reuse its aggregate).
    let join = results[0]
        .decisions
        .iter()
        .find(|(l, _)| l.contains("customer"));
    assert!(
        matches!(join, Some((_, Some(_)))),
        "join reused: {:?}",
        results[0].decisions
    );
    assert_eq!(answers(&results), reference(&singles));

    // Single-query warm-up first, then a shared batch inside its range.
    let db = Database::open(catalog());
    let mut session = db.session();
    let warm = vec![widget(20, 18, 80, "customer.c_age")];
    session
        .execute_batch(&warm, BatchMode::SingleWithReuse)
        .unwrap();
    let reuses = db.cache_stats().reuses;
    let batch = age_batch(30, 25, "orders.o_orderdate");
    let results = session
        .execute_batch(&batch, BatchMode::SharedWithReuse)
        .unwrap();
    assert!(db.cache_stats().reuses > reuses);
    assert!(results.iter().all(|r| r
        .decisions
        .iter()
        .any(|(l, c)| l.contains("customer") && c.is_some())));
    assert_eq!(answers(&results), reference(&batch));
}
