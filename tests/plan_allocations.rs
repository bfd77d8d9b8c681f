//! Planning allocations of the tenant mix's requests, pinned.
//!
//! The tenant mix (the `tenant_mix` benchmark workload) interleaves three
//! hot dashboard queries over `customer` with a churn request: a
//! customer ⋈ orders ⋈ lineitem aggregate over one month of order dates,
//! a new month each time, so the churn request misses the cache. Planning
//! a miss must cost little: this test pins how many allocations
//! `Session::plan_only` makes for each request, under HashStash and
//! NoReuse, at sf 0.01 with the customer join table (and the hot queries'
//! tables) cached.
//!
//! A counting `#[global_allocator]` (this file is its own test binary)
//! counts the allocations of the planning thread; planning runs entirely
//! on the caller. Counts are exact: a change that moves one re-pins it here
//! and says why. A decrease is the point of a planning change; an increase
//! needs a reason.
//!
//! The same requests are pinned once more through `Session::execute` at
//! one worker (planning, checkout, execution and publishing all run on the
//! caller), from the same warm state: the churn request misses and builds,
//! the hot ones hit the cache. So is the first query of the paper's
//! high-reuse traces that runs a two-box delta `Union`, whose inputs are
//! gathered into one table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hashstash::{Database, EngineStrategy, Session};
use hashstash_exec::PhysicalPlan;
use hashstash_plan::QuerySpec;
use hashstash_server::CatalogSchema;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

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

/// The tenant mix's hot dashboard queries.
const HOT: [&str; 3] = [
    "SELECT c_age, COUNT(c_custkey) FROM customer GROUP BY c_age",
    "SELECT c_age, AVG(c_acctbal) FROM customer WHERE c_age >= 30 GROUP BY c_age",
    "SELECT c_custkey, c_age FROM customer WHERE c_age <= 45",
];

/// The churn request over month `i` of 1992-01 .. 1998-08.
fn churn(i: usize) -> String {
    let (year, month) = (1992 + i / 12, 1 + i % 12);
    format!(
        "SELECT c_age, SUM(l_quantity) FROM customer \
         JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
         WHERE o_orderdate BETWEEN '{year}-{month:02}-01' AND '{year}-{month:02}-25' \
         GROUP BY c_age"
    )
}

fn spec(db: &Arc<Database>, sql: &str) -> QuerySpec {
    hashstash_sql::parse_query(sql, 0, &CatalogSchema(db.catalog())).expect("query parses")
}

/// Allocations of one `plan_only` of `sql`.
fn plan_allocs(session: &Session, sql: &str) -> u64 {
    let q = spec(session.database(), sql);
    let before = allocs();
    session.plan_only(&q).expect("query plans");
    allocs() - before
}

/// Planning allocations of `[churn, hot 0, hot 1, hot 2]` under `strategy`,
/// after the hot queries and three churn windows ran once: the cache holds
/// about what the tenant mix's budget keeps, so the churn request's lookups
/// see the earlier windows' tables and reject them.
fn counts(strategy: EngineStrategy) -> [u64; 4] {
    let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
        .strategy(strategy)
        .parallelism(1)
        .build();
    let mut session = db.session();
    let windows: Vec<String> = (0..3).map(churn).collect();
    for sql in HOT
        .iter()
        .copied()
        .chain(windows.iter().map(String::as_str))
    {
        let q = spec(&db, sql);
        session.execute(&q).expect("warm-up query runs");
    }
    if strategy.reuses() {
        let cached = db.cache().snapshot_entries();
        assert!(
            cached.iter().any(|e| e.fingerprint.tables.len() == 1
                && e.fingerprint.tables.contains("customer")
                && e.fingerprint.key_attrs == ["customer.c_custkey".into()]),
            "the customer join table is cached"
        );
    }
    // Plan each twice: the first may initialize lazily built state.
    let churn = churn(3);
    let requests = [churn.as_str(), HOT[0], HOT[1], HOT[2]];
    requests.map(|sql| {
        plan_allocs(&session, sql);
        plan_allocs(&session, sql)
    })
}

/// Before planning kept one priced choice per join mask and built the plan
/// once, these read `[802, 64, 88, 19]` (HashStash) and `[418, 23, 31, 19]`
/// (NoReuse); before `Region::is_subset` tried box-by-box containment
/// ahead of building the difference, HashStash read `[232, 44, 62, 17]`.
const HASHSTASH: [u64; 4] = [230, 42, 56, 17];
const NO_REUSE: [u64; 4] = [175, 19, 26, 17];

/// `Session::execute` allocations of `[churn, hot 0, hot 1, hot 2]` at one
/// worker under HashStash, each run once after the warm-up of [`counts`].
fn execute_counts() -> [u64; 4] {
    let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
        .parallelism(1)
        .build();
    let mut session = db.session();
    let windows: Vec<String> = (0..3).map(churn).collect();
    for sql in HOT
        .iter()
        .copied()
        .chain(windows.iter().map(String::as_str))
    {
        session
            .execute(&spec(&db, sql))
            .expect("warm-up query runs");
    }
    let churn = churn(3);
    [churn.as_str(), HOT[0], HOT[1], HOT[2]].map(|sql| {
        let q = spec(&db, sql);
        let before = allocs();
        session.execute(&q).expect("query runs");
        allocs() - before
    })
}

/// While aggregate tables held a `Row` and a `Vec` of accumulators per
/// group, aggregates emitted rows and a checkout copied the table's
/// lineage and schema, these read `[678, 142, 155, 42]`; while the
/// executor kept a row path beside the columnar one, `[460, 59, 73, 32]`.
const EXECUTE: [u64; 4] = [459, 59, 73, 31];

#[test]
fn execute_allocations_of_the_tenant_mix_are_pinned() {
    let got = execute_counts();
    // The hot COUNT and AVG hits allocate at most half of what they did.
    assert!(got[1] <= 142 / 2 && got[2] <= 155 / 2, "{got:?}");
    assert_eq!(got, EXECUTE, "[churn, hot 0, hot 1, hot 2]");
}

#[test]
fn planning_allocations_of_the_tenant_mix_are_pinned() {
    let hashstash = counts(EngineStrategy::HashStash);
    let noreuse = counts(EngineStrategy::NoReuse);
    // A churn miss plans in at most half the ≈ 812 allocations it took in
    // the tenant mix before.
    assert!(hashstash[0] <= 406, "HashStash churn: {hashstash:?}");
    assert_eq!(
        hashstash, HASHSTASH,
        "HashStash [churn, hot 0, hot 1, hot 2]"
    );
    assert_eq!(noreuse, NO_REUSE, "NoReuse [churn, hot 0, hot 1, hot 2]");
}

/// Whether `plan` holds a `Union`: the two-box delta of a partial or
/// overlapping reuse, whose inputs are gathered into one table.
fn has_union(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::Union { .. } => true,
        PhysicalPlan::Scan(_) | PhysicalPlan::TempScan { .. } => false,
        PhysicalPlan::Project { input, .. } | PhysicalPlan::Materialize { input, .. } => {
            has_union(input)
        }
        PhysicalPlan::HashJoin { probe, build, .. } => {
            has_union(probe) || build.as_deref().is_some_and(has_union)
        }
        PhysicalPlan::HashAggregate { input, .. } => input.as_deref().is_some_and(has_union),
    }
}

/// The first query of `paper(High, seed)` whose HashStash plan holds a
/// `Union`, for the smallest seed that has one: `(seed, query index,
/// Session::execute allocations)` at one worker, after the queries before
/// it ran on the same session.
fn first_union_execute() -> (u64, usize, u64) {
    for seed in 0..8 {
        let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
            .parallelism(1)
            .build();
        let mut session = db.session();
        for (i, tq) in generate_trace(TraceConfig::paper(ReusePotential::High, seed))
            .iter()
            .enumerate()
        {
            let planned = session.plan_only(&tq.query).expect("query plans");
            if has_union(&planned.plan) {
                let before = allocs();
                session.execute(&tq.query).expect("query runs");
                return (seed, i, allocs() - before);
            }
            session.execute(&tq.query).expect("query runs");
        }
    }
    panic!("no paper(High, 0..8) trace plans a union");
}

/// While a union built one `Row` per input tuple (and its consumer read
/// them through a row source), this read `(0, 25, 18_926)`.
const UNION_EXECUTE: (u64, usize, u64) = (0, 25, 12_107);

#[test]
fn execute_allocations_of_the_first_union_are_pinned() {
    let got = first_union_execute();
    // A union gathers its inputs' typed columns: no allocation per tuple.
    assert!(got.2 < 18_926, "{got:?}");
    assert_eq!(got, UNION_EXECUTE, "(seed, query, allocations)");
}
