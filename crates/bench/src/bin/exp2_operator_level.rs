//! Experiment 2b/2c (Figure 9a + 9b): reuse on the operator level.
//!
//! Sweeps the contribution-ratio of a synthetic cached hash table from 100%
//! down to 0% while keeping its size constant (the remainder is overhead
//! tuples that must be post-filtered), and compares Always-Share,
//! Never-Share and the cost-model strategy on a single reuse-aware hash
//! join (9a) and hash aggregate (9b).
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp2_operator_level --release
//! ```

use std::sync::Arc;
use std::time::Instant;

use hashstash::{Database, EngineStrategy};
use hashstash_bench::common::{header, ms};
use hashstash_cache::{AggHt, ColumnHt, StoredHt};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, PredBox, QueryBuilder, QuerySpec, Region,
};
use hashstash_storage::{Catalog, Column, TableBuilder};
use hashstash_types::{DataType, Field, Row, Schema, Value};

/// Required build-side rows (the paper uses a 16MB build side; scale with
/// `HASHSTASH_FIG9_N`).
fn h() -> i64 {
    std::env::var("HASHSTASH_FIG9_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000)
}

fn synth_catalog() -> Catalog {
    let h = h();
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new(
        "buildt",
        vec![
            ("bt_key", DataType::Int),
            ("bt_sel", DataType::Int),
            ("bt_pos", DataType::Int),
        ],
    );
    for i in 0..h {
        b.push_row(vec![Value::Int(i), Value::Int(1), Value::Int(i)]);
    }
    for i in 0..h {
        b.push_row(vec![Value::Int(h + i), Value::Int(0), Value::Int(i)]);
    }
    cat.register(b.finish_with_indexes(&["bt_pos", "bt_sel"]).unwrap());

    let mut p = TableBuilder::new("probet", vec![("pt_key", DataType::Int)]);
    let mut state = 0x1234_5678_9abc_def0u64;
    for _ in 0..h * 4 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        p.push_row(vec![Value::Int((state >> 16) as i64 % (2 * h))]);
    }
    cat.register(p.finish());
    cat
}

fn join_query(id: u32) -> QuerySpec {
    let h = h();
    QueryBuilder::new(id)
        .join("probet", "probet.pt_key", "buildt", "buildt.bt_key")
        .filter("buildt.bt_sel", Interval::eq(Value::Int(1)))
        .filter(
            "buildt.bt_pos",
            Interval::closed(Value::Int(0), Value::Int(h - 1)),
        )
        .agg(AggExpr::new(AggFunc::Count, "probet.pt_key"))
        .build()
        .unwrap()
}

/// Publish the synthetic cached join table with contribution ratio `c`.
fn seed_join_cache(db: &Database, c: f64) {
    let h = h();
    let keep = (c * h as f64).round() as i64;
    let junk = h - keep;
    let payload = ["buildt.bt_key", "buildt.bt_pos", "buildt.bt_sel"];
    let schema = Schema::new(
        payload
            .iter()
            .map(|n| Field::new(*n, DataType::Int))
            .collect(),
    );
    let mut ht = ColumnHt::with_capacity(20, &[DataType::Int; 3], h as usize);
    let mut insert = |key: i64, pos: i64, sel: i64| {
        let row = Row::new(vec![Value::Int(key), Value::Int(pos), Value::Int(sel)]);
        ht.insert(key as u64, &row).expect("three int cells");
    };
    for i in 0..keep {
        insert(i, i, 1);
    }
    for i in 0..junk {
        insert(h + i, i, 0);
    }
    let mut region = Region::empty();
    if keep > 0 {
        region = region.union(&Region::from_box(
            PredBox::all()
                .with("buildt.bt_sel", Interval::eq(Value::Int(1)))
                .with(
                    "buildt.bt_pos",
                    Interval::closed(Value::Int(0), Value::Int(keep - 1)),
                ),
        ));
    }
    if junk > 0 {
        region = region.union(&Region::from_box(
            PredBox::all()
                .with("buildt.bt_sel", Interval::eq(Value::Int(0)))
                .with(
                    "buildt.bt_pos",
                    Interval::closed(Value::Int(0), Value::Int(junk - 1)),
                ),
        ));
    }
    let fp = HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("buildt")).collect(),
        edges: vec![],
        region,
        key_attrs: vec![Arc::from("buildt.bt_key")],
        payload_attrs: payload.iter().map(|p| Arc::from(*p)).collect(),
        aggregates: vec![],
    };
    db.cache().publish(fp, schema, StoredHt::Rows(ht));
}

fn agg_query(id: u32) -> QuerySpec {
    let h = h();
    QueryBuilder::new(id)
        .table("buildt")
        .filter(
            "buildt.bt_pos",
            Interval::closed(Value::Int(0), Value::Int(h - 1)),
        )
        .group_by("buildt.bt_sel")
        .group_by("buildt.bt_key")
        .agg(AggExpr::new(AggFunc::Sum, "buildt.bt_pos"))
        .build()
        .unwrap()
}

/// Publish a partially filled aggregate table covering `bt_pos < c·H`.
fn seed_agg_cache(db: &Database, c: f64) {
    let h = h();
    let keep = (c * h as f64).round() as i64;
    if keep == 0 {
        return;
    }
    let aggs = vec![AggExpr::new(AggFunc::Sum, "buildt.bt_pos")];
    let schema = Schema::new(vec![
        Field::new("buildt.bt_sel", DataType::Int),
        Field::new("buildt.bt_key", DataType::Int),
    ]);
    // Matches the generator: rows (i, sel=1, pos=i) and (h+i, sel=0, pos=i),
    // folded as the executor folds them: group and argument columns, then
    // one `SUM` state per group.
    let (mut sel, mut key, mut pos) = (Vec::new(), Vec::new(), Vec::new());
    for s in [1i64, 0] {
        for i in 0..keep {
            sel.push(s);
            key.push(if s == 1 { i } else { h + i });
            pos.push(i);
        }
    }
    let keys: Vec<u64> = sel
        .iter()
        .zip(&key)
        .map(|(&s, &k)| Row::new(vec![Value::Int(s), Value::Int(k)]).key64(&[0, 1]))
        .collect();
    let groups = [Column::Int(sel), Column::Int(key)];
    let mut ht = AggHt::new(24, &[DataType::Int; 2], &[(AggFunc::Sum, DataType::Int)]);
    ht.fold(&keys, &groups, &[Some(&Column::Int(pos))], None)
        .expect("the columns fit the table");
    let fp = HtFingerprint {
        kind: HtKind::Aggregate,
        tables: std::iter::once(Arc::from("buildt")).collect(),
        edges: vec![],
        region: Region::from_box(PredBox::all().with(
            "buildt.bt_pos",
            Interval::closed(Value::Int(0), Value::Int(keep - 1)),
        )),
        key_attrs: vec![Arc::from("buildt.bt_sel"), Arc::from("buildt.bt_key")],
        payload_attrs: vec![Arc::from("buildt.bt_sel"), Arc::from("buildt.bt_key")],
        aggregates: aggs,
    };
    db.cache().publish(fp, schema, StoredHt::Agg(ht));
}

fn run_once(
    strategy: EngineStrategy,
    c: f64,
    seed: impl Fn(&Database, f64),
    query: QuerySpec,
) -> f64 {
    let db = Database::builder(synth_catalog())
        .strategy(strategy)
        .build();
    seed(&db, c);
    let mut session = db.session();
    let t0 = Instant::now();
    session.execute(&query).expect("query runs");
    ms(t0.elapsed())
}

fn sweep(title: &str, seed: impl Fn(&Database, f64) + Copy, query: impl Fn(u32) -> QuerySpec) {
    println!("\n{title}");
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "contr%", "AlwaysShare", "NeverShare", "CostModel"
    );
    for contr in (0..=10).rev().map(|x| x as f64 / 10.0) {
        let t_always = run_once(EngineStrategy::AlwaysShare, contr, seed, query(1));
        // Never Share is plain execution without reuse.
        let t_never = run_once(EngineStrategy::NoReuse, contr, seed, query(2));
        let t_cost = run_once(EngineStrategy::HashStash, contr, seed, query(3));
        println!(
            "{:>6.0} {:>12.1}ms {:>12.1}ms {:>12.1}ms",
            contr * 100.0,
            t_always,
            t_never,
            t_cost
        );
    }
}

fn main() {
    header("Experiment 2b/2c: reuse on the operator level (paper Figure 9a/9b)");
    println!(
        "build side: {} required rows (+ constant-size overhead)",
        h()
    );
    sweep(
        "Figure 9a: reuse-aware hash JOIN vs contribution-ratio",
        seed_join_cache,
        join_query,
    );
    sweep(
        "Figure 9b: reuse-aware hash AGGREGATE vs contribution-ratio",
        seed_agg_cache,
        agg_query,
    );
    println!(
        "\nExpected shape (paper): Never-Share is flat; Always-Share grows as the \
         contribution falls and crosses Never-Share (~70% in the paper); the cost \
         model tracks the lower envelope of the two."
    );
}
