//! Block skipping in the probe: a dense scan of a base table, probed on an
//! `Int` or `Date` key through the exact key pre-filter, runs only over the
//! 64-row blocks whose zone-map `[min, max]` holds a key of the build side.
//!
//! Skipping must not change a pair: the join's output rows, in order, must
//! equal the unskipped probe's — the same scan under an always-true filter,
//! which hands the probe a row selection instead of the dense range — at
//! one, two and four workers, and be the reference evaluator's join
//! (`hashstash-reference`, a `BTreeMap` join outside the engine) as a
//! multiset. Probe columns are
//! sorted (a fact table's foreign key, each value repeated), shuffled or
//! constant, of `Int` or `Date` type, around negative and positive bases,
//! with ragged tails; build key sets take 0–100 % of the probe's values,
//! plus keys the probe never holds.
//!
//! A second test pins what skipping buys on a fact table's sorted key:
//! a key set holding 1 % of its values leaves at most a quarter of the
//! blocks live.
//!
//! Case count: `PROPTEST_CASES` (CI raises it in a release run).

use hashstash_cache::HtManager;
use hashstash_exec::plan::{PhysicalPlan, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool};
use hashstash_hashtable::KeyBitmap;
use hashstash_plan::{Interval, PredBox, Region};
use hashstash_reference::Relation;
use hashstash_storage::{Catalog, Column, Table, ZoneMap};
use hashstash_types::{DataType, Field, Row, Schema, Value};
use proptest::prelude::*;

/// SplitMix64: the test's deterministic choices.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Non-decreasing, each value `repeat` times.
    Sorted {
        repeat: usize,
    },
    /// The sorted column, shuffled.
    Shuffled {
        repeat: usize,
    },
    Constant,
}

/// The probe column's values as offsets from its base.
fn offsets(shape: Shape, rows: usize, seed: u64) -> Vec<i64> {
    match shape {
        Shape::Sorted { repeat } => (0..rows).map(|i| (i / repeat) as i64).collect(),
        Shape::Shuffled { repeat } => {
            let mut v = offsets(Shape::Sorted { repeat }, rows, seed);
            for i in (1..v.len()).rev() {
                v.swap(i, (mix(seed ^ i as u64) % (i as u64 + 1)) as usize);
            }
            v
        }
        Shape::Constant => vec![(seed % 7) as i64; rows],
    }
}

/// A column of `dtype` holding `base + offset` per offset.
fn column(dtype: DataType, base: i64, offsets: impl Iterator<Item = i64>) -> Column {
    match dtype {
        DataType::Date => Column::Date(offsets.map(|o| (base + o) as i32).collect()),
        _ => Column::Int(offsets.map(|o| base + o).collect()),
    }
}

fn table(name: &str, key: &str, dtype: DataType, keys: Column) -> Table {
    let rows = keys.len() as i64;
    let schema = Schema::new(vec![
        Field::new(key, dtype),
        Field::new("row", DataType::Int),
    ]);
    Table::from_parts(
        name,
        schema,
        vec![keys, Column::Int((0..rows).collect())],
        &[],
    )
    .expect("a rectangular table")
}

/// The fact table `f(k, row)` and the build side `d(k, row)`: `d` holds
/// each distinct probe value with probability `density` percent, and
/// `extra` values the probe never holds (just past either end).
fn catalog(
    dtype: DataType,
    base: i64,
    shape: Shape,
    rows: usize,
    density: u64,
    extra: usize,
    seed: u64,
) -> Catalog {
    let probe = offsets(shape, rows, seed);
    let mut values = probe.clone();
    values.sort_unstable();
    values.dedup();
    let top = values.last().map_or(0, |&v| v + 1);
    let keys = values
        .into_iter()
        .filter(|&v| mix(seed ^ (v as u64).wrapping_mul(31)) % 100 < density)
        .chain((0..extra as i64).map(|e| if e % 2 == 0 { -1 - e } else { top + e }));
    let mut cat = Catalog::new();
    cat.register(table(
        "f",
        "k",
        dtype,
        column(dtype, base, probe.into_iter()),
    ));
    cat.register(table("d", "k", dtype, column(dtype, base, keys)));
    cat
}

/// `f ⋈ d` on `k`, probing a scan of `f` under `region`.
fn join(region: Region) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec {
            table: "f".into(),
            region,
            projection: vec!["f.k".into(), "f.row".into()],
        })),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("d")))),
        probe_key: "f.k".into(),
        build_key: "d.k".into(),
        reuse: None,
        publish: None,
    }
}

fn run(cat: &Catalog, plan: &PhysicalPlan, workers: usize) -> (Vec<Row>, u64, Schema) {
    let htm = HtManager::unbounded();
    let pool = WorkerPool::new(workers - 1);
    let mut ctx = ExecContext::new(cat, &htm)
        .with_parallelism(workers)
        .with_pool(&pool);
    let (schema, rows) = execute(plan, &mut ctx).expect("the join runs");
    let ExecMetrics { ht_probes, .. } = ctx.metrics;
    (rows.into_vec(), ht_probes, schema)
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1usize..6).prop_map(|repeat| Shape::Sorted { repeat }),
        (1usize..6).prop_map(|repeat| Shape::Shuffled { repeat }),
        Just(Shape::Constant),
    ]
}

proptest! {
    #[test]
    fn skipping_blocks_changes_no_pair(
        date in any::<bool>(),
        base in prop_oneof![Just(-70_000i64), Just(0i64), Just(9_000i64)],
        shape in shapes(),
        // Ragged tails throughout; the largest size has enough live blocks
        // for the phase to fan out.
        rows in prop_oneof![0usize..200, 200usize..3_000, 30_000usize..30_100],
        density in prop_oneof![Just(0u64), Just(1u64), 0u64..101, Just(100u64)],
        extra in 0usize..3,
        seed in any::<u64>(),
    ) {
        let dtype = if date { DataType::Date } else { DataType::Int };
        let cat = catalog(dtype, base, shape, rows, density, extra, seed);
        let dense = join(Region::all());
        // Always true, but lowered to a filter: the probe gets row ids.
        let every_row = join(Region::from_box(PredBox::all().with(
            "f.row",
            Interval::at_least(Value::Int(i64::MIN)),
        )));
        let (expected, probes, schema) = run(&cat, &every_row, 1);
        prop_assert_eq!(probes, rows as u64);
        for workers in [1, 2, 4] {
            let skipped = run(&cat, &dense, workers);
            prop_assert_eq!(&skipped.0, &expected, "{} workers", workers);
            prop_assert_eq!(skipped.1, probes, "probes count the tuples offered");
            prop_assert_eq!(&run(&cat, &every_row, workers).0, &expected);
        }
        let scan = |table: &str, attrs: &[&str]| {
            Relation::scan(&cat, table, &Region::all())
                .and_then(|r| r.project(attrs))
                .unwrap()
        };
        let answer = scan("f", &["f.k", "f.row"])
            .join("f.k", &scan("d", &["d.k", "d.row"]), "d.k")
            .unwrap()
            .answer();
        prop_assert_eq!(answer.check(&schema, &expected), Ok(()), "the reference join");
    }
}

/// The live blocks of `probe`'s zone map against the key set `keys`.
fn live_share(probe: &Column, keys: &[i64]) -> f64 {
    let zones = ZoneMap::build(probe).expect("an Int column");
    let bitmap = KeyBitmap::new(keys.iter().map(|&k| k as u64), probe.len()).expect("fits");
    let live = zones.live_blocks(|lo, hi| bitmap.any_in(lo, hi));
    live.len() as f64 / zones.blocks() as f64
}

#[test]
fn a_one_percent_key_set_leaves_a_quarter_of_a_sorted_column_live() {
    // 60 000 rows, four per value, as `lineitem.l_orderkey` holds its orders.
    let probe = Column::Int((0..60_000).map(|i| i / 4).collect());
    let keys: Vec<i64> = (0..15_000)
        .filter(|&v| mix(v as u64).is_multiple_of(100))
        .collect();
    assert!((100..200).contains(&keys.len()), "≈ 1 % of 15 000 values");
    let share = live_share(&probe, &keys);
    assert!(share <= 0.25, "{:.1} % of blocks live", share * 100.0);
    // A key set of every value leaves every block live, and an empty
    // range of keys none.
    assert_eq!(live_share(&probe, &(0..15_000).collect::<Vec<_>>()), 1.0);
    assert_eq!(live_share(&probe, &[20_000]), 0.0);
}
