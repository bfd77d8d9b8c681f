//! Properties of the kernels on the snapshot and recovery path, each
//! against a plain reference:
//!
//! - `SortedIndex::build` sorts by the typed key; the reference sorts by
//!   `Value`'s order. Row order and keys must be identical.
//! - `SortedIndex::range` binary-searches the column through the
//!   permutation; the reference searches a sorted `Value` copy of the keys.
//!   Both must return the same rows, for bounds of every type.
//! - `DbStats`' distinct counts (bitmap or sort + dedup) against a
//!   `HashSet` of the column's values.
//! - The cache's persistence generation: over random publish / checkout /
//!   check-in / abandon / evict / drop sequences, an unchanged
//!   `HtManager::generation` means an identical `snapshot_entries` — what
//!   lets `Database::flush` skip a write.
//!
//! Columns are drawn with duplicates, NaNs of two bit patterns, `±0.0`,
//! dictionaries holding one string twice, and zero or one rows. CI runs
//! this file in release with `PROPTEST_CASES=2000`.

use std::collections::HashSet;
use std::ops::Bound;
use std::sync::Arc;

use hashstash_cache::{CheckedOut, ColumnHt, GcConfig, HtManager, StoredHt};
use hashstash_opt::DbStats;
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region};
use hashstash_storage::{Catalog, Column, SortedIndex, Table};
use hashstash_types::{DataType, Field, Row, Schema, Value};
use proptest::prelude::*;

const MAX_ROWS: usize = 48;

fn floats() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::from_bits(0xFFF8_0000_0000_0001)),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (-3i64..4).prop_map(|x| x as f64 * 0.5),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn ints() -> impl Strategy<Value = i64> {
    prop_oneof![
        -4i64..5,
        Just(i64::MIN),
        Just(i64::MAX),
        any::<i64>(),
        (0i64..1000).prop_map(|x| x * 7),
    ]
}

fn dates() -> impl Strategy<Value = i32> {
    prop_oneof![-3i32..4, Just(i32::MIN), Just(i32::MAX), any::<i32>()]
}

/// A string column over a drawn dictionary; `dup` repeats its first entry
/// at the end, so two codes decode to one string.
fn str_column(dict: Vec<u8>, dup: bool, rows: Vec<u32>) -> Column {
    const WORDS: [&str; 8] = ["", "a", "ab", "b", "Brand#12", "Brand#2", "zz", "é"];
    let mut dict: Vec<Arc<str>> = dict
        .iter()
        .map(|&w| Arc::from(WORDS[w as usize % WORDS.len()]))
        .collect::<Vec<_>>();
    dict.dedup();
    if dup {
        let first = Arc::clone(&dict[0]);
        dict.push(first);
    }
    let codes = rows.iter().map(|&c| c % dict.len() as u32).collect();
    Column::Str { dict, codes }
}

fn columns() -> impl Strategy<Value = Column> {
    prop_oneof![
        proptest::collection::vec(ints(), 0..MAX_ROWS).prop_map(Column::Int),
        proptest::collection::vec(dates(), 0..MAX_ROWS).prop_map(Column::Date),
        proptest::collection::vec(floats(), 0..MAX_ROWS).prop_map(Column::Float),
        (
            proptest::collection::vec(any::<u8>(), 1..6),
            any::<bool>(),
            proptest::collection::vec(any::<u32>(), 0..MAX_ROWS),
        )
            .prop_map(|(dict, dup, rows)| str_column(dict, dup, rows)),
        // Zero and one row of every type.
        (0usize..4, any::<bool>(), any::<u64>()).prop_map(|(t, one, x)| {
            let n = usize::from(one);
            match t {
                0 => Column::Int(vec![x as i64; n]),
                1 => Column::Date(vec![x as i32; n]),
                2 => Column::Float(vec![f64::from_bits(x); n]),
                _ => str_column(vec![x as u8], false, vec![0; n]),
            }
        }),
    ]
}

/// The index as a `Value`-comparator sort builds it.
fn reference_index(column: &Column) -> (Vec<u32>, Vec<Value>) {
    let mut perm: Vec<u32> = (0..column.len() as u32).collect();
    perm.sort_by(|&a, &b| {
        column
            .get(a as usize)
            .cmp(&column.get(b as usize))
            .then(a.cmp(&b))
    });
    let keys = perm.iter().map(|&r| column.get(r as usize)).collect();
    (perm, keys)
}

/// The range search the index made over a sorted copy of its keys as
/// `Value`s, before it searched the column through its permutation.
fn reference_range<'p>(
    perm: &'p [u32],
    keys: &[Value],
    lo: Bound<&Value>,
    hi: Bound<&Value>,
) -> &'p [u32] {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(v) => keys.partition_point(|k| k < v),
        Bound::Excluded(v) => keys.partition_point(|k| k <= v),
    };
    let end = match hi {
        Bound::Unbounded => keys.len(),
        Bound::Included(v) => keys.partition_point(|k| k <= v),
        Bound::Excluded(v) => keys.partition_point(|k| k < v),
    };
    if start >= end {
        &[]
    } else {
        &perm[start..end]
    }
}

/// One end of a drawn range: unbounded, or a bound on a drawn value, or on
/// one of the column's own values (`own` picks the row).
#[derive(Debug, Clone)]
struct DrawnBound {
    kind: u8,
    value: Value,
    own: Option<u32>,
}

impl DrawnBound {
    fn pick(&self, column: &Column) -> Bound<Value> {
        let value = match self.own {
            Some(row) if !column.is_empty() => column.get(row as usize % column.len()),
            _ => self.value.clone(),
        };
        match self.kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(value),
            _ => Bound::Excluded(value),
        }
    }
}

/// Bounds of every type, so cross-type bounds (which order by type) are
/// drawn as well as same-type ones.
fn bounds() -> impl Strategy<Value = DrawnBound> {
    let values = prop_oneof![
        ints().prop_map(Value::Int),
        dates().prop_map(Value::Date),
        floats().prop_map(Value::float),
        (0u8..8).prop_map(|w| str_column(vec![w], false, vec![0]).get(0)),
    ];
    (0u8..3, values, proptest::option::of(any::<u32>())).prop_map(|(kind, value, own)| DrawnBound {
        kind,
        value,
        own,
    })
}

/// A float key compared by its bits, not `F64`'s canonical equality.
fn bits(keys: &[Value]) -> Vec<String> {
    keys.iter()
        .map(|v| match v {
            Value::Float(f) => format!("f{:x}", f.0.to_bits()),
            v => format!("{v:?}"),
        })
        .collect()
}

/// The distinct count a `HashSet` of the column's values gives (floats by
/// bits, strings by dictionary code).
fn reference_distinct(column: &Column) -> u64 {
    (match column {
        Column::Int(v) => v.iter().collect::<HashSet<_>>().len(),
        Column::Date(v) => v.iter().collect::<HashSet<_>>().len(),
        Column::Float(v) => v.iter().map(|x| x.to_bits()).collect::<HashSet<_>>().len(),
        Column::Str { codes, .. } => codes.iter().collect::<HashSet<_>>().len(),
    }) as u64
}

proptest! {
    #[test]
    fn typed_index_build_matches_value_sort(column in columns()) {
        let index = SortedIndex::build(&column);
        let (perm, keys) = reference_index(&column);
        let rows = index.range(&column, Bound::Unbounded, Bound::Unbounded);
        prop_assert_eq!(rows, &perm[..]);
        let indexed: Vec<Value> = rows.iter().map(|&r| column.get(r as usize)).collect();
        prop_assert_eq!(bits(&indexed), bits(&keys));
    }

    #[test]
    fn typed_range_matches_value_search(
        column in columns(),
        lo in bounds(),
        hi in bounds(),
    ) {
        let index = SortedIndex::build(&column);
        let (perm, keys) = reference_index(&column);
        let (lo, hi) = (lo.pick(&column), hi.pick(&column));
        let expected = reference_range(&perm, &keys, lo.as_ref(), hi.as_ref());
        prop_assert_eq!(index.range(&column, lo.as_ref(), hi.as_ref()), expected);
    }

    #[test]
    fn distinct_counts_match_hash_set(column in columns()) {
        let schema = Schema::new(vec![Field::new("c", column.data_type())]);
        let expected = (!column.is_empty()).then(|| reference_distinct(&column));
        let mut catalog = Catalog::new();
        catalog.register(Table::from_parts("t", schema, vec![column], &[]).unwrap());
        let stats = DbStats::from_catalog(&catalog);
        prop_assert_eq!(stats.attr("t.c").map(|a| a.distinct), expected);
    }
}

// ------------------------------------------------- persistence generation

/// Same shape, disjoint regions: one shard, one recycle-graph node, so
/// publishes of a slot dedup and widened check-ins stay in place.
fn fp(slot: u8) -> HtFingerprint {
    let lo = i64::from(slot) * 100;
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::<str>::from("t")).collect(),
        edges: vec![],
        region: Region::from_box(
            PredBox::all().with("t.x", Interval::closed(Value::Int(lo), Value::Int(lo + 9))),
        ),
        key_attrs: vec![Arc::from("t.x")],
        payload_attrs: vec![Arc::from("t.x")],
        aggregates: vec![],
    }
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("t.x", DataType::Int)])
}

fn table(rows: u8) -> StoredHt {
    let mut t = ColumnHt::new(16, &[DataType::Int]);
    for i in 0..u64::from(rows) + 1 {
        t.insert(i, &Row::new(vec![Value::Int(i as i64)])).unwrap();
    }
    StoredHt::Rows(t)
}

/// What must not change while the generation stands still.
fn observe(m: &HtManager) -> Vec<(String, HtFingerprint, Schema, usize, u64, Arc<StoredHt>)> {
    m.snapshot_entries()
        .into_iter()
        .map(|e| {
            (
                e.id.to_string(),
                e.fingerprint,
                e.schema,
                e.bytes,
                e.use_count,
                e.payload,
            )
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Publish(u8, u8),
    Lookup(u8),
    Checkout(u8),
    ReleaseShared,
    /// An exclusive checkout, held across steps; `true` also takes the
    /// payload for mutation (in place when no reader holds it).
    CheckoutMut(u8, bool),
    CheckinWidened(u8),
    Abandon,
    Evict,
    Drop(u8),
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..8).prop_map(|(s, r)| Op::Publish(s, r)),
        (0u8..4).prop_map(Op::Lookup),
        (0u8..6).prop_map(Op::Checkout),
        Just(Op::ReleaseShared),
        (0u8..6, any::<bool>()).prop_map(|(s, m)| Op::CheckoutMut(s, m)),
        (0u8..4).prop_map(Op::CheckinWidened),
        Just(Op::Abandon),
        Just(Op::Evict),
        (0u8..6).prop_map(Op::Drop),
    ]
}

/// Guards held open across steps.
#[derive(Default)]
struct Held<'m> {
    readers: Vec<CheckedOut<'m>>,
    writers: Vec<CheckedOut<'m>>,
}

/// Apply one operation.
fn apply<'m>(m: &'m HtManager, held: &mut Held<'m>, op: Op) {
    // An id among the entries present, picked by `pick`.
    let id_of = |pick: u8| {
        let entries = m.snapshot_entries();
        (!entries.is_empty()).then(|| entries[pick as usize % entries.len()].id)
    };
    match op {
        Op::Publish(slot, rows) => {
            m.publish(fp(slot), schema(), table(rows));
        }
        Op::Lookup(slot) => {
            m.candidates(&fp(slot));
        }
        Op::Checkout(pick) => {
            if let Some(g) = id_of(pick).and_then(|id| m.checkout(id).ok()) {
                held.readers.push(g);
            }
        }
        Op::ReleaseShared => {
            if let Some(g) = held.readers.pop() {
                g.checkin().unwrap();
            }
        }
        Op::CheckoutMut(pick, mutate) => {
            if let Some(mut g) = id_of(pick).and_then(|id| m.checkout_mut(id).ok()) {
                if mutate {
                    if let StoredHt::Rows(t) = g.table_mut().unwrap() {
                        t.insert(999, &Row::new(vec![Value::Int(999)])).unwrap();
                    }
                }
                held.writers.push(g);
            }
        }
        Op::CheckinWidened(widen) => {
            if let Some(g) = held.writers.pop() {
                let lo = 1000 + i64::from(widen) * 10;
                let region = Region::from_box(
                    PredBox::all()
                        .with("t.x", Interval::closed(Value::Int(lo), Value::Int(lo + 5))),
                );
                g.checkin_widened(&region).unwrap();
            }
        }
        Op::Abandon => {
            // An in-place guard's abandon drops its entry; a copy-on-write
            // guard's leaves the cached version as it was.
            drop(held.writers.pop());
        }
        Op::Evict => {
            let bytes = m.stats().bytes;
            m.set_gc_config(GcConfig {
                budget_bytes: Some(bytes.saturating_sub(1)),
                ..m.gc_config()
            });
            m.enforce_budget();
            m.set_gc_config(GcConfig {
                budget_bytes: None,
                ..m.gc_config()
            });
        }
        Op::Drop(pick) => {
            if let Some(id) = id_of(pick) {
                let _ = m.drop_table(id);
            }
        }
    }
}

proptest! {
    #[test]
    fn unchanged_generation_means_identical_snapshot(
        script in proptest::collection::vec(ops(), 1..40),
    ) {
        let m = HtManager::with_shards(GcConfig::default(), 2);
        let mut held = Held::default();
        let mut before = (m.generation(), observe(&m));
        for op in script {
            apply(&m, &mut held, op);
            let after = (m.generation(), observe(&m));
            if after.0 == before.0 {
                let (a, b) = (&before.1, &after.1);
                prop_assert_eq!(a.len(), b.len(), "{:?} changed the entry count", op);
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(&x.0, &y.0, "{:?} changed the order", op);
                    prop_assert!(x.1 == y.1, "{:?} changed a lineage", op);
                    prop_assert_eq!(&x.2, &y.2);
                    prop_assert_eq!(x.3, y.3, "{:?} changed a footprint", op);
                    prop_assert_eq!(x.4, y.4, "{:?} changed a use count", op);
                    prop_assert!(Arc::ptr_eq(&x.5, &y.5), "{:?} changed a payload", op);
                }
            }
            before = after;
        }
        drop(held);
    }
}
