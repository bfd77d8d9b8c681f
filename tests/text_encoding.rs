//! `ResultRows::write_text` against the rendering it replaces: every value
//! through `Value`'s `Display`, values joined by `\t`, each row introduced
//! by `\n`. The two must agree byte for byte — `hsbench` digests every
//! reply against exactly that rendering — for every shape a result has: a
//! column selection (dense, sparse and index-ordered) of a base table or
//! of an operator's output gathered into a table.
//!
//! `PROPTEST_CASES=2000 cargo test --release --test text_encoding` is the
//! deep run.

use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use hashstash::ResultRows;
use hashstash_exec::{ColumnarBatch, Selection};
use hashstash_storage::{Column, Table, TableBuilder};
use hashstash_types::date::days_from_ymd;
use hashstash_types::{DataType, Field, Row, Schema, Value};

/// The reply body as the server rendered it before `write_text`.
fn display_text(rows: &[Row]) -> Vec<u8> {
    let mut out = String::new();
    for row in rows {
        out.push('\n');
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            out.push_str(&v.to_string());
        }
    }
    out.into_bytes()
}

/// Reply text as a `String`, so a mismatch prints readably.
fn text_of(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("reply text is UTF-8")
}

fn ints() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        Just(-1i64),
        Just(i64::MIN + 1),
        -1000i64..1000,
        any::<i64>(),
    ]
}

/// 2^53: the first power of two whose neighbours are not all integers
/// apart, and where integral floats stop rendering through `write_int`.
const TWO_53: f64 = 9_007_199_254_740_992.0;

fn floats() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e21f64),
        Just(1e-7f64),
        Just(5e-324f64),
        Just(3.0f64),
        Just(f64::MAX),
        Just(TWO_53),
        Just(-TWO_53),
        Just(TWO_53 - 1.0),
        Just(TWO_53 + 2.0),
        Just(1e15f64),
        Just(1e16f64),
        Just(-1e17f64),
        (-1_000_000i64..1_000_000).prop_map(|x| x as f64),
        // Integral values around 2^53, where the integer fast path ends.
        (-4i64..5).prop_map(|d| TWO_53 + (d * 2) as f64),
        (0i64..1 << 20).prop_map(|x| (TWO_53 as i64 - x) as f64),
        (-1_000_000i64..1_000_000).prop_map(|x| x as f64 / 1000.0),
        // Every bit pattern: subnormals, huge exponents, NaN payloads.
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn dates() -> impl Strategy<Value = i32> {
    prop_oneof![
        Just(days_from_ymd(1, 1, 1)),
        Just(days_from_ymd(1992, 2, 29)),
        Just(days_from_ymd(9999, 12, 31)),
        Just(0i32),
        Just(-1i32),
        days_from_ymd(1992, 1, 1)..days_from_ymd(1999, 1, 1),
        // Years below 0 and above 9999 keep `{:04}`'s rendering.
        -100_000_000i32..100_000_000,
    ]
}

/// The string column's universe: empty, ASCII, non-ASCII.
const STRS: [&str; 6] = ["", "Brand#12", "naïve", "日本語", "crab 🦀", "a b"];

/// One generated tuple: `(i, f, d, s)`.
type Tuple = (i64, f64, i32, usize);

fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((ints(), floats(), dates(), 0usize..STRS.len()), 0..48)
}

/// How the selection over the generated table is drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense,
    /// Ascending row ids, roughly one in `keep` kept.
    Sparse {
        keep: u64,
        salt: u64,
    },
    /// The `i` column's index order (by key, ties by row id), thinned.
    IndexOrder {
        keep: u64,
        salt: u64,
    },
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Dense),
        (1u64..4, any::<u64>()).prop_map(|(keep, salt)| Shape::Sparse { keep, salt }),
        (1u64..4, any::<u64>()).prop_map(|(keep, salt)| Shape::IndexOrder { keep, salt }),
    ]
}

fn kept(rid: u32, keep: u64, salt: u64) -> bool {
    (u64::from(rid).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).is_multiple_of(keep)
}

fn batch(tuples: &[Tuple], proj: Vec<usize>, shape: Shape) -> ColumnarBatch {
    let mut b = TableBuilder::with_capacity(
        "t",
        vec![
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
        ],
        tuples.len(),
    );
    for &(i, f, d, s) in tuples {
        b.push_row(vec![
            Value::Int(i),
            Value::float(f),
            Value::Date(d),
            Value::str(STRS[s]),
        ]);
    }
    let table = b.finish_with_indexes(&["i"]).expect("index on i");
    let sel = match shape {
        Shape::Dense => Selection::Dense(table.row_count()),
        Shape::Sparse { keep, salt } => Selection::Rows(
            (0..table.row_count() as u32)
                .filter(|&r| kept(r, keep, salt))
                .collect(),
        ),
        Shape::IndexOrder { keep, salt } => {
            let index = table.index_on("i").expect("index on i");
            let column = table.column_by_name("i").expect("column i");
            let hits = index.range(column, Bound::Unbounded, Bound::Unbounded);
            Selection::Rows(
                hits.iter()
                    .copied()
                    .filter(|&r| kept(r, keep, salt))
                    .collect(),
            )
        }
    };
    ColumnarBatch {
        table: Arc::new(table),
        proj,
        sel,
    }
}

proptest! {
    // From a column selection: the text equals the `Display` rendering of
    // the selection's rows, and deref hands out exactly those rows.
    #[test]
    fn selection_text_matches_display(
        tuples in tuples(),
        proj in proptest::collection::vec(0usize..4, 0..6),
        shape in shapes(),
    ) {
        let batch = batch(&tuples, proj, shape);
        let rows: Vec<Row> = (0..batch.sel.len())
            .map(|i| batch.table.row_projected(batch.sel.rid(i), &batch.proj))
            .collect();
        let result = ResultRows::from(batch);
        prop_assert_eq!(result.len(), rows.len());
        // Appends after what the buffer already holds (the header).
        let mut text = b"OK".to_vec();
        result.write_text(&mut text);
        prop_assert_eq!(text_of(text[2..].to_vec()), text_of(display_text(&rows)));
        prop_assert_eq!(&result[..], &rows[..]);
    }
}

/// The named edge values, once each, outside the random draw.
#[test]
fn edge_values_render_like_display() {
    let row = |v: Value| Row::new(vec![v]);
    let rows = vec![
        row(Value::Int(i64::MIN)),
        row(Value::Int(i64::MAX)),
        row(Value::Int(0)),
        row(Value::Int(-42)),
        row(Value::float(-0.0)),
        row(Value::float(f64::NAN)),
        row(Value::float(f64::INFINITY)),
        row(Value::float(f64::NEG_INFINITY)),
        row(Value::float(1e21)),
        row(Value::float(1e-7)),
        row(Value::float(5e-324)),
        row(Value::float(3.0)),
        row(Value::float(TWO_53)),
        row(Value::float(-TWO_53)),
        row(Value::float(TWO_53 - 1.0)),
        row(Value::float(-(TWO_53 - 1.0))),
        // 2^53 + 1 is not a float: it rounds to 2^53.
        row(Value::float(TWO_53 + 1.0)),
        row(Value::float(TWO_53 + 2.0)),
        row(Value::float(1e15)),
        row(Value::float(1e16)),
        row(Value::float(1e17)),
        row(Value::float(-1e17)),
        row(Value::Date(days_from_ymd(1, 1, 1))),
        row(Value::Date(days_from_ymd(1992, 2, 29))),
        row(Value::Date(days_from_ymd(9999, 12, 31))),
        row(Value::Date(days_from_ymd(-1, 3, 1))),
        row(Value::Date(days_from_ymd(12345, 6, 7))),
        row(Value::str("")),
        row(Value::str("日本語")),
        Row::new(vec![]),
    ];
    // Each value as a one-row table of its type; the empty row as a
    // selection of no column.
    let mut text = Vec::new();
    for row in &rows {
        let schema = Schema::new(
            row.values()
                .iter()
                .map(|v| Field::new("v", v.data_type()))
                .collect(),
        );
        let columns = row
            .values()
            .iter()
            .map(|v| {
                let mut column = Column::new(v.data_type());
                assert!(column.extend_values([v]));
                column
            })
            .collect();
        let table = Arc::new(Table::from_columns(schema, columns).unwrap());
        let sel = Selection::Dense(1);
        let proj = (0..row.len()).collect();
        ResultRows::from(ColumnarBatch { table, proj, sel }).write_text(&mut text);
    }
    assert_eq!(text_of(text), text_of(display_text(&rows)));
}
