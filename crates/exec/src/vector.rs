//! Selection-vector kernels for the columnar hot paths.
//!
//! The scan / probe / aggregate inner loops of [`crate::exec`] run directly
//! over [`Column`] slices: a scan produces a *selection vector* of
//! surviving row ids per morsel instead of materialized rows, and the probe
//! / aggregate key extraction reads the key column through a monomorphized
//! [`KeyKernel`] — no per-row scalar boxing anywhere in the loop. A scan
//! with nothing to check hands on a dense [`Selection`] (a row count, no
//! vector at all), a scan with an index access path starts from the index
//! hits ([`select_ids`]), and the probe gathers a whole morsel's keys in one
//! typed loop ([`gather_keys`]) before it touches the hash table. Every
//! query leaves the executor as a batch, and the server writes its reply
//! text straight from the columns ([`write_text`]).
//!
//! Everything here is deliberately scalar-free: this module never touches
//! the boxed scalar type, only typed slices and the `key64_*` primitives of
//! `hashstash_types` (the in-tree `no-value-in-kernels` tidy lint keeps it
//! that way). Predicate lowering — which *does* inspect boxed bounds — lives
//! in `exec.rs` and hands kernels down ([`hashstash_storage::RangeKernel`]).
//!
//! Determinism: selection vectors are built with [`collect_morsels`], so
//! row-id order — scan order per region box, or index order on the index
//! access path — and therefore every downstream row order, accumulator fold
//! order, and published hash-table layout is the serial scan's at any
//! worker count.

use std::io::Write as _;
use std::ops::Range;
use std::sync::Arc;

use hashstash_storage::{Column, RangeKernel, Table};
use hashstash_types::date::ymd_from_days;
use hashstash_types::{key64_combine, key64_date, key64_float, key64_int, key64_str, KEY64_SEED};

use crate::parallel::{collect_morsels, Scheduler};

/// The row ids of a batch, in scan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Every row `0..n` of the base table: what a scan whose region lowers
    /// to no checks produces. Nothing is written out; consumers index the
    /// columns directly.
    Dense(usize),
    /// Explicit surviving row ids, per region box in scan order (ascending)
    /// or, where the box took its index access path, in index order (by
    /// key, ties by row id).
    Rows(Vec<u32>),
}

impl Selection {
    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            Selection::Dense(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row id at position `i`.
    #[inline]
    pub fn rid(&self, i: usize) -> usize {
        match self {
            Selection::Dense(_) => i,
            Selection::Rows(rows) => rows[i] as usize,
        }
    }
}

/// A batch flowing between operators: a table (a base table, or an
/// operator's output gathered as columns) plus the projection the consumer
/// sees and the row ids that survived filtering so far. This is the *only*
/// representation of tuples between operators besides a join chain.
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    /// The base table the row ids index into.
    pub table: Arc<Table>,
    /// Output column positions (into `table`), in output-schema order.
    pub proj: Vec<usize>,
    /// Surviving row ids, per region box in scan or index order.
    pub sel: Selection,
}

impl ColumnarBatch {
    /// Every row of `table`, every column, in order: an operator's output
    /// gathered into one table.
    pub fn dense(table: Arc<Table>) -> Self {
        let n = table.row_count();
        let proj = (0..table.schema().len()).collect();
        ColumnarBatch {
            table,
            proj,
            sel: Selection::Dense(n),
        }
    }
}

/// A monomorphized key-extraction kernel over one column: `key64(rid)`
/// reproduces exactly what `Value::key64` of the cell computes, without
/// materializing the scalar. Dictionary columns hash each distinct string
/// once up front and look keys up by code.
pub enum KeyKernel<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Date(&'a [i32]),
    Dict {
        codes: &'a [u32],
        key_by_code: Vec<u64>,
    },
}

impl KeyKernel<'_> {
    /// The 64-bit hash key of row `rid`, identical to `Value::key64` of
    /// the same cell.
    #[inline]
    pub fn key64(&self, rid: usize) -> u64 {
        match self {
            KeyKernel::Int(v) => key64_int(v[rid]),
            KeyKernel::Float(v) => key64_float(v[rid]),
            KeyKernel::Date(v) => key64_date(v[rid]),
            KeyKernel::Dict { codes, key_by_code } => key_by_code[codes[rid] as usize],
        }
    }

    /// Append `key64(rid)` for every `rid` of `rids` to `out`: the kernel
    /// dispatch happens once, outside a loop over one typed slice.
    fn gather(&self, rids: impl Iterator<Item = usize>, out: &mut Vec<u64>) {
        match self {
            KeyKernel::Int(v) => out.extend(rids.map(|r| key64_int(v[r]))),
            KeyKernel::Float(v) => out.extend(rids.map(|r| key64_float(v[r]))),
            KeyKernel::Date(v) => out.extend(rids.map(|r| key64_date(v[r]))),
            KeyKernel::Dict { codes, key_by_code } => {
                out.extend(rids.map(|r| key_by_code[codes[r] as usize]))
            }
        }
    }
}

/// Build the key kernel for a column.
pub fn key_kernel(col: &Column) -> KeyKernel<'_> {
    if let Some(v) = col.as_int() {
        return KeyKernel::Int(v);
    }
    if let Some(v) = col.as_float() {
        return KeyKernel::Float(v);
    }
    if let Some(v) = col.as_date() {
        return KeyKernel::Date(v);
    }
    // tidy:allow(no-panic-paths): the four accessors above cover every Column variant
    let (dict, codes) = col.dict_parts().expect("column variants are exhaustive");
    KeyKernel::Dict {
        codes,
        key_by_code: dict.iter().map(|s| key64_str(s)).collect(),
    }
}

/// Composite group key over several kernels, mirroring `Row::key64`'s
/// multi-column combiner: no columns hash to the constant
/// empty key, one column is its own key, several mix with the FNV-style
/// combiner in column order.
#[inline]
pub fn group_key64(kernels: &[KeyKernel<'_>], rid: usize) -> u64 {
    match kernels {
        [] => 0,
        [k] => k.key64(rid),
        many => {
            let mut h = KEY64_SEED;
            for k in many {
                h = key64_combine(h, k.key64(rid));
            }
            h
        }
    }
}

/// Append the [`group_key64`] of positions `range` of `sel` to `out`, in
/// order. The single-key case (every join probe) runs one typed loop per
/// selection shape; composite keys combine per row.
pub fn gather_keys(
    kernels: &[KeyKernel<'_>],
    sel: &Selection,
    range: Range<usize>,
    out: &mut Vec<u64>,
) {
    match (kernels, sel) {
        ([k], Selection::Dense(_)) => k.gather(range, out),
        ([k], Selection::Rows(rows)) => k.gather(rows[range].iter().map(|&r| r as usize), out),
        _ => out.extend(range.map(|i| group_key64(kernels, sel.rid(i)))),
    }
}

/// Run the lowered checks over `rows` rows of `table` and return the
/// selection vector of survivors, morsel-parallel with morsel-order
/// concatenation (so the vector is in ascending row-id order, matching the
/// serial filter loop). The first check scans its column range directly;
/// the remaining checks refine the morsel's vector in place.
///
/// Lowering in `exec.rs` builds every kernel of its column's type, so the
/// kernels always match.
pub fn select_rows(
    sched: Scheduler<'_>,
    table: &Table,
    checks: &[(usize, RangeKernel)],
    rows: usize,
) -> Vec<u32> {
    collect_morsels(sched, rows, |range: Range<usize>| {
        let mut sel = Vec::new();
        match checks.split_first() {
            None => sel.extend(range.map(|i| i as u32)),
            Some(((col, kernel), rest)) => {
                let matched = table.column(*col).select_range(range, kernel, &mut sel);
                debug_assert!(matched, "lowering types each kernel as its column");
                for (col, kernel) in rest {
                    let matched = table.column(*col).refine_range(kernel, &mut sel);
                    debug_assert!(matched, "lowering types each kernel as its column");
                }
            }
        }
        sel
    })
}

/// The selection of an index access path: the index hits `ids`, in index
/// order, refined by the box's residual checks, morsel-parallel over the
/// hits with morsel-order concatenation (so the survivors keep the order
/// the hits came in).
pub fn select_ids(
    sched: Scheduler<'_>,
    table: &Table,
    ids: &[u32],
    checks: &[(usize, RangeKernel)],
) -> Vec<u32> {
    if checks.is_empty() {
        return ids.to_vec();
    }
    collect_morsels(sched, ids.len(), |range: Range<usize>| {
        let mut sel = ids[range].to_vec();
        for (col, kernel) in checks {
            let matched = table.column(*col).refine_range(kernel, &mut sel);
            debug_assert!(matched, "lowering types each kernel as its column");
        }
        sel
    })
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

/// Append an integer in decimal, exactly as `i64`'s `Display` renders it.
#[inline]
pub fn write_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    // `u64::MAX` has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `n < 100` as two digits.
#[inline]
fn write_two(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&[b'0' + (n / 10) as u8, b'0' + (n % 10) as u8]);
}

/// Append a float exactly as `f64`'s `Display` renders it (shortest
/// round-trip digits, no exponent, `NaN`, `inf`, `-0`). An integral value
/// below 2^53 in magnitude, which `Display` prints as its integer digits,
/// goes through [`write_int`].
#[inline]
pub fn write_float(out: &mut Vec<u8>, v: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if v.fract() == 0.0 && v.abs() < EXACT && !(v == 0.0 && v.is_sign_negative()) {
        write_int(out, v as i64);
    } else {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
    }
}

/// Append a day count as `YYYY-MM-DD` (proleptic Gregorian), exactly as
/// the engine's date `Display` renders it: a year outside `0..=9999` keeps
/// its `{:04}` rendering (sign, then at least four digits).
#[inline]
pub fn write_date(out: &mut Vec<u8>, days: i32) {
    let (y, m, d) = ymd_from_days(days);
    if (0..=9999).contains(&y) {
        write_two(out, y as u32 / 100);
        write_two(out, y as u32 % 100);
    } else {
        let _ = write!(out, "{y:04}");
    }
    out.push(b'-');
    write_two(out, m);
    out.push(b'-');
    write_two(out, d);
}

/// One output column bound to its typed slice for text rendering.
enum TextKernel<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Date(&'a [i32]),
    Dict {
        dict: &'a [Arc<str>],
        codes: &'a [u32],
    },
}

impl<'a> TextKernel<'a> {
    fn of(col: &'a Column) -> Self {
        match col {
            Column::Int(v) => TextKernel::Int(v),
            Column::Float(v) => TextKernel::Float(v),
            Column::Date(v) => TextKernel::Date(v),
            Column::Str { dict, codes } => TextKernel::Dict { dict, codes },
        }
    }

    /// About how many bytes a cell takes as text: a guess for the one
    /// reservation of the reply, not a bound.
    fn width_guess(&self) -> usize {
        match self {
            TextKernel::Int(_) => 12,
            TextKernel::Float(_) | TextKernel::Dict { .. } => 16,
            TextKernel::Date(_) => 10,
        }
    }

    #[inline]
    fn write(&self, rid: usize, out: &mut Vec<u8>) {
        match self {
            TextKernel::Int(v) => write_int(out, v[rid]),
            TextKernel::Float(v) => write_float(out, v[rid]),
            TextKernel::Date(v) => write_date(out, v[rid]),
            TextKernel::Dict { dict, codes } => {
                out.extend_from_slice(dict[codes[rid] as usize].as_bytes())
            }
        }
    }
}

/// Append the batch as text: per selected row a `\n`, then its projected
/// columns separated by `\t` — the reply body that follows a header line.
/// Each column renders through its typed slice; dictionary strings are
/// copied by code. The output is reserved once, from a per-column guess.
pub fn write_text(batch: &ColumnarBatch, out: &mut Vec<u8>) {
    let kernels: Vec<TextKernel<'_>> = batch
        .proj
        .iter()
        .map(|&c| TextKernel::of(batch.table.column(c)))
        .collect();
    let line: usize = kernels.iter().map(|k| 1 + k.width_guess()).sum();
    out.reserve(batch.sel.len() * line.max(1));
    let line = |rid: usize, out: &mut Vec<u8>| {
        out.push(b'\n');
        for (i, k) in kernels.iter().enumerate() {
            if i > 0 {
                out.push(b'\t');
            }
            k.write(rid, out);
        }
    };
    match &batch.sel {
        Selection::Dense(n) => (0..*n).for_each(|rid| line(rid, out)),
        Selection::Rows(rows) => rows.iter().for_each(|&rid| line(rid as usize, out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_storage::{ColumnBuilder, TableBuilder};
    use hashstash_types::{DataType, Row};

    const SERIAL: Scheduler<'static> = Scheduler {
        parallelism: 1,
        pool: None,
    };

    fn sample_table() -> Table {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("a", DataType::Int),
                ("f", DataType::Float),
                ("d", DataType::Date),
                ("s", DataType::Str),
            ],
        );
        for i in 0..10i64 {
            b.push_row(vec![
                hashstash_types::Value::Int(i),
                hashstash_types::Value::float(i as f64 * 0.5),
                hashstash_types::Value::Date(i as i32),
                hashstash_types::Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ]);
        }
        b.finish()
    }

    #[test]
    fn key_kernels_match_row_keys() {
        let t = sample_table();
        for col in 0..4 {
            let kernel = key_kernel(t.column(col));
            for rid in 0..t.row_count() {
                assert_eq!(
                    kernel.key64(rid),
                    t.row(rid).key64(&[col]),
                    "col {col} rid {rid}"
                );
            }
        }
    }

    #[test]
    fn group_keys_match_row_keys() {
        let t = sample_table();
        let kernels: Vec<KeyKernel<'_>> = [0usize, 3]
            .iter()
            .map(|&c| key_kernel(t.column(c)))
            .collect();
        for rid in 0..t.row_count() {
            assert_eq!(group_key64(&kernels, rid), t.row(rid).key64(&[0, 3]));
        }
        assert_eq!(group_key64(&[], 5), Row::new(vec![]).key64(&[]));
    }

    #[test]
    fn gathered_keys_match_per_row_keys() {
        let t = sample_table();
        let strided = Selection::Rows(vec![1, 4, 5, 9]);
        let dense = Selection::Dense(t.row_count());
        for cols in [&[0usize][..], &[1], &[2], &[3], &[0, 3], &[]] {
            let kernels: Vec<KeyKernel<'_>> =
                cols.iter().map(|&c| key_kernel(t.column(c))).collect();
            for sel in [&strided, &dense] {
                let mut got = vec![7];
                gather_keys(&kernels, sel, 1..sel.len(), &mut got);
                let want: Vec<u64> = std::iter::once(7)
                    .chain((1..sel.len()).map(|i| group_key64(&kernels, sel.rid(i))))
                    .collect();
                assert_eq!(got, want, "cols {cols:?}, {sel:?}");
            }
        }
    }

    #[test]
    fn dense_selection_materializes_the_identity() {
        let sel = Selection::Dense(4);
        assert_eq!((sel.len(), sel.rid(3)), (4, 3));
        assert!(Selection::Dense(0).is_empty());
    }

    #[test]
    fn select_rows_matches_serial_filter() {
        let t = sample_table();
        let checks = vec![
            (0usize, RangeKernel::Int { lo: 2, hi: 8 }),
            (
                3usize,
                RangeKernel::Dict {
                    ok: vec![true, false], // only the first dict entry ("even")
                },
            ),
        ];
        let sel = select_rows(SERIAL, &t, &checks, t.row_count());
        assert_eq!(sel, vec![2, 4, 6, 8]);
        // No checks: everything survives in order.
        let all = select_rows(SERIAL, &t, &[], t.row_count());
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_column_builder_note() {
        // Keep a reference to ColumnBuilder so the storage dev-dependency
        // surface used above stays exercised from this crate too.
        let c = ColumnBuilder::with_capacity(DataType::Int, 4).finish();
        assert_eq!(c.len(), 0);
    }
}
