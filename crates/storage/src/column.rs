//! Typed columnar storage.

use std::collections::HashMap;
use std::sync::Arc;

use hashstash_types::{DataType, Value, F64};

/// A typed column of values.
///
/// Strings are dictionary-encoded: the `dict` holds distinct strings, the
/// `codes` vector holds per-row dictionary indices. TPC-H string selection
/// attributes (brand, mfgr, segment…) are low-cardinality, so this keeps
/// scans cache-friendly and makes string equality a `u32` compare.
#[derive(Debug, Clone)]
pub enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Date(Vec<i32>),
    Str {
        dict: Vec<Arc<str>>,
        codes: Vec<u32>,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Date => Column::Date(Vec::new()),
            DataType::Str => Column::Str {
                dict: Vec::new(),
                codes: Vec::new(),
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Date(_) => DataType::Date,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i` (clones; string clones are refcount bumps).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::float(v[i]),
            Column::Date(v) => Value::Date(v[i]),
            Column::Str { dict, codes } => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Compare row `i` against a scalar without materializing a `Value`.
    ///
    /// Returns `None` on type mismatch.
    pub fn cmp_row(&self, i: usize, v: &Value) -> Option<std::cmp::Ordering> {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => Some(c[i].cmp(x)),
            (Column::Date(c), Value::Date(x)) => Some(c[i].cmp(x)),
            (Column::Float(c), Value::Float(x)) => Some(hashstash_types::F64(c[i]).cmp(x)),
            (Column::Str { dict, codes }, Value::Str(s)) => {
                Some(dict[codes[i] as usize].as_ref().cmp(s.as_ref()))
            }
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes (used in memory statistics).
    ///
    /// Each dictionary entry is charged its string bytes plus the
    /// `Arc<str>` allocation header (two 8-byte reference counts) plus the
    /// 16-byte fat pointer slot in the `dict` vector. The header is charged
    /// per *entry*, not per shared `Arc`: a dictionary entry keeps its
    /// backing allocation alive regardless of how many other columns share
    /// it, so per-column accounting must not undercount it.
    pub fn bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Date(v) => v.len() * 4,
            Column::Str { codes, .. } => codes.len() * 4 + self.dict_bytes(),
        }
    }

    /// The raw `i64` slice of an `Int` column.
    #[inline]
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` slice of a `Float` column.
    #[inline]
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The raw day-count slice of a `Date` column.
    #[inline]
    pub fn as_date(&self) -> Option<&[i32]> {
        match self {
            Column::Date(v) => Some(v),
            _ => None,
        }
    }

    /// Dictionary and per-row codes of a `Str` column.
    #[inline]
    pub fn dict_parts(&self) -> Option<(&[Arc<str>], &[u32])> {
        match self {
            Column::Str { dict, codes } => Some((dict, codes)),
            _ => None,
        }
    }

    /// Selection-vector filter kernel: append to `sel` the row ids in
    /// `range` whose value passes `kernel`, in ascending order. Returns
    /// `false` (leaving `sel` untouched) when the kernel's type does not
    /// match the column — the caller falls back to row-at-a-time
    /// evaluation. Each arm is a tight loop over the typed slice; no
    /// per-row `Value` is materialized.
    pub fn select_range(
        &self,
        range: std::ops::Range<usize>,
        kernel: &RangeKernel,
        sel: &mut Vec<u32>,
    ) -> bool {
        match (self, kernel) {
            (Column::Int(v), RangeKernel::Int { lo, hi }) => {
                for i in range {
                    if (*lo..=*hi).contains(&v[i]) {
                        sel.push(i as u32);
                    }
                }
                true
            }
            (Column::Date(v), RangeKernel::Date { lo, hi }) => {
                for i in range {
                    if (*lo..=*hi).contains(&v[i]) {
                        sel.push(i as u32);
                    }
                }
                true
            }
            (Column::Float(v), RangeKernel::Float { lo, hi }) => {
                for i in range {
                    let k = hashstash_types::f64_order_key(v[i]);
                    if (*lo..=*hi).contains(&k) {
                        sel.push(i as u32);
                    }
                }
                true
            }
            (Column::Str { codes, .. }, RangeKernel::Dict { ok }) => {
                for i in range {
                    if ok[codes[i] as usize] {
                        sel.push(i as u32);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Selection-vector refinement kernel: retain in `sel` only the row ids
    /// whose value passes `kernel` (order preserved). Returns `false`
    /// (leaving `sel` untouched) on a kernel/column type mismatch.
    pub fn refine_range(&self, kernel: &RangeKernel, sel: &mut Vec<u32>) -> bool {
        match (self, kernel) {
            (Column::Int(v), RangeKernel::Int { lo, hi }) => {
                sel.retain(|&rid| (*lo..=*hi).contains(&v[rid as usize]));
                true
            }
            (Column::Date(v), RangeKernel::Date { lo, hi }) => {
                sel.retain(|&rid| (*lo..=*hi).contains(&v[rid as usize]));
                true
            }
            (Column::Float(v), RangeKernel::Float { lo, hi }) => {
                sel.retain(|&rid| {
                    (*lo..=*hi).contains(&hashstash_types::f64_order_key(v[rid as usize]))
                });
                true
            }
            (Column::Str { codes, .. }, RangeKernel::Dict { ok }) => {
                sel.retain(|&rid| ok[codes[rid as usize] as usize]);
                true
            }
            _ => false,
        }
    }

    /// The hash key of row `i`, identical to `Value::key64` of `get(i)`.
    #[inline]
    pub fn key64(&self, i: usize) -> u64 {
        match self {
            Column::Int(v) => hashstash_types::key64_int(v[i]),
            Column::Float(v) => hashstash_types::key64_float(v[i]),
            Column::Date(v) => hashstash_types::key64_date(v[i]),
            Column::Str { dict, codes } => hashstash_types::key64_str(&dict[codes[i] as usize]),
        }
    }

    /// Whether row `i` of this column equals row `j` of `other`, with
    /// `Value`'s equality (values of different types are never equal).
    #[inline]
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i] == b[j],
            (Column::Date(a), Column::Date(b)) => a[i] == b[j],
            (Column::Float(a), Column::Float(b)) => {
                hashstash_types::F64(a[i]) == hashstash_types::F64(b[j])
            }
            (
                Column::Str {
                    dict: da,
                    codes: ca,
                },
                Column::Str {
                    dict: db,
                    codes: cb,
                },
            ) => da[ca[i] as usize] == db[cb[j] as usize],
            _ => false,
        }
    }

    /// Whether both columns hold the same values in the same order, with
    /// `Value`'s equality (dictionaries may differ in order).
    pub fn same_values(&self, other: &Column) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.eq_at(i, other, i))
    }

    /// Append rows `rids` of `src`, which must have this column's type;
    /// strings are re-coded into this column's dictionary, which gains only
    /// the strings the appended rows use. Returns `false`, appending
    /// nothing, on a type mismatch.
    pub fn extend_from(&mut self, src: &Column, rids: impl IntoIterator<Item = usize>) -> bool {
        match (self, src) {
            (Column::Int(a), Column::Int(b)) => a.extend(rids.into_iter().map(|r| b[r])),
            (Column::Float(a), Column::Float(b)) => a.extend(rids.into_iter().map(|r| b[r])),
            (Column::Date(a), Column::Date(b)) => a.extend(rids.into_iter().map(|r| b[r])),
            (
                Column::Str { dict, codes },
                Column::Str {
                    dict: sd,
                    codes: sc,
                },
            ) => {
                // Source code → our code, assigned on first use.
                const UNSET: u32 = u32::MAX;
                let mut recode = vec![UNSET; sd.len()];
                let mut known = DictIndex::default();
                for r in rids {
                    let s = sc[r] as usize;
                    if recode[s] == UNSET {
                        recode[s] = known.code_of(dict, &sd[s]);
                    }
                    codes.push(recode[s]);
                }
            }
            _ => return false,
        }
        true
    }

    /// Fold rows of `src` into rows of this column, keeping an extreme:
    /// for each `(at, rid)` of `pairs`, in order, row `at` takes row `rid`
    /// of `src` when that compares as `wins` (`Less` keeps the minimum,
    /// `Greater` the maximum) under `Value`'s order, so ties keep what is
    /// there. Strings are re-coded into this column's dictionary. Returns
    /// `false`, changing nothing, on a type mismatch.
    pub fn fold_extreme(
        &mut self,
        src: &Column,
        pairs: impl IntoIterator<Item = (usize, usize)>,
        wins: std::cmp::Ordering,
    ) -> bool {
        match (self, src) {
            (Column::Int(a), Column::Int(b)) => pairs.into_iter().for_each(|(at, r)| {
                if b[r].cmp(&a[at]) == wins {
                    a[at] = b[r];
                }
            }),
            (Column::Date(a), Column::Date(b)) => pairs.into_iter().for_each(|(at, r)| {
                if b[r].cmp(&a[at]) == wins {
                    a[at] = b[r];
                }
            }),
            (Column::Float(a), Column::Float(b)) => pairs.into_iter().for_each(|(at, r)| {
                if F64(b[r]).cmp(&F64(a[at])) == wins {
                    a[at] = b[r];
                }
            }),
            (
                Column::Str { dict, codes },
                Column::Str {
                    dict: sd,
                    codes: sc,
                },
            ) => {
                const UNSET: u32 = u32::MAX;
                let mut recode = vec![UNSET; sd.len()];
                let mut known = DictIndex::default();
                for (at, r) in pairs {
                    let s = sc[r] as usize;
                    if sd[s].as_ref().cmp(dict[codes[at] as usize].as_ref()) == wins {
                        if recode[s] == UNSET {
                            recode[s] = known.code_of(dict, &sd[s]);
                        }
                        codes[at] = recode[s];
                    }
                }
            }
            _ => return false,
        }
        true
    }

    /// Append `values`, which must all have this column's type. Returns
    /// `false` at the first mismatch; the values before it stay appended.
    pub fn extend_values<'v>(&mut self, values: impl IntoIterator<Item = &'v Value>) -> bool {
        let mut known = DictIndex::default();
        for v in values {
            match (&mut *self, v) {
                (Column::Int(c), Value::Int(x)) => c.push(*x),
                (Column::Float(c), Value::Float(x)) => c.push(x.0),
                (Column::Date(c), Value::Date(x)) => c.push(*x),
                (Column::Str { dict, codes }, Value::Str(s)) => {
                    let code = known.code_of(dict, s);
                    codes.push(code);
                }
                _ => return false,
            }
        }
        true
    }

    /// Drop every row from position `len` on (the dictionary stays).
    pub fn truncate(&mut self, len: usize) {
        match self {
            Column::Int(v) => v.truncate(len),
            Column::Float(v) => v.truncate(len),
            Column::Date(v) => v.truncate(len),
            Column::Str { codes, .. } => codes.truncate(len),
        }
    }

    /// Make room for exactly `additional` more rows.
    pub fn reserve_exact(&mut self, additional: usize) {
        match self {
            Column::Int(v) => v.reserve_exact(additional),
            Column::Float(v) => v.reserve_exact(additional),
            Column::Date(v) => v.reserve_exact(additional),
            Column::Str { codes, .. } => codes.reserve_exact(additional),
        }
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        match self {
            Column::Int(v) => v.shrink_to_fit(),
            Column::Float(v) => v.shrink_to_fit(),
            Column::Date(v) => v.shrink_to_fit(),
            Column::Str { dict, codes } => {
                dict.shrink_to_fit();
                codes.shrink_to_fit();
            }
        }
    }

    /// Heap bytes of the per-row data, capacity included (no dictionary).
    pub fn data_heap_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.capacity() * 8,
            Column::Float(v) => v.capacity() * 8,
            Column::Date(v) => v.capacity() * 4,
            Column::Str { codes, .. } => codes.capacity() * 4,
        }
    }

    /// Bytes of a string column's dictionary, charged as [`Column::bytes`]
    /// does; zero for other types.
    pub fn dict_bytes(&self) -> usize {
        match self {
            Column::Str { dict, .. } => dict.iter().map(|s| s.len() + 32).sum(),
            _ => 0,
        }
    }
}

/// The code of each string already in a dictionary, built on first use so
/// an append that adds no string never pays for it.
#[derive(Default)]
struct DictIndex(Option<HashMap<Arc<str>, u32>>);

impl DictIndex {
    /// The code of `s` in `dict`, appending it if absent.
    fn code_of(&mut self, dict: &mut Vec<Arc<str>>, s: &Arc<str>) -> u32 {
        let index = self.0.get_or_insert_with(|| {
            dict.iter()
                .enumerate()
                .map(|(c, d)| (d.clone(), c as u32))
                .collect()
        });
        *index.entry(s.clone()).or_insert_with(|| {
            dict.push(s.clone());
            dict.len() as u32 - 1
        })
    }
}

/// A compiled, type-specific range test the selection kernels run per row.
///
/// All four variants are *inclusive* range compares over primitive
/// representations: interval bounds are lowered once per scan box
/// (exclusive bounds become `± 1` on discrete domains and on the float
/// order key; dictionary predicates become a per-code boolean mask), after
/// which the per-row work is a branchless-friendly compare with no `Value`
/// in sight. An impossible predicate lowers to an empty range (`lo > hi`).
#[derive(Debug, Clone)]
pub enum RangeKernel {
    /// `lo <= x <= hi` over an `Int` column.
    Int { lo: i64, hi: i64 },
    /// `lo <= x <= hi` over a `Date` column (day counts).
    Date { lo: i32, hi: i32 },
    /// `lo <= f64_order_key(x) <= hi` over a `Float` column
    /// ([`hashstash_types::f64_order_key`] mirrors the `F64` total order).
    Float { lo: u64, hi: u64 },
    /// Per-dictionary-code acceptance mask over a `Str` column: the string
    /// predicate is evaluated once per distinct dictionary entry, turning
    /// the per-row test into a `u32` index into `ok`.
    Dict { ok: Vec<bool> },
}

/// Incremental builder for one column.
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
    dict_lookup: HashMap<Arc<str>, u32>,
}

impl ColumnBuilder {
    /// Start building a column of the given type.
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder {
            column: Column::new(dtype),
            dict_lookup: HashMap::new(),
        }
    }

    /// Start building a column with room for `n` rows, so pushing `n`
    /// values never grow-reallocates the data vector (the TPC-H loaders
    /// know their cardinalities up front). The string dictionary is left
    /// at its default capacity — distinct-value counts are small and
    /// unknown.
    pub fn with_capacity(dtype: DataType, n: usize) -> Self {
        let column = match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(n)),
            DataType::Float => Column::Float(Vec::with_capacity(n)),
            DataType::Date => Column::Date(Vec::with_capacity(n)),
            DataType::Str => Column::Str {
                dict: Vec::new(),
                codes: Vec::with_capacity(n),
            },
        };
        ColumnBuilder {
            column,
            dict_lookup: HashMap::new(),
        }
    }

    /// Append a value. Panics on type mismatch (catalog construction is
    /// programmatic; a mismatch is a bug, not user input).
    pub fn push(&mut self, v: Value) {
        match (&mut self.column, v) {
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Float(c), Value::Float(x)) => c.push(x.0),
            (Column::Date(c), Value::Date(x)) => c.push(x),
            (Column::Str { dict, codes }, Value::Str(s)) => {
                let code = match self.dict_lookup.get(&s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(s.clone());
                        self.dict_lookup.insert(s, c);
                        c
                    }
                };
                codes.push(code);
            }
            (col, v) => panic!(
                "type mismatch pushing {:?} into {:?} column",
                v.data_type(),
                col.data_type()
            ),
        }
    }

    /// Convenience: push an `i64`.
    pub fn push_int(&mut self, v: i64) {
        self.push(Value::Int(v));
    }

    /// Convenience: push an `f64`.
    pub fn push_float(&mut self, v: f64) {
        self.push(Value::float(v));
    }

    /// Convenience: push a date given as days since epoch.
    pub fn push_date(&mut self, days: i32) {
        self.push(Value::Date(days));
    }

    /// Convenience: push a string.
    pub fn push_str(&mut self, s: &str) {
        self.push(Value::str(s));
    }

    /// Finish building.
    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_get_all_types() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push_int(1);
        b.push_int(2);
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), Value::Int(2));
        assert_eq!(c.data_type(), DataType::Int);

        let mut b = ColumnBuilder::new(DataType::Str);
        b.push_str("a");
        b.push_str("b");
        b.push_str("a");
        let c = b.finish();
        assert_eq!(c.get(2), Value::str("a"));
        if let Column::Str { dict, .. } = &c {
            assert_eq!(dict.len(), 2, "dictionary deduplicates");
        } else {
            panic!("expected string column");
        }
    }

    #[test]
    fn cmp_row_matches_value_order() {
        let mut b = ColumnBuilder::new(DataType::Date);
        b.push_date(100);
        let c = b.finish();
        assert_eq!(
            c.cmp_row(0, &Value::Date(50)),
            Some(std::cmp::Ordering::Greater)
        );
        assert_eq!(c.cmp_row(0, &Value::Int(50)), None, "type mismatch");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_wrong_type_panics() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push_str("nope");
    }

    #[test]
    fn bytes_accounting() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for i in 0..10 {
            b.push_int(i);
        }
        assert_eq!(b.finish().bytes(), 80);
    }

    #[test]
    fn str_bytes_accounting_golden() {
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push_str("abc"); // dict entry 0: 3 bytes
        b.push_str("de"); // dict entry 1: 2 bytes
        b.push_str("abc"); // reuses entry 0
        let c = b.finish();
        // 3 codes * 4 bytes + per-entry (len + 16-byte Arc header +
        // 16-byte fat-pointer slot): (3 + 32) + (2 + 32).
        assert_eq!(c.bytes(), 12 + 35 + 34);
    }

    #[test]
    fn with_capacity_preallocates_without_changing_contents() {
        let mut a = ColumnBuilder::with_capacity(DataType::Int, 100);
        let mut b = ColumnBuilder::new(DataType::Int);
        for i in 0..100 {
            a.push_int(i);
            b.push_int(i);
        }
        let (a, b) = (a.finish(), b.finish());
        assert_eq!(a.len(), b.len());
        for i in 0..100 {
            assert_eq!(a.get(i), b.get(i));
        }
        let mut s = ColumnBuilder::with_capacity(DataType::Str, 4);
        s.push_str("x");
        s.push_str("y");
        s.push_str("x");
        let s = s.finish();
        let (dict, codes) = s.dict_parts().unwrap();
        assert_eq!(dict.len(), 2);
        assert_eq!(codes, &[0, 1, 0]);
    }

    #[test]
    fn typed_slice_accessors() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push_int(5);
        let c = b.finish();
        assert_eq!(c.as_int(), Some(&[5i64][..]));
        assert!(c.as_float().is_none());
        assert!(c.as_date().is_none());
        assert!(c.dict_parts().is_none());
    }

    #[test]
    fn select_and_refine_kernels_match_scalar_filters() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [5i64, -3, 12, 7, 12, 0] {
            b.push_int(v);
        }
        let c = b.finish();
        let k = RangeKernel::Int { lo: 0, hi: 11 };
        let mut sel = Vec::new();
        assert!(c.select_range(0..c.len(), &k, &mut sel));
        assert_eq!(sel, vec![0, 3, 5]);
        // Refine with a tighter range.
        assert!(c.refine_range(&RangeKernel::Int { lo: 5, hi: 7 }, &mut sel));
        assert_eq!(sel, vec![0, 3]);
        // Type mismatch leaves the selection untouched.
        assert!(!c.refine_range(&RangeKernel::Date { lo: 0, hi: 1 }, &mut sel));
        assert_eq!(sel, vec![0, 3]);

        let mut b = ColumnBuilder::new(DataType::Float);
        for v in [1.5f64, -0.0, f64::NAN, 3.0] {
            b.push_float(v);
        }
        let c = b.finish();
        let k = RangeKernel::Float {
            lo: hashstash_types::f64_order_key(0.0),
            hi: hashstash_types::f64_order_key(2.0),
        };
        let mut sel = Vec::new();
        assert!(c.select_range(0..c.len(), &k, &mut sel));
        assert_eq!(sel, vec![0, 1], "-0.0 is inside [0, 2], NaN is above");

        let mut b = ColumnBuilder::new(DataType::Str);
        for s in ["a", "b", "a", "c"] {
            b.push_str(s);
        }
        let c = b.finish();
        let k = RangeKernel::Dict {
            ok: vec![true, false, true],
        };
        let mut sel = Vec::new();
        assert!(c.select_range(1..c.len(), &k, &mut sel));
        assert_eq!(sel, vec![2, 3]);
    }

    #[test]
    fn float_column_roundtrip() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push_float(1.5);
        b.push_float(-2.5);
        let c = b.finish();
        assert_eq!(c.get(0), Value::float(1.5));
        assert_eq!(
            c.cmp_row(1, &Value::float(0.0)),
            Some(std::cmp::Ordering::Less)
        );
    }
}
