//! Sorted secondary indexes answering range scans.
//!
//! The paper's setup uses "secondary indexes on all selection attributes"
//! (§6). Partial- and overlapping-reuse rewrites scan only the *missing*
//! tuples (`r ∧ ¬c`), which is a small range delta — exactly the access
//! pattern a sorted index serves well.

use std::cmp::Ordering;
use std::ops::Bound;

use hashstash_types::{f64_order_key, DataType, Value};

use crate::column::Column;

/// A permutation of row ids sorted by the indexed column's values. The
/// index holds no copy of the keys: a range lookup binary-searches the
/// column through the permutation.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Row ids ordered by column value (ties in row order).
    perm: Vec<u32>,
}

impl SortedIndex {
    /// Build an index over a column.
    ///
    /// Rows are sorted by their typed key with the row id as the
    /// tie-break: the order of `Value`'s `Ord` (floats through
    /// [`f64_order_key`]: NaN greatest, `-0.0 == 0.0`; strings by content)
    /// without building a `Value` per comparison. Every sort key is
    /// unique, so an unstable sort gives the one order there is.
    pub fn build(column: &Column) -> Self {
        let n = column.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        match column {
            Column::Int(v) => perm.sort_unstable_by_key(|&r| (v[r as usize], r)),
            Column::Date(v) => perm.sort_unstable_by_key(|&r| (v[r as usize], r)),
            Column::Float(v) => perm.sort_unstable_by_key(|&r| (f64_order_key(v[r as usize]), r)),
            Column::Str { dict, codes } => {
                // Rank the dictionary once (equal strings share a rank),
                // then sort rows by (rank, row id) packed into one word.
                let mut by_str: Vec<u32> = (0..dict.len() as u32).collect();
                by_str.sort_unstable_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
                let mut rank = vec![0u32; dict.len()];
                let mut r = 0;
                for (i, pair) in by_str.windows(2).enumerate() {
                    if dict[pair[0] as usize] != dict[pair[1] as usize] {
                        r = i as u32 + 1;
                    }
                    rank[pair[1] as usize] = r;
                }
                perm.sort_unstable_by_key(|&row| {
                    (u64::from(rank[codes[row as usize] as usize]) << 32) | u64::from(row)
                });
            }
        }
        SortedIndex { perm }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Row ids whose key in `column` (the indexed column) lies within the
    /// given bounds, in index order.
    ///
    /// Bounds follow `std::ops::Bound` semantics and `Value`'s order, a
    /// bound of another type included (every `Int` sorts before every
    /// `Float`, and so on); `Unbounded` on both sides returns every row.
    pub fn range(&self, column: &Column, lo: Bound<&Value>, hi: Bound<&Value>) -> &[u32] {
        // The first position whose key is not `before` the bound.
        let point = |v: &Value, before: fn(Ordering) -> bool| {
            self.perm
                .partition_point(|&r| before(cmp_key(column, r as usize, v)))
        };
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => point(v, Ordering::is_lt),
            Bound::Excluded(v) => point(v, Ordering::is_le),
        };
        let end = match hi {
            Bound::Unbounded => self.perm.len(),
            Bound::Included(v) => point(v, Ordering::is_le),
            Bound::Excluded(v) => point(v, Ordering::is_lt),
        };
        if start >= end {
            &[]
        } else {
            &self.perm[start..end]
        }
    }

    /// Row ids whose key in `column` (the indexed column) equals `v`.
    pub fn equals(&self, column: &Column, v: &Value) -> &[u32] {
        self.range(column, Bound::Included(v), Bound::Included(v))
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.perm.len() * 4
    }
}

/// Row `row` of `column` against `v` in `Value`'s order: by value within a
/// type, else by [`cross_type_order`].
fn cmp_key(column: &Column, row: usize, v: &Value) -> Ordering {
    column
        .cmp_row(row, v)
        .unwrap_or_else(|| cross_type_order(column.data_type(), v))
}

/// How every value of type `dtype` compares with `v`, a value of another
/// type, in `Value`'s order: by the types' positions among `Value`'s
/// variants, which its derived `Ord` compares first (every `Int` sorts
/// before every `Float`, and so on).
pub fn cross_type_order(dtype: DataType, v: &Value) -> Ordering {
    let variant = |t: DataType| match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
    };
    variant(dtype).cmp(&variant(v.data_type()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;
    use hashstash_types::DataType;

    fn date_index() -> (Column, SortedIndex) {
        let mut b = ColumnBuilder::new(DataType::Date);
        for d in [50, 10, 30, 10, 40] {
            b.push_date(d);
        }
        let c = b.finish();
        let idx = SortedIndex::build(&c);
        (c, idx)
    }

    #[test]
    fn full_range_returns_all_in_order() {
        let (c, idx) = date_index();
        let rows = idx.range(&c, Bound::Unbounded, Bound::Unbounded);
        assert_eq!(rows.len(), 5);
        let mut prev = None;
        for &r in rows {
            let v = c.get(r as usize);
            if let Some(p) = prev {
                assert!(p <= v);
            }
            prev = Some(v);
        }
    }

    #[test]
    fn inclusive_and_exclusive_bounds() {
        let (c, idx) = date_index();
        let v10 = Value::Date(10);
        let v40 = Value::Date(40);
        let incl = idx.range(&c, Bound::Included(&v10), Bound::Included(&v40));
        assert_eq!(incl.len(), 4); // 10,10,30,40
        let excl = idx.range(&c, Bound::Excluded(&v10), Bound::Excluded(&v40));
        assert_eq!(excl.len(), 1); // 30
    }

    #[test]
    fn equals_handles_duplicates_and_misses() {
        let (c, idx) = date_index();
        assert_eq!(idx.equals(&c, &Value::Date(10)).len(), 2);
        assert_eq!(idx.equals(&c, &Value::Date(99)).len(), 0);
    }

    #[test]
    fn empty_range_when_inverted() {
        let (c, idx) = date_index();
        let lo = Value::Date(45);
        let hi = Value::Date(20);
        assert!(idx
            .range(&c, Bound::Included(&lo), Bound::Included(&hi))
            .is_empty());
    }

    #[test]
    fn string_index_range() {
        let mut b = ColumnBuilder::new(DataType::Str);
        for s in ["Brand#22", "Brand#11", "Brand#33"] {
            b.push_str(s);
        }
        let c = b.finish();
        let idx = SortedIndex::build(&c);
        let lo = Value::str("Brand#11");
        let hi = Value::str("Brand#22");
        let rows = idx.range(&c, Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(rows.len(), 2);
        assert!(idx.equals(&c, &Value::str("Brand#33")).len() == 1);
    }

    #[test]
    fn empty_column_index() {
        let c = Column::new(DataType::Int);
        let idx = SortedIndex::build(&c);
        assert!(idx.is_empty());
        assert!(idx.range(&c, Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
