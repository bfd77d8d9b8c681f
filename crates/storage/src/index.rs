//! Sorted secondary indexes answering range scans.
//!
//! The paper's setup uses "secondary indexes on all selection attributes"
//! (§6). Partial- and overlapping-reuse rewrites scan only the *missing*
//! tuples (`r ∧ ¬c`), which is a small range delta — exactly the access
//! pattern a sorted index serves well.

use std::ops::Bound;

use hashstash_types::{f64_order_key, Value};

use crate::column::Column;

/// A permutation of row ids sorted by the indexed column's values.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Row ids ordered by column value (ties in row order).
    perm: Vec<u32>,
    /// Sorted copy of the keys aligned with `perm`, so range lookups do not
    /// chase back into the column (one contiguous binary-searchable array).
    keys: Vec<Value>,
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
        let keys = perm.iter().map(|&r| column.get(r as usize)).collect();
        SortedIndex { perm, keys }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Row ids whose key lies within the given bounds.
    ///
    /// Bounds follow `std::ops::Bound` semantics; `Unbounded` on both sides
    /// returns every row (in key order).
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> &[u32] {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.keys.partition_point(|k| k < v),
            Bound::Excluded(v) => self.keys.partition_point(|k| k <= v),
        };
        let end = match hi {
            Bound::Unbounded => self.keys.len(),
            Bound::Included(v) => self.keys.partition_point(|k| k <= v),
            Bound::Excluded(v) => self.keys.partition_point(|k| k < v),
        };
        if start >= end {
            &[]
        } else {
            &self.perm[start..end]
        }
    }

    /// Row ids with key exactly equal to `v`.
    pub fn equals(&self, v: &Value) -> &[u32] {
        self.range(Bound::Included(v), Bound::Included(v))
    }

    /// The indexed keys in index order, aligned with the row ids
    /// [`SortedIndex::range`] returns.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.perm.len() * 4 + self.keys.len() * std::mem::size_of::<Value>()
    }
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
        let rows = idx.range(Bound::Unbounded, Bound::Unbounded);
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
        let (_, idx) = date_index();
        let v10 = Value::Date(10);
        let v40 = Value::Date(40);
        let incl = idx.range(Bound::Included(&v10), Bound::Included(&v40));
        assert_eq!(incl.len(), 4); // 10,10,30,40
        let excl = idx.range(Bound::Excluded(&v10), Bound::Excluded(&v40));
        assert_eq!(excl.len(), 1); // 30
    }

    #[test]
    fn equals_handles_duplicates_and_misses() {
        let (_, idx) = date_index();
        assert_eq!(idx.equals(&Value::Date(10)).len(), 2);
        assert_eq!(idx.equals(&Value::Date(99)).len(), 0);
    }

    #[test]
    fn empty_range_when_inverted() {
        let (_, idx) = date_index();
        let lo = Value::Date(45);
        let hi = Value::Date(20);
        assert!(idx
            .range(Bound::Included(&lo), Bound::Included(&hi))
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
        let rows = idx.range(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(rows.len(), 2);
        assert!(idx.equals(&Value::str("Brand#33")).len() == 1);
    }

    #[test]
    fn empty_column_index() {
        let c = Column::new(DataType::Int);
        let idx = SortedIndex::build(&c);
        assert!(idx.is_empty());
        assert!(idx.range(Bound::Unbounded, Bound::Unbounded).is_empty());
    }
}
