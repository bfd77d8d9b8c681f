//! What the Hash Table Manager caches: [`StoredHt`] — a hash table of
//! tuples ([`ColumnHt`]: typed payload columns) or of aggregate states
//! ([`AggHt`]: typed group and state columns), or a temp table of
//! [`MaterializedRows`] for the materialization baseline — and the value
//! types stored inside.
//!
//! Cached tables hold plain tuples or aggregate states and nothing else: no
//! per-entry query tag. Shared plans decide which query of a batch a stored
//! row belongs to by evaluating that query's predicates when they read it
//! (see `hashstash_exec::shared`), so a cached table never has to be
//! rewritten before it is reused.

use hashstash_types::{Row, Value};

use hashstash_plan::AggFunc;

use crate::{AggHt, ColumnHt};

/// One aggregate accumulator state.
///
/// Accumulators *merge*, which is what lets a reuse-aware hash aggregate add
/// missing tuples into an existing state. Note the paper's additivity rule
/// (§3.3) concerns *post-aggregation over finalized outputs* when the
/// requested group-by is a subset of the cached one; the matcher enforces it
/// — `AVG` only qualifies after the benefit-oriented `AVG → SUM,COUNT`
/// rewrite.
#[derive(Debug, Clone, PartialEq)]
pub enum AggAccum {
    Sum(f64),
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggAccum {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggAccum::Sum(0.0),
            AggFunc::Count => AggAccum::Count(0),
            AggFunc::Min => AggAccum::Min(None),
            AggFunc::Max => AggAccum::Max(None),
            AggFunc::Avg => AggAccum::Avg { sum: 0.0, count: 0 },
        }
    }

    /// The function this accumulator computes.
    pub fn func(&self) -> AggFunc {
        match self {
            AggAccum::Sum(_) => AggFunc::Sum,
            AggAccum::Count(_) => AggFunc::Count,
            AggAccum::Min(_) => AggFunc::Min,
            AggAccum::Max(_) => AggFunc::Max,
            AggAccum::Avg { .. } => AggFunc::Avg,
        }
    }

    /// Fold one input value into the state.
    pub fn update(&mut self, v: &Value) {
        match self {
            AggAccum::Sum(s) => *s += v.to_f64().unwrap_or(0.0),
            AggAccum::Count(c) => *c += 1,
            AggAccum::Min(m) => {
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggAccum::Max(m) => {
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggAccum::Avg { sum, count } => {
                *sum += v.to_f64().unwrap_or(0.0);
                *count += 1;
            }
        }
    }

    /// Merge another state over a disjoint input partition.
    pub fn merge(&mut self, other: &AggAccum) {
        match (self, other) {
            (AggAccum::Sum(a), AggAccum::Sum(b)) => *a += b,
            (AggAccum::Count(a), AggAccum::Count(b)) => *a += b,
            (AggAccum::Min(a), AggAccum::Min(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv < av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggAccum::Max(a), AggAccum::Max(b)) => {
                if let Some(bv) = b {
                    if a.as_ref().is_none_or(|av| bv > av) {
                        *a = Some(bv.clone());
                    }
                }
            }
            (AggAccum::Avg { sum: sa, count: ca }, AggAccum::Avg { sum: sb, count: cb }) => {
                *sa += sb;
                *ca += cb;
            }
            // tidy:allow(no-panic-paths): planner invariant — accumulators of one
            // expression always share a function; merging mismatched kinds would
            // silently corrupt results, so fail loudly
            (a, b) => panic!("cannot merge {:?} into {:?}", b.func(), a.func()),
        }
    }

    /// Final scalar value of the aggregate.
    pub fn finalize(&self) -> Value {
        match self {
            AggAccum::Sum(s) => Value::float(*s),
            AggAccum::Count(c) => Value::Int(*c),
            AggAccum::Min(m) | AggAccum::Max(m) => m.clone().unwrap_or(Value::Int(0)),
            AggAccum::Avg { sum, count } => {
                if *count == 0 {
                    Value::float(0.0)
                } else {
                    Value::float(sum / *count as f64)
                }
            }
        }
    }
}

/// A cached table, typed by what it stores. Which operator produced it
/// (join build, aggregate or shared grouping phase) is the fingerprint's
/// `HtKind`.
#[derive(Debug, Clone)]
pub enum StoredHt {
    /// Join build side (multi-map join-key → tuples) or shared grouping
    /// phase (multi-map group-key → raw tuples), the tuples stored as
    /// typed columns.
    Rows(ColumnHt),
    /// Aggregate: group-key → accumulator states, as typed columns.
    Agg(AggHt),
    /// A temp table of the materialization baseline: an operator's output
    /// rows, no hash table. Only the baseline's lookups see these.
    Materialized(MaterializedRows),
}

impl StoredHt {
    /// Logical footprint in bytes (the cost model's `htSize`).
    pub fn logical_bytes(&self) -> usize {
        match self {
            StoredHt::Rows(ht) => ht.logical_bytes(),
            StoredHt::Agg(ht) => ht.logical_bytes(),
            StoredHt::Materialized(rows) => rows.bytes,
        }
    }

    /// Number of stored entries (rows, for a temp table).
    pub fn len(&self) -> usize {
        match self {
            StoredHt::Rows(ht) => ht.len(),
            StoredHt::Agg(ht) => ht.len(),
            StoredHt::Materialized(rows) => rows.len(),
        }
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys (a temp table has no key: every row counts).
    pub fn distinct_keys(&self) -> usize {
        match self {
            StoredHt::Rows(ht) => ht.distinct_keys(),
            StoredHt::Agg(ht) => ht.distinct_keys(),
            StoredHt::Materialized(rows) => rows.len(),
        }
    }

    /// Logical tuple width in bytes (a temp table's average row size).
    pub fn tuple_width(&self) -> usize {
        match self {
            StoredHt::Rows(ht) => ht.tuple_width(),
            StoredHt::Agg(ht) => ht.tuple_width(),
            StoredHt::Materialized(rows) => rows.bytes / rows.len().max(1),
        }
    }

    /// Whether this is a temp table of the materialization baseline.
    pub fn is_materialized(&self) -> bool {
        matches!(self, StoredHt::Materialized(_))
    }
}

/// Approximate in-memory size of one materialized row (arrays of scalars).
pub fn row_bytes(row: &Row) -> usize {
    row.values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => 16 + s.len(),
            _ => 8,
        })
        .sum::<usize>()
        + 24
}

/// A materialized intermediate result: the temp table of the
/// materialization baseline (plain row vectors, Nagel et al. style). Byte
/// accounting is precomputed so budget checks never re-walk the rows.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedRows {
    rows: Vec<Row>,
    bytes: usize,
}

impl MaterializedRows {
    /// Wrap materialized rows, computing their footprint once.
    pub fn new(rows: Vec<Row>) -> Self {
        let bytes = rows.iter().map(row_bytes).sum();
        MaterializedRows { rows, bytes }
    }

    /// The materialized rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

impl std::ops::Deref for MaterializedRows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_types::DataType;

    #[test]
    fn sum_count_update_finalize() {
        let mut s = AggAccum::new(AggFunc::Sum);
        s.update(&Value::Int(3));
        s.update(&Value::float(1.5));
        assert_eq!(s.finalize(), Value::float(4.5));

        let mut c = AggAccum::new(AggFunc::Count);
        c.update(&Value::str("whatever"));
        c.update(&Value::Int(0));
        assert_eq!(c.finalize(), Value::Int(2));
    }

    #[test]
    fn min_max_track_extremes() {
        let mut mn = AggAccum::new(AggFunc::Min);
        let mut mx = AggAccum::new(AggFunc::Max);
        for v in [5, 2, 9] {
            mn.update(&Value::Int(v));
            mx.update(&Value::Int(v));
        }
        assert_eq!(mn.finalize(), Value::Int(2));
        assert_eq!(mx.finalize(), Value::Int(9));
    }

    #[test]
    fn avg_accumulates_sum_and_count() {
        let mut a = AggAccum::new(AggFunc::Avg);
        a.update(&Value::Int(2));
        a.update(&Value::Int(4));
        assert_eq!(a.finalize(), Value::float(3.0));
        assert_eq!(AggAccum::new(AggFunc::Avg).finalize(), Value::float(0.0));
    }

    #[test]
    fn merge_partial_states() {
        let mut a = AggAccum::new(AggFunc::Sum);
        a.update(&Value::Int(1));
        let mut b = AggAccum::new(AggFunc::Sum);
        b.update(&Value::Int(2));
        a.merge(&b);
        assert_eq!(a.finalize(), Value::float(3.0));

        let mut mn = AggAccum::Min(Some(Value::Int(5)));
        mn.merge(&AggAccum::Min(Some(Value::Int(3))));
        assert_eq!(mn.finalize(), Value::Int(3));
        mn.merge(&AggAccum::Min(None));
        assert_eq!(mn.finalize(), Value::Int(3));
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_mismatched_functions_panics() {
        let mut a = AggAccum::new(AggFunc::Sum);
        a.merge(&AggAccum::new(AggFunc::Count));
    }

    #[test]
    fn stored_agg_ht_accessors() {
        let aggs = [
            (AggFunc::Sum, DataType::Int),
            (AggFunc::Count, DataType::Int),
        ];
        let stored = StoredHt::Agg(crate::AggHt::new(24, &[DataType::Int], &aggs));
        assert_eq!((stored.len(), stored.tuple_width()), (0, 24));
        assert!(stored.is_empty());
        assert_eq!(stored.logical_bytes(), 2 * 6);
    }

    #[test]
    fn stored_ht_accessors() {
        let mut ht = ColumnHt::new(16, &[DataType::Int]);
        ht.insert(1, &Row::new(vec![Value::Int(1)])).unwrap();
        ht.insert(1, &Row::new(vec![Value::Int(2)])).unwrap();
        let stored = StoredHt::Rows(ht);
        assert_eq!(stored.len(), 2);
        assert_eq!(stored.distinct_keys(), 1);
        assert_eq!(stored.tuple_width(), 16);
        assert!(!stored.is_empty());
        assert!(stored.logical_bytes() > 0);
    }
}
