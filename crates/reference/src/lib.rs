//! The reference evaluator: what a query means, computed the plainest way
//! there is, outside the engine.
//!
//! The paper's correctness condition (§3.3) is that every reuse case
//! returns what recomputation would. This crate is that recomputation. It
//! reads the catalog's rows and nothing else of the engine:
//!
//! * a scan keeps the rows of a table that lie in a region, testing each
//!   constraint with [`Interval::contains_value`];
//! * a join looks every row's key up in a `BTreeMap<Value, _>` of the other
//!   side's rows;
//! * a group-by folds into a `BTreeMap` keyed by the group's values.
//!
//! No hash table, cache, morsel, index or reuse rewrite is involved, so a
//! defect in any of those cannot show up on both sides of a comparison.
//!
//! Answers have their own row order and their own float summation order,
//! so [`Answer::check`] compares as multisets under `Value`'s total order,
//! and holds `SUM` and `AVG` columns to a relative tolerance
//! ([`REL_TOLERANCE`]) instead of bit equality. Bit-exact comparisons
//! belong engine against engine, across worker counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use hashstash_plan::{AggExpr, AggFunc, Interval, QuerySpec, Region};
use hashstash_storage::Catalog;
use hashstash_types::{DataType, Field, HsError, Result, Row, Schema, Value};

/// How far a `SUM` or `AVG` may stray from the reference's, relative to
/// the larger magnitude of the two (or to 1, near zero): the engine and
/// the reference add the same terms in different orders.
pub const REL_TOLERANCE: f64 = 1e-9;

/// Rows under a schema of qualified attribute names.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl Relation {
    /// The rows of `table` that lie in `region` (in row order), under the
    /// table's qualified schema. A constraint on another table's attribute
    /// does not apply.
    pub fn scan(catalog: &Catalog, table: &str, region: &Region) -> Result<Relation> {
        let t = catalog.get(table)?;
        let schema = t.qualified_schema().clone();
        let rows = (0..t.row_count()).map(|i| t.row(i)).collect();
        Ok(Relation { schema, rows }.filter(region))
    }

    /// The rows that lie in `region`. A constraint on an attribute the
    /// schema lacks does not apply.
    pub fn filter(mut self, region: &Region) -> Relation {
        let schema = &self.schema;
        self.rows.retain(|row| {
            region.boxes().iter().any(|b| {
                b.constrained().all(|(attr, iv): (&Arc<str>, &Interval)| {
                    schema
                        .index_of(attr)
                        .map_or(true, |i| iv.contains_value(row.get(i)))
                })
            })
        });
        self
    }

    /// Every pair of a row of `self` and a row of `other` whose `key` and
    /// `other_key` values are equal, as `self`'s columns then `other`'s.
    pub fn join(&self, key: &str, other: &Relation, other_key: &str) -> Result<Relation> {
        let k = self.schema.index_of(key)?;
        let ok = other.schema.index_of(other_key)?;
        let mut by_key: BTreeMap<&Value, Vec<&Row>> = BTreeMap::new();
        for row in &other.rows {
            by_key.entry(row.get(ok)).or_default().push(row);
        }
        let mut rows = Vec::new();
        for row in &self.rows {
            for &hit in by_key.get(row.get(k)).into_iter().flatten() {
                rows.push(row.concat(hit));
            }
        }
        Ok(Relation {
            schema: self.schema.concat(&other.schema),
            rows,
        })
    }

    /// The columns `attrs`, in that order.
    pub fn project<A: AsRef<str>>(&self, attrs: &[A]) -> Result<Relation> {
        let names: Vec<&str> = attrs.iter().map(AsRef::as_ref).collect();
        let at = names
            .iter()
            .map(|a| self.schema.index_of(a))
            .collect::<Result<Vec<_>>>()?;
        Ok(Relation {
            schema: self.schema.project(&names)?,
            rows: self.rows.iter().map(|r| r.project(&at)).collect(),
        })
    }

    /// `SELECT group_by, aggs GROUP BY group_by`: one row per distinct
    /// group (none for no input), named as the engine names them (the
    /// group attributes, then `agg_0`, `agg_1`, …). `SUM` and `AVG` are
    /// `Float`s of the arguments read as floats (a string adds 0), `COUNT`
    /// an `Int`, `MIN` and `MAX` the least and greatest argument in
    /// `Value`'s order.
    pub fn aggregate<A: AsRef<str>>(&self, group_by: &[A], aggs: &[AggExpr]) -> Result<Answer> {
        let group_at = group_by
            .iter()
            .map(|g| self.schema.index_of(g.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        let arg_at = aggs
            .iter()
            .map(|a| self.schema.index_of(&a.attr))
            .collect::<Result<Vec<_>>>()?;
        let mut groups: BTreeMap<Row, Vec<Acc>> = BTreeMap::new();
        for row in &self.rows {
            let accs = groups
                .entry(row.project(&group_at))
                .or_insert_with(|| aggs.iter().map(|a| Acc::new(a.func)).collect());
            for (acc, &at) in accs.iter_mut().zip(&arg_at) {
                acc.add(row.get(at));
            }
        }
        let mut fields: Vec<Field> = group_at
            .iter()
            .map(|&i| self.schema.field_at(i).clone())
            .collect();
        let mut inexact = vec![false; fields.len()];
        for (i, (a, &at)) in aggs.iter().zip(&arg_at).enumerate() {
            let dtype = match a.func {
                AggFunc::Count => DataType::Int,
                AggFunc::Sum | AggFunc::Avg => DataType::Float,
                AggFunc::Min | AggFunc::Max => self.schema.field_at(at).dtype,
            };
            fields.push(Field::new(format!("agg_{i}"), dtype));
            inexact.push(matches!(a.func, AggFunc::Sum | AggFunc::Avg));
        }
        let rows = groups
            .into_iter()
            .map(|(key, accs)| {
                let mut values = key.into_values();
                values.extend(accs.into_iter().map(Acc::finish));
                Row::new(values)
            })
            .collect();
        Ok(Answer {
            schema: Schema::new(fields),
            rows,
            inexact,
        })
    }

    /// The rows as an answer compared exactly.
    pub fn answer(self) -> Answer {
        let inexact = vec![false; self.schema.len()];
        Answer {
            schema: self.schema,
            rows: self.rows,
            inexact,
        }
    }
}

/// One aggregate's state over a group.
enum Acc {
    Sum(f64),
    Count(i64),
    Avg(f64, i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Avg => Acc::Avg(0.0, 0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn add(&mut self, v: &Value) {
        let f = v.to_f64().unwrap_or(0.0);
        match self {
            Acc::Sum(s) => *s += f,
            Acc::Count(c) => *c += 1,
            Acc::Avg(s, c) => {
                *s += f;
                *c += 1;
            }
            Acc::Min(m) => {
                if m.as_ref().is_none_or(|m| v < m) {
                    *m = Some(v.clone());
                }
            }
            Acc::Max(m) => {
                if m.as_ref().is_none_or(|m| v > m) {
                    *m = Some(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Sum(s) => Value::float(s),
            Acc::Count(c) => Value::Int(c),
            Acc::Avg(s, c) => Value::float(s / c as f64),
            // A group exists only once a row added to it.
            Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Int(0)),
        }
    }
}

/// A query's answer, and which of its columns hold sums or averages.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Per column, whether it is a `SUM` or `AVG` ([`REL_TOLERANCE`]).
    pub inexact: Vec<bool>,
}

impl Answer {
    /// The answer repeated: a union of `times` copies of one input.
    pub fn repeated(mut self, times: usize) -> Answer {
        let rows = std::mem::take(&mut self.rows);
        self.rows = (0..times).flat_map(|_| rows.iter().cloned()).collect();
        self
    }

    /// Whether the engine's `rows` under `schema` are this answer: the
    /// same attributes (in any column order), and the same rows as a
    /// multiset under `Value`'s total order, sums and averages within
    /// [`REL_TOLERANCE`]. The error names the first difference.
    pub fn check(&self, schema: &Schema, rows: &[Row]) -> std::result::Result<(), String> {
        if schema.len() != self.schema.len() {
            return Err(format!("schema {schema:?}, want {:?}", self.schema));
        }
        let at = self
            .schema
            .fields()
            .iter()
            .map(|f| match schema.field(&f.name) {
                Ok(got) if got.dtype == f.dtype => {
                    schema.index_of(&f.name).map_err(|e| e.to_string())
                }
                _ => Err(format!("schema {schema:?}, want {:?}", self.schema)),
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        if rows.len() != self.rows.len() {
            return Err(format!("{} rows, want {}", rows.len(), self.rows.len()));
        }
        let mut got: Vec<Row> = rows.iter().map(|r| r.project(&at)).collect();
        let mut want = self.rows.clone();
        got.sort();
        want.sort();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let same = g.values().iter().zip(w.values()).zip(&self.inexact).all(
                |((g, w), &inexact)| match (g, w) {
                    (Value::Float(a), Value::Float(b)) if inexact => close(a.0, b.0),
                    _ => g == w,
                },
            );
            if !same {
                return Err(format!("sorted row {i}: {g:?}, want {w:?}"));
            }
        }
        Ok(())
    }
}

/// Whether two sums agree: equal as values (NaN with NaN, an infinity
/// with itself), or within [`REL_TOLERANCE`].
fn close(a: f64, b: f64) -> bool {
    Value::float(a) == Value::float(b)
        || (a - b).abs() <= REL_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// The answer to `q` over `catalog`: each table scanned under the query's
/// constraints on it, the tables joined along the query's edges, then
/// grouped and aggregated (an SPJA query) or projected (an SPJ query; no
/// projection keeps every column).
pub fn evaluate(catalog: &Catalog, q: &QuerySpec) -> Result<Answer> {
    let scan = |table: &str| {
        let region = Region::from_box(q.predicates.project_table(table));
        Relation::scan(catalog, table, &region)
    };
    let mut tables = q.tables.iter();
    let first = tables
        .next()
        .ok_or_else(|| HsError::PlanError("a query without tables".into()))?;
    let mut joined = vec![first.clone()];
    let mut out = scan(first)?;
    while joined.len() < q.tables.len() {
        let (inside, outside) = q
            .joins
            .iter()
            .find_map(|e| {
                let l = joined.contains(&e.left_table);
                let r = joined.contains(&e.right_table);
                match (l, r) {
                    (true, false) => Some(((&e.left_col), (&e.right_table, &e.right_col))),
                    (false, true) => Some(((&e.right_col), (&e.left_table, &e.left_col))),
                    _ => None,
                }
            })
            .ok_or_else(|| HsError::PlanError("the join graph is not connected".into()))?;
        out = out.join(inside, &scan(outside.0)?, outside.1)?;
        joined.push(outside.0.clone());
    }
    // Edges that close a cycle hold as filters.
    for e in &q.joins {
        let (l, r) = (
            out.schema.index_of(&e.left_col)?,
            out.schema.index_of(&e.right_col)?,
        );
        out.rows.retain(|row| row.get(l) == row.get(r));
    }
    if q.is_aggregate() {
        out.aggregate(&q.group_by, &q.aggregates)
    } else if q.projection.is_empty() {
        Ok(out.answer())
    } else {
        Ok(out.project(&q.projection)?.answer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_plan::QueryBuilder;
    use hashstash_storage::TableBuilder;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut a = TableBuilder::new("a", vec![("k", DataType::Int), ("x", DataType::Float)]);
        for (k, x) in [(1, 0.5), (2, 1.5), (2, 2.5), (3, f64::NAN)] {
            a.push_row(vec![Value::Int(k), Value::float(x)]);
        }
        cat.register(a.finish());
        let mut b = TableBuilder::new("b", vec![("k", DataType::Int), ("s", DataType::Str)]);
        for (k, s) in [(2, "two"), (2, "deux"), (3, "three"), (4, "four")] {
            b.push_row(vec![Value::Int(k), Value::str(s)]);
        }
        cat.register(b.finish());
        cat
    }

    #[test]
    fn joins_filters_and_groups_by_definition() {
        let cat = catalog();
        let q = QueryBuilder::new(1)
            .join("a", "a.k", "b", "b.k")
            .filter("a.k", Interval::at_least(Value::Int(2)))
            .group_by("b.s")
            .agg(AggExpr::new(AggFunc::Sum, "a.x"))
            .agg(AggExpr::new(AggFunc::Count, "a.k"))
            .build()
            .unwrap();
        let answer = evaluate(&cat, &q).unwrap();
        let row = |s: &str, sum: f64, n: i64| {
            Row::new(vec![Value::str(s), Value::float(sum), Value::Int(n)])
        };
        let want = [
            row("deux", 4.0, 2),
            row("three", f64::NAN, 1),
            row("two", 4.0, 2),
        ];
        assert_eq!(answer.rows, want);
        assert_eq!(answer.inexact, [false, true, false]);
        // Another column order and a sum off in its last bits still match;
        // a missing row, an extra one or a wrong count does not.
        let schema = Schema::new(vec![
            Field::new("agg_1", DataType::Int),
            Field::new("b.s", DataType::Str),
            Field::new("agg_0", DataType::Float),
        ]);
        let engine = |rows: &[(&str, f64, i64)]| -> Vec<Row> {
            rows.iter()
                .map(|&(s, sum, n)| Row::new(vec![Value::Int(n), Value::str(s), Value::float(sum)]))
                .collect()
        };
        let nudged = 4.0 + 4.0 * f64::EPSILON;
        let ok = engine(&[("two", nudged, 2), ("three", f64::NAN, 1), ("deux", 4.0, 2)]);
        assert_eq!(answer.check(&schema, &ok), Ok(()));
        for bad in [
            engine(&[("two", 4.0, 2), ("three", f64::NAN, 1)]),
            engine(&[("two", 4.0, 2), ("three", f64::NAN, 1), ("deux", 4.0, 3)]),
            engine(&[("two", 4.0, 2), ("three", 0.0, 1), ("deux", 4.0, 2)]),
        ] {
            assert!(answer.check(&schema, &bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_cross_type_bound_orders_by_variant() {
        let cat = catalog();
        // Every `Int` sorts below every `Float`.
        let below = Region::from_box(
            hashstash_plan::PredBox::all().with("a.k", Interval::at_most(Value::float(-1.0))),
        );
        assert_eq!(Relation::scan(&cat, "a", &below).unwrap().rows.len(), 4);
        assert!(Relation::scan(&cat, "a", &Region::empty())
            .unwrap()
            .rows
            .is_empty());
        let spj = QueryBuilder::new(2)
            .join("a", "a.k", "b", "b.k")
            .project(&["b.s", "a.k"])
            .build()
            .unwrap();
        let answer = evaluate(&cat, &spj).unwrap();
        // Both `a` rows of key 2 meet both `b` rows of key 2; key 3 once.
        assert_eq!(answer.rows.len(), 5);
        assert_eq!(answer.clone().repeated(2).rows.len(), 10);
    }
}
