//! Logical SPJ / SPJA queries.
//!
//! The paper's query blocks are select–project–join (SPJ) or SPJA queries
//! (§3.1). A [`QuerySpec`] captures exactly that surface: a set of base
//! tables, equi-join edges along schema relationships, a conjunctive
//! selection box, an optional group-by with aggregates, and a projection.

use std::collections::BTreeSet;
use std::sync::Arc;

use hashstash_types::{HsError, QueryId, Result};

use crate::agg::AggExpr;
use crate::interval::Interval;
use crate::region::{PredBox, Region};

/// Whether the qualified attribute `attr` (`table.column`) belongs to
/// `table`.
pub fn is_attr_of(attr: &str, table: &str) -> bool {
    attr.strip_prefix(table)
        .is_some_and(|column| column.starts_with('.'))
}

/// An equi-join between two tables on one column each.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinEdge {
    /// Left table name.
    pub left_table: Arc<str>,
    /// Qualified left join column, e.g. `orders.o_custkey`.
    pub left_col: Arc<str>,
    /// Right table name.
    pub right_table: Arc<str>,
    /// Qualified right join column, e.g. `customer.c_custkey`.
    pub right_col: Arc<str>,
}

impl JoinEdge {
    /// Construct an edge; tables are ordered lexicographically so that the
    /// same logical edge always has the same representation.
    pub fn new(left_table: &str, left_col: &str, right_table: &str, right_col: &str) -> Self {
        if left_table <= right_table {
            JoinEdge {
                left_table: left_table.into(),
                left_col: left_col.into(),
                right_table: right_table.into(),
                right_col: right_col.into(),
            }
        } else {
            JoinEdge {
                left_table: right_table.into(),
                left_col: right_col.into(),
                right_table: left_table.into(),
                right_col: left_col.into(),
            }
        }
    }

    /// Whether this edge touches the given table.
    pub fn touches(&self, table: &str) -> bool {
        self.left_table.as_ref() == table || self.right_table.as_ref() == table
    }

    /// The join column on the side of `table`, if the edge touches it.
    pub fn col_of(&self, table: &str) -> Option<&Arc<str>> {
        if self.left_table.as_ref() == table {
            Some(&self.left_col)
        } else if self.right_table.as_ref() == table {
            Some(&self.right_col)
        } else {
            None
        }
    }
}

impl std::fmt::Display for JoinEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {}", self.left_col, self.right_col)
    }
}

/// A logical SPJ or SPJA query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Session-unique id.
    pub id: QueryId,
    /// Base tables referenced.
    pub tables: BTreeSet<Arc<str>>,
    /// Equi-join edges; must connect `tables`.
    pub joins: Vec<JoinEdge>,
    /// Conjunctive selection predicates over qualified attributes.
    pub predicates: PredBox,
    /// Group-by attributes (empty + empty aggregates = pure SPJ).
    pub group_by: Vec<Arc<str>>,
    /// Aggregate expressions (non-empty makes this an SPJA query).
    pub aggregates: Vec<AggExpr>,
    /// Projection for SPJ queries (ignored for SPJA — output is
    /// `group_by ++ aggregates`).
    pub projection: Vec<Arc<str>>,
}

impl QuerySpec {
    /// Whether this is an aggregation (SPJA) query.
    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// The selection region (single-box) of the whole query.
    pub fn region(&self) -> Region {
        Region::from_box(self.predicates.clone())
    }

    /// Join edges restricted to a subset of tables (both endpoints inside).
    pub fn edges_within(&self, tables: &BTreeSet<Arc<str>>) -> Vec<JoinEdge> {
        self.joins
            .iter()
            .filter(|e| tables.contains(&e.left_table) && tables.contains(&e.right_table))
            .cloned()
            .collect()
    }

    /// Whether two queries have the same join graph — the paper's
    /// mergeability condition for shared plans (§4.2).
    pub fn same_join_graph(&self, other: &QuerySpec) -> bool {
        if self.tables != other.tables {
            return false;
        }
        let mut a = self.joins.clone();
        let mut b = other.joins.clone();
        a.sort();
        b.sort();
        a == b
    }

    /// Validate structural invariants (tables referenced by joins and
    /// predicates exist, join graph connects all tables).
    pub fn validate(&self) -> Result<()> {
        for e in &self.joins {
            for t in [&e.left_table, &e.right_table] {
                if !self.tables.contains(t) {
                    return Err(HsError::PlanError(format!(
                        "join edge references unknown table {t}"
                    )));
                }
            }
        }
        for (attr, _) in self.predicates.constrained() {
            let table = attr.split('.').next().unwrap_or("");
            if !self.tables.contains(table) {
                return Err(HsError::PlanError(format!(
                    "predicate on {attr} references table outside the query"
                )));
            }
        }
        if self.tables.len() > 1 {
            // Connectivity check via union-find over tables.
            let tables: Vec<&Arc<str>> = self.tables.iter().collect();
            let index = |t: &Arc<str>| tables.iter().position(|x| *x == t).expect("table exists");
            let mut parent: Vec<usize> = (0..tables.len()).collect();
            fn find(parent: &mut Vec<usize>, i: usize) -> usize {
                if parent[i] != i {
                    let root = find(parent, parent[i]);
                    parent[i] = root;
                }
                parent[i]
            }
            for e in &self.joins {
                let a = find(&mut parent, index(&e.left_table));
                let b = find(&mut parent, index(&e.right_table));
                parent[a] = b;
            }
            let root = find(&mut parent, 0);
            for (i, table) in tables.iter().enumerate().skip(1) {
                if find(&mut parent, i) != root {
                    return Err(HsError::PlanError(format!(
                        "join graph is disconnected at table {table}"
                    )));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: SELECT ", self.id)?;
        if self.is_aggregate() {
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
            for a in &self.aggregates {
                if !self.group_by.is_empty() {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        } else if self.projection.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, p) in self.projection.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
        }
        write!(f, " FROM ")?;
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, " WHERE {}", self.predicates)?;
        for e in &self.joins {
            write!(f, " AND {e}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`QuerySpec`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    spec: QuerySpec,
}

impl QueryBuilder {
    /// Start building a query with the given id.
    pub fn new(id: u32) -> Self {
        QueryBuilder {
            spec: QuerySpec {
                id: QueryId(id),
                tables: BTreeSet::new(),
                joins: Vec::new(),
                predicates: PredBox::all(),
                group_by: Vec::new(),
                aggregates: Vec::new(),
                projection: Vec::new(),
            },
        }
    }

    /// Add a base table.
    pub fn table(mut self, name: &str) -> Self {
        self.spec.tables.insert(name.into());
        self
    }

    /// Add an equi-join edge (tables are added implicitly).
    pub fn join(mut self, lt: &str, lc: &str, rt: &str, rc: &str) -> Self {
        self.spec.tables.insert(lt.into());
        self.spec.tables.insert(rt.into());
        self.spec.joins.push(JoinEdge::new(lt, lc, rt, rc));
        self
    }

    /// Constrain an attribute.
    pub fn filter(mut self, attr: &str, interval: Interval) -> Self {
        self.spec.predicates.constrain(attr, interval);
        self
    }

    /// Add a group-by attribute.
    pub fn group_by(mut self, attr: &str) -> Self {
        self.spec.group_by.push(attr.into());
        self
    }

    /// Add an aggregate expression.
    pub fn agg(mut self, a: AggExpr) -> Self {
        self.spec.aggregates.push(a);
        self
    }

    /// Set the SPJ projection.
    pub fn project(mut self, attrs: &[&str]) -> Self {
        self.spec.projection = attrs.iter().map(|a| Arc::from(*a)).collect();
        self
    }

    /// Finish, validating invariants.
    pub fn build(self) -> Result<QuerySpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use hashstash_types::Value;

    fn q3_like(id: u32) -> QuerySpec {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .join(
                "orders",
                "orders.o_orderkey",
                "lineitem",
                "lineitem.l_orderkey",
            )
            .filter(
                "lineitem.l_shipdate",
                Interval::at_least(Value::date_ymd(2015, 2, 1)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_spec() {
        let q = q3_like(1);
        assert_eq!(q.tables.len(), 3);
        assert_eq!(q.joins.len(), 2);
        assert!(q.is_aggregate());
        assert!(q.validate().is_ok());
    }

    #[test]
    fn join_edge_canonical_order() {
        let a = JoinEdge::new(
            "orders",
            "orders.o_custkey",
            "customer",
            "customer.c_custkey",
        );
        let b = JoinEdge::new(
            "customer",
            "customer.c_custkey",
            "orders",
            "orders.o_custkey",
        );
        assert_eq!(a, b);
        assert_eq!(a.col_of("orders").unwrap().as_ref(), "orders.o_custkey");
        assert!(a.touches("customer"));
        assert!(!a.touches("part"));
        assert!(a.col_of("part").is_none());
    }

    #[test]
    fn same_join_graph_detection() {
        let a = q3_like(1);
        let mut b = q3_like(2);
        assert!(a.same_join_graph(&b));
        // Changing the predicate does not change the join graph…
        b.predicates = PredBox::all();
        assert!(a.same_join_graph(&b));
        // …but adding a table does.
        let c = QueryBuilder::new(3)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .build()
            .unwrap();
        assert!(!a.same_join_graph(&c));
    }

    #[test]
    fn validation_catches_disconnected_graph() {
        let r = QueryBuilder::new(1).table("customer").table("part").build();
        assert!(r.is_err(), "two tables with no join edge must fail");
    }

    #[test]
    fn validation_catches_foreign_predicates() {
        let r = QueryBuilder::new(1)
            .table("customer")
            .filter(
                "orders.o_orderdate",
                Interval::all().intersect(&Interval::eq(Value::Date(1))),
            )
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn edges_within_subset() {
        let q = q3_like(1);
        let sub: BTreeSet<Arc<str>> = ["customer", "orders"]
            .iter()
            .map(|s| Arc::from(*s))
            .collect();
        let edges = q.edges_within(&sub);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].touches("customer"));
    }

    #[test]
    fn display_contains_clauses() {
        let q = q3_like(7);
        let s = q.to_string();
        assert!(s.contains("SELECT"));
        assert!(s.contains("GROUP BY"));
        assert!(s.contains("customer.c_age"));
        assert!(s.contains("SUM(lineitem.l_quantity)"));
    }
}
