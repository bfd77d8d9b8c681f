//! Canonical lineage of a cached hash table.
//!
//! The Hash Table Manager "stores pointers to cached hash tables, as well as
//! lineage information about how each one of them was created" (paper §2.2).
//! An [`HtFingerprint`] is that lineage in normal form: which base tables and
//! join edges produced the table's contents, which predicate region the
//! contents satisfy, what the hash key is, and which attributes each stored
//! tuple carries. Matching a requesting sub-plan against a candidate reduces
//! to structural equality on the shape plus region algebra on the predicates
//! (see `hashstash-opt::matching`).

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::agg::AggExpr;
use crate::query::JoinEdge;
use crate::region::Region;

/// What kind of operator materialized the hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HtKind {
    /// Build side of a hash join: multi-map keyed by join key, tuples as
    /// payloads.
    JoinBuild,
    /// Hash aggregate: one entry per group key holding aggregate states.
    Aggregate,
    /// Shared hash aggregate grouping phase: one entry per *input tuple*
    /// grouped by key (raw tuples, not aggregate states) — this is why an
    /// SRHA-built table can serve any aggregate function (paper §4.1).
    SharedGroup,
}

impl std::fmt::Display for HtKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HtKind::JoinBuild => "join-build",
            HtKind::Aggregate => "aggregate",
            HtKind::SharedGroup => "shared-group",
        };
        f.write_str(s)
    }
}

/// Canonical description of the sub-plan that produced a hash table.
#[derive(Debug, Clone, PartialEq)]
pub struct HtFingerprint {
    /// Operator kind that materialized the table.
    pub kind: HtKind,
    /// Base tables feeding the build/grouping input.
    pub tables: BTreeSet<Arc<str>>,
    /// Join edges applied within the sub-plan (sorted canonical form).
    pub edges: Vec<JoinEdge>,
    /// Predicate region satisfied by the stored tuples. Grows when partial
    /// reuse adds missing tuples.
    pub region: Region,
    /// Hash key attributes (join key columns or group-by columns).
    pub key_attrs: Vec<Arc<str>>,
    /// Attributes stored in each tuple's payload. For aggregate tables these
    /// are the group-by attributes (aggregate states are implicit).
    pub payload_attrs: Vec<Arc<str>>,
    /// Aggregate expressions (post `AVG → SUM,COUNT` rewrite) for
    /// `Aggregate` tables; empty otherwise.
    pub aggregates: Vec<AggExpr>,
}

impl HtFingerprint {
    /// Normalize: sort edges so equality is representation-independent.
    pub fn normalized(mut self) -> Self {
        self.edges.sort();
        self
    }

    /// Whether this table was built over the same *shape* (tables, joins,
    /// keys) as the requesting fingerprint — the precondition for any reuse,
    /// before predicate regions are compared.
    pub fn same_shape(&self, other: &HtFingerprint) -> bool {
        self.kind == other.kind
            && self.tables == other.tables
            && {
                let mut a = self.edges.clone();
                let mut b = other.edges.clone();
                a.sort();
                b.sort();
                a == b
            }
            && self.key_attrs == other.key_attrs
    }

    /// Whether two fingerprints describe the *same* lineage: same shape,
    /// same payload and aggregates, and set-equal predicate
    /// regions. Base tables are immutable, so same lineage implies
    /// identical table content — the caches use this to deduplicate
    /// re-publishes (e.g. a re-planned retry re-running an operator whose
    /// first attempt's publish survived the abort).
    pub fn same_lineage(&self, other: &HtFingerprint) -> bool {
        self.same_shape(other)
            && self.payload_attrs == other.payload_attrs
            && self.aggregates == other.aggregates
            && self.region.set_eq(&other.region)
    }

    /// Whether every attribute in `needed` is available in this table's
    /// payload (for post-filtering and projection). The paper: "If the hash
    /// table does not contain the attributes needed to test post, it does
    /// not qualify for reuse."
    pub fn payload_covers<'a>(&self, needed: impl IntoIterator<Item = &'a str>) -> bool {
        needed
            .into_iter()
            .all(|n| self.payload_attrs.iter().any(|p| p.as_ref() == n))
    }

    /// Whether this aggregate table provides all requested aggregate
    /// expressions. Shared-group tables store raw tuples and can recompute
    /// anything.
    pub fn provides_aggregates(&self, requested: &[AggExpr]) -> bool {
        match self.kind {
            HtKind::SharedGroup => true,
            HtKind::Aggregate => requested.iter().all(|r| self.aggregates.contains(r)),
            HtKind::JoinBuild => requested.is_empty(),
        }
    }

    /// Short human-readable summary used in experiment output.
    pub fn summary(&self) -> String {
        let tables: Vec<&str> = self.tables.iter().map(|t| t.as_ref()).collect();
        format!(
            "{}[{}] key=({})",
            self.kind,
            tables.join(","),
            self.key_attrs
                .iter()
                .map(|k| k.as_ref())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::interval::Interval;
    use crate::region::PredBox;
    use hashstash_types::Value;

    fn fp(kind: HtKind, lo: i32, hi: i32) -> HtFingerprint {
        HtFingerprint {
            kind,
            tables: ["customer", "orders"]
                .iter()
                .map(|s| Arc::from(*s))
                .collect(),
            edges: vec![JoinEdge::new(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )],
            region: Region::from_box(PredBox::all().with(
                "customer.c_age",
                Interval::closed(Value::Int(lo as i64), Value::Int(hi as i64)),
            )),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_age"), Arc::from("customer.c_acctbal")],
            aggregates: Vec::new(),
        }
        .normalized()
    }

    #[test]
    fn same_shape_ignores_region() {
        let a = fp(HtKind::JoinBuild, 20, 30);
        let b = fp(HtKind::JoinBuild, 40, 90);
        assert!(a.same_shape(&b));
        let c = fp(HtKind::Aggregate, 20, 30);
        assert!(!a.same_shape(&c), "different kinds never match");
    }

    #[test]
    fn shape_differs_on_keys() {
        let a = fp(HtKind::JoinBuild, 0, 10);
        let mut b = fp(HtKind::JoinBuild, 0, 10);
        b.key_attrs = vec![Arc::from("orders.o_orderkey")];
        assert!(!a.same_shape(&b));
    }

    #[test]
    fn payload_coverage() {
        let a = fp(HtKind::JoinBuild, 0, 10);
        assert!(a.payload_covers(["customer.c_age"]));
        assert!(a.payload_covers(["customer.c_age", "customer.c_acctbal"]));
        assert!(!a.payload_covers(["customer.c_mktsegment"]));
        assert!(a.payload_covers(std::iter::empty::<&str>()));
    }

    #[test]
    fn aggregate_provision() {
        let mut agg = fp(HtKind::Aggregate, 0, 10);
        agg.aggregates = vec![
            AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"),
            AggExpr::new(AggFunc::Count, "lineitem.l_quantity"),
        ];
        assert!(agg.provides_aggregates(&[AggExpr::new(AggFunc::Sum, "lineitem.l_quantity")]));
        assert!(!agg.provides_aggregates(&[AggExpr::new(AggFunc::Min, "lineitem.l_quantity")]));
        let shared = HtFingerprint {
            kind: HtKind::SharedGroup,
            ..agg.clone()
        };
        assert!(
            shared.provides_aggregates(&[AggExpr::new(AggFunc::Min, "lineitem.l_quantity")]),
            "shared-group tables store raw tuples and recompute any aggregate"
        );
    }

    #[test]
    fn summary_is_readable() {
        let s = fp(HtKind::JoinBuild, 0, 10).summary();
        assert!(s.contains("join-build"));
        assert!(s.contains("customer"));
        assert!(s.contains("customer.c_custkey"));
    }
}
