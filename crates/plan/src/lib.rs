//! Logical query representation and the predicate algebra behind reuse.
//!
//! HashStash decides *how* a cached hash table can serve a new operator by
//! comparing the predicate that produced the cached table (`C`) with the
//! predicate of the requesting plan (`R`) — paper §3.3. This crate provides
//! the machinery to make those comparisons exact and decidable:
//!
//! * [`interval::Interval`] — one attribute's constraint, with type-aware
//!   canonicalization (discrete types normalize exclusive bounds away).
//! * [`region::PredBox`] / [`region::Region`] — conjunctions of intervals and
//!   finite unions of disjoint boxes, closed under intersection, difference
//!   and union. `R \ C` yields the *delta region* the partial/overlapping
//!   rewrites must scan from base tables.
//! * [`region::ReuseCase`] — the paper's four-way classification (exact,
//!   subsuming, partial, overlapping) computed from region containment.
//! * [`query::QuerySpec`] — SPJ / SPJA queries over the TPC-H schema.
//! * [`joingraph::JoinGraph`] — connected-partition enumeration feeding the
//!   optimizer's top-down search (paper Algorithm 1).
//! * [`fingerprint::HtFingerprint`] — the canonical lineage of a cached hash
//!   table, the unit stored in the recycle graph.

pub mod agg;
pub mod fingerprint;
pub mod interval;
pub mod joingraph;
pub mod query;
pub mod region;

pub use agg::{AggExpr, AggFunc};
pub use fingerprint::{HtFingerprint, HtKind};
pub use interval::Interval;
pub use joingraph::JoinGraph;
pub use query::{is_attr_of, JoinEdge, QueryBuilder, QuerySpec};
pub use region::{PredBox, Region, ReuseCase};

#[cfg(test)]
mod proptests;
