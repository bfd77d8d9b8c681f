//! The reuse cache: the Hash Table Manager, its payloads, lineage index and
//! garbage collector.
//!
//! Paper §2.2: *"The hash table cache manages hash tables for reuse; it
//! stores pointers to cached hash tables, as well as lineage information
//! about how each one of them was created. It also stores statistics to
//! enable the cost-based hash table selection by the optimizer."*
//!
//! * [`manager::HtManager`] — the one cache of a database: fingerprint-shape
//!   sharding, the byte budget and its eviction loop (one victim search over
//!   every entry, per-tenant floors), the publish / candidates / checkout /
//!   checkin / release life-cycle (all methods `&self`), identical-lineage
//!   publish dedup and statistics. Read-only reuse shares an `Arc` handle
//!   clone between any number of queries; mutating reuse is single-reuser
//!   (§2.2), enforced only where mutation actually happens, copy-on-write
//!   with a sole-reference in-place fast path. Checkouts are RAII guards:
//!   error paths and panics release the table instead of leaking it.
//! * [`payload`] — [`payload::StoredHt`]: a [`ColumnHt`] (join build sides
//!   and the raw grouped rows of shared aggregates, stored as typed
//!   columns), an [`AggHt`] (aggregate groups and accumulator states, as
//!   typed columns), or a temp table of the materialization baseline.
//! * [`column_ht`] — [`ColumnHt`]: a key index with typed payload columns.
//! * [`agg_ht`] — [`AggHt`]: a key index with typed group-key and
//!   accumulator-state columns.
//! * [`temp`] — the baseline's access to its temp tables, kept apart from
//!   hash-table lookups.
//! * [`recycle`] — the recycle-graph-style lineage index: candidate lookup
//!   is pruned to nodes that actually reference a cached table (paper
//!   §3.3).
//! * [`manager::GcConfig`] — coarse-grained eviction of whole tables (paper
//!   §5), with optional alternative policies and fine-grained bookkeeping.

pub mod agg_ht;
#[cfg(feature = "analysis")]
pub mod analysis;
pub mod column_ht;
pub mod manager;
pub mod payload;
pub mod recycle;
pub mod temp;

pub use agg_ht::{AggHt, AggState, Grouping};
pub use column_ht::ColumnHt;
pub use manager::{
    CacheStats, Candidate, CheckedOut, GcConfig, HtManager, SnapshotEntry, TenantId, DEFAULT_SHARDS,
};
pub use payload::{AggAccum, StoredHt, TempTable};
pub use recycle::RecycleGraph;
