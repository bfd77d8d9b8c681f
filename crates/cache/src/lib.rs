//! The reuse-cache layer: the generic [`store::ReuseStore`], its typed
//! Hash Table Manager facade, lineage index and garbage collector.
//!
//! Paper §2.2: *"The hash table cache manages hash tables for reuse; it
//! stores pointers to cached hash tables, as well as lineage information
//! about how each one of them was created. It also stores statistics to
//! enable the cost-based hash table selection by the optimizer."*
//!
//! * [`store`] — the generic, payload-agnostic reuse store: fingerprint-
//!   shape sharding, the shared [`store::ReuseBudget`] (one byte budget and
//!   one eviction loop ranking *every* payload kind together), RAII
//!   shared/exclusive checkout guards with copy-on-write mutation (and a
//!   sole-reference in-place fast path), identical-lineage publish dedup,
//!   per-table TTL expiry, statistics.
//! * [`payload`] — the payload types: [`payload::StoredHt`] (plain rows —
//!   join build sides and the raw grouped rows of shared aggregates — or
//!   aggregate accumulator states) and [`payload::MaterializedRows`] (the
//!   temp-table baseline's row vectors).
//! * [`manager::HtManager`] — the hash-table facade: publish / candidates /
//!   checkout / checkin / release life-cycle, all methods `&self`.
//!   Read-only reuse shares an `Arc` handle clone between any number of
//!   queries; mutating reuse is single-reuser (§2.2), enforced only where
//!   mutation actually happens. Checkouts are RAII guards: error paths and
//!   panics release the table instead of leaking it.
//! * [`recycle`] — the recycle-graph-style lineage index: candidate lookup
//!   is pruned to nodes that actually reference a cached hash table
//!   (paper §3.3).
//! * [`store::GcConfig`] — coarse-grained eviction of whole tables (paper
//!   §5) under the shared budget, with optional alternative policies, TTLs
//!   and an anti-starvation floor per payload kind.

#[cfg(feature = "analysis")]
pub mod analysis;
pub mod manager;
pub mod payload;
pub mod recycle;
pub mod store;

pub use manager::{Candidate, CheckedOut, HtManager};
pub use payload::{AggAccum, AggPayload, MaterializedRows, StoredHt};
pub use recycle::RecycleGraph;
pub use store::{
    CacheStats, Checkout, EvictionPolicy, GcConfig, ReuseBudget, ReusePayload, ReuseStore,
    SnapshotEntry, StoreCandidate, StoreId, TenantId, DEFAULT_SHARDS,
};
