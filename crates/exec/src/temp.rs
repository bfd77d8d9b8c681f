//! Temp-table cache for the materialization-based reuse baseline — a typed
//! facade over the generic [`hashstash_cache::ReuseStore`].
//!
//! The paper's baseline (§6.1, following Nagel et al. ICDE'13) materializes
//! the *outputs* of selected operators into temporary in-memory tables and
//! reuses them for later queries, supporting only exact- and subsuming-reuse.
//! The crucial differences to HashStash:
//!
//! 1. materialization costs extra work during the original query (copying
//!    every tuple out of the pipeline), and
//! 2. a reused temp table is a plain relation — a join consuming it must
//!    still *rebuild* its hash table from the temp rows.
//!
//! Both costs fall out naturally here: [`crate::plan::PhysicalPlan::Materialize`]
//! copies rows into this cache, and a reusing plan scans the temp table into
//! an ordinary hash-join build.
//!
//! Concurrency: the facade inherits the store's model wholesale — sharded by
//! fingerprint shape, every method `&self`, reads served as cheap `Arc`
//! snapshots (no per-reuse copy of the rows, and no engine-level mutex). A
//! `TempScan` whose table was evicted by a concurrent session surfaces a
//! `CacheError`, which the session handles by re-planning.
//!
//! The store may share its [`ReuseBudget`] with the Hash Table Manager
//! ([`TempTableCache::with_budget`]): then one byte budget governs both
//! payload kinds and one eviction loop ranks them together.

use std::sync::Arc;

use hashstash_types::{Result, Row, Schema};

use hashstash_cache::{
    CacheStats, GcConfig, MaterializedRows, ReuseBudget, ReuseStore, SnapshotEntry, StoreId,
    TenantId, DEFAULT_SHARDS,
};
use hashstash_plan::HtFingerprint;

/// Identifier of a materialized temporary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TempId(pub u64);

impl std::fmt::Display for TempId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TT{}", self.0)
    }
}

impl StoreId for TempId {
    fn from_raw(raw: u64) -> Self {
        TempId(raw)
    }
    fn raw(self) -> u64 {
        self.0
    }
}

/// Statistics over the temp-table cache (drives Figure 7b's baseline rows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TempTableStats {
    /// Temp tables ever materialized.
    pub publishes: u64,
    /// Publish calls deduplicated onto an existing identical-lineage table.
    pub publish_dedups: u64,
    /// Reuses served.
    pub reuses: u64,
    /// Evictions under the memory budget.
    pub evictions: u64,
    /// Current footprint in bytes.
    pub bytes: usize,
    /// Current table count.
    pub entries: usize,
}

impl TempTableStats {
    /// Average reuses per materialized element (paper's hit ratio).
    pub fn hit_ratio(&self) -> f64 {
        if self.publishes == 0 {
            0.0
        } else {
            self.reuses as f64 / self.publishes as f64
        }
    }

    fn of(s: CacheStats) -> Self {
        TempTableStats {
            publishes: s.publishes,
            publish_dedups: s.publish_dedups,
            reuses: s.reuses,
            evictions: s.evictions,
            bytes: s.bytes,
            entries: s.entries,
        }
    }
}

/// A sharded, budget-bounded cache of materialized intermediate results.
/// All methods take `&self`.
#[derive(Debug)]
pub struct TempTableCache {
    store: ReuseStore<TempId, MaterializedRows>,
}

impl TempTableCache {
    /// Cache with a private memory budget.
    pub fn new(budget_bytes: Option<usize>) -> Self {
        TempTableCache::with_budget(
            ReuseBudget::new(GcConfig {
                budget_bytes,
                ..GcConfig::default()
            }),
            DEFAULT_SHARDS,
        )
    }

    /// Unlimited cache.
    pub fn unbounded() -> Self {
        TempTableCache::new(None)
    }

    /// Cache over an existing — possibly shared — budget. The engine hands
    /// the same budget to the Hash Table Manager, so hash tables and temp
    /// tables compete in one victim search under one byte limit.
    pub fn with_budget(budget: Arc<ReuseBudget>, shards: usize) -> Self {
        TempTableCache {
            store: ReuseStore::new(budget, shards),
        }
    }

    /// Materialize rows under a fingerprint. Returns the temp-table id.
    ///
    /// Re-publishing an identical lineage (e.g. a re-planned retry
    /// re-materializing an operator output that already survived an aborted
    /// attempt) is deduplicated: the existing table is kept, its LRU stamp
    /// refreshed, and its id returned without inflating the footprint or
    /// the publish counter.
    pub fn publish(&self, fingerprint: HtFingerprint, schema: Schema, rows: Vec<Row>) -> TempId {
        self.store
            .publish(fingerprint, schema, MaterializedRows::new(rows))
    }

    /// [`TempTableCache::publish`] on behalf of a tenant: the table is
    /// owned by `tenant` for per-tenant budget floors and statistics — see
    /// [`hashstash_cache::ReuseStore::publish_as`].
    pub fn publish_as(
        &self,
        tenant: TenantId,
        fingerprint: HtFingerprint,
        schema: Schema,
        rows: Vec<Row>,
    ) -> TempId {
        self.store
            .publish_as(tenant, fingerprint, schema, MaterializedRows::new(rows))
    }

    /// All cached fingerprints (candidate matching happens in the engine's
    /// baseline strategy — exact and subsuming only).
    pub fn fingerprints(&self) -> Vec<(TempId, HtFingerprint)> {
        self.store.fingerprints()
    }

    /// Schema of a temp table.
    pub fn schema(&self, id: TempId) -> Result<Schema> {
        self.store.schema(id)
    }

    /// Read a temp table: an `Arc` snapshot of the materialized rows — no
    /// copy of the table, however large. (Feeding the rows back into a
    /// pipeline still costs the re-read the baseline is *supposed* to pay;
    /// what this avoids is the extra full-table clone the cache itself used
    /// to make on every reuse.) Bumps LRU and reuse statistics.
    pub fn read(&self, id: TempId) -> Result<(Schema, Arc<MaterializedRows>)> {
        let co = self.store.checkout(id)?;
        let schema = co.schema.clone();
        let rows = co.snapshot();
        co.checkin()?;
        Ok((schema, rows))
    }

    /// Stats-neutral snapshot of every available temp table for
    /// persistence — see
    /// [`hashstash_cache::ReuseStore::snapshot_entries`]. Unlike
    /// [`TempTableCache::read`] this does not bump LRU or reuse counters.
    pub fn snapshot_entries(&self) -> Vec<SnapshotEntry<TempId, MaterializedRows>> {
        self.store.snapshot_entries()
    }

    /// Evict until under budget (shared victim search when the budget is
    /// shared). Returns the number of evictions.
    pub fn enforce_budget(&self) -> usize {
        self.store.enforce_budget()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TempTableStats {
        TempTableStats::of(self.store.stats())
    }

    /// Per-tenant raw statistics slices — see
    /// [`hashstash_cache::ReuseStore::tenant_stats`].
    pub fn tenant_stats(&self) -> Vec<(TenantId, CacheStats)> {
        self.store.tenant_stats()
    }

    /// One tenant's raw statistics slice (zeroed when the tenant has no
    /// history in this cache).
    pub fn tenant_stats_for(&self, tenant: TenantId) -> CacheStats {
        self.store.tenant_stats_for(tenant)
    }

    /// Stamp every cached table with one fresh clock tick (warm-restart
    /// rehydration) — see [`hashstash_cache::ReuseStore::freshen_all`].
    pub fn freshen_all(&self) {
        self.store.freshen_all()
    }

    /// The budget governing this cache.
    pub fn budget(&self) -> &Arc<ReuseBudget> {
        self.store.budget()
    }

    /// Recount footprint and entries directly from the shards (testing).
    pub fn audit(&self) -> (usize, usize) {
        self.store.audit()
    }

    /// Pin-leak detector forward (`analysis` feature): panics unless every
    /// checkout guard has been returned and every entry is unpinned. See
    /// `ReuseStore::assert_quiesced`.
    #[cfg(feature = "analysis")]
    pub fn assert_quiesced(&self) {
        self.store.assert_quiesced()
    }

    /// Number of checkout guards currently outstanding (`analysis` feature).
    #[cfg(feature = "analysis")]
    pub fn outstanding_pins(&self) -> i64 {
        self.store.outstanding_pins()
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_cache::payload::row_bytes;
    use hashstash_plan::{HtKind, Region};
    use hashstash_types::{DataType, Field, Value};

    fn fp() -> HtFingerprint {
        fp_over(0)
    }

    /// Distinct lineages per `lo` (publishing the *same* lineage twice is
    /// deduplicated — see `identical_lineage_publish_dedups`).
    fn fp_over(lo: i64) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(std::sync::Arc::from("t")).collect(),
            edges: vec![],
            region: Region::from_box(hashstash_plan::PredBox::all().with(
                "t.k",
                hashstash_plan::Interval::at_least(hashstash_types::Value::Int(lo)),
            )),
            key_attrs: vec![std::sync::Arc::from("t.k")],
            payload_attrs: vec![std::sync::Arc::from("t.k")],
            aggregates: vec![],
        }
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("t.k", DataType::Int)])
    }

    #[test]
    fn publish_and_read() {
        let c = TempTableCache::unbounded();
        let id = c.publish(fp(), schema(), rows(10));
        let (s, r) = c.read(id).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(r.len(), 10);
        assert_eq!(c.stats().reuses, 1);
        assert!((c.stats().hit_ratio() - 1.0).abs() < 1e-9);
    }

    /// The satellite fix: a read hands back a *snapshot* of the cached
    /// allocation, not a fresh copy — and the snapshot stays valid (and
    /// cheap) even if the table is evicted while the reader holds it.
    #[test]
    fn read_returns_shared_snapshot_not_a_copy() {
        let c = TempTableCache::unbounded();
        let id = c.publish(fp(), schema(), rows(100));
        let (_, first) = c.read(id).unwrap();
        let (_, second) = c.read(id).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "both reads share the cached allocation"
        );
        // Snapshot outlives eviction of the entry.
        drop(c);
        assert_eq!(first.len(), 100);
    }

    #[test]
    fn missing_table_errors() {
        let c = TempTableCache::unbounded();
        assert!(c.read(TempId(99)).is_err());
        assert!(c.schema(TempId(99)).is_err());
    }

    #[test]
    fn lru_eviction() {
        let bytes10 = rows(10).iter().map(row_bytes).sum::<usize>();
        let c = TempTableCache::new(Some(bytes10 * 2 + 1));
        let a = c.publish(fp_over(0), schema(), rows(10));
        let b = c.publish(fp_over(1), schema(), rows(10));
        c.read(a).unwrap(); // freshen a
        let _d = c.publish(fp_over(2), schema(), rows(10));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.read(a).is_ok());
        assert!(c.read(b).is_err(), "LRU victim gone");
    }

    #[test]
    fn fingerprints_enumerate() {
        let c = TempTableCache::unbounded();
        c.publish(fp_over(0), schema(), rows(1));
        c.publish(fp_over(1), schema(), rows(2));
        assert_eq!(c.fingerprints().len(), 2);
    }

    #[test]
    fn identical_lineage_publish_dedups() {
        let c = TempTableCache::unbounded();
        let a = c.publish(fp(), schema(), rows(10));
        let b = c.publish(fp(), schema(), rows(10));
        assert_eq!(a, b, "identical lineage maps to the existing table");
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().publishes, 1, "dedup does not inflate publishes");
        assert_eq!(c.stats().publish_dedups, 1);
        // A different lineage still gets its own entry.
        let d = c.publish(fp_over(7), schema(), rows(10));
        assert_ne!(a, d);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn dedup_refreshes_lru_stamp() {
        let bytes10 = rows(10).iter().map(row_bytes).sum::<usize>();
        let c = TempTableCache::new(Some(bytes10 * 2 + 1));
        let a = c.publish(fp_over(0), schema(), rows(10));
        let b = c.publish(fp_over(1), schema(), rows(10));
        // Re-publishing `a`'s lineage freshens it, so `b` is the LRU victim.
        assert_eq!(c.publish(fp_over(0), schema(), rows(10)), a);
        c.publish(fp_over(2), schema(), rows(10));
        assert!(c.read(a).is_ok(), "deduped republish counts as a touch");
        assert!(c.read(b).is_err());
    }
}
