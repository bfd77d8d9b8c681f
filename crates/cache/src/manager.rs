//! The hash-table cache: a typed facade over the generic
//! [`crate::store::ReuseStore`].
//!
//! # Concurrency model
//!
//! The store is sharded by the *shape key* of each table's fingerprint
//! (operator kind, base tables, join edges, hash keys — the recycle-graph
//! bucketing): every shard owns an independent mutex over its entry map and
//! recycle-graph slice, so sessions touching unrelated plan shapes never
//! contend. The memory budget and all statistics are process-wide atomics;
//! the budget may be *shared* with other stores (the temp-table cache), in
//! which case one eviction loop ranks every payload kind together.
//!
//! Cached tables are stored as `Arc<StoredHt>` handles:
//!
//! * [`HtManager::checkout`] — *shared* checkout for read-only reuse (exact
//!   and subsuming): clones the handle, so any number of queries can probe
//!   the same table concurrently. No lock is held while the table is in use.
//! * [`HtManager::checkout_mut`] — *exclusive* checkout for mutating reuse
//!   (partial/overlapping delta insertion). Only one writer per table at a
//!   time — the paper's single-reuser rule (§2.2) is enforced exactly where
//!   mutation happens. Writers copy-on-write via
//!   `Arc::make_mut` — or, when no reader snapshot is outstanding, take the
//!   sole-reference in-place fast path that skips the O(table) copy — so
//!   concurrent readers always keep probing their immutable snapshot; the
//!   new version is published at [`CheckedOut::checkin`].
//!
//! Both checkouts return an RAII [`CheckedOut`] guard: dropping it (error
//! return, panic, or plain completion of a read-only reuse) releases the
//! table back to the cache, so an executor error path can never strand an
//! entry as permanently checked out.

use std::sync::Arc;

use hashstash_types::{HtId, Result, Schema};

use hashstash_plan::HtFingerprint;

use crate::payload::StoredHt;
use crate::store::{Checkout, ReuseBudget, ReuseStore, SnapshotEntry, StoreCandidate};

pub use crate::store::{CacheStats, EvictionPolicy, GcConfig, TenantId, DEFAULT_SHARDS};

/// An RAII guard over a cached hash table checked out by one query — the
/// hash-table instantiation of the generic [`Checkout`] guard.
pub type CheckedOut<'m> = Checkout<'m, HtId, StoredHt>;

/// Candidate description handed to the optimizer for costing.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub id: HtId,
    pub fingerprint: HtFingerprint,
    pub schema: Schema,
    /// Entries, distinct keys, width, bytes — the statistics the cost model
    /// consumes.
    pub entries: usize,
    pub distinct_keys: usize,
    pub tuple_width: usize,
    pub bytes: usize,
}

impl Candidate {
    fn of(c: StoreCandidate<HtId, StoredHt>) -> Self {
        Candidate {
            entries: c.payload.len(),
            distinct_keys: c.payload.distinct_keys(),
            tuple_width: c.payload.tuple_width(),
            bytes: c.payload.logical_bytes(),
            id: c.id,
            fingerprint: c.fingerprint,
            schema: c.schema,
        }
    }
}

/// The Hash Table Manager: a sharded, concurrently accessible cache.
///
/// All methods take `&self`; interior locking is per shard. See the module
/// docs for the checkout/checkin concurrency model.
#[derive(Debug)]
pub struct HtManager {
    store: ReuseStore<HtId, StoredHt>,
}

impl HtManager {
    /// Create a manager with the given GC configuration and
    /// [`DEFAULT_SHARDS`] shards, over a private budget.
    pub fn new(gc: GcConfig) -> Self {
        HtManager::with_shards(gc, DEFAULT_SHARDS)
    }

    /// Create a manager with an explicit shard count (≥ 1) over a private
    /// budget.
    pub fn with_shards(gc: GcConfig, shards: usize) -> Self {
        HtManager::with_budget(ReuseBudget::new(gc), shards)
    }

    /// Create a manager over an existing — possibly shared — budget. An
    /// engine that also runs a temp-table cache hands both the *same*
    /// budget, which makes the byte limit and the eviction victim search
    /// span both payload kinds.
    pub fn with_budget(budget: Arc<ReuseBudget>, shards: usize) -> Self {
        HtManager {
            store: ReuseStore::new(budget, shards),
        }
    }

    /// Manager with unlimited memory (GC off).
    pub fn unbounded() -> Self {
        HtManager::new(GcConfig::default())
    }

    /// Number of independent shards.
    pub fn num_shards(&self) -> usize {
        self.store.num_shards()
    }

    /// The budget governing this cache (possibly shared with the temp-table
    /// cache).
    pub fn budget(&self) -> &Arc<ReuseBudget> {
        self.store.budget()
    }

    /// Publish a hash table materialized by a pipeline breaker. Returns its
    /// cache id. May trigger evictions to respect the memory budget.
    ///
    /// Identical-lineage re-publishes are deduplicated — see
    /// [`ReuseStore::publish`].
    pub fn publish(&self, fingerprint: HtFingerprint, schema: Schema, ht: StoredHt) -> HtId {
        self.store.publish(fingerprint, schema, ht)
    }

    /// [`HtManager::publish`] on behalf of a tenant: the table is owned by
    /// `tenant` for per-tenant budget floors and statistics — see
    /// [`ReuseStore::publish_as`].
    pub fn publish_as(
        &self,
        tenant: TenantId,
        fingerprint: HtFingerprint,
        schema: Schema,
        ht: StoredHt,
    ) -> HtId {
        self.store.publish_as(tenant, fingerprint, schema, ht)
    }

    /// Candidate tables whose producing sub-plan matches the request's
    /// shape. Tables with an outstanding *mutating* checkout are excluded
    /// (single-reuser rule for writers); tables held by readers remain
    /// candidates — shared read-only reuse is the point of the Arc design.
    pub fn candidates(&self, request: &HtFingerprint) -> Vec<Candidate> {
        self.store
            .candidates(request)
            .into_iter()
            .map(Candidate::of)
            .collect()
    }

    /// Check a table out for shared, read-only reuse (exact and subsuming
    /// matches). Any number of shared checkouts may coexist.
    pub fn checkout(&self, id: HtId) -> Result<CheckedOut<'_>> {
        self.store.checkout(id)
    }

    /// [`HtManager::checkout`], but failing — without touching use counts
    /// or LRU stamps — unless the table's lineage region still equals
    /// `expect_region`. Sessions use this to detect that a concurrent
    /// partial reuse widened the table after their plan classified it.
    pub fn checkout_expecting(
        &self,
        id: HtId,
        expect_region: &hashstash_plan::Region,
    ) -> Result<CheckedOut<'_>> {
        self.store.checkout_expecting(id, expect_region)
    }

    /// Shared checkout validating that the table's lineage still **covers**
    /// `request_region`, rather than equalling the planned region exactly.
    /// Read-only (exact/subsuming) reuse uses this so a concurrent lineage
    /// widening — which only *adds* tuples — downgrades to an in-place
    /// subsuming reuse (the executor post-filters to the request region)
    /// instead of forcing a full re-plan. The guard's `fingerprint` carries
    /// the lineage observed at checkout, letting the caller detect whether
    /// compensation is needed.
    pub fn checkout_covering(
        &self,
        id: HtId,
        request_region: &hashstash_plan::Region,
    ) -> Result<CheckedOut<'_>> {
        self.store.checkout_covering(id, request_region)
    }

    /// Check a table out for mutating reuse (partial/overlapping delta
    /// insertion). At most one mutating checkout per table — the paper's
    /// single-reuser rule, enforced only where mutation
    /// actually happens. Mutation is copy-on-write (with a sole-reference
    /// in-place fast path): concurrent readers keep their snapshot until
    /// [`CheckedOut::checkin`] publishes the new version.
    pub fn checkout_mut(&self, id: HtId) -> Result<CheckedOut<'_>> {
        self.store.checkout_mut(id)
    }

    /// [`HtManager::checkout_mut`] with the same lineage pre-validation as
    /// [`HtManager::checkout_expecting`]. Mutating reuse keeps the strict
    /// equality check: its delta scan was computed against the planned
    /// region, so any widening makes the delta wrong and must re-plan.
    pub fn checkout_mut_expecting(
        &self,
        id: HtId,
        expect_region: &hashstash_plan::Region,
    ) -> Result<CheckedOut<'_>> {
        self.store.checkout_mut_expecting(id, expect_region)
    }

    /// Drop a table outright. Fails while the table is checked out.
    pub fn drop_table(&self, id: HtId) -> Result<()> {
        self.store.drop_entry(id)
    }

    /// Evict tables until the footprint drops below the budget (running the
    /// TTL expiry first). Checked-out tables (readers or writer) are never
    /// evicted. When the budget is shared, the victim search spans every
    /// store registered with it; the return value counts evictions across
    /// all of them.
    pub fn enforce_budget(&self) -> usize {
        self.store.enforce_budget()
    }

    /// Fine-grained GC: drop the oldest `1 - keep_fraction` of a table's
    /// entries (requires `fine_grained` mode). Returns entries removed.
    /// Copy-on-write: concurrent readers keep the unpruned snapshot.
    pub fn prune_entries(&self, id: HtId, keep_fraction: f64) -> Result<usize> {
        self.store.prune_entries(id, keep_fraction)
    }

    /// Fine-grained per-slot timestamps of a table (`None` unless
    /// `fine_grained` mode stamped it). For tests and GC experiments.
    pub fn entry_stamps(&self, id: HtId) -> Result<Option<Vec<u64>>> {
        self.store.entry_stamps(id)
    }

    /// Stats-neutral snapshot of every available table for persistence —
    /// see [`ReuseStore::snapshot_entries`]. Does not pin entries or touch
    /// LRU/use counters; writer-held tables are skipped.
    pub fn snapshot_entries(&self) -> Vec<SnapshotEntry<HtId, StoredHt>> {
        self.store.snapshot_entries()
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Per-tenant statistics slices — see [`ReuseStore::tenant_stats`].
    pub fn tenant_stats(&self) -> Vec<(TenantId, CacheStats)> {
        self.store.tenant_stats()
    }

    /// One tenant's statistics slice (zeroed when the tenant has no
    /// history in this cache).
    pub fn tenant_stats_for(&self, tenant: TenantId) -> CacheStats {
        self.store.tenant_stats_for(tenant)
    }

    /// Stamp every cached table with one fresh clock tick (warm-restart
    /// rehydration) — see [`ReuseStore::freshen_all`].
    pub fn freshen_all(&self) {
        self.store.freshen_all()
    }

    /// Recount footprint and entries directly from the shards (O(entries),
    /// takes every shard lock in turn). At quiesce this must equal
    /// [`CacheStats::bytes`]/[`CacheStats::entries`] — the concurrency
    /// stress tests assert exactly that.
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

    /// Whether a given table is currently cached and not held by a writer
    /// (readers do not block availability).
    pub fn is_available(&self, id: HtId) -> bool {
        self.store.is_available(id)
    }

    /// The GC configuration (of the — possibly shared — budget).
    pub fn gc_config(&self) -> GcConfig {
        self.store.budget().gc_config()
    }

    /// Replace the GC configuration (budget changes take effect on the next
    /// publish/checkin).
    pub fn set_gc_config(&self, gc: GcConfig) {
        self.store.budget().set_gc_config(gc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_hashtable::ExtendibleHashTable;
    use hashstash_plan::{HtKind, Interval, PredBox, Region};
    use hashstash_types::{DataType, Field, HsError, Row, Value};

    fn fp(lo: i64, hi: i64) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(PredBox::all().with(
                "customer.c_age",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_age")],
            aggregates: Vec::new(),
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("customer.c_age", DataType::Int)])
    }

    fn table(n: usize) -> StoredHt {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..n as u64 {
            ht.insert(i, Row::new(vec![Value::Int(i as i64)]));
        }
        StoredHt::Rows(ht)
    }

    #[test]
    fn publish_candidates_checkout_checkin() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 50), schema(), table(100));
        assert_eq!(m.len(), 1);
        let cands = m.candidates(&fp(0, 10));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].id, id);
        assert_eq!(cands[0].entries, 100);

        // Shared checkouts coexist and keep the table available.
        let co = m.checkout(id).unwrap();
        let co2 = m.checkout(id).unwrap();
        assert!(m.is_available(id), "shared readers keep availability");
        assert_eq!(
            m.candidates(&fp(0, 10)).len(),
            1,
            "readers do not hide candidates"
        );
        assert_eq!(co.table().len(), co2.table().len());
        drop(co2);
        co.checkin().unwrap();
        assert!(m.is_available(id));
        assert_eq!(m.stats().reuses, 2);
        assert!((m.stats().hit_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn identical_lineage_publish_dedups() {
        let m = HtManager::unbounded();
        let a = m.publish(fp(0, 50), schema(), table(100));
        let bytes = m.stats().bytes;
        let b = m.publish(fp(0, 50), schema(), table(100));
        assert_eq!(a, b, "identical lineage maps onto the existing entry");
        assert_eq!(m.len(), 1);
        assert_eq!(m.stats().publishes, 1, "dedup does not inflate publishes");
        assert_eq!(m.stats().publish_dedups, 1);
        assert_eq!(m.stats().bytes, bytes, "dedup does not inflate footprint");
        assert_eq!(m.audit(), (bytes, 1));
        // A different region is a different lineage and gets its own entry.
        let c = m.publish(fp(0, 60), schema(), table(100));
        assert_ne!(a, c);
        assert_eq!(m.len(), 2);
        assert_eq!(m.stats().publishes, 2);
    }

    #[test]
    fn dedup_skips_writer_held_entries() {
        let m = HtManager::unbounded();
        let a = m.publish(fp(0, 50), schema(), table(10));
        let w = m.checkout_mut(a).unwrap();
        // The held entry's lineage is about to change at check-in, so a
        // concurrent identical publish must not alias onto it.
        let b = m.publish(fp(0, 50), schema(), table(10));
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        drop(w);
    }

    #[test]
    fn checkout_covering_tolerates_concurrent_widening() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(20, 30), schema(), table(10));
        let planned = fp(20, 30).region;
        // A concurrent partial reuse widens the lineage to [10, 30].
        let mut w = m.checkout_mut(id).unwrap();
        w.fingerprint.region = fp(10, 30).region;
        w.checkin().unwrap();
        // Strict (mutating-reuse) validation fails…
        assert!(m.checkout_expecting(id, &planned).is_err());
        // …but the covering checkout succeeds and reports the widened
        // lineage so the executor can compensate with a post-filter.
        let co = m.checkout_covering(id, &planned).unwrap();
        assert!(co.fingerprint.region.set_eq(&fp(10, 30).region));
        drop(co);
        // A request the lineage does not cover still fails.
        assert!(m.checkout_covering(id, &fp(0, 50).region).is_err());
    }

    #[test]
    fn exclusive_checkout_is_single_reuser() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 50), schema(), table(10));
        let w = m.checkout_mut(id).unwrap();
        assert!(!m.is_available(id), "writer blocks availability");
        assert!(
            m.candidates(&fp(0, 10)).is_empty(),
            "writer-held ⇒ no candidate"
        );
        assert!(m.checkout_mut(id).is_err(), "double mutating checkout");
        // Readers may still snapshot the pre-mutation version.
        let r = m.checkout(id).unwrap();
        assert_eq!(r.table().len(), 10);
        drop(w); // dropped without checkin: cached version untouched
        assert!(m.is_available(id));
        let again = m.checkout_mut(id).unwrap();
        assert_eq!(again.table().len(), 10);
    }

    #[test]
    fn dropped_guard_releases_instead_of_leaking() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 50), schema(), table(25));
        let bytes = m.stats().bytes;
        {
            let _w = m.checkout_mut(id).unwrap();
            // Simulated executor error: the guard is dropped here without
            // a checkin.
        }
        assert!(m.is_available(id), "entry recovered on guard drop");
        assert_eq!(m.candidates(&fp(0, 10)).len(), 1);
        assert_eq!(m.stats().bytes, bytes, "bytes still accounted");
        let (audit_bytes, audit_entries) = m.audit();
        assert_eq!(audit_bytes, bytes);
        assert_eq!(audit_entries, 1);
    }

    #[test]
    fn cow_mutation_preserves_reader_snapshots() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(20, 30), schema(), table(10));
        let reader = m.checkout(id).unwrap();
        let mut writer = m.checkout_mut(id).unwrap();
        {
            let StoredHt::Rows(t) = writer.table_mut().unwrap() else {
                panic!("join table")
            };
            for i in 100..110u64 {
                t.insert(i, Row::new(vec![Value::Int(i as i64)]));
            }
        }
        writer.fingerprint.region = fp(10, 30).region;
        writer.checkin().unwrap();
        // The reader still sees the pre-mutation snapshot…
        assert_eq!(reader.table().len(), 10);
        // …while the cache serves the new version with widened lineage.
        let cands = m.candidates(&fp(10, 30));
        assert_eq!(cands[0].entries, 20);
        assert!(cands[0].fingerprint.region.set_eq(&fp(10, 30).region));
    }

    /// Sole-reference fast path: with no reader snapshot outstanding, the
    /// mutation happens **in place** — the post-checkin cache entry is the
    /// very same allocation that was published, not a copy.
    #[test]
    fn sole_reference_mutation_skips_the_copy() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(20, 30), schema(), table(10));
        let original_ptr = {
            let co = m.checkout(id).unwrap();
            Arc::as_ptr(&co.snapshot())
        };
        let mut writer = m.checkout_mut(id).unwrap();
        {
            let StoredHt::Rows(t) = writer.table_mut().unwrap() else {
                panic!("join table")
            };
            t.insert(500, Row::new(vec![Value::Int(500)]));
        }
        writer.fingerprint.region = fp(10, 30).region;
        writer.checkin().unwrap();
        let after = m.checkout(id).unwrap();
        assert_eq!(after.table().len(), 11, "delta landed");
        assert_eq!(
            Arc::as_ptr(&after.snapshot()),
            original_ptr,
            "no COW copy: the cached allocation is unchanged"
        );
    }

    /// During an in-place mutation there is no snapshot to hand out: a
    /// concurrent shared checkout fails with a `CacheError` (the session's
    /// ordinary re-plan path) instead of observing a torn table. A reader
    /// that grabbed its snapshot *before* the writer mutates forces the
    /// copy-on-write path and keeps its view — pinned by
    /// `cow_mutation_preserves_reader_snapshots`.
    #[test]
    fn in_place_window_rejects_new_readers() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(20, 30), schema(), table(10));
        let mut writer = m.checkout_mut(id).unwrap();
        writer.table_mut().unwrap(); // takes the in-place fast path
        assert!(
            matches!(m.checkout(id), Err(HsError::CacheError(_))),
            "no snapshot exists during the in-place window"
        );
        writer.checkin().unwrap();
        assert!(m.checkout(id).is_ok(), "snapshot restored at check-in");
    }

    /// Abandoning a guard *after* it took the in-place fast path drops the
    /// entry: the pristine version no longer exists, and re-publishing a
    /// possibly half-mutated table under its old lineage could serve wrong
    /// answers. Accounting must stay exact.
    #[test]
    fn abandoned_in_place_mutation_drops_the_entry() {
        let m = HtManager::unbounded();
        let keep = m.publish(fp(40, 60), schema(), table(5));
        let id = m.publish(fp(20, 30), schema(), table(10));
        {
            let mut writer = m.checkout_mut(id).unwrap();
            let StoredHt::Rows(t) = writer.table_mut().unwrap() else {
                panic!("join table")
            };
            t.insert(999, Row::new(vec![Value::Int(999)]));
            // Simulated executor error: dropped without checkin.
        }
        assert!(!m.is_available(id), "half-mutated entry dropped");
        assert!(m.is_available(keep), "other entries untouched");
        // Shape-matched candidates no longer include the dropped entry.
        let cands = m.candidates(&fp(20, 30));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].id, keep);
        let (audit_bytes, audit_entries) = m.audit();
        assert_eq!(audit_entries, 1);
        assert_eq!(m.stats().bytes, audit_bytes, "accounting stays exact");
    }

    #[test]
    fn shared_guard_rejects_mutation() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 10), schema(), table(5));
        let mut r = m.checkout(id).unwrap();
        assert!(r.table_mut().is_err(), "shared checkout is read-only");
    }

    #[test]
    fn checkin_updates_region_after_partial_reuse() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(20, 30), schema(), table(10));
        let mut co = m.checkout_mut(id).unwrap();
        // Simulate a partial reuse that widened the region to [10, 30].
        co.fingerprint.region = fp(10, 30).region;
        co.checkin().unwrap();
        let cands = m.candidates(&fp(10, 30));
        assert!(cands[0].fingerprint.region.set_eq(&fp(10, 30).region));
        let _ = id;
    }

    #[test]
    fn lru_eviction_under_budget() {
        let bytes_of = |n: usize| table(n).logical_bytes();
        let budget = bytes_of(100) * 2 + bytes_of(100) / 2;
        let m = HtManager::new(GcConfig {
            budget_bytes: Some(budget),
            policy: EvictionPolicy::Lru,
            ..GcConfig::default()
        });
        let a = m.publish(fp(0, 10), schema(), table(100));
        let b = m.publish(fp(20, 30), schema(), table(100));
        // Touch `a` so `b` becomes the LRU victim.
        let co = m.checkout(a).unwrap();
        co.checkin().unwrap();
        let _c = m.publish(fp(40, 50), schema(), table(100));
        assert_eq!(m.stats().evictions, 1);
        assert!(m.is_available(a), "recently used survives");
        assert!(!m.is_available(b), "LRU victim evicted");
    }

    #[test]
    fn lfu_eviction_prefers_rarely_used() {
        let m = HtManager::new(GcConfig {
            budget_bytes: Some(table(100).logical_bytes() * 2),
            policy: EvictionPolicy::Lfu,
            ..GcConfig::default()
        });
        let a = m.publish(fp(0, 10), schema(), table(100));
        let b = m.publish(fp(20, 30), schema(), table(100));
        for _ in 0..3 {
            let co = m.checkout(a).unwrap();
            co.checkin().unwrap();
        }
        // `b` has zero reuses; publishing a third table evicts it.
        let _c = m.publish(fp(40, 50), schema(), table(100));
        assert!(m.is_available(a));
        assert!(!m.is_available(b));
    }

    /// The checked-out-survival property, asserted unconditionally: a
    /// budget sized for exactly one table admits `b`; while `b` is pinned
    /// by a checkout, publishing `c` must evict `c` itself (the only
    /// unpinned entry), never the pinned `b`.
    #[test]
    fn checked_out_tables_survive_eviction() {
        let one_table = table(10).logical_bytes();
        let m = HtManager::new(GcConfig {
            budget_bytes: Some(one_table),
            policy: EvictionPolicy::Lru,
            ..GcConfig::default()
        });
        let b = m.publish(fp(0, 10), schema(), table(10));
        assert!(m.is_available(b), "budget admits exactly one table");

        // Shared pin: the squeeze must pick someone else.
        let co = m.checkout(b).unwrap();
        let c = m.publish(fp(20, 30), schema(), table(10));
        assert!(m.is_available(b), "reader-pinned table survives the GC");
        assert!(!m.is_available(c), "the unpinned newcomer was evicted");
        co.checkin().unwrap();

        // Exclusive pin: same property.
        let w = m.checkout_mut(b).unwrap();
        let d = m.publish(fp(40, 50), schema(), table(10));
        assert!(!m.is_available(d), "unpinned newcomer evicted again");
        drop(w);
        assert!(m.is_available(b), "writer-pinned table survived the GC");
        assert_eq!(m.len(), 1);
        assert!(m.stats().bytes <= one_table, "budget holds at quiesce");
    }

    #[test]
    fn budget_none_never_evicts() {
        let m = HtManager::unbounded();
        for i in 0..20 {
            m.publish(fp(i, i + 1), schema(), table(50));
        }
        assert_eq!(m.stats().evictions, 0);
        assert_eq!(m.len(), 20);
        assert!(m.stats().peak_bytes >= m.stats().bytes);
        let (bytes, entries) = m.audit();
        assert_eq!(bytes, m.stats().bytes);
        assert_eq!(entries, 20);
    }

    /// Per-table TTL: entries idle longer than `ttl_ticks` are evicted
    /// ahead of the victim search, even with no byte pressure at all.
    #[test]
    fn ttl_evicts_idle_entries_without_byte_pressure() {
        let m = HtManager::new(GcConfig {
            ttl_ticks: Some(8),
            ..GcConfig::default()
        });
        let idle = m.publish(fp(0, 10), schema(), table(10));
        let hot = m.publish(fp(20, 30), schema(), table(10));
        // Advance the clock past the TTL by touching only `hot`.
        for _ in 0..10 {
            m.checkout(hot).unwrap().checkin().unwrap();
        }
        m.enforce_budget();
        assert!(!m.is_available(idle), "idle entry expired");
        assert!(m.is_available(hot), "recently used entry survives");
        assert_eq!(m.stats().evictions, 1);
        let (audit_bytes, audit_entries) = m.audit();
        assert_eq!(audit_entries, 1);
        assert_eq!(m.stats().bytes, audit_bytes);
    }

    /// TTL pruning is monotone: under the same operation history, a longer
    /// TTL never expires an entry a shorter TTL would have kept.
    #[test]
    fn ttl_pruning_is_monotone_in_the_ttl() {
        // Same op sequence against two managers differing only in TTL.
        fn survivors(ttl: u64) -> Vec<bool> {
            let m = HtManager::new(GcConfig {
                ttl_ticks: Some(ttl),
                ..GcConfig::default()
            });
            let ids: Vec<HtId> = (0..4)
                .map(|i| m.publish(fp(i * 20, i * 20 + 10), schema(), table(10)))
                .collect();
            // Touch table k exactly 2k times, interleaved, so older tables
            // have strictly older last-used stamps.
            for round in 0..6 {
                for (k, &id) in ids.iter().enumerate() {
                    if round < 2 * k {
                        m.checkout(id).unwrap().checkin().unwrap();
                    }
                }
            }
            m.enforce_budget();
            ids.iter().map(|&id| m.is_available(id)).collect()
        }
        let short = survivors(3);
        let long = survivors(12);
        for (i, (s, l)) in short.iter().zip(&long).enumerate() {
            assert!(
                !s || *l,
                "entry {i} survived ttl=3 but was expired by ttl=12"
            );
        }
        // The shorter TTL expired at least as many entries.
        assert!(short.iter().filter(|s| !**s).count() >= long.iter().filter(|l| !**l).count());
    }

    #[test]
    fn prune_entries_fine_grained() {
        let m = HtManager::new(GcConfig {
            fine_grained: true,
            ..GcConfig::default()
        });
        let id = m.publish(fp(0, 10), schema(), table(100));
        let removed = m.prune_entries(id, 0.25).unwrap();
        assert!(removed >= 70, "kept ~25%, removed {removed}");
        let cands = m.candidates(&fp(0, 10));
        assert!(cands[0].entries <= 30);
    }

    /// Pruned survivors must carry a *fresh* timestamp so that a checkout
    /// right after the prune stamps strictly later — per-entry timestamps
    /// stay monotone (the pre-PR code re-used a stale clock value).
    #[test]
    fn prune_restamps_with_fresh_tick() {
        let m = HtManager::new(GcConfig {
            fine_grained: true,
            ..GcConfig::default()
        });
        let id = m.publish(fp(0, 10), schema(), table(40));
        let publish_stamp = m.entry_stamps(id).unwrap().unwrap()[0];
        m.prune_entries(id, 0.5).unwrap();
        let after_prune = m.entry_stamps(id).unwrap().unwrap();
        assert!(!after_prune.is_empty());
        assert!(
            after_prune.iter().all(|&s| s > publish_stamp),
            "prune stamps ({:?}) must advance past the publish stamp {publish_stamp}",
            &after_prune[..1]
        );
        // A checkout after the prune must stamp strictly later still.
        let co = m.checkout(id).unwrap();
        co.checkin().unwrap();
        let after_checkout = m.entry_stamps(id).unwrap().unwrap();
        assert!(
            after_checkout.iter().all(|&s| s > after_prune[0]),
            "checkout stamps must be monotone over prune stamps"
        );
    }

    #[test]
    fn prune_requires_fine_grained_mode() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 10), schema(), table(10));
        assert!(matches!(m.prune_entries(id, 0.5), Err(HsError::Config(_))));
    }

    #[test]
    fn drop_table_removes_from_recycle_graph() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 10), schema(), table(10));
        m.drop_table(id).unwrap();
        assert!(m.candidates(&fp(0, 10)).is_empty());
        assert!(m.drop_table(id).is_err());
        let (bytes, entries) = m.audit();
        assert_eq!((bytes, entries), (0, 0));
        assert_eq!(m.stats().bytes, 0);
    }

    #[test]
    fn drop_table_refuses_pinned_entries() {
        let m = HtManager::unbounded();
        let id = m.publish(fp(0, 10), schema(), table(10));
        let co = m.checkout(id).unwrap();
        assert!(m.drop_table(id).is_err(), "reader pin blocks drop");
        drop(co);
        assert!(m.drop_table(id).is_ok());
    }

    #[test]
    fn ids_spread_across_shards_by_shape() {
        let m = HtManager::with_shards(GcConfig::default(), 4);
        // Different shapes (different key attrs) land on (usually)
        // different shards; same shape stays on one shard.
        let a1 = m.publish(fp(0, 10), schema(), table(5));
        let a2 = m.publish(fp(20, 30), schema(), table(5));
        assert_eq!(
            a1.0 % 4,
            a2.0 % 4,
            "same shape ⇒ same home shard (region differences are irrelevant)"
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.candidates(&fp(0, 50)).len(), 2);
    }
}
