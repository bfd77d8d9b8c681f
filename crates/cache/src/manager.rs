//! The Hash Table Manager: the one reuse cache of a database (paper §2.2).
//!
//! It holds every cached intermediate — hash tables built by pipeline
//! breakers and, for the materialization baseline, temp tables of
//! materialized rows ([`StoredHt::Materialized`], see [`crate::temp`]) —
//! with their lineage, their statistics, the byte budget and the eviction
//! loop. Both kinds share the budget, the logical clock and the victim
//! search, but never each other's lookups: [`HtManager::candidates`] returns
//! hash tables only, the baseline's lookup materialized entries only, and
//! publish dedup never merges entries of different kinds.
//!
//! # Concurrency model
//!
//! The cache is sharded by the *shape key* of each table's fingerprint
//! (operator kind, base tables, join edges, hash keys — the recycle-graph
//! bucketing): every shard owns an independent mutex over its entry map and
//! recycle-graph slice, so sessions touching unrelated plan shapes never
//! contend. The footprint, the clock and all statistics are atomics.
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

use std::collections::{hash_map, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hashstash_types::{HsError, HtId, Result, Schema};

use hashstash_plan::HtFingerprint;

use crate::payload::StoredHt;
use crate::recycle::{RecycleGraph, ShapeKey};

/// Default shard count: enough to keep 8-way session fan-out off a single
/// lock without bloating tiny test caches.
pub const DEFAULT_SHARDS: usize = 8;

// ------------------------------------------------------------- lock order
//
// The declared global lock order (see the `// lock-order:` annotations on
// the fields below, the lock-discipline tidy lint, and the table in README
// `Correctness tooling`). The cache's protocol holds at most one of these
// at a time; under `--features analysis` every acquisition is checked
// against the strictly-increasing rule by a thread-local tracker.

/// Level of the per-tenant floor table (read, copied out, released before
/// any shard lock).
pub const LEVEL_TENANT_FLOORS: u32 = 15;
/// Level shared by every shard (two shard locks never nest).
pub const LEVEL_SHARD: u32 = 20;
/// Level of the per-tenant stats rollup (nests under a shard lock).
pub const LEVEL_TENANT_STATS: u32 = 25;
/// Level of the GC-config leaf lock.
pub const LEVEL_GC: u32 = 30;

/// A `MutexGuard` that reports its release to the lock-order tracker.
#[cfg(feature = "analysis")]
#[derive(Debug)]
pub(crate) struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    level: u32,
}

#[cfg(feature = "analysis")]
impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(feature = "analysis")]
impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(feature = "analysis")]
impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        crate::analysis::release(self.level);
    }
}

#[cfg(feature = "analysis")]
pub(crate) type LockGuard<'a, T> = OrderedGuard<'a, T>;
#[cfg(not(feature = "analysis"))]
pub(crate) type LockGuard<'a, T> = MutexGuard<'a, T>;

/// Acquire `m` at the declared `level`. Poisoning is tolerated everywhere
/// in the cache (entries stay consistent under panic because guards clean
/// up), so this never panics on a poisoned mutex; under `analysis` it
/// panics on a lock-order violation instead.
#[cfg(feature = "analysis")]
pub(crate) fn lock_at<T>(m: &Mutex<T>, level: u32) -> LockGuard<'_, T> {
    crate::analysis::acquire(level);
    OrderedGuard {
        guard: m.lock().unwrap_or_else(PoisonError::into_inner),
        level,
    }
}

#[cfg(not(feature = "analysis"))]
pub(crate) fn lock_at<T>(m: &Mutex<T>, _level: u32) -> LockGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identity of a tenant sharing the reuse cache. Every cached entry is
/// owned by the tenant whose session published it; the victim search, the
/// per-tenant statistics and the per-tenant anti-starvation floors
/// ([`HtManager::set_tenant_floor`]) key on this.
///
/// Single-tenant embedders never see it: the engine publishes everything
/// under [`TenantId::DEFAULT`] unless a session says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant everything belongs to when no tenant is configured.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::DEFAULT
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Garbage-collector configuration. Over budget, the collector evicts the
/// least recently used unpinned table, hash tables and temp tables ranked
/// in one search (the paper's LRU, §5).
#[derive(Debug, Clone, Copy, Default)]
pub struct GcConfig {
    /// Memory budget for every cached table, hash tables and temp tables
    /// alike; `None` disables eviction (the paper's "wo GC" mode).
    pub budget_bytes: Option<usize>,
    /// Enable the fine-grained (per-entry) bookkeeping mode the paper
    /// implemented and then disabled for its overhead (§5). When on, every
    /// checkout re-stamps all entries of the table — the monitoring cost
    /// shows up in the GC overhead experiment.
    pub fine_grained: bool,
}

/// Aggregate cache statistics (drives the paper's Figure 7b table).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Tables ever published.
    pub publishes: u64,
    /// Publish calls deduplicated onto an existing identical-lineage entry
    /// (e.g. re-publishes from re-planned retries). `publishes +
    /// publish_dedups` equals the number of publish calls.
    pub publish_dedups: u64,
    /// Checkouts for reuse (shared and exclusive).
    pub reuses: u64,
    /// Tables evicted by the GC.
    pub evictions: u64,
    /// Candidate lookups served.
    pub candidate_lookups: u64,
    /// Current footprint in bytes.
    pub bytes: usize,
    /// Current number of cached tables.
    pub entries: usize,
    /// High-water mark of the footprint.
    pub peak_bytes: usize,
}

impl CacheStats {
    /// The paper's "hit ratio": average number of reuses per cached element.
    pub fn hit_ratio(&self) -> f64 {
        if self.publishes == 0 {
            0.0
        } else {
            self.reuses as f64 / self.publishes as f64
        }
    }
}

/// How the cache entry holds its payload.
#[derive(Debug)]
enum Slot {
    /// The shared handle. Readers clone it; writers replace it at check-in.
    Present(Arc<StoredHt>),
    /// An exclusive guard took the payload out for sole-reference in-place
    /// mutation. Restored at check-in; the entry is dropped if the guard
    /// abandons (the payload may be half-mutated, so the pristine version
    /// no longer exists).
    InPlace,
}

#[derive(Debug)]
struct Entry {
    /// Shared with the entry's checkout guards, so a checkout copies no
    /// lineage.
    fingerprint: Arc<HtFingerprint>,
    schema: Arc<Schema>,
    slot: Slot,
    /// Whether the payload is materialized rows (the baseline's temp
    /// table) rather than a hash table. Fixed at publish.
    materialized: bool,
    /// Owner: the tenant whose session published this entry. Eviction
    /// protection and the per-tenant statistics key on it; reuse by other
    /// tenants is credited to the owner (shared reuse across tenants is a
    /// feature, not a leak — lineages only match on identical base data).
    tenant: TenantId,
    bytes: usize,
    last_used: u64,
    use_count: u64,
    /// Outstanding shared (read-only) checkouts.
    readers: u32,
    /// Whether an exclusive (mutating) checkout is outstanding.
    writer: bool,
    /// Fine-grained mode: one timestamp per stored element.
    entry_stamps: Option<Vec<u64>>,
}

impl Entry {
    /// Pinned entries are never evicted and never dropped.
    fn pinned(&self) -> bool {
        self.readers > 0 || self.writer
    }
}

/// Lineage validation applied inside a checkout, before any bookkeeping.
#[derive(Debug, Clone, Copy)]
enum RegionCheck<'r> {
    /// No validation (plain checkout by id).
    None,
    /// The lineage must still equal the planned region (mutating reuse:
    /// the delta was computed against it, so any drift invalidates it).
    Eq(&'r hashstash_plan::Region),
    /// The lineage must still cover the request region (read-only reuse:
    /// concurrent widening is tolerated and compensated by the executor).
    Covers(&'r hashstash_plan::Region),
}

/// How a [`CheckedOut`] guard holds its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckoutMode {
    /// Read-only handle clone; any number may coexist.
    Shared,
    /// Mutating copy-on-write checkout; at most one per table.
    Exclusive,
}

/// An RAII guard over a cached table checked out by one query.
///
/// Shared guards give read-only access through [`CheckedOut::table`].
/// Exclusive guards additionally allow [`CheckedOut::table_mut`] and publish
/// their new version — typically with a widened `fingerprint` — via
/// [`CheckedOut::checkin`].
///
/// Dropping a guard without checking in releases the pin: a shared guard
/// simply decrements the reader count; an exclusive guard abandons its
/// private copy and leaves the cached version untouched — unless the guard
/// took the sole-reference in-place fast path, in which case the pristine
/// version no longer exists and the (possibly half-mutated) entry is
/// dropped from the cache instead of being republished under a lineage it
/// may no longer match. Either way error paths and panics cannot leak a
/// checked-out table or corrupt a cached one.
#[derive(Debug)]
pub struct CheckedOut<'m> {
    htm: &'m HtManager,
    /// Identity in the cache.
    pub id: HtId,
    /// Lineage at checkout time (shared with the cache entry). Mutating
    /// reuses (partial/overlapping) widen the region — a copy-on-write of
    /// this handle — before [`CheckedOut::checkin`].
    pub fingerprint: Arc<HtFingerprint>,
    /// Payload schema (qualified attribute names → types).
    pub schema: Arc<Schema>,
    payload: Arc<StoredHt>,
    mode: CheckoutMode,
    /// Whether this guard took the entry's handle for in-place mutation.
    in_place: bool,
    active: bool,
}

impl CheckedOut<'_> {
    /// Read-only view of the payload.
    pub fn table(&self) -> &StoredHt {
        &self.payload
    }

    /// Whether this guard may mutate the payload.
    pub fn is_exclusive(&self) -> bool {
        self.mode == CheckoutMode::Exclusive
    }

    /// Mutable access. Only exclusive guards may mutate; concurrent readers
    /// keep their pre-mutation snapshot.
    ///
    /// When the guard holds the **sole** reference (no concurrent reader
    /// snapshots — `Arc` count of exactly two: the cache entry and this
    /// guard), the entry's handle is taken out and the mutation happens in
    /// place, skipping the O(table) copy. Readers arriving during the
    /// in-place window get a `CacheError` (→ ordinary re-plan). With any
    /// reader snapshot outstanding the mutation is copy-on-write as before:
    /// the copy is the price of letting readers keep probing, and of
    /// abandon-on-drop leaving the cached version pristine.
    pub fn table_mut(&mut self) -> Result<&mut StoredHt> {
        if self.mode != CheckoutMode::Exclusive {
            return Err(HsError::CacheError(format!(
                "{} checked out shared (read-only); use checkout_mut to mutate",
                self.id
            )));
        }
        if !self.in_place && Arc::strong_count(&self.payload) == 2 {
            // Possibly sole-referenced (entry + this guard). Confirm under
            // the shard lock — new references are only minted there, so a
            // count of 2 observed under the lock is definitive — and take
            // the entry's handle so we own the only one.
            let mut state = self.htm.lock_shard(self.htm.shard_of_id(self.id));
            if let Some(entry) = state.entries.get_mut(&self.id) {
                if let Slot::Present(h) = &entry.slot {
                    if Arc::ptr_eq(h, &self.payload) && Arc::strong_count(&self.payload) == 2 {
                        entry.slot = Slot::InPlace;
                        self.in_place = true;
                    }
                }
            }
        }
        // Sole reference → mutates in place; otherwise copy-on-write.
        Ok(Arc::make_mut(&mut self.payload))
    }

    /// A cheap owned handle on the current version of the payload (used by
    /// shared plans that check in early and keep reading).
    pub fn snapshot(&self) -> Arc<StoredHt> {
        Arc::clone(&self.payload)
    }

    /// The common epilogue of a mutating (delta) reuse: widen the lineage
    /// region by the requesting operator's region, publish the new version,
    /// and hand back an immutable snapshot so the caller can keep reading
    /// (probing, output production) without holding the writer slot.
    pub fn checkin_widened(
        mut self,
        request_region: &hashstash_plan::Region,
    ) -> Result<Arc<StoredHt>> {
        let widened = self.fingerprint.region.union(request_region);
        Arc::make_mut(&mut self.fingerprint).region = widened;
        let snapshot = self.snapshot();
        self.checkin()?;
        Ok(snapshot)
    }

    /// Publish this guard's (possibly mutated) payload version and updated
    /// `fingerprint`/`schema` back to the cache (paper Figure 1, step 4). A
    /// no-op release for shared guards, which cannot have changed anything.
    pub fn checkin(mut self) -> Result<()> {
        self.active = false;
        match self.mode {
            CheckoutMode::Shared => {
                self.htm.release(self.id, self.mode, false);
                Ok(())
            }
            CheckoutMode::Exclusive => self.htm.commit_checkin(
                self.id,
                Arc::clone(&self.fingerprint),
                Arc::clone(&self.schema),
                Arc::clone(&self.payload),
            ),
        }
    }
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        if self.active {
            self.htm.release(self.id, self.mode, self.in_place);
        }
    }
}

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

/// One entry as seen by a stats-neutral persistence snapshot
/// ([`HtManager::snapshot_entries`]): the payload handle plus the
/// bookkeeping the snapshot writer scores admission with.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Cache id at snapshot time (ids are *not* stable across restarts —
    /// rehydration re-publishes and obtains fresh ids).
    pub id: HtId,
    /// Lineage of the entry.
    pub fingerprint: HtFingerprint,
    /// Payload schema.
    pub schema: Schema,
    /// Shared payload handle (a clone of the cache's `Arc`).
    pub payload: Arc<StoredHt>,
    /// Logical footprint in bytes.
    pub bytes: usize,
    /// How often the entry was checked out — the numerator of the
    /// benefit-per-byte persistence score.
    pub use_count: u64,
}

#[derive(Debug, Default)]
struct ShardState {
    entries: HashMap<HtId, Entry>,
    recycle: RecycleGraph,
}

/// Per-tenant slice of the statistics. Candidate lookups are not tracked
/// here: a lookup serves whichever tenants' entries match, so it has no
/// single owner — [`CacheStats::candidate_lookups`] stays global-only.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    publishes: u64,
    publish_dedups: u64,
    reuses: u64,
    evictions: u64,
    bytes: usize,
    entries: usize,
    peak_bytes: usize,
}

/// The Hash Table Manager: a sharded, budget-governed, concurrently
/// accessible cache.
///
/// All methods take `&self`; interior locking is per shard. See the module
/// docs for the checkout/checkin concurrency model.
#[derive(Debug)]
pub struct HtManager {
    // lock-order: 20 (cache shards; two are never held at once — cross-shard
    // moves in commit_checkin go one shard at a time)
    shards: Vec<Mutex<ShardState>>,
    // lock-order: 30 (GC config; leaf — read, copied out, released)
    gc: Mutex<GcConfig>,
    // lock-order: 15 (per-tenant budget floors; read, copied out, released
    // before any shard lock)
    tenant_floors: Mutex<HashMap<TenantId, usize>>,
    // lock-order: 25 (per-tenant stats rollup; nests under one shard lock)
    tenant_stats: Mutex<HashMap<TenantId, TenantCounters>>,
    /// Logical clock behind every `last_used` stamp.
    clock: AtomicU64,
    /// Persistence generation: bumped under the shard lock by every change
    /// to what [`HtManager::snapshot_entries`] returns (see
    /// [`HtManager::generation`]).
    generation: AtomicU64,
    next_id: AtomicU64,
    publishes: AtomicU64,
    publish_dedups: AtomicU64,
    reuses: AtomicU64,
    evictions: AtomicU64,
    candidate_lookups: AtomicU64,
    bytes: AtomicUsize,
    entries: AtomicUsize,
    peak_bytes: AtomicUsize,
    /// Pin-leak detector: +1 per successful checkout, −1 per release or
    /// exclusive checkin. [`HtManager::assert_quiesced`] requires 0.
    #[cfg(feature = "analysis")]
    pins: std::sync::atomic::AtomicI64,
}

impl HtManager {
    /// Create a manager with the given GC configuration and
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new(gc: GcConfig) -> Self {
        HtManager::with_shards(gc, DEFAULT_SHARDS)
    }

    /// Create a manager with an explicit shard count (≥ 1).
    pub fn with_shards(gc: GcConfig, shards: usize) -> Self {
        HtManager {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            gc: Mutex::new(gc),
            tenant_floors: Mutex::new(HashMap::new()),
            tenant_stats: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            publishes: AtomicU64::new(0),
            publish_dedups: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            candidate_lookups: AtomicU64::new(0),
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            #[cfg(feature = "analysis")]
            pins: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// Manager with unlimited memory (GC off).
    pub fn unbounded() -> Self {
        HtManager::new(GcConfig::default())
    }

    /// Number of independent shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The GC configuration.
    pub fn gc_config(&self) -> GcConfig {
        *lock_at(&self.gc, LEVEL_GC)
    }

    /// Replace the GC configuration (budget changes take effect on the next
    /// publish/checkin or [`HtManager::enforce_budget`]).
    pub fn set_gc_config(&self, gc: GcConfig) {
        *lock_at(&self.gc, LEVEL_GC) = gc;
    }

    /// Set (or clear, with `0`) a tenant's anti-starvation floor: while the
    /// tenant's footprint is at or below `bytes`, the victim search skips
    /// its entries, so another tenant's churn cannot evict its hot
    /// intermediates. When *nothing* else is evictable the search ignores
    /// floors, so enforcement always makes progress — size the budget above
    /// the sum of the floors to make them hard in practice.
    pub fn set_tenant_floor(&self, tenant: TenantId, bytes: usize) {
        let mut floors = lock_at(&self.tenant_floors, LEVEL_TENANT_FLOORS);
        if bytes == 0 {
            floors.remove(&tenant);
        } else {
            floors.insert(tenant, bytes);
        }
    }

    /// The configured floor for a tenant (`0` when none is set).
    pub fn tenant_floor(&self, tenant: TenantId) -> usize {
        lock_at(&self.tenant_floors, LEVEL_TENANT_FLOORS)
            .get(&tenant)
            .copied()
            .unwrap_or(0)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record a change to what [`HtManager::snapshot_entries`] returns.
    /// Call with the shard lock that guards the change held.
    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// The persistence generation: a counter bumped, under the shard lock,
    /// by every change to what [`HtManager::snapshot_entries`] returns — a
    /// publish or a dedup's LRU stamp, a checkout, an exclusive check-in or
    /// abandon, an eviction and a drop. Read it *before* taking the
    /// entries: if a later read returns the same value, a fresh
    /// `snapshot_entries` would return the same entries in the same order,
    /// with the same use counts, lineages and payload handles. A change
    /// racing the read bumps after it, so the next read differs; a bump
    /// the read observes was made under a shard lock the snapshot takes
    /// afterwards, so the snapshot sees that change. Shared check-ins,
    /// lookups and statistics leave the counter alone.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn lock_shard(&self, idx: usize) -> LockGuard<'_, ShardState> {
        lock_at(&self.shards[idx], LEVEL_SHARD)
    }

    /// Shard owning tables of this fingerprint's shape (and the shape's
    /// recycle-graph slice). Routed by [`ShapeKey::stable_hash`] — not a
    /// `RandomState`-seeded std hasher — so the same shape lands on the
    /// same shard in every process, which the durability layer's golden
    /// shard-routing test pins for warm restarts.
    fn shard_of_shape(&self, fp: &HtFingerprint) -> usize {
        self.shard_of_key(&ShapeKey::of(fp))
    }

    /// Home shard of a shape.
    fn shard_of_key(&self, shape: &ShapeKey) -> usize {
        (shape.stable_hash() as usize) % self.shards.len()
    }

    /// Shard an id was homed in at publish time (encoded in the id).
    fn shard_of_id(&self, id: HtId) -> usize {
        (id.0 as usize) % self.shards.len()
    }

    /// Count a footprint increase (call while holding the shard lock that
    /// made the bytes visible — a concurrent eviction must never subtract
    /// bytes the counter doesn't hold yet).
    fn add_bytes(&self, delta: usize) {
        let now = self.bytes.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Apply an entry's size change to the global and the owner's counters.
    fn resize(&self, tenant: TenantId, old_bytes: usize, new_bytes: usize) {
        if new_bytes >= old_bytes {
            let delta = new_bytes - old_bytes;
            self.add_bytes(delta);
            self.tenant_mut(tenant, |c| {
                c.bytes += delta;
                c.peak_bytes = c.peak_bytes.max(c.bytes);
            });
        } else {
            let delta = old_bytes - new_bytes;
            self.bytes.fetch_sub(delta, Ordering::Relaxed);
            self.tenant_mut(tenant, |c| c.bytes = c.bytes.saturating_sub(delta));
        }
    }

    /// Update one tenant's counter slice. Safe to call with a shard lock
    /// held (level 20 → 25) or with nothing held.
    fn tenant_mut(&self, tenant: TenantId, f: impl FnOnce(&mut TenantCounters)) {
        let mut stats = lock_at(&self.tenant_stats, LEVEL_TENANT_STATS);
        f(stats.entry(tenant).or_default());
    }

    /// Remove an already-extracted entry's recycle registration and
    /// accounting (entry map removal happened under the home shard lock).
    fn account_removed(&self, id: HtId, entry: &Entry) {
        self.lock_shard(self.shard_of_shape(&entry.fingerprint))
            .recycle
            .remove(&entry.fingerprint, id);
        self.entries.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
        self.tenant_mut(entry.tenant, |c| {
            c.entries = c.entries.saturating_sub(1);
            c.bytes = c.bytes.saturating_sub(entry.bytes);
        });
    }

    /// Publish a hash table materialized by a pipeline breaker. Returns its
    /// cache id. May trigger evictions to respect the memory budget.
    ///
    /// Publishing a lineage that is already cached (same kind, shape,
    /// payload and set-equal region — e.g. a re-planned retry re-running an
    /// operator whose first attempt's publish survived the abort) is
    /// deduplicated: the existing entry is kept (base tables are immutable,
    /// so identical lineage means identical content), its LRU stamp
    /// refreshed, and its id returned without touching the footprint or the
    /// publish counter.
    pub fn publish(&self, fingerprint: HtFingerprint, schema: Schema, ht: StoredHt) -> HtId {
        self.publish_as(TenantId::DEFAULT, fingerprint, schema, ht)
    }

    /// [`HtManager::publish`] on behalf of a tenant: the new entry is owned
    /// by `tenant` for budget-floor protection and per-tenant statistics.
    /// A dedup hit keeps the existing entry's owner (base tables are
    /// immutable, so an identical lineage is the same table whoever built
    /// it); the dedup itself is credited to the publishing tenant.
    pub fn publish_as(
        &self,
        tenant: TenantId,
        fingerprint: HtFingerprint,
        schema: Schema,
        ht: StoredHt,
    ) -> HtId {
        let shard = self.shard_of_shape(&fingerprint);
        let now = self.tick();
        let bytes = ht.logical_bytes();
        let materialized = ht.is_materialized();
        let entry_stamps = self.gc_config().fine_grained.then(|| vec![now; ht.len()]);
        let id = {
            let mut state = self.lock_shard(shard);
            let candidates = state.recycle.candidates(&fingerprint);
            let duplicate = candidates.into_iter().find_map(|id| {
                let entry = state.entries.get_mut(&id)?;
                (!entry.writer
                    && entry.materialized == materialized
                    && entry.fingerprint.same_lineage(&fingerprint))
                .then(|| {
                    entry.last_used = now;
                    id
                })
            });
            self.bump_generation();
            if let Some(id) = duplicate {
                self.publish_dedups.fetch_add(1, Ordering::Relaxed);
                self.tenant_mut(tenant, |c| c.publish_dedups += 1);
                return id;
            }
            // Encode the home shard in the id so id-only operations
            // (checkout, checkin, drop) find the right shard without a
            // global index.
            let raw = self.next_id.fetch_add(1, Ordering::Relaxed);
            let id = HtId(raw * self.shards.len() as u64 + shard as u64);
            state.recycle.add(&fingerprint, id);
            state.entries.insert(
                id,
                Entry {
                    fingerprint: Arc::new(fingerprint),
                    schema: Arc::new(schema),
                    slot: Slot::Present(Arc::new(ht)),
                    materialized,
                    tenant,
                    bytes,
                    last_used: now,
                    use_count: 0,
                    readers: 0,
                    writer: false,
                    entry_stamps,
                },
            );
            // Count the bytes while still holding the shard lock: the entry
            // is evictable the moment the lock drops, and a concurrent
            // eviction must never subtract bytes the counter doesn't hold
            // yet (usize underflow).
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.add_bytes(bytes);
            self.publishes.fetch_add(1, Ordering::Relaxed);
            self.tenant_mut(tenant, |c| {
                c.publishes += 1;
                c.entries += 1;
                c.bytes += bytes;
                c.peak_bytes = c.peak_bytes.max(c.bytes);
            });
            id
        };
        self.enforce_budget();
        id
    }

    /// Candidate hash tables whose producing sub-plan matches the request's
    /// shape. Tables with an outstanding *mutating* checkout are excluded
    /// (single-reuser rule for writers); tables held by readers remain
    /// candidates — shared read-only reuse is the point of the Arc design.
    /// Materialized temp tables are never candidates.
    pub fn candidates(&self, request: &HtFingerprint) -> Vec<Candidate> {
        self.candidate_lookups.fetch_add(1, Ordering::Relaxed);
        self.lookup(request, false, |_| true)
    }

    /// The [`HtManager::candidates`] whose lineage region is not disjoint
    /// from the request's — the only ones a reuse can serve. A disjoint
    /// entry is passed over before anything of it is copied.
    pub fn overlapping_candidates(&self, request: &HtFingerprint) -> Vec<Candidate> {
        self.candidate_lookups.fetch_add(1, Ordering::Relaxed);
        self.lookup(request, false, |fp| !request.region.is_disjoint(&fp.region))
    }

    /// Available entries of one kind (`materialized` or hash tables) in
    /// the request's shape bucket of the recycle graph whose fingerprint
    /// passes `keep`.
    pub(crate) fn lookup(
        &self,
        request: &HtFingerprint,
        materialized: bool,
        keep: impl Fn(&HtFingerprint) -> bool,
    ) -> Vec<Candidate> {
        let push_candidate =
            |out: &mut Vec<Candidate>, entries: &HashMap<HtId, Entry>, id: HtId| {
                let Some(e) = entries.get(&id) else {
                    return; // evicted between graph probe and entry lookup
                };
                let Slot::Present(payload) = &e.slot else {
                    return; // held for in-place mutation
                };
                if e.writer || e.materialized != materialized || !keep(&e.fingerprint) {
                    return;
                }
                out.push(Candidate {
                    id,
                    fingerprint: (*e.fingerprint).clone(),
                    schema: (*e.schema).clone(),
                    entries: payload.len(),
                    distinct_keys: payload.distinct_keys(),
                    tuple_width: payload.tuple_width(),
                    bytes: payload.logical_bytes(),
                });
            };

        let shape = ShapeKey::of(request);
        let shape_shard = self.shard_of_key(&shape);
        let mut out = Vec::new();
        // Entries of this shape home in the shape's shard, so serve them
        // under the single lock we already hold for the graph probe. Only
        // ids re-homed by a shape-changing checkin (not produced by any
        // current code path) need another shard's lock.
        let mut foreign: Vec<HtId> = Vec::new();
        {
            let mut state = self.lock_shard(shape_shard);
            let ShardState { entries, recycle } = &mut *state;
            for &id in recycle.candidates_of(&shape) {
                if self.shard_of_id(id) == shape_shard {
                    push_candidate(&mut out, entries, id);
                } else {
                    foreign.push(id);
                }
            }
        }
        for id in foreign {
            let state = self.lock_shard(self.shard_of_id(id));
            push_candidate(&mut out, &state.entries, id);
        }
        out
    }

    /// Stats-neutral snapshot of every available entry, for persistence,
    /// oldest `last_used` first — so re-publishing the list in order
    /// reproduces the LRU order.
    ///
    /// Clones each entry's shared payload handle under its shard lock —
    /// the same race-safety a shared checkout relies on (base handles are
    /// immutable; mutating reuse replaces the `Arc` at check-in, so a
    /// snapshot taken concurrently sees either the old or the new version,
    /// both internally consistent). Unlike a checkout it does **not** bump
    /// `use_count`, LRU stamps or the `reuses` counter, does not pin the
    /// entry, and is invisible to cache statistics. Entries held for
    /// in-place mutation or by an exclusive writer are skipped (their
    /// pristine payload may no longer exist).
    pub fn snapshot_entries(&self) -> Vec<SnapshotEntry> {
        let mut out = Vec::new();
        for si in 0..self.shards.len() {
            let state = self.lock_shard(si);
            for (&id, e) in &state.entries {
                let Slot::Present(payload) = &e.slot else {
                    continue;
                };
                if e.writer {
                    continue;
                }
                let entry = SnapshotEntry {
                    id,
                    fingerprint: (*e.fingerprint).clone(),
                    schema: (*e.schema).clone(),
                    payload: Arc::clone(payload),
                    bytes: e.bytes,
                    use_count: e.use_count,
                };
                out.push((e.last_used, entry));
            }
        }
        out.sort_by_key(|(last_used, _)| *last_used);
        out.into_iter().map(|(_, e)| e).collect()
    }

    fn checkout_inner(
        &self,
        id: HtId,
        mode: CheckoutMode,
        check: RegionCheck<'_>,
    ) -> Result<CheckedOut<'_>> {
        let now = self.tick();
        let fine = self.gc_config().fine_grained;
        let mut state = self.lock_shard(self.shard_of_id(id));
        let entry = state
            .entries
            .get_mut(&id)
            .ok_or_else(|| HsError::CacheError(format!("{id} not in cache")))?;
        // Lineage validation happens *before* any bookkeeping: a failed
        // (stale-plan) checkout must not inflate use counts, LRU stamps or
        // the reuse statistics.
        match check {
            RegionCheck::None => {}
            RegionCheck::Eq(expect) => {
                if !entry.fingerprint.region.set_eq(expect) {
                    return Err(HsError::CacheError(format!(
                        "{id} lineage changed since planning"
                    )));
                }
            }
            RegionCheck::Covers(request) => {
                if !request.is_subset(&entry.fingerprint.region) {
                    return Err(HsError::CacheError(format!(
                        "{id} lineage no longer covers the requested region"
                    )));
                }
            }
        }
        let Slot::Present(handle) = &entry.slot else {
            // The writer took the payload for in-place mutation; there is
            // no snapshot to hand out until it checks back in.
            return Err(HsError::CacheError(format!(
                "{id} checked out for in-place mutation"
            )));
        };
        let payload = Arc::clone(handle);
        match mode {
            CheckoutMode::Shared => entry.readers += 1,
            CheckoutMode::Exclusive => {
                if entry.writer {
                    return Err(HsError::CacheError(format!(
                        "{id} already checked out for writing"
                    )));
                }
                entry.writer = true;
            }
        }
        entry.last_used = now;
        entry.use_count += 1;
        self.bump_generation();
        if fine {
            // Fine-grained bookkeeping: re-stamp every element. This is the
            // per-entry monitoring overhead the paper measured and rejected.
            entry.entry_stamps = Some(vec![now; payload.len()]);
        }
        self.reuses.fetch_add(1, Ordering::Relaxed);
        // Reuse is credited to the entry's owner: a tenant's hit ratio
        // measures how often the tables *it* built paid off, whichever
        // session probed them.
        self.tenant_mut(entry.tenant, |c| c.reuses += 1);
        #[cfg(feature = "analysis")]
        self.pins.fetch_add(1, Ordering::Relaxed);
        Ok(CheckedOut {
            htm: self,
            id,
            fingerprint: Arc::clone(&entry.fingerprint),
            schema: Arc::clone(&entry.schema),
            payload,
            mode,
            in_place: false,
            active: true,
        })
    }

    /// Check a table out for shared, read-only reuse (exact and subsuming
    /// matches). Any number of shared checkouts may coexist.
    pub fn checkout(&self, id: HtId) -> Result<CheckedOut<'_>> {
        self.checkout_inner(id, CheckoutMode::Shared, RegionCheck::None)
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
        self.checkout_inner(
            id,
            CheckoutMode::Shared,
            RegionCheck::Covers(request_region),
        )
    }

    /// Check a table out for mutating reuse (partial/overlapping delta
    /// insertion). At most one mutating checkout per table — the paper's
    /// single-reuser rule, enforced only where mutation actually happens.
    /// Mutation is copy-on-write (with a sole-reference in-place fast
    /// path): concurrent readers keep their snapshot until
    /// [`CheckedOut::checkin`] publishes the new version.
    pub fn checkout_mut(&self, id: HtId) -> Result<CheckedOut<'_>> {
        self.checkout_inner(id, CheckoutMode::Exclusive, RegionCheck::None)
    }

    /// [`HtManager::checkout_mut`], but failing — without touching use
    /// counts or LRU stamps — unless the table's lineage region still
    /// equals `expect_region`. Mutating reuse needs this strict equality:
    /// its delta scan was computed against the planned region, so a
    /// concurrent widening makes the delta wrong and must re-plan.
    pub fn checkout_mut_expecting(
        &self,
        id: HtId,
        expect_region: &hashstash_plan::Region,
    ) -> Result<CheckedOut<'_>> {
        self.checkout_inner(id, CheckoutMode::Exclusive, RegionCheck::Eq(expect_region))
    }

    /// Release a pin without publishing changes (guard drop). An exclusive
    /// guard that took the in-place fast path leaves no pristine version to
    /// fall back to, so its entry is dropped from the cache.
    fn release(&self, id: HtId, mode: CheckoutMode, in_place: bool) {
        #[cfg(feature = "analysis")]
        self.pins.fetch_sub(1, Ordering::Relaxed);
        let removed = {
            let mut state = self.lock_shard(self.shard_of_id(id));
            match (state.entries.get_mut(&id), mode) {
                (Some(entry), CheckoutMode::Shared) => {
                    entry.readers = entry.readers.saturating_sub(1);
                    None
                }
                (Some(entry), CheckoutMode::Exclusive) => {
                    entry.writer = false;
                    self.bump_generation();
                    if in_place && matches!(entry.slot, Slot::InPlace) {
                        state.entries.remove(&id)
                    } else {
                        None
                    }
                }
                (None, _) => None,
            }
        };
        if let Some(entry) = removed {
            self.account_removed(id, &entry);
        }
    }

    /// Publish an exclusive guard's new payload version. The fingerprint
    /// may have changed (partial reuse widens the region); the recycle
    /// graph is updated if the shape changed.
    fn commit_checkin(
        &self,
        id: HtId,
        fingerprint: Arc<HtFingerprint>,
        schema: Arc<Schema>,
        payload: Arc<StoredHt>,
    ) -> Result<()> {
        // The guard is consumed whether or not the commit succeeds, so the
        // pin is gone either way.
        #[cfg(feature = "analysis")]
        self.pins.fetch_sub(1, Ordering::Relaxed);
        let now = self.tick();
        let fine = self.gc_config().fine_grained;
        let shape_change = {
            let mut state = self.lock_shard(self.shard_of_id(id));
            let entry = state
                .entries
                .get_mut(&id)
                .ok_or_else(|| HsError::CacheError(format!("{id} not in cache")))?;
            debug_assert!(entry.writer, "checkin without an exclusive checkout");
            let shape_change = (!entry.fingerprint.same_shape(&fingerprint))
                .then(|| Arc::clone(&entry.fingerprint));
            let old_bytes = entry.bytes;
            entry.bytes = payload.logical_bytes();
            if fine {
                entry.entry_stamps = Some(vec![now; payload.len()]);
            }
            entry.fingerprint = Arc::clone(&fingerprint);
            entry.schema = schema;
            entry.slot = Slot::Present(payload);
            entry.last_used = now;
            entry.writer = false;
            self.bump_generation();
            // Byte delta while still holding the shard lock: once it drops
            // the entry is evictable, and a concurrent eviction subtracting
            // the new size against a counter still holding the old one
            // would underflow.
            self.resize(entry.tenant, old_bytes, entry.bytes);
            shape_change
        };
        // Move the recycle registration when the shape changed (one shard
        // lock at a time; candidate lookups tolerate the brief window by
        // re-validating against the entry).
        if let Some(old_fp) = shape_change {
            self.lock_shard(self.shard_of_shape(&old_fp))
                .recycle
                .remove(&old_fp, id);
            self.lock_shard(self.shard_of_shape(&fingerprint))
                .recycle
                .add(&fingerprint, id);
        }
        self.enforce_budget();
        Ok(())
    }

    /// Drop a table outright. Fails while the table is checked out.
    pub fn drop_table(&self, id: HtId) -> Result<()> {
        let entry = {
            let mut state = self.lock_shard(self.shard_of_id(id));
            match state.entries.entry(id) {
                hash_map::Entry::Vacant(_) => {
                    return Err(HsError::CacheError(format!("{id} not in cache")))
                }
                hash_map::Entry::Occupied(e) if e.get().pinned() => {
                    return Err(HsError::CacheError(format!("{id} is checked out")))
                }
                hash_map::Entry::Occupied(e) => {
                    self.bump_generation();
                    e.remove()
                }
            }
        };
        self.account_removed(id, &entry);
        Ok(())
    }

    /// Evict tables until the footprint drops below the budget. Checked-out
    /// tables (readers or writer) are never evicted. Returns the number of
    /// evictions.
    pub fn enforce_budget(&self) -> usize {
        let gc = self.gc_config();
        let Some(budget) = gc.budget_bytes else {
            return 0;
        };
        let floors = lock_at(&self.tenant_floors, LEVEL_TENANT_FLOORS).clone();
        let mut evicted = 0;
        while self.bytes.load(Ordering::Relaxed) > budget {
            // Tenants at or below their floor are skipped while any other
            // entry is evictable; when none is, the search ignores floors so
            // enforcement always makes progress.
            let protected: Vec<TenantId> = if floors.is_empty() {
                Vec::new()
            } else {
                let stats = lock_at(&self.tenant_stats, LEVEL_TENANT_STATS);
                floors
                    .iter()
                    .filter(|(t, &floor)| stats.get(t).map_or(0, |c| c.bytes) <= floor)
                    .map(|(&t, _)| t)
                    .collect()
            };
            let mut victim = self.best_victim(&protected);
            if victim.is_none() && !protected.is_empty() {
                victim = self.best_victim(&[]);
            }
            let Some(id) = victim else {
                break;
            };
            // Re-validation failure (pinned or removed since the scan) just
            // re-enters the loop and re-scans.
            if self.try_evict(id) {
                evicted += 1;
            }
        }
        evicted
    }

    /// The least recently used unpinned entry, skipping entries owned by a
    /// tenant in `protected`. Shards are scanned one at a time, so no two
    /// shard locks are ever held together.
    fn best_victim(&self, protected: &[TenantId]) -> Option<HtId> {
        let mut victim: Option<(HtId, u64)> = None;
        for si in 0..self.shards.len() {
            let state = self.lock_shard(si);
            for (&id, e) in &state.entries {
                if e.pinned() || protected.contains(&e.tenant) {
                    continue;
                }
                if victim.is_none_or(|(_, last_used)| e.last_used < last_used) {
                    victim = Some((id, e.last_used));
                }
            }
        }
        victim.map(|(id, _)| id)
    }

    /// Re-lock, re-validate and evict; `false` if the entry was pinned or
    /// removed by a concurrent session since the scan.
    fn try_evict(&self, id: HtId) -> bool {
        let removed = {
            let mut state = self.lock_shard(self.shard_of_id(id));
            match state.entries.get(&id) {
                Some(e) if !e.pinned() => {
                    self.bump_generation();
                    state.entries.remove(&id)
                }
                _ => None,
            }
        };
        let Some(entry) = removed else {
            return false;
        };
        self.account_removed(id, &entry);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.tenant_mut(entry.tenant, |c| c.evictions += 1);
        true
    }

    /// Fine-grained per-slot timestamps of a table (`None` unless
    /// `fine_grained` mode stamped it). For tests and GC experiments.
    pub fn entry_stamps(&self, id: HtId) -> Result<Option<Vec<u64>>> {
        let state = self.lock_shard(self.shard_of_id(id));
        state
            .entries
            .get(&id)
            .map(|e| e.entry_stamps.clone())
            .ok_or_else(|| HsError::CacheError(format!("{id} not in cache")))
    }

    /// Aggregate statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            publishes: self.publishes.load(Ordering::Relaxed),
            publish_dedups: self.publish_dedups.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            candidate_lookups: self.candidate_lookups.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
        }
    }

    /// Per-tenant statistics slices, sorted by tenant id. Each counter of
    /// the global [`HtManager::stats`] (except `candidate_lookups`, which
    /// has no single owner, and `peak_bytes`, whose per-tenant high-water
    /// marks need not peak simultaneously) is the sum of the slices — a
    /// tenant appears once it has published, reused or evicted anything.
    pub fn tenant_stats(&self) -> Vec<(TenantId, CacheStats)> {
        let stats = lock_at(&self.tenant_stats, LEVEL_TENANT_STATS);
        let mut out: Vec<(TenantId, CacheStats)> = stats
            .iter()
            .map(|(&tenant, c)| {
                (
                    tenant,
                    CacheStats {
                        publishes: c.publishes,
                        publish_dedups: c.publish_dedups,
                        reuses: c.reuses,
                        evictions: c.evictions,
                        candidate_lookups: 0,
                        bytes: c.bytes,
                        entries: c.entries,
                        peak_bytes: c.peak_bytes,
                    },
                )
            })
            .collect();
        drop(stats);
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// One tenant's statistics slice (zeroed when the tenant has no
    /// history in this cache).
    pub fn tenant_stats_for(&self, tenant: TenantId) -> CacheStats {
        self.tenant_stats()
            .into_iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, s)| s)
            .unwrap_or_default()
    }

    /// Recount footprint and entries directly from the shards (O(entries),
    /// takes every shard lock in turn). At quiesce this must equal
    /// [`CacheStats::bytes`]/[`CacheStats::entries`] — the concurrency
    /// stress tests assert exactly that.
    pub fn audit(&self) -> (usize, usize) {
        let mut bytes = 0;
        let mut entries = 0;
        for si in 0..self.shards.len() {
            let state = self.lock_shard(si);
            entries += state.entries.len();
            bytes += state.entries.values().map(|e| e.bytes).sum::<usize>();
        }
        (bytes, entries)
    }

    /// Number of cached tables.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a given table is currently cached and not held by a writer
    /// (readers do not block availability).
    pub fn is_available(&self, id: HtId) -> bool {
        let state = self.lock_shard(self.shard_of_id(id));
        state.entries.get(&id).is_some_and(|e| !e.writer)
    }

    /// Checkout guards currently outstanding (`analysis` feature only).
    #[cfg(feature = "analysis")]
    pub fn outstanding_pins(&self) -> i64 {
        self.pins.load(Ordering::SeqCst)
    }

    /// Pin-leak detector: assert that every checkout guard ever handed out
    /// has been returned (released, dropped or checked in) and that no
    /// entry still carries readers, a writer or an in-place hole.
    ///
    /// Call at a quiesce point — after every worker thread has joined. A
    /// `mem::forget`-leaked guard, a double-count bug, or a release path
    /// that forgets its bookkeeping all fail here with the cache's state
    /// spelled out, instead of silently pinning entries against eviction.
    #[cfg(feature = "analysis")]
    pub fn assert_quiesced(&self) {
        let pins = self.outstanding_pins();
        assert_eq!(
            pins, 0,
            "pin leak: {pins} checkout guard(s) never returned to the cache"
        );
        for si in 0..self.shards.len() {
            let state = self.lock_shard(si);
            for (id, e) in &state.entries {
                assert_eq!(e.readers, 0, "{id}: {} reader(s) at quiesce", e.readers);
                assert!(!e.writer, "{id}: writer flag still set at quiesce");
                assert!(
                    matches!(e.slot, Slot::Present(_)),
                    "{id}: payload still taken for in-place mutation at quiesce"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnHt;
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
        let mut ht = ColumnHt::new(8, &[DataType::Int]);
        for i in 0..n as u64 {
            ht.insert(i, &Row::new(vec![Value::Int(i as i64)])).unwrap();
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
        Arc::make_mut(&mut w.fingerprint).region = fp(10, 30).region;
        w.checkin().unwrap();
        // Strict (mutating-reuse) validation fails…
        assert!(m.checkout_mut_expecting(id, &planned).is_err());
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
                t.insert(i, &Row::new(vec![Value::Int(i as i64)])).unwrap();
            }
        }
        Arc::make_mut(&mut writer.fingerprint).region = fp(10, 30).region;
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
            t.insert(500, &Row::new(vec![Value::Int(500)])).unwrap();
        }
        Arc::make_mut(&mut writer.fingerprint).region = fp(10, 30).region;
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
            t.insert(999, &Row::new(vec![Value::Int(999)])).unwrap();
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
        Arc::make_mut(&mut co.fingerprint).region = fp(10, 30).region;
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

    /// The checked-out-survival property, asserted unconditionally: a
    /// budget sized for exactly one table admits `b`; while `b` is pinned
    /// by a checkout, publishing `c` must evict `c` itself (the only
    /// unpinned entry), never the pinned `b`.
    #[test]
    fn checked_out_tables_survive_eviction() {
        let one_table = table(10).logical_bytes();
        let m = HtManager::new(GcConfig {
            budget_bytes: Some(one_table),
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

    /// Fine-grained mode stamps every element at publish and re-stamps
    /// them all, strictly later, at each checkout — the per-entry
    /// monitoring whose cost the GC overhead experiment measures.
    #[test]
    fn fine_grained_checkout_restamps_every_entry() {
        let m = HtManager::new(GcConfig {
            fine_grained: true,
            ..GcConfig::default()
        });
        let id = m.publish(fp(0, 10), schema(), table(40));
        let published = m.entry_stamps(id).unwrap().unwrap();
        assert_eq!(published.len(), 40);
        let co = m.checkout(id).unwrap();
        co.checkin().unwrap();
        let checked_out = m.entry_stamps(id).unwrap().unwrap();
        assert_eq!(checked_out.len(), 40);
        assert!(
            checked_out.iter().all(|&s| s > published[0]),
            "checkout stamps advance past the publish stamp"
        );
        let coarse = HtManager::unbounded();
        let id = coarse.publish(fp(0, 10), schema(), table(40));
        assert_eq!(coarse.entry_stamps(id).unwrap(), None);
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
