//! The concurrent engine facade: a shareable [`Database`] plus cheap
//! per-client [`Session`] handles, configured through the fluent
//! [`EngineBuilder`].
//!
//! The immutable query infrastructure — catalog, statistics, cost model and
//! the configured [`EngineStrategy`] — lives in the [`Database`] and is read
//! lock-free by every session. The Hash Table Manager is the database's one
//! reuse cache — hash tables and, for the materialized baseline, temp
//! tables under one budget — and is itself concurrent (sharded by
//! fingerprint shape, `Arc`-backed tables): a session takes a
//! shard lock only for candidate lookup, checkout pinning, and
//! publish/check-in. **Execution runs lock-free** on cloned table handles,
//! so sessions executing non-conflicting queries — in particular, read-only
//! exact-match reuse of the *same* table — proceed fully in parallel.
//! Mutating reuse (partial/overlapping) is copy-on-write under the paper's
//! single-reuser rule; see [`hashstash_cache::manager`] for the model.
//!
//! A table the optimizer picked can, in the short window before the session
//! pins it, be evicted or write-locked by a concurrent session. The session
//! then simply re-plans (the stale candidate is gone from the cache) — a
//! bounded retry that degrades to reuse-free execution under pathological
//! contention, never to a wrong answer.
//!
//! ```no_run
//! use hashstash::Database;
//! use hashstash_storage::tpch::{generate, TpchConfig};
//!
//! let db = Database::builder(generate(TpchConfig::new(0.01, 42))).build();
//! let mut session = db.session();
//! # let query = hashstash_plan::QueryBuilder::new(1)
//! #     .table("customer").build().unwrap();
//! let result = session.execute(&query).unwrap();
//! println!("{} rows in {:?}", result.rows.len(), result.wall_time);
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hashstash_types::{HsError, QueryId, Result, Schema};

use hashstash_cache::{CacheStats, GcConfig, HtManager, TenantId};
use hashstash_durability::{benefit_score, Durability, FsyncPolicy, PersistedEntry};
use hashstash_exec::shared::execute_shared;
use hashstash_exec::{
    acquire_checkouts, acquire_plan_checkouts, execute, ExecContext, ExecMetrics, ResultRows,
    WorkerPool,
};
use hashstash_opt::multi::{plan_batch, BatchUnit};
use hashstash_opt::optimizer::{OptimizedQuery, Optimizer};
use hashstash_opt::{CostModel, DbStats, EngineStrategy};
use hashstash_plan::{QuerySpec, ReuseCase};
use hashstash_storage::Catalog;

use crate::materialized::materialized_plan;

/// The result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Query id.
    pub query: QueryId,
    /// Output schema.
    pub schema: Schema,
    /// Output rows: the plan root's column selection (see
    /// [`ResultRows`]); `len` and `write_text` never materialize it,
    /// deref materializes it once.
    pub rows: ResultRows,
    /// Wall-clock execution time (excludes optimization).
    pub wall_time: Duration,
    /// Optimization time.
    pub optimize_time: Duration,
    /// Optimizer's cost estimate (ns).
    pub est_cost_ns: f64,
    /// Execution counters.
    pub metrics: ExecMetrics,
    /// Reuse decisions per pipeline breaker (paper Table 8b's N/S strings).
    pub decisions: Vec<(String, Option<ReuseCase>)>,
}

/// Cumulative per-session statistics (drives the paper's Figure 7b).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Queries executed.
    pub queries: u64,
    /// Total wall-clock execution time.
    pub total_wall: Duration,
    /// Total optimization time.
    pub total_optimize: Duration,
    /// Accumulated execution counters.
    pub metrics: ExecMetrics,
}

impl SessionStats {
    fn record(&mut self, queries: u64, wall: Duration, optimize: Duration, m: &ExecMetrics) {
        self.queries += queries;
        self.total_wall += wall;
        self.total_optimize += optimize;
        self.metrics.absorb(m);
    }
}

/// How [`Session::execute_batch`] runs a batch (paper Exp 4 modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Every query individually, reuse off.
    SingleNoReuse,
    /// Every query individually, reuse on.
    SingleWithReuse,
    /// Reuse-aware shared plans (query-batch interface).
    SharedWithReuse,
}

/// Fluent configuration for a [`Database`] (obtain via
/// [`Database::builder`]).
///
/// ```no_run
/// use hashstash::{Database, EngineStrategy};
/// use hashstash_cache::GcConfig;
/// use hashstash_storage::tpch::{generate, TpchConfig};
///
/// let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
///     .strategy(EngineStrategy::Materialized)
///     .gc(GcConfig::default())
///     .gc_budget(64 << 20)
///     .build();
/// assert!(db.strategy().materializes());
/// ```
#[must_use = "call .build() to construct the Database"]
pub struct EngineBuilder {
    catalog: Catalog,
    strategy: EngineStrategy,
    gc: GcConfig,
    parallelism: usize,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    tenants: Vec<(String, usize)>,
}

impl EngineBuilder {
    fn new(catalog: Catalog) -> Self {
        EngineBuilder {
            catalog,
            strategy: EngineStrategy::default(),
            gc: GcConfig::default(),
            parallelism: hashstash_exec::engine_default_parallelism(),
            data_dir: None,
            fsync: FsyncPolicy::default(),
            tenants: Vec::new(),
        }
    }

    /// Register a tenant at build time with an anti-starvation budget
    /// floor (`0` = no floor): while the tenant's combined cache footprint
    /// is at or below `floor_bytes`, other tenants' churn cannot evict its
    /// entries (see [`HtManager::set_tenant_floor`]). Tenants can also be
    /// added after build via [`Database::register_tenant`].
    pub fn tenant(mut self, name: impl Into<String>, floor_bytes: usize) -> Self {
        self.tenants.push((name.into(), floor_bytes));
        self
    }

    /// Select one of the paper's reuse configurations. Default:
    /// [`EngineStrategy::HashStash`].
    pub fn strategy(mut self, strategy: EngineStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Reuse-cache GC configuration (budget, eviction policy, fine-grained
    /// mode). The one cache holds hash tables and the materialized
    /// baseline's temp tables alike, so one budget and one eviction loop
    /// govern both. Default: unbounded, LRU.
    pub fn gc(mut self, gc: GcConfig) -> Self {
        self.gc = gc;
        self
    }

    /// Shorthand: cap the reuse-cache budget at `bytes` (pass `None` to
    /// disable eviction, the default).
    pub fn gc_budget(mut self, bytes: impl Into<Option<usize>>) -> Self {
        self.gc.budget_bytes = bytes.into();
        self
    }

    /// Worker threads for morsel-parallel execution inside a single query
    /// (scan filtering, join probing, reuse post-filtering). `1` is the
    /// serial interpreter; any value produces bit-identical results.
    /// Default: the `PARALLELISM` environment variable if set, otherwise
    /// all available cores.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Make the database durable under `path`, and recover whatever a
    /// previous incarnation left there.
    ///
    /// # Recovery
    ///
    /// When `path` holds a snapshot that validates, the *recovered* catalog
    /// (from the newest valid snapshot) wins over the catalog passed to
    /// [`Database::builder`]. Otherwise — first boot, or nothing valid
    /// survived — the builder's catalog is authoritative and is written as
    /// a catalog-only snapshot before the database opens. Persisted
    /// reuse-cache entries are **rehydrated** by re-publishing them through
    /// the cache's normal admission path, least recently used first, so
    /// budgets, shard accounting, `stats == audit()` and the LRU order hold
    /// exactly as if the entries had been built by queries.
    ///
    /// # Crash vs clean exit
    ///
    /// A *clean* exit — [`Database::flush`] or simply dropping the last
    /// handle — writes a snapshot of the catalog and the whole cache, so
    /// restart recovers both. A *crash* at any point recovers the newest
    /// snapshot that validates: the last flush's, or the first boot's
    /// catalog-only one. A half-written or bit-rotted snapshot is rejected
    /// by its CRC and skipped, never fatal; under [`FsyncPolicy::None`] a
    /// power loss may also lose the newest snapshot.
    pub fn data_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// Snapshot fsync policy (`none | interval`); see [`FsyncPolicy`].
    /// Only meaningful with [`EngineBuilder::data_dir`].
    /// Default: [`FsyncPolicy::Interval`].
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Construct the database. Returns an [`Arc`] so sessions — possibly on
    /// other threads — can share it immediately.
    ///
    /// Panics if [`EngineBuilder::data_dir`] recovery hits an I/O error;
    /// use [`EngineBuilder::try_build`] to handle that gracefully.
    pub fn build(self) -> Arc<Database> {
        self.try_build().expect("engine build failed")
    }

    /// Construct the database, surfacing durability I/O errors instead of
    /// panicking. Identical to [`EngineBuilder::build`] when no
    /// [`EngineBuilder::data_dir`] is configured (in-memory engines cannot
    /// fail to build).
    pub fn try_build(self) -> Result<Arc<Database>> {
        // Durable engines recover the data directory first: a valid
        // snapshot's catalog wins over the builder's; without one the
        // builder's catalog is written as a catalog-only snapshot, so a
        // crash before the first flush still recovers it.
        let (durability, catalog, recovered) = match self.data_dir {
            Some(dir) => {
                let (d, snapshot) = Durability::open(dir, self.fsync).map_err(dur_err)?;
                match snapshot {
                    Some(snap) => (Some(d), snap.catalog, snap.entries),
                    None => {
                        d.flush_snapshot(&self.catalog, &[]).map_err(dur_err)?;
                        (Some(d), self.catalog, Vec::new())
                    }
                }
            }
            None => (None, self.catalog, Vec::new()),
        };

        let stats = DbStats::from_catalog(&catalog);
        // The optimizer must price probe/scan phases the way the executor
        // will actually run them.
        let cost = CostModel::synthetic().with_parallelism(self.parallelism);
        let db = Arc::new(Database {
            catalog,
            stats,
            cost,
            strategy: self.strategy,
            parallelism: self.parallelism,
            htm: HtManager::new(self.gc),
            // The submitting session thread is always a phase participant,
            // so `parallelism`-way execution needs `parallelism - 1` pool
            // workers. One pool serves every session of this database.
            pool: WorkerPool::new(self.parallelism.saturating_sub(1)),
            totals: Mutex::new(SessionStats::default()),
            tenants: Mutex::new(Vec::new()),
            flush_error: FlushErrorSlot::default(),
            durability,
            flushed: Mutex::new(None),
        });
        for (name, floor) in self.tenants {
            let t = db.register_tenant(&name);
            db.htm.set_tenant_floor(t, floor);
        }
        // Warm restart: re-publish persisted entries through the cache's
        // normal admission path, so budget enforcement, shard accounting
        // and the stats == audit() invariant hold by construction. The
        // snapshot lists entries least recently used first, so publishing
        // them in file order restores the LRU order. Entries get fresh ids
        // (cache ids are never stable across restarts).
        for entry in recovered {
            let payload = Arc::unwrap_or_clone(entry.payload);
            db.htm.publish(entry.fingerprint, entry.schema, payload);
        }
        Ok(db)
    }
}

/// A shareable handle on a [`Database`]'s most recent flush failure.
///
/// [`Database::flush`] records any error here (and clears it on success);
/// the `Drop` impl's best-effort final flush does the same, which is the
/// only way to *observe* a failed final snapshot — `Drop` itself can only
/// log it. Clone the slot before dropping the last `Arc<Database>`
/// ([`Database::flush_error_slot`]) and [`FlushErrorSlot::take`] afterwards.
#[derive(Debug, Clone, Default)]
pub struct FlushErrorSlot {
    // lock-order: 55 (last flush error; leaf)
    slot: Arc<Mutex<Option<HsError>>>,
}

impl FlushErrorSlot {
    /// Take the recorded error, leaving the slot empty.
    pub fn take(&self) -> Option<HsError> {
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn record(&self, outcome: &Result<()>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = outcome.as_ref().err().cloned();
    }
}

/// A shareable main-memory database: catalog, statistics, cost model, the
/// configured [`EngineStrategy`] and the reuse cache. Many threads hold one
/// `Arc<Database>` and drive queries through per-thread [`Session`]s; hash
/// tables published by any session are reused by all of them.
pub struct Database {
    catalog: Catalog,
    stats: DbStats,
    cost: CostModel,
    strategy: EngineStrategy,
    parallelism: usize,
    htm: HtManager,
    /// Persistent morsel workers shared by every session of this database
    /// (spawned once at build, joined on drop).
    pool: WorkerPool,
    // lock-order: 50 (session stats rollup; leaf)
    totals: Mutex<SessionStats>,
    /// Registered tenant names; `TenantId(i + 1)` owns index `i`
    /// ([`TenantId::DEFAULT`] is the anonymous single-tenant id).
    // lock-order: 52 (tenant registry; leaf)
    tenants: Mutex<Vec<String>>,
    /// Most recent flush failure (shared so it outlives the database).
    flush_error: FlushErrorSlot,
    durability: Option<Durability>,
    /// The cache generation ([`HtManager::generation`]) read before the
    /// entries of the last successful flush; `None` until one succeeds.
    /// Held across a whole flush, so concurrent flushes install in order.
    // lock-order: 10 (flush; held across snapshot_entries and the install)
    flushed: Mutex<Option<u64>>,
}

/// Map a durability I/O error into the engine's error type.
fn dur_err(e: std::io::Error) -> HsError {
    HsError::Config(format!("durability: {e}"))
}

impl Database {
    /// Start configuring a database over `catalog`.
    pub fn builder(catalog: Catalog) -> EngineBuilder {
        EngineBuilder::new(catalog)
    }

    /// A database with all defaults (HashStash strategy, unbounded caches).
    pub fn open(catalog: Catalog) -> Arc<Database> {
        Database::builder(catalog).build()
    }

    /// Open a new session. Sessions are cheap; create one per thread or
    /// per client.
    pub fn session(self: &Arc<Self>) -> Session {
        self.session_as(TenantId::DEFAULT)
    }

    /// Open a session on behalf of a tenant: everything its queries publish
    /// into the reuse cache is owned by `tenant` (budget-floor protection,
    /// per-tenant statistics). Reuse across tenants still works — lineages
    /// only match on identical base data, and all tenants share one
    /// catalog.
    pub fn session_as(self: &Arc<Self>, tenant: TenantId) -> Session {
        Session {
            db: Arc::clone(self),
            tenant,
            stats: SessionStats::default(),
        }
    }

    /// Register a tenant by name (idempotent: re-registering returns the
    /// existing id). Tenant ids are assigned in registration order starting
    /// at `TenantId(1)`; [`TenantId::DEFAULT`] stays reserved for anonymous
    /// single-tenant use.
    pub fn register_tenant(&self, name: &str) -> TenantId {
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = tenants.iter().position(|n| n == name) {
            return TenantId(i as u32 + 1);
        }
        tenants.push(name.to_string());
        TenantId(tenants.len() as u32)
    }

    /// Look up a registered tenant by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .position(|n| n == name)
            .map(|i| TenantId(i as u32 + 1))
    }

    /// Set (or clear, with `0`) a tenant's anti-starvation budget floor —
    /// see [`HtManager::set_tenant_floor`].
    pub fn set_tenant_floor(&self, tenant: TenantId, floor_bytes: usize) {
        self.htm.set_tenant_floor(tenant, floor_bytes);
    }

    /// One tenant's reuse-cache statistics (hash tables and temp tables).
    /// `candidate_lookups` is always `0` here — a lookup serves whichever
    /// tenants' entries match, so it stays global-only; `peak_bytes` is the
    /// tenant's exact high-water mark.
    pub fn tenant_cache_stats(&self, tenant: TenantId) -> CacheStats {
        self.htm.tenant_stats_for(tenant)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Database statistics.
    pub fn stats(&self) -> &DbStats {
        &self.stats
    }

    /// The reuse strategy in effect.
    pub fn strategy(&self) -> EngineStrategy {
        self.strategy
    }

    /// Morsel-parallel worker count every session's executor uses
    /// (`1` = serial interpreter).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The persistent worker pool parallel phases of every session run on.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Assert every background facility is idle: no queued or in-flight
    /// pool phases, and (under `--features analysis`) no leaked cache
    /// checkouts. Stress tests call this after joining their clients.
    #[cfg(feature = "analysis")]
    pub fn assert_quiesced(&self) {
        self.pool.assert_quiesced();
        self.htm.assert_quiesced();
    }

    /// Reuse-cache statistics (hash tables and temp tables).
    pub fn cache_stats(&self) -> CacheStats {
        self.htm.stats()
    }

    /// Totals accumulated across every session of this database.
    pub fn total_stats(&self) -> SessionStats {
        *self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current reuse-cache memory footprint in bytes (hash tables and temp
    /// tables alike).
    pub fn reuse_memory_bytes(&self) -> usize {
        self.htm.stats().bytes
    }

    /// The Hash Table Manager, the database's one reuse cache. It is safe to use directly from any thread
    /// (all its methods take `&self`); tests and experiments seed or
    /// inspect the cache through this.
    pub fn cache(&self) -> &HtManager {
        &self.htm
    }

    /// Whether this database persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The snapshot fsync policy in effect (`None` for in-memory databases).
    pub fn fsync_policy(&self) -> Option<FsyncPolicy> {
        self.durability.as_ref().map(|d| d.fsync_policy())
    }

    /// Persist the current state: write a snapshot of the catalog plus
    /// every reuse-cache entry (each with its [`benefit_score`]), then
    /// delete the older snapshots. No-op (returns `Ok`) for in-memory
    /// databases.
    ///
    /// A flush with nothing new writes nothing: when the cache's
    /// [`HtManager::generation`] still equals the one read before the
    /// entries of the last successful flush, the snapshot on disk already
    /// holds exactly what a new one would (the catalog is immutable), so
    /// the call returns `Ok` without touching the directory. The first
    /// flush after an open always writes, and a failed flush records
    /// nothing, so the next one writes again. The snapshot format is the
    /// same either way.
    ///
    /// # Clean-exit contract
    ///
    /// After a successful `flush` the data directory contains exactly one
    /// file, the new snapshot, and the next [`EngineBuilder::data_dir`]
    /// boot recovers the full catalog and the persisted cache. Dropping
    /// the last `Arc<Database>` calls `flush` best-effort; a failure there
    /// is logged to stderr and recorded in the flush-error slot
    /// ([`Database::flush_error_slot`]) — call `flush` explicitly when you
    /// need the error as a return value.
    ///
    /// Snapshotting is safe against live queries: entries are cloned under
    /// the cache's shard locks via the same guards that protect checkout,
    /// and entries currently write-locked (mid-mutation) are skipped —
    /// they re-qualify at the next flush.
    pub fn flush(&self) -> Result<()> {
        let outcome = self.flush_inner();
        self.flush_error.record(&outcome);
        outcome
    }

    /// The most recent [`Database::flush`] failure, if any (cleared by the
    /// next successful flush, or by taking it). The `Drop` impl's final
    /// best-effort flush records here too; use [`Database::flush_error_slot`]
    /// to keep a handle that survives the drop.
    pub fn take_flush_error(&self) -> Option<HsError> {
        self.flush_error.take()
    }

    /// A clone of the flush-error slot that outlives this database — the
    /// only way to *check* whether the `Drop`-time final flush succeeded.
    pub fn flush_error_slot(&self) -> FlushErrorSlot {
        self.flush_error.clone()
    }

    fn flush_inner(&self) -> Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let mut flushed = self.flushed.lock().unwrap_or_else(PoisonError::into_inner);
        // Read before the entries: a change racing the snapshot bumps the
        // generation past this value, so the next flush writes again.
        let generation = self.htm.generation();
        if *flushed == Some(generation) {
            return Ok(());
        }
        let entries: Vec<PersistedEntry> = self
            .htm
            .snapshot_entries()
            .into_iter()
            .map(|e| PersistedEntry {
                score: benefit_score(e.use_count, e.bytes),
                fingerprint: e.fingerprint,
                schema: e.schema,
                use_count: e.use_count,
                bytes: e.bytes as u64,
                payload: e.payload,
            })
            .collect();
        d.flush_snapshot(&self.catalog, &entries).map_err(dur_err)?;
        *flushed = Some(generation);
        Ok(())
    }

    /// The plan a session runs for `q` under `strategy`: the reuse-aware
    /// optimizer's, rewritten into temp-table materialization when the
    /// strategy is the materialized baseline.
    fn plan(&self, q: &QuerySpec, strategy: EngineStrategy) -> Result<OptimizedQuery> {
        let optimizer = Optimizer::new(&self.catalog, &self.stats, &self.cost, strategy);
        if strategy.materializes() {
            materialized_plan(&optimizer, q, &self.htm)
        } else {
            optimizer.optimize(q, &self.htm)
        }
    }

    fn record(&self, queries: u64, wall: Duration, optimize: Duration, m: &ExecMetrics) {
        self.totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(queries, wall, optimize, m);
    }
}

impl Drop for Database {
    /// Best-effort flush on clean exit, so simply letting the last handle
    /// go out of scope leaves exactly one snapshot, holding the catalog and
    /// the whole cache. Right after a successful [`Database::flush`] with
    /// no cache change since, this flush is a no-op and writes nothing.
    /// A failed final snapshot would silently lose the
    /// warm-restart cache, so an error here is logged to stderr and
    /// recorded in the flush-error slot (readable after the drop via a
    /// pre-cloned [`Database::flush_error_slot`]); `Drop` itself must stay
    /// panic-free. The worker pool's own `Drop` runs right after this and
    /// *joins* its threads — no detached workers outlive the database.
    fn drop(&mut self) {
        if self.durability.is_some() {
            if let Err(e) = self.flush() {
                eprintln!(
                    "hashstash: final flush failed on drop: {e}; \
                     the warm-restart cache was not persisted"
                );
            }
        }
    }
}

/// A client handle on a [`Database`]: runs queries, tracks per-session
/// statistics. Cheap to create ([`Database::session`]) and safe to move to
/// another thread.
pub struct Session {
    db: Arc<Database>,
    /// The tenant this session publishes on behalf of
    /// ([`TenantId::DEFAULT`] unless opened via [`Database::session_as`]).
    tenant: TenantId,
    stats: SessionStats,
}

impl Session {
    /// The database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The tenant this session publishes on behalf of.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Statistics accumulated by this session alone.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Optimize and execute a single query (query-at-a-time interface).
    pub fn execute(&mut self, q: &QuerySpec) -> Result<QueryResult> {
        self.execute_with(q, self.db.strategy)
    }

    /// How many times a session re-plans a query whose chosen reuse
    /// candidates were evicted (or write-locked) by concurrent sessions
    /// before it falls back to reuse-free execution.
    const MAX_REUSE_RETRIES: usize = 3;

    fn execute_with(&mut self, q: &QuerySpec, strategy: EngineStrategy) -> Result<QueryResult> {
        let db = Arc::clone(&self.db);
        for _ in 0..Self::MAX_REUSE_RETRIES {
            match self.execute_once(&db, q, strategy) {
                // A table the optimizer picked was evicted or write-locked
                // between planning and pinning. Re-plan: the stale
                // candidate no longer appears, so the retry makes progress.
                Err(HsError::CacheError(_)) => continue,
                r => return r,
            }
        }
        // Pathological contention: degrade to plain execution. NoReuse
        // neither checks out nor publishes, so it cannot race the cache.
        self.execute_once(&db, q, EngineStrategy::NoReuse)
    }

    /// One optimize + pin + execute attempt. The cache is locked (per
    /// shard) only inside candidate lookups, the checkout pins taken right
    /// after planning, and publish/check-in; execution itself runs
    /// lock-free on the pinned handles.
    fn execute_once(
        &mut self,
        db: &Database,
        q: &QuerySpec,
        strategy: EngineStrategy,
    ) -> Result<QueryResult> {
        let t0 = Instant::now();
        let oq = db.plan(q, strategy)?;
        // Pin every table the plan reuses before execution starts; from
        // here on the plan cannot be invalidated by concurrent evictions.
        let pins = acquire_plan_checkouts(&oq.plan, &db.htm)?;
        let optimize_time = t0.elapsed();

        let decisions = oq.plan.reuse_decisions();
        let t1 = Instant::now();
        let mut ctx = ExecContext::new(&db.catalog, &db.htm)
            .with_parallelism(db.parallelism)
            .with_pool(&db.pool)
            .with_tenant(self.tenant);
        for co in pins {
            ctx.adopt_checkout(co);
        }
        let (schema, rows) = execute(&oq.plan, &mut ctx)?;
        let wall_time = t1.elapsed();
        let metrics = ctx.metrics;

        self.stats.record(1, wall_time, optimize_time, &metrics);
        db.record(1, wall_time, optimize_time, &metrics);

        Ok(QueryResult {
            query: q.id,
            schema,
            rows,
            wall_time,
            optimize_time,
            est_cost_ns: oq.est_cost_ns,
            metrics,
            decisions,
        })
    }

    /// Optimize a query without executing it (experiments peek at plans):
    /// the plan [`Session::execute`] would run against the current cache.
    pub fn plan_only(&self, q: &QuerySpec) -> Result<OptimizedQuery> {
        self.db.plan(q, self.db.strategy)
    }

    /// Execute a batch of queries (query-batch interface, paper §4).
    /// Results are returned in input order.
    pub fn execute_batch(
        &mut self,
        queries: &[QuerySpec],
        mode: BatchMode,
    ) -> Result<Vec<QueryResult>> {
        match mode {
            BatchMode::SingleNoReuse => queries
                .iter()
                .map(|q| self.execute_with(q, EngineStrategy::NoReuse))
                .collect(),
            BatchMode::SingleWithReuse => queries.iter().map(|q| self.execute(q)).collect(),
            BatchMode::SharedWithReuse => self.execute_shared_batch(queries),
        }
    }

    fn execute_shared_batch(&mut self, queries: &[QuerySpec]) -> Result<Vec<QueryResult>> {
        let db = Arc::clone(&self.db);
        // Results survive re-planning: a retry only runs the queries whose
        // unit had not completed yet, so finished units are neither
        // re-executed (duplicate publishes) nor re-recorded (stats).
        let mut results: Vec<Option<QueryResult>> = (0..queries.len()).map(|_| None).collect();
        for _ in 0..Self::MAX_REUSE_RETRIES {
            match self.try_shared_batch(&db, queries, &mut results) {
                // A shared unit's planned reuse table vanished (evicted or
                // write-locked by a concurrent session) before the unit
                // ran. Re-plan the batch against the current cache state.
                Err(HsError::CacheError(_)) => continue,
                Ok(()) => {
                    return results
                        .into_iter()
                        .enumerate()
                        .map(|(i, r)| {
                            r.ok_or_else(|| {
                                HsError::ExecError(format!("query {i} missing from batch plan"))
                            })
                        })
                        .collect();
                }
                Err(e) => return Err(e),
            }
        }
        // Pathological contention: run the remaining queries one at a time
        // (each has its own retry + reuse-free fallback).
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.execute(&queries[i])?);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("filled above"))
            .collect())
    }

    fn try_shared_batch(
        &mut self,
        db: &Arc<Database>,
        queries: &[QuerySpec],
        results: &mut [Option<QueryResult>],
    ) -> Result<()> {
        let t0 = Instant::now();
        let plan = plan_batch(
            queries,
            &db.catalog,
            &db.stats,
            &db.cost,
            db.strategy,
            &db.htm,
        )?;
        let optimize_time = t0.elapsed();

        for unit in plan.units {
            match unit {
                BatchUnit::Single { index, .. } => {
                    if results[index].is_some() {
                        continue; // completed before a batch re-plan
                    }
                    // Single units re-plan on their own; they no longer need
                    // a batch-wide lock because the shared units pin their
                    // tables at checkout time and check them back in the
                    // moment their mutation completes.
                    results[index] = Some(self.execute(&queries[index])?);
                }
                BatchUnit::Shared {
                    indices,
                    spec,
                    est_cost_ns,
                } => {
                    // A re-plan may regroup units, so count and store only
                    // the queries that had not completed before the retry —
                    // finished queries keep their result and are not
                    // re-recorded in the statistics.
                    let fresh = indices.iter().filter(|&&i| results[i].is_none()).count();
                    if fresh == 0 {
                        continue; // completed before a batch re-plan
                    }
                    // Pin the join chain's and the grouping tables' reuse
                    // candidates before any work, exactly as a single query.
                    let pins = acquire_checkouts(&spec.reuse_specs(), &db.htm)?;
                    let t1 = Instant::now();
                    let mut ctx = ExecContext::new(&db.catalog, &db.htm)
                        .with_parallelism(db.parallelism)
                        .with_pool(&db.pool)
                        .with_tenant(self.tenant);
                    for co in pins {
                        ctx.adopt_checkout(co);
                    }
                    let shared_results = execute_shared(&spec, &mut ctx)?;
                    let wall = t1.elapsed();
                    let metrics = ctx.metrics;
                    self.stats
                        .record(fresh as u64, wall, Duration::ZERO, &metrics);
                    db.record(fresh as u64, wall, Duration::ZERO, &metrics);
                    let per_query_wall = wall / indices.len().max(1) as u32;
                    for (slot, &index) in indices.iter().enumerate() {
                        if results[index].is_some() {
                            continue;
                        }
                        let r = &shared_results[slot];
                        results[index] = Some(QueryResult {
                            query: queries[index].id,
                            schema: r.schema.clone(),
                            rows: r.rows.clone(),
                            wall_time: per_query_wall,
                            optimize_time,
                            est_cost_ns: est_cost_ns / indices.len() as f64,
                            metrics,
                            decisions: spec.reuse_decisions(slot),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Render the paper's decision string for a query (Table 8b): one
/// character per pipeline breaker in `order`, `N` = new hash table,
/// `S` = reused, `X` = operator eliminated.
pub fn decision_string(result: &QueryResult, order: &[&str]) -> String {
    let mut out = String::new();
    for want in order {
        let found = result
            .decisions
            .iter()
            .find(|(label, _)| label.contains(want));
        out.push(match found {
            None => 'X',
            Some((_, None)) => 'N',
            Some((_, Some(_))) => 'S',
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_types::{Row, Value};

    fn catalog() -> Catalog {
        generate(TpchConfig::new(0.002, 77))
    }

    fn q3(id: u32, ship: &str) -> QuerySpec {
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
                Interval::at_least(Value::Date(
                    hashstash_types::date::parse_date(ship).unwrap(),
                )),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
            .build()
            .unwrap()
    }

    fn sorted(rows: ResultRows) -> Vec<Row> {
        let mut rows = rows.into_vec();
        rows.sort();
        rows
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Session>();
    }

    #[test]
    fn all_strategies_agree_on_answers() {
        let strategies = [
            EngineStrategy::HashStash,
            EngineStrategy::NoReuse,
            EngineStrategy::Materialized,
            EngineStrategy::AlwaysShare,
            EngineStrategy::BenefitScored,
        ];
        let queries = [
            q3(1, "1996-06-01"),
            q3(2, "1996-01-01"),
            q3(3, "1996-09-01"),
        ];
        let mut reference: Option<Vec<Vec<Row>>> = None;
        for s in strategies {
            let db = Database::builder(catalog()).strategy(s).build();
            let mut session = db.session();
            let answers: Vec<Vec<Row>> = queries
                .iter()
                .map(|q| sorted(session.execute(q).unwrap().rows))
                .collect();
            match &reference {
                None => reference = Some(answers),
                Some(r) => {
                    for (i, (a, b)) in r.iter().zip(&answers).enumerate() {
                        assert_eq!(a.len(), b.len(), "strategy {s:?} query {i} row count");
                        for (x, y) in a.iter().zip(b) {
                            assert_eq!(x.get(0), y.get(0), "strategy {s:?} group keys");
                            let fx = x.get(1).as_float().unwrap();
                            let fy = y.get(1).as_float().unwrap();
                            assert!(
                                (fx - fy).abs() < 1e-6 * fy.abs().max(1.0),
                                "strategy {s:?} aggregates: {fx} vs {fy}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hashstash_reuses_across_queries() {
        let db = Database::open(catalog());
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        let second = session.execute(&q3(2, "1996-01-01")).unwrap();
        assert!(
            second.decisions.iter().any(|(_, c)| c.is_some()),
            "second query reuses: {:?}",
            second.decisions
        );
        assert!(db.cache_stats().reuses > 0);
    }

    #[test]
    fn sessions_share_the_cache() {
        let db = Database::open(catalog());
        let mut warm = db.session();
        warm.execute(&q3(1, "1996-06-01")).unwrap();
        // A *different* session reuses the tables the first one published.
        let mut cold = db.session();
        let r = cold.execute(&q3(2, "1996-06-01")).unwrap();
        assert!(
            r.decisions.iter().any(|(_, c)| c.is_some()),
            "fresh session reuses warm session's tables: {:?}",
            r.decisions
        );
        assert_eq!(cold.stats().queries, 1);
        assert_eq!(db.total_stats().queries, 2);
    }

    #[test]
    fn materialized_baseline_materializes_and_reuses() {
        let db = Database::builder(catalog())
            .strategy(EngineStrategy::Materialized)
            .build();
        let mut session = db.session();
        let first = session.execute(&q3(1, "1996-06-01")).unwrap();
        assert!(first.metrics.materialized_rows > 0, "pays materialization");
        assert!(db.cache_stats().publishes > 0);
        // Identical query reuses temp tables (exact).
        let second = session.execute(&q3(2, "1996-06-01")).unwrap();
        assert!(db.cache_stats().reuses > 0);
        assert_eq!(sorted(first.rows.clone()).len(), sorted(second.rows).len());
        // No hash tables were cached: every entry is a temp table.
        let entries = db.cache().snapshot_entries();
        assert!(entries.iter().all(|e| e.payload.is_materialized()));
    }

    #[test]
    fn batch_modes_agree() {
        let queries: Vec<QuerySpec> = (0..4)
            .map(|i| {
                QueryBuilder::new(i)
                    .join(
                        "customer",
                        "customer.c_custkey",
                        "orders",
                        "orders.o_custkey",
                    )
                    .filter(
                        "customer.c_age",
                        Interval::closed(
                            Value::Int(20 + i as i64 * 5),
                            Value::Int(50 + i as i64 * 5),
                        ),
                    )
                    .group_by("customer.c_age")
                    .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
                    .build()
                    .unwrap()
            })
            .collect();
        let mut reference: Option<Vec<Vec<Row>>> = None;
        for mode in [
            BatchMode::SingleNoReuse,
            BatchMode::SingleWithReuse,
            BatchMode::SharedWithReuse,
        ] {
            let db = Database::open(catalog());
            let mut session = db.session();
            let results = session.execute_batch(&queries, mode).unwrap();
            assert_eq!(results.len(), queries.len());
            let answers: Vec<Vec<Row>> = results.into_iter().map(|r| sorted(r.rows)).collect();
            match &reference {
                None => reference = Some(answers),
                Some(r) => {
                    for (i, (a, b)) in r.iter().zip(&answers).enumerate() {
                        assert_eq!(a, b, "mode {mode:?} query {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn decision_string_renders() {
        let db = Database::open(catalog());
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        let r = session.execute(&q3(2, "1996-06-01")).unwrap();
        let s = decision_string(&r, &["orders", "customer", "agg"]);
        assert_eq!(s.len(), 3);
        assert!(s.contains('S') || s.contains('X'), "some reuse shows: {s}");
    }

    #[test]
    fn gc_budget_limits_footprint() {
        let db = Database::builder(catalog()).gc_budget(64 * 1024).build();
        assert_eq!(db.cache().gc_config().budget_bytes, Some(64 * 1024));
        let mut session = db.session();
        for i in 0..6 {
            let ship = format!("199{}-0{}-01", 3 + i % 5, 1 + i % 9);
            session.execute(&q3(i as u32, &ship)).unwrap();
        }
        assert!(db.cache_stats().bytes <= 64 * 1024);
        assert!(db.cache_stats().evictions > 0);
    }

    #[test]
    fn builder_defaults_match_documented_invariants() {
        let db = Database::builder(catalog()).build();
        assert_eq!(db.strategy(), EngineStrategy::HashStash);
        assert!(!db.strategy().materializes());
        assert_eq!(db.cache().gc_config().budget_bytes, None);
        assert_eq!(db.cache_stats().publishes, 0);
        assert_eq!(db.total_stats().queries, 0);
        assert!(db.parallelism() >= 1);
        assert_eq!(
            Database::builder(catalog())
                .parallelism(0)
                .build()
                .parallelism(),
            1
        );
    }

    /// Engine-level agreement: a 4-worker database answers a reuse-heavy
    /// sequence (fresh build → exact reuse → partial reuse) identically to
    /// a serial one. Compared as sets: the parallel-aware cost pricing may
    /// legitimately pick a different (equivalent) join orientation, so row
    /// *order* is only guaranteed plan-for-plan — the executor-level
    /// bit-identity pinned by `tests/parallel_determinism.rs`.
    #[test]
    fn parallel_database_agrees_with_serial() {
        let queries = [
            q3(1, "1996-06-01"),
            q3(2, "1996-06-01"),
            q3(3, "1996-01-01"),
        ];
        let serial = Database::builder(catalog()).parallelism(1).build();
        let parallel = Database::builder(catalog()).parallelism(4).build();
        let mut s = serial.session();
        let mut p = parallel.session();
        for q in &queries {
            let a = sorted(s.execute(q).unwrap().rows);
            let b = sorted(p.execute(q).unwrap().rows);
            assert_eq!(a.len(), b.len(), "query {} row count", q.id);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.get(0), y.get(0), "query {} group keys", q.id);
                let fx = x.get(1).as_float().unwrap();
                let fy = y.get(1).as_float().unwrap();
                assert!(
                    (fx - fy).abs() < 1e-6 * fy.abs().max(1.0),
                    "query {} aggregates: {fx} vs {fy}",
                    q.id
                );
            }
        }
        assert!(
            parallel.cache_stats().reuses > 0,
            "reuse survives parallelism"
        );
    }

    /// Durable lifecycle: build with a data dir, run queries, drop (clean
    /// exit flush), rebuild from the same dir with an *empty* catalog —
    /// the recovered catalog wins and the warmed cache serves reuse on the
    /// very first query.
    #[test]
    fn durable_restart_rehydrates_the_cache() {
        let dir = std::env::temp_dir().join(format!("hashstash-core-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::builder(catalog()).data_dir(&dir).build();
            assert!(db.is_durable());
            assert_eq!(
                db.fsync_policy(),
                Some(hashstash_durability::FsyncPolicy::Interval)
            );
            let mut session = db.session();
            session.execute(&q3(1, "1996-06-01")).unwrap();
            session.execute(&q3(2, "1996-01-01")).unwrap();
            assert!(db.cache_stats().publishes > 0);
            db.flush().unwrap();
        } // Drop writes nothing: the flush saw every change.
        let db = Database::builder(Catalog::new()).data_dir(&dir).build();
        assert_eq!(db.catalog().len(), catalog().len(), "catalog recovered");
        assert!(
            db.cache_stats().publishes > 0,
            "cache rehydrated through the admission path"
        );
        let (audit_bytes, audit_entries) = db.cache().audit();
        assert_eq!(db.cache_stats().bytes, audit_bytes, "stats == audit");
        assert_eq!(db.cache_stats().entries, audit_entries);
        let mut session = db.session();
        let r = session.execute(&q3(3, "1996-06-01")).unwrap();
        assert!(
            r.decisions.iter().any(|(_, c)| c.is_some()),
            "first post-restart query reuses warm tables: {:?}",
            r.decisions
        );
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `plan_only` returns the plan `execute` runs: on a materialized
    /// database a repeated query scans the temp tables its first run
    /// materialized, and no hash-table publish marker is left in the plan.
    #[test]
    fn plan_only_shows_the_materialized_plan() {
        let db = Database::builder(catalog())
            .strategy(EngineStrategy::Materialized)
            .build();
        let mut session = db.session();
        let q = q3(1, "1996-06-01");
        let cold = format!("{:?}", session.plan_only(&q).unwrap().plan);
        assert!(cold.contains("Materialize"), "{cold}");
        session.execute(&q).unwrap();
        let warm = format!(
            "{:?}",
            session.plan_only(&q3(2, "1996-06-01")).unwrap().plan
        );
        assert!(warm.contains("TempScan"), "{warm}");
        assert!(!warm.contains("publish: Some"), "{warm}");
    }
}
