//! HashStash: reuse of internal hash tables in a main-memory analytical
//! query engine.
//!
//! This crate is the user-facing facade over the whole workspace. The
//! entry point is [`Database`]: it owns the catalog, statistics, a
//! calibrated cost model and the Hash Table Manager — the one reuse cache,
//! which also holds the materialization baseline's temp tables — and hands
//! out cheap [`Session`] handles that any number of threads can
//! drive concurrently — hash tables published by one session are reused by
//! all of them.
//!
//! Reuse behavior is one of the paper's §6 configurations, selected with
//! [`EngineBuilder::strategy`] (see [`hashstash_opt::policy`]):
//!
//! * [`EngineStrategy::HashStash`] — the paper's system: reuse-aware
//!   optimization with all four reuse cases, benefit-oriented rewrites, and
//!   caching of every pipeline-breaker hash table.
//! * [`EngineStrategy::NoReuse`] — traditional execution, nothing cached
//!   (also the *Never Share* baseline of the paper's Experiment 2).
//! * [`EngineStrategy::Materialized`] — materialization-based reuse (Nagel
//!   et al. style): operator outputs are copied into temp tables during
//!   execution and reused later for exact/subsuming requests only.
//! * [`EngineStrategy::AlwaysShare`] — the greedy baseline of Experiment 2.
//! * [`EngineStrategy::BenefitScored`] — HashStash, admitting a fresh table
//!   only when the cost model predicts enough saved work per cached byte.
//!
//! ```no_run
//! use hashstash::{Database, EngineStrategy};
//! use hashstash_storage::tpch::{generate, TpchConfig};
//!
//! let catalog = generate(TpchConfig::new(0.01, 42));
//! let db = Database::builder(catalog)
//!     .strategy(EngineStrategy::HashStash)
//!     .gc_budget(256 << 20)
//!     .build();
//! let mut session = db.session();
//! # let query = hashstash_plan::QueryBuilder::new(1)
//! #     .table("customer").build().unwrap();
//! let result = session.execute(&query).unwrap();
//! println!("{} rows in {:?}", result.rows.len(), result.wall_time);
//! ```
//!
//! Any number of threads can drive [`Session`]s concurrently: the Hash
//! Table Manager is sharded and `Arc`-backed, so the only serialization
//! points are per-shard candidate lookups and publish/check-in — execution
//! itself runs lock-free, and read-only exact-match reuse of the same
//! cached table proceeds in parallel across sessions.
//!
//! Engines configured with [`EngineBuilder::data_dir`] are *durable*: a
//! write-ahead log plus benefit-scored snapshots persist the catalog and
//! the reuse cache, and a restart **rehydrates** cached hash tables so
//! the first queries after a reboot reuse work done before it (see
//! [`hashstash_durability`] for formats and recovery semantics, and
//! [`db::Database::flush`] for the crash-vs-clean-exit contract).

pub mod db;
pub mod materialized;

pub use db::{
    decision_string, BatchMode, Database, EngineBuilder, FlushErrorSlot, QueryResult, Session,
    SessionStats,
};

// Tenant identity is part of the serving surface (sessions, budget floors,
// per-tenant statistics).
pub use hashstash_cache::TenantId;

// The reuse configuration is part of the facade's public surface.
pub use hashstash_opt::EngineStrategy;

// `QueryResult::rows`: the query's output as it leaves the executor.
pub use hashstash_exec::ResultRows;

// Re-export the component crates so downstream users need only one
// dependency.
pub use hashstash_cache as cache;
pub use hashstash_durability as durability;
pub use hashstash_exec as exec;
pub use hashstash_hashtable as hashtable;
pub use hashstash_opt as opt;
pub use hashstash_plan as plan;
pub use hashstash_storage as storage;
pub use hashstash_types as types;
