//! Durability for HashStash: snapshots of the catalog and the reuse cache,
//! and warm restart of the cache.
//!
//! The paper's premise is that reuse pays off because hash tables built
//! for one query answer later ones. That benefit normally dies with the
//! process; this crate keeps it across restarts:
//!
//! - [`snapshot`] — atomically-installed files holding the full catalog
//!   plus every cached hash table / temp table, each with its
//!   benefit-per-byte ([`benefit_score`]), and the [`FsyncPolicy`] that
//!   decides whether an install reaches the disk before it returns.
//! - [`manager`] — [`Durability::open`] recovers a data directory (the
//!   newest snapshot that validates) and hands the persisted cache
//!   entries to the engine for *rehydration* through the cache's normal
//!   admission path; [`Durability::flush_snapshot`] installs the next
//!   snapshot and deletes the older ones.
//! - [`codec`] — stable little-endian (de)serialization of the types
//!   involved; every decoder degrades to an error on corrupt input.
//! - [`crc`] — the self-contained CRC-32 snapshots are sealed with.
//!
//! Base tables are immutable once registered, so there is nothing to log
//! between snapshots: a durable engine's first boot writes its catalog as
//! the first snapshot. The engine-facing lifecycle (who calls what, the
//! crash-vs-clean-exit contract) is documented on `hashstash_core`'s
//! `EngineBuilder::data_dir` and `Database::flush`.

pub mod codec;
pub mod crc;
pub mod manager;
pub mod snapshot;

pub use manager::Durability;
pub use snapshot::{
    benefit_score, read_snapshot, write_snapshot, FsyncPolicy, PersistedEntry, Snapshot, SNAP_MAGIC,
};
