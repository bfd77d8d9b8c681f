//! Durability for HashStash: write-ahead logging, benefit-scored
//! snapshots, and warm restart of the reuse cache.
//!
//! The paper's premise is that reuse pays off because hash tables built
//! for one query answer later ones. That benefit normally dies with the
//! process; this crate keeps it across restarts:
//!
//! - [`wal`] — append-only segment files logging re-executable facts
//!   (base-table loads) with CRC-framed records and a configurable
//!   [`FsyncPolicy`].
//! - [`snapshot`] — atomically-installed files holding the full catalog
//!   plus the subset of cached hash tables / temp tables whose
//!   benefit-per-byte ([`benefit_score`]) clears a persistence bar.
//! - [`manager`] — [`Durability::open`] recovers a data directory
//!   (newest valid snapshot + WAL replay, torn tails truncated) and hands
//!   the persisted cache entries to the engine for *rehydration* through
//!   the cache's normal admission path.
//! - [`codec`] — stable little-endian (de)serialization of the types
//!   involved; every decoder degrades to an error on corrupt input.
//! - [`crc`] — the self-contained CRC-32 both formats frame with.
//!
//! The engine-facing lifecycle (who calls what, the crash-vs-clean-exit
//! contract) is documented on `hashstash_core`'s `EngineBuilder::data_dir`
//! and `Database::flush`.

pub mod codec;
pub mod crc;
pub mod manager;
pub mod snapshot;
pub mod wal;

pub use manager::{Durability, DurabilityConfig, Recovered};
pub use snapshot::{
    benefit_score, read_snapshot, write_snapshot, PersistedEntry, Snapshot, SNAP_MAGIC,
};
pub use wal::{FsyncPolicy, Replay, Wal, WalRecord, INTERVAL_RECORDS, WAL_MAGIC};
