//! The internal hash table HashStash caches and reuses.
//!
//! Main-memory hash joins and hash aggregations materialize a hash table as a
//! side effect of execution (they are pipeline breakers). HashStash's central
//! idea is to *keep* those tables and reuse them for later queries. This
//! crate implements the table itself:
//!
//! * [`ExtendibleHashTable`] — extendible hashing with linked-list collision
//!   chains (paper §3.2.1). Resizing doubles only the bucket directory;
//!   chains are redistributed *lazily* the next time a stale bucket is
//!   touched, so a resize never rehashes the whole table at once. Every
//!   chain lists its entries newest first, whenever the splits happened, so
//!   a table is a function of its arena's `(key, value)` sequence and its
//!   directory depth.
//! * [`partitioned`] — bucket-partitioned build primitives: per-partition
//!   chain computation plus a serial stitch that yields the table the
//!   serial build yields, so executors can parallelize the build phase
//!   without changing collision-chain (and therefore probe output) order.
//! * [`prefilter`] — [`KeyBitmap`], an exact candidate filter over the
//!   keys of a table probed on integer keys, for probes where the tag
//!   filter admits too many misses.
//! * [`calibration`] — the micro-benchmark harness behind the paper's
//!   Figure 3: per-tuple insert / probe / update costs as a function of hash
//!   table size (1KB…1GB) and tuple width (8B…256B), plus an interpolating
//!   [`calibration::CostGrid`] the reuse-aware cost models consume.
//!
//! Entries live in a contiguous arena with `u32` next-links (no per-node
//! allocation), so chain traversal is an index chase within one allocation —
//! the cache-friendliness the paper's C++ prototype relies on.

pub mod calibration;
pub mod extendible;
pub mod partitioned;
pub mod prefilter;

pub use calibration::{CalibrationPoint, Calibrator, CostGrid};
pub use extendible::{ExtendibleHashTable, HtStats, Positions};
pub use partitioned::{bucket_ranges, partition_chains, ChainPartition};
pub use prefilter::KeyBitmap;
