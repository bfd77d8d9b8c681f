//! The durability manager: ties WAL segments and snapshots into one
//! recoverable data directory.
//!
//! # Directory layout
//!
//! ```text
//! data_dir/
//!   wal-000000.log    # records since the last snapshot (or since boot)
//!   snap-000001.snap  # written by flush(); seq ties it to its WAL
//!   wal-000001.log    # records since snap-000001
//! ```
//!
//! Sequence numbers pair a snapshot with the WAL segment that continues
//! it: `flush()` writes `snap-(N+1)`, starts `wal-(N+1)`, then deletes
//! older files. A crash *between* those steps only leaves extra files;
//! recovery is written to tolerate every intermediate state.
//!
//! # Recovery sequence
//!
//! 1. Pick the newest snapshot that validates (magic + whole-body CRC).
//!    Invalid or half-written snapshots are skipped, not fatal.
//! 2. Seed the catalog and the persisted cache entries from it.
//! 3. Replay every WAL segment with `seq >= snapshot seq` in order,
//!    re-registering logged tables. Torn tails are truncated (prefix-of-
//!    history semantics); because records are idempotent re-executable
//!    facts, replaying a segment that predates the snapshot is harmless —
//!    which is what makes the crash-between-steps states above safe.
//! 4. Append further records to the newest segment (truncated to its
//!    valid prefix).
//!
//! The *cache* half of a snapshot is rehydrated by the engine, not here:
//! entries are re-published through the cache's normal admission path so
//! budget accounting, shard routing and `stats == audit()` hold.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use hashstash_storage::{Catalog, Table};

use crate::snapshot::{read_snapshot, write_snapshot, PersistedEntry};
use crate::wal::{FsyncPolicy, Wal, WalRecord};

/// Configuration of a durable data directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The data directory (created if absent).
    pub dir: PathBuf,
    /// When WAL appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Minimum [`crate::snapshot::benefit_score`] a cache entry must clear
    /// to be persisted by a snapshot. `0.0` (default) persists everything
    /// available.
    pub persist_min_benefit: f64,
}

impl DurabilityConfig {
    /// Default configuration over `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            persist_min_benefit: 0.0,
        }
    }
}

/// What recovery reconstructed from the data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The catalog: snapshot tables plus WAL-replayed loads. Empty on
    /// first boot.
    pub catalog: Catalog,
    /// Persisted cache entries awaiting rehydration.
    pub entries: Vec<PersistedEntry>,
    /// Whether a valid snapshot seeded the state.
    pub snapshot_used: bool,
    /// WAL records replayed across all segments.
    pub wal_records: usize,
    /// Whether any WAL tail was torn (and truncated).
    pub torn_wal: bool,
}

struct WalState {
    seq: u64,
    wal: Wal,
}

/// An open durable data directory: appendable WAL + snapshot rotation.
pub struct Durability {
    dir: PathBuf,
    fsync: FsyncPolicy,
    persist_min_benefit: f64,
    // lock-order: 40 (WAL append/rotate state; no cache lock is taken under it)
    state: Mutex<WalState>,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("persist_min_benefit", &self.persist_min_benefit)
            .finish_non_exhaustive()
    }
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:06}.snap"))
}

/// Parse `prefix-NNNNNN.ext` into its sequence number.
fn seq_of(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

fn list_seqs(dir: &Path, prefix: &str, ext: &str) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(seq) = seq_of(name, prefix, ext) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

impl Durability {
    /// Open (or initialize) a data directory and recover its state.
    pub fn open(cfg: DurabilityConfig) -> std::io::Result<(Durability, Recovered)> {
        fs::create_dir_all(&cfg.dir)?;

        // 1–2. Newest valid snapshot seeds catalog + cache entries.
        let mut catalog = Catalog::new();
        let mut entries = Vec::new();
        let mut snapshot_used = false;
        let mut snap_seq: Option<u64> = None;
        for seq in list_seqs(&cfg.dir, "snap-", ".snap")?.into_iter().rev() {
            match read_snapshot(&snap_path(&cfg.dir, seq)) {
                Ok(snap) => {
                    catalog = snap.catalog;
                    entries = snap.entries;
                    snapshot_used = true;
                    snap_seq = Some(seq);
                    break;
                }
                Err(_) => continue, // half-written or bit-rotted: skip
            }
        }

        // 3. Replay WAL segments from the snapshot's seq on, in order.
        let wal_seqs = list_seqs(&cfg.dir, "wal-", ".log")?;
        let replay_from = snap_seq.unwrap_or(0);
        let mut wal_records = 0;
        let mut torn_wal = false;
        let mut last: Option<(u64, u64)> = None; // (seq, valid_len)
        for &seq in wal_seqs.iter().filter(|&&s| s >= replay_from) {
            let replay = Wal::replay(&wal_path(&cfg.dir, seq))?;
            torn_wal |= replay.torn;
            wal_records += replay.records.len();
            for record in replay.records {
                match record {
                    WalRecord::TableLoad(table) => catalog.register(table),
                }
            }
            last = Some((seq, replay.valid_len));
        }

        // 4. Continue appending to the newest segment (tail truncated), or
        //    start the directory's first segment.
        let (seq, wal) = match last {
            Some((seq, valid_len)) if valid_len > 0 => (
                seq,
                Wal::open_append(&wal_path(&cfg.dir, seq), cfg.fsync, valid_len)?,
            ),
            Some((seq, _)) => {
                // Magic itself was damaged: recreate the segment.
                (seq, Wal::create(&wal_path(&cfg.dir, seq), cfg.fsync)?)
            }
            None => {
                let seq = snap_seq.unwrap_or(0);
                (seq, Wal::create(&wal_path(&cfg.dir, seq), cfg.fsync)?)
            }
        };

        Ok((
            Durability {
                dir: cfg.dir,
                fsync: cfg.fsync,
                persist_min_benefit: cfg.persist_min_benefit,
                state: Mutex::new(WalState { seq, wal }),
            },
            Recovered {
                catalog,
                entries,
                snapshot_used,
                wal_records,
                torn_wal,
            },
        ))
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy in effect.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The snapshot persistence bar.
    pub fn persist_min_benefit(&self) -> f64 {
        self.persist_min_benefit
    }

    /// Log a base-table registration.
    pub fn log_table_load(&self, table: &Table) -> std::io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.wal.append(&WalRecord::TableLoad(table.clone()))
    }

    /// Force all appended records to stable storage (clean-exit path).
    pub fn sync(&self) -> std::io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.wal.sync()
    }

    /// Write a snapshot of `catalog` + `entries`, rotate to a fresh WAL
    /// segment, and delete superseded files.
    ///
    /// The caller is responsible for having filtered `entries` by the
    /// persistence bar (engine-side, where the scores live). Crash safety:
    /// the snapshot is installed atomically *before* the old segment is
    /// deleted, so every intermediate crash state recovers to either the
    /// old or the new snapshot — never to nothing.
    pub fn flush_snapshot(
        &self,
        catalog: &Catalog,
        entries: &[PersistedEntry],
    ) -> std::io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Make sure everything the WAL holds is on disk before the
        // snapshot claims to supersede it.
        state.wal.sync()?;
        let new_seq = state.seq + 1;
        write_snapshot(
            &snap_path(&self.dir, new_seq),
            catalog,
            entries,
            self.fsync != FsyncPolicy::None,
        )?;
        let wal = Wal::create(&wal_path(&self.dir, new_seq), self.fsync)?;
        let old_seq = state.seq;
        state.seq = new_seq;
        state.wal = wal;
        drop(state);
        // Best-effort cleanup of superseded files.
        for seq in list_seqs(&self.dir, "wal-", ".log").unwrap_or_default() {
            if seq <= old_seq {
                let _ = fs::remove_file(wal_path(&self.dir, seq));
            }
        }
        for seq in list_seqs(&self.dir, "snap-", ".snap").unwrap_or_default() {
            if seq <= old_seq {
                let _ = fs::remove_file(snap_path(&self.dir, seq));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAP_MAGIC;
    use hashstash_storage::TableBuilder;
    use hashstash_types::{DataType, Value};

    fn tiny(name: &str, rows: i64) -> Table {
        let mut b = TableBuilder::new(name, vec![("x", DataType::Int)]);
        for i in 0..rows {
            b.push_row(vec![Value::Int(i)]);
        }
        b.finish()
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsdur-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn boot_log_recover() {
        let dir = fresh_dir("boot");
        {
            let (d, rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
            assert!(rec.catalog.is_empty());
            assert!(!rec.snapshot_used);
            d.log_table_load(&tiny("a", 3)).unwrap();
            d.log_table_load(&tiny("b", 2)).unwrap();
            d.sync().unwrap();
        }
        let (_d, rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(rec.catalog.len(), 2);
        assert_eq!(rec.catalog.get("a").unwrap().row_count(), 3);
        assert_eq!(rec.wal_records, 2);
        assert!(!rec.torn_wal);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rotation_and_recovery() {
        let dir = fresh_dir("rotate");
        {
            let (d, _rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
            d.log_table_load(&tiny("a", 3)).unwrap();
            let mut cat = Catalog::new();
            cat.register(tiny("a", 3));
            d.flush_snapshot(&cat, &[]).unwrap();
            // Post-snapshot load lands in the new segment.
            d.log_table_load(&tiny("b", 1)).unwrap();
            d.sync().unwrap();
        }
        // Old seq-0 segment was deleted; snap-1 + wal-1 remain.
        assert!(!wal_path(&dir, 0).exists());
        assert!(snap_path(&dir, 1).exists());
        let (_d, rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
        assert!(rec.snapshot_used);
        assert_eq!(rec.catalog.len(), 2);
        assert_eq!(rec.wal_records, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let dir = fresh_dir("fallback");
        {
            let (d, _rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
            d.log_table_load(&tiny("a", 3)).unwrap();
            let mut cat = Catalog::new();
            cat.register(tiny("a", 3));
            d.flush_snapshot(&cat, &[]).unwrap();
            d.log_table_load(&tiny("b", 1)).unwrap();
            d.sync().unwrap();
        }
        // Damage the snapshot; the WAL segments still recover table b, and
        // a (from the snapshot) is lost only because its wal-0 was
        // garbage-collected — recovery itself must not fail.
        let snap = snap_path(&dir, 1);
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap, &bytes).unwrap();
        let (_d, rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
        assert!(!rec.snapshot_used);
        assert_eq!(rec.catalog.len(), 1);
        assert!(rec.catalog.get("b").is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot in the previous format (`HSSNAP01`: a query tag per row
    /// and a tag flag per fingerprint) is skipped exactly like a corrupt one —
    /// its checksum is intact, only the magic differs — and recovery falls
    /// back to the WAL.
    #[test]
    fn previous_format_snapshot_falls_back_to_wal() {
        let dir = fresh_dir("oldmagic");
        {
            let (d, _rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
            d.log_table_load(&tiny("a", 3)).unwrap();
            let mut cat = Catalog::new();
            cat.register(tiny("a", 3));
            d.flush_snapshot(&cat, &[]).unwrap();
            d.log_table_load(&tiny("b", 1)).unwrap();
            d.sync().unwrap();
        }
        let snap = snap_path(&dir, 1);
        let mut bytes = fs::read(&snap).unwrap();
        assert_eq!(&bytes[..SNAP_MAGIC.len()], SNAP_MAGIC);
        bytes[..SNAP_MAGIC.len()].copy_from_slice(b"HSSNAP01");
        fs::write(&snap, &bytes).unwrap();
        assert_eq!(read_snapshot(&snap).unwrap_err(), "bad snapshot magic");
        let (_d, rec) = Durability::open(DurabilityConfig::new(&dir)).unwrap();
        assert!(!rec.snapshot_used);
        assert_eq!(rec.catalog.len(), 1);
        assert!(rec.catalog.get("b").is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
