//! The durability manager: a data directory of numbered snapshots.
//!
//! # Directory layout
//!
//! ```text
//! data_dir/
//!   snap-000000.snap  # first boot: the catalog, no cache entries
//! ```
//!
//! and after the k-th flush since then, `snap-00000k.snap` alone: catalog
//! plus reuse cache. `flush_snapshot` installs `snap-(N+1)` (tmp + rename)
//! and then deletes every older `snap-*` file, so a crash between those
//! steps only leaves extra files. N is the highest sequence number on
//! disk, *including* files that fail validation, so a new snapshot always
//! outranks a damaged one.
//!
//! # Recovery
//!
//! [`Durability::open`] returns the newest snapshot that validates (magic +
//! whole-body CRC + decode). Invalid or half-written snapshots are skipped,
//! not fatal; older files the recovered one supersedes are deleted, which
//! finishes the cleanup of a flush that crashed after its rename. With no
//! valid snapshot the directory has no history, and the engine writes its
//! own catalog as the first snapshot.
//!
//! The *cache* half of a snapshot is rehydrated by the engine, not here:
//! entries are re-published through the cache's normal admission path so
//! budget accounting, shard routing and `stats == audit()` hold.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use hashstash_storage::Catalog;

use crate::snapshot::{read_snapshot, write_snapshot, FsyncPolicy, PersistedEntry, Snapshot};

/// An open durable data directory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    fsync: FsyncPolicy,
    /// Highest snapshot sequence number on disk, valid or not.
    // lock-order: 40 (snapshot install; no cache lock is taken under it)
    last_seq: Mutex<Option<u64>>,
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:06}.snap"))
}

/// Parse `snap-NNNNNN.snap` into its sequence number.
fn seq_of(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Sequence numbers of the directory's snapshots, ascending.
fn list_seqs(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        if let Some(seq) = entry?.file_name().to_str().and_then(seq_of) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Best-effort removal of every snapshot older than `seq`. (A temp file
/// a crashed write left behind carries the next sequence number, so the
/// next flush overwrites it.)
fn remove_older(dir: &Path, seq: u64) {
    for old in list_seqs(dir).unwrap_or_default() {
        if old < seq {
            let _ = fs::remove_file(snap_path(dir, old));
        }
    }
}

impl Durability {
    /// Open (or create) the data directory `dir` and recover the newest
    /// snapshot that validates; `None` when there is none.
    pub fn open(
        dir: impl Into<PathBuf>,
        fsync: FsyncPolicy,
    ) -> std::io::Result<(Durability, Option<Snapshot>)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let seqs = list_seqs(&dir)?;
        let recovered = seqs
            .iter()
            .rev()
            .find_map(|&seq| Some((seq, read_snapshot(&snap_path(&dir, seq)).ok()?)));
        let snapshot = recovered.map(|(seq, snap)| {
            remove_older(&dir, seq);
            snap
        });
        let last_seq = Mutex::new(seqs.last().copied());
        Ok((
            Durability {
                dir,
                fsync,
                last_seq,
            },
            snapshot,
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

    /// Install a snapshot of `catalog` + `entries` as the next sequence
    /// number, then delete every older snapshot.
    ///
    /// Crash safety: the new file is installed atomically *before* any old
    /// one is deleted, so every intermediate crash state recovers to either
    /// the old or the new snapshot — never to nothing.
    pub fn flush_snapshot(
        &self,
        catalog: &Catalog,
        entries: &[PersistedEntry],
    ) -> std::io::Result<()> {
        let seq = {
            let mut last = self.last_seq.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = last.map_or(0, |s| s + 1);
            write_snapshot(
                &snap_path(&self.dir, seq),
                catalog,
                entries,
                self.fsync != FsyncPolicy::None,
            )?;
            *last = Some(seq);
            seq
        };
        remove_older(&self.dir, seq);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAP_MAGIC;
    use hashstash_storage::{Table, TableBuilder};
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

    fn open(dir: &Path) -> (Durability, Option<Snapshot>) {
        Durability::open(dir, FsyncPolicy::None).unwrap()
    }

    fn catalog_of(tables: &[(&str, i64)]) -> Catalog {
        let mut cat = Catalog::new();
        for &(name, rows) in tables {
            cat.register(tiny(name, rows));
        }
        cat
    }

    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn first_boot_sees_no_snapshot() {
        let dir = fresh_dir("boot");
        let (d, snap) = open(&dir);
        assert!(snap.is_none());
        assert!(files(&dir).is_empty(), "open writes nothing");
        d.flush_snapshot(&catalog_of(&[("a", 3), ("b", 2)]), &[])
            .unwrap();
        assert_eq!(files(&dir), ["snap-000000.snap"]);
        let (_d, snap) = open(&dir);
        let snap = snap.expect("first-boot snapshot recovers");
        assert_eq!(snap.catalog.len(), 2);
        assert_eq!(snap.catalog.get("a").unwrap().row_count(), 3);
        assert!(snap.entries.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rotation_and_recovery() {
        let dir = fresh_dir("rotate");
        {
            let (d, _) = open(&dir);
            d.flush_snapshot(&catalog_of(&[("a", 3)]), &[]).unwrap();
            d.flush_snapshot(&catalog_of(&[("a", 3), ("b", 1)]), &[])
                .unwrap();
        }
        assert_eq!(files(&dir), ["snap-000001.snap"], "older file deleted");
        let (d, snap) = open(&dir);
        assert_eq!(snap.unwrap().catalog.len(), 2);
        d.flush_snapshot(&catalog_of(&[("c", 1)]), &[]).unwrap();
        assert_eq!(files(&dir), ["snap-000002.snap"]);
        fs::remove_dir_all(&dir).ok();
    }

    /// A flush that crashed after its rename but before its cleanup leaves
    /// two valid snapshots: recovery takes the newer and deletes the older.
    #[test]
    fn open_finishes_an_interrupted_cleanup() {
        let dir = fresh_dir("cleanup");
        {
            let (d, _) = open(&dir);
            d.flush_snapshot(&catalog_of(&[("a", 3)]), &[]).unwrap();
        }
        let older = fs::read(snap_path(&dir, 0)).unwrap();
        {
            let (d, _) = open(&dir);
            d.flush_snapshot(&catalog_of(&[("a", 3), ("b", 1)]), &[])
                .unwrap();
        }
        fs::write(snap_path(&dir, 0), older).unwrap();
        let (_d, snap) = open(&dir);
        assert_eq!(snap.unwrap().catalog.len(), 2);
        assert_eq!(files(&dir), ["snap-000001.snap"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = fresh_dir("fallback");
        let (d, _) = open(&dir);
        d.flush_snapshot(&catalog_of(&[("a", 3)]), &[]).unwrap();
        let older = fs::read(snap_path(&dir, 0)).unwrap();
        d.flush_snapshot(&catalog_of(&[("a", 3), ("b", 1)]), &[])
            .unwrap();
        drop(d);
        fs::write(snap_path(&dir, 0), older).unwrap();
        let snap = snap_path(&dir, 1);
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap, &bytes).unwrap();

        let (d, snap) = open(&dir);
        let cat = snap.expect("older snapshot recovers").catalog;
        assert_eq!(cat.len(), 1);
        assert!(cat.get("a").is_ok());
        // The next snapshot outranks the damaged one and replaces both.
        d.flush_snapshot(&cat, &[]).unwrap();
        assert_eq!(files(&dir), ["snap-000002.snap"]);
        fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot in the previous format (`HSSNAP03`: hash tables with
    /// their directory and chain links) is skipped exactly like a corrupt
    /// one — its checksum is intact, only the magic differs.
    #[test]
    fn previous_format_snapshot_is_skipped() {
        let dir = fresh_dir("oldmagic");
        {
            let (d, _) = open(&dir);
            d.flush_snapshot(&catalog_of(&[("a", 3)]), &[]).unwrap();
        }
        let snap = snap_path(&dir, 0);
        let mut bytes = fs::read(&snap).unwrap();
        assert_eq!(&bytes[..SNAP_MAGIC.len()], SNAP_MAGIC);
        bytes[..SNAP_MAGIC.len()].copy_from_slice(b"HSSNAP04");
        fs::write(&snap, &bytes).unwrap();
        assert_eq!(read_snapshot(&snap).unwrap_err(), "bad snapshot magic");
        let (d, snap) = open(&dir);
        assert!(snap.is_none());
        d.flush_snapshot(&catalog_of(&[("b", 1)]), &[]).unwrap();
        assert_eq!(files(&dir), ["snap-000001.snap"]);
        fs::remove_dir_all(&dir).ok();
    }
}
