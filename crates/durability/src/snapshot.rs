//! Snapshots: the full catalog plus the reuse cache, in one
//! atomically-installed file.
//!
//! # On-disk format
//!
//! ```text
//! [magic "HSSNAP06"][body][crc32(body): u32 LE]
//! ```
//!
//! The body is: catalog table count + tables, then cache-entry count +
//! entries. Each entry carries its lineage fingerprint, schema, use count,
//! byte footprint, its benefit score ([`benefit_score`]) and the payload
//! (a cached hash table's image — its arena and directory depth — or a
//! temp table's columns, written as a catalog table is). Entries are
//! written least recently used first, so re-publishing them in file order
//! restores the cache's LRU order. Version `06` writes a temp table as
//! typed columns, where `05` wrote one row of tagged values per tuple; a
//! hash table is its arena `(key, value)` sequence behind the width, depth
//! and resize count, and an aggregate table's groups and states follow as
//! columns (since `05`); `03` also stored the
//! directory heads, lazy-split depths and chain links, `02` one row of
//! tagged values per join-table entry, and `01` also an 8-byte query tag
//! per row and a tag-flag byte per fingerprint. Files of an earlier format
//! are rejected by the magic check like any other invalid snapshot.
//! A first-boot snapshot is the same format with zero cache entries.
//! The CRC is computed slice-by-16 ([`crate::crc`]) and typed columns are
//! decoded in bulk ([`crate::codec`]); both read and write exactly the
//! bytes the format always had.
//!
//! # No-op flushes
//!
//! The engine's flush skips [`write_snapshot`] altogether when the cache
//! has not changed since its last successful flush (the cache's
//! generation counter is where that flush read it): the file on disk
//! already holds what a new one would. So a flush followed by a clean
//! shutdown installs one snapshot, not two. This is the engine's
//! decision, not this module's — every call here writes a file.
//!
//! # Atomicity
//!
//! A snapshot is written to `<name>.tmp` and `rename`d into place, so a
//! crash mid-write never damages an existing snapshot; validation (magic +
//! whole-body CRC) rejects a half-written or bit-rotted file, and recovery
//! falls back to the next older valid snapshot. Whether the file and the
//! rename reach the disk before the write returns is the
//! [`FsyncPolicy`].

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use hashstash_types::Schema;

use hashstash_cache::{AggState, StoredHt, TempTable};
use hashstash_plan::HtFingerprint;
use hashstash_storage::{Catalog, Column, Table};

use crate::codec::{
    decode_fingerprint, decode_schema, decode_stored_ht, decode_table, encode_fingerprint,
    encode_schema, encode_stored_ht, encode_table, Reader, Writer,
};
use crate::crc::crc32;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"HSSNAP06";

/// Whether a snapshot reaches the disk before its write returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// No fsync: the OS writes the file back when it pleases. A power
    /// loss soon after a flush may lose that snapshot, and with it the
    /// state since the one it replaced.
    None,
    /// Fsync the snapshot file before its rename and the directory entry
    /// after it, so a returned flush survives a power loss. There is no
    /// interval; the name is kept because the `hsbench` harness and the
    /// bench JSON record it.
    #[default]
    Interval,
}

impl FsyncPolicy {
    /// Stable name, recorded in bench JSON and parsed by
    /// [`FsyncPolicy::parse`].
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::None => "none",
            FsyncPolicy::Interval => "interval",
        }
    }

    /// Parse `none|interval` (the bench/CI knob).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "none" => Some(FsyncPolicy::None),
            "interval" => Some(FsyncPolicy::Interval),
            _ => None,
        }
    }
}

/// Benefit-per-byte score of one cache entry: checkouts per KiB of
/// footprint, stored with the entry so tooling can inspect what a
/// persisted entry was worth.
pub fn benefit_score(use_count: u64, bytes: usize) -> f64 {
    use_count as f64 * 1024.0 / bytes.max(1) as f64
}

/// One persisted cache entry.
#[derive(Debug, Clone)]
pub struct PersistedEntry {
    /// Lineage of the entry (rehydration re-publishes under it).
    pub fingerprint: HtFingerprint,
    /// Payload schema.
    pub schema: Schema,
    /// Checkout count at snapshot time.
    pub use_count: u64,
    /// Logical footprint in bytes at snapshot time.
    pub bytes: u64,
    /// The [`benefit_score`] the entry was admitted with.
    pub score: f64,
    /// The payload: the cache's own handle, encoded without a copy. A hash
    /// table comes back `==` to what was written.
    pub payload: Arc<StoredHt>,
}

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The full catalog at snapshot time.
    pub catalog: Catalog,
    /// The persisted cache subset.
    pub entries: Vec<PersistedEntry>,
}

/// Write a snapshot atomically (`path.tmp` + rename). When `sync` is set
/// the file is fsynced before the rename and the directory after it
/// ([`FsyncPolicy::Interval`]).
pub fn write_snapshot(
    path: &Path,
    catalog: &Catalog,
    entries: &[PersistedEntry],
    sync: bool,
) -> std::io::Result<()> {
    let mut w = Writer::new();
    let names = catalog.table_names();
    w.put_count(names.len());
    for name in names {
        // table_names and get read the same map, but degrade to an I/O
        // error rather than panic if that ever stops holding.
        let table = catalog
            .get(name)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        encode_table(&mut w, &table);
    }
    w.put_count(entries.len());
    for e in entries {
        // Entry kind: 0 = hash table, 1 = temp-table rows.
        w.put_u8(u8::from(e.payload.is_materialized()));
        encode_fingerprint(&mut w, &e.fingerprint);
        encode_schema(&mut w, &e.schema);
        w.put_u64(e.use_count);
        w.put_u64(e.bytes);
        w.put_f64(e.score);
        encode_stored_ht(&mut w, &e.payload);
    }
    let body = w.into_inner();

    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(SNAP_MAGIC)?;
        f.write_all(&body)?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, path)?;
    if sync {
        // Make the rename itself durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Read and validate a snapshot. `Err` carries the reason the file was
/// rejected (bad magic, CRC mismatch, decode failure); recovery treats any
/// `Err` as "this snapshot does not exist" and falls back.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("cannot read snapshot: {e}"))?;
    if bytes.len() < SNAP_MAGIC.len() + 4 || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err("bad snapshot magic".to_string());
    }
    let body = &bytes[SNAP_MAGIC.len()..bytes.len() - 4];
    // tidy:allow(no-panic-paths): slice is exactly 4 bytes, length checked above
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err("snapshot CRC mismatch".to_string());
    }

    let mut r = Reader::new(body);
    let n_tables = r.get_count(1)?;
    let mut catalog = Catalog::new();
    for _ in 0..n_tables {
        let table: Table = decode_table(&mut r)?;
        catalog.register(table);
    }
    let n_entries = r.get_count(1)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let kind = r.get_u8()?;
        let fingerprint = decode_fingerprint(&mut r)?;
        let schema = decode_schema(&mut r)?;
        let use_count = r.get_u64()?;
        let bytes = r.get_u64()?;
        let score = r.get_f64()?;
        let payload = match kind {
            0 => decode_stored_ht(&mut r)?,
            1 => StoredHt::Materialized(TempTable::new(Arc::new(decode_table(&mut r)?))),
            k => return Err(format!("unknown snapshot entry kind {k}")),
        };
        // The executor reads a join table's columns, an aggregate table's
        // group columns and a temp table's columns by schema position.
        let columns = match &payload {
            StoredHt::Rows(t) => Some(("join-table", t.columns())),
            StoredHt::Agg(t) => Some(("aggregate group", t.groups())),
            StoredHt::Materialized(t) => Some(("temp-table", t.table().columns())),
        };
        if let Some((what, columns)) = columns {
            let types = columns.iter().map(Column::data_type);
            if !types.eq(schema.fields().iter().map(|f| f.dtype)) {
                return Err(format!("{what} columns do not match the entry's schema"));
            }
        }
        // ... and an aggregate table's states by the fingerprint's position.
        if let StoredHt::Agg(t) = &payload {
            let funcs = t.states().iter().map(AggState::func);
            if !funcs.eq(fingerprint.aggregates.iter().map(|a| a.func)) {
                return Err("aggregate states do not match the entry's aggregates".to_string());
            }
        }
        entries.push(PersistedEntry {
            fingerprint,
            schema,
            use_count,
            bytes,
            score,
            payload: Arc::new(payload),
        });
    }
    if !r.is_exhausted() {
        return Err(format!(
            "{} trailing bytes after snapshot body",
            r.remaining()
        ));
    }
    Ok(Snapshot { catalog, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_cache::ColumnHt;
    use hashstash_plan::{HtKind, Region};
    use hashstash_storage::TableBuilder;
    use hashstash_types::{DataType, Row, Value};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hssnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> (Catalog, Vec<PersistedEntry>) {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("t", vec![("x", DataType::Int)]);
        b.push_row(vec![Value::Int(7)]);
        cat.register(b.finish());

        let mut ht = ColumnHt::new(8, &[DataType::Int]);
        ht.insert(1, &Row::new(vec![Value::Int(1)])).unwrap();
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("t")).collect(),
            edges: vec![],
            region: Region::all(),
            key_attrs: vec![Arc::from("t.x")],
            payload_attrs: vec![Arc::from("t.x")],
            aggregates: vec![],
        };
        let entries = vec![PersistedEntry {
            fingerprint: fp,
            schema: Schema::new(vec![hashstash_types::Field::new("t.x", DataType::Int)]),
            use_count: 3,
            bytes: 64,
            score: benefit_score(3, 64),
            payload: Arc::new(StoredHt::Rows(ht)),
        }];
        (cat, entries)
    }

    #[test]
    fn snapshot_roundtrip() {
        let path = tmp("roundtrip.snap");
        let (cat, entries) = sample();
        write_snapshot(&path, &cat, &entries, false).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.catalog.len(), 1);
        assert_eq!(snap.catalog.get("t").unwrap().row_count(), 1);
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0].use_count, 3);
        assert!(snap.entries[0]
            .fingerprint
            .same_lineage(&entries[0].fingerprint));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let path = tmp("corrupt.snap");
        let (cat, entries) = sample();
        write_snapshot(&path, &cat, &entries, false).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_err());
        // Truncation is also caught by the CRC.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// A snapshot whose checksum is good but whose table image claims a
    /// directory far larger than its entries is discarded whole (recovery
    /// falls back exactly as for a CRC mismatch) — before the directory is
    /// allocated, so a forged depth cannot demand gigabytes.
    #[test]
    fn forged_depth_snapshot_rejected() {
        let path = tmp("forged-depth.snap");
        let (cat, entries) = sample();
        write_snapshot(&path, &cat, &entries, false).unwrap();
        assert!(read_snapshot(&path).is_ok());

        // The join table's image opens with its width (8), its depth (1)
        // and its resize count (0): raise the depth to 31.
        let mut bytes = std::fs::read(&path).unwrap();
        let header: Vec<u8> = [8u64.to_le_bytes().as_slice(), &[1], &0u64.to_le_bytes()].concat();
        let at = bytes
            .windows(header.len())
            .position(|w| w == header)
            .expect("table header in the image");
        bytes[at + 8] = 31;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[SNAP_MAGIC.len()..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).expect_err("forged depth must be discarded");
        assert!(err.contains("depth 31 too large for 1 entries"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A checksummed image whose join-table columns disagree with the
    /// entry's schema is discarded whole: the executor would index the
    /// columns by schema position.
    #[test]
    fn join_table_schema_mismatch_rejected() {
        let path = tmp("mismatch.snap");
        let (cat, mut entries) = sample();
        entries[0].schema = Schema::new(vec![
            hashstash_types::Field::new("t.x", DataType::Int),
            hashstash_types::Field::new("t.y", DataType::Str),
        ]);
        write_snapshot(&path, &cat, &entries, false).unwrap();
        let err = read_snapshot(&path).expect_err("mismatched image must be discarded");
        assert!(err.contains("do not match the entry's schema"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The byte format is pinned: a snapshot holding one table of each kind
    /// (a join table, an aggregate table and a temp table — the two-store
    /// cache's fixture, re-encoded as table images) loads, and re-encoding
    /// what it decodes reproduces it byte for byte.
    #[test]
    fn two_store_snapshot_still_loads_byte_for_byte() {
        const EARLIER: &[u8] = include_bytes!("../fixtures/hssnap06.snap");
        let path = tmp("two-store.snap");
        std::fs::write(&path, EARLIER).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.catalog.get("t").unwrap().row_count(), 2);
        let kinds: Vec<(&str, usize)> = snap
            .entries
            .iter()
            .map(|e| match &*e.payload {
                StoredHt::Rows(t) => ("rows", t.len()),
                StoredHt::Agg(t) => ("agg", t.len()),
                StoredHt::Materialized(t) => ("temp", t.len()),
            })
            .collect();
        assert_eq!(kinds, [("rows", 3), ("agg", 2), ("temp", 3)]);
        assert_eq!(snap.entries[0].use_count, 3);
        write_snapshot(&path, &snap.catalog, &snap.entries, false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), EARLIER);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parse_roundtrip() {
        for p in [FsyncPolicy::None, FsyncPolicy::Interval] {
            assert_eq!(FsyncPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("always"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn benefit_score_scales() {
        assert_eq!(benefit_score(0, 1024), 0.0);
        assert_eq!(benefit_score(2, 1024), 2.0);
        assert!(benefit_score(1, 10 << 20) < benefit_score(1, 1024));
    }
}
