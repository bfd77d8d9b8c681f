//! Durability integration tests: warm restart end-to-end, torn-WAL
//! torture, golden hash pinning, the clean-shutdown contract, and the
//! snapshot persistence bar.
//!
//! The torture test is the subsystem's core safety claim: truncating the
//! WAL at **every byte offset** of the log must leave recovery with a
//! clean prefix of history — never a panic, never an error, and the
//! reopened log must accept appends.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use hashstash::{Database, EngineStrategy};
use hashstash_cache::recycle::ShapeKey;
use hashstash_durability::{
    read_snapshot, Durability, DurabilityConfig, FsyncPolicy, Wal, WAL_MAGIC,
};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, JoinEdge, QueryBuilder, QuerySpec, Region,
};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::{Catalog, Table, TableBuilder};
use hashstash_types::value::fnv1a;
use hashstash_types::{DataType, Value};

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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hashstash-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny(name: &str, rows: i64) -> Table {
    let mut b = TableBuilder::new(name, vec![("x", DataType::Int)]);
    for i in 0..rows {
        b.push_row(vec![Value::Int(i)]);
    }
    b.finish()
}

/// End-to-end warm restart: populate a durable engine, exit cleanly,
/// reopen with an *empty* catalog. The recovered engine answers with the
/// recovered catalog, reuses rehydrated hash tables on its very first
/// query, and its cache accounting satisfies `stats == audit()`.
#[test]
fn warm_restart_reuses_rehydrated_tables() {
    let dir = fresh_dir("warm");
    let expected_rows;
    {
        let db = Database::builder(catalog()).data_dir(&dir).build();
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        let r = session.execute(&q3(2, "1996-01-01")).unwrap();
        expected_rows = r.rows.len();
        assert!(db.cache_stats().publishes > 0);
        db.flush().unwrap();
    }
    let db = Database::builder(Catalog::new()).data_dir(&dir).build();
    assert!(db.catalog().get("lineitem").is_ok(), "catalog recovered");
    assert!(db.cache_stats().entries > 0, "cache rehydrated");
    let (audit_bytes, audit_entries) = db.cache().audit();
    assert_eq!(db.cache_stats().bytes, audit_bytes, "stats == audit");
    assert_eq!(db.cache_stats().entries, audit_entries);

    let mut session = db.session();
    let r = session.execute(&q3(3, "1996-01-01")).unwrap();
    assert!(
        r.decisions.iter().any(|(_, c)| c.is_some()),
        "first post-restart query reuses a rehydrated table: {:?}",
        r.decisions
    );
    assert_eq!(r.rows.len(), expected_rows, "same answer as before restart");
    drop(db);
    fs::remove_dir_all(&dir).ok();
}

/// Truncate the WAL at every byte offset; recovery must always succeed
/// with exactly the records whose frames fit the prefix, and the reopened
/// log must accept (and then replay) further appends.
#[test]
fn torn_wal_truncated_at_every_offset_recovers() {
    let dir = fresh_dir("torture");
    let cfg = || DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::None,
        persist_min_benefit: 0.0,
    };
    {
        let (d, _rec) = Durability::open(cfg()).unwrap();
        d.log_table_load(&tiny("a", 2)).unwrap();
        d.log_table_load(&tiny("b", 3)).unwrap();
        d.log_table_load(&tiny("c", 4)).unwrap();
        d.sync().unwrap();
    }
    let wal = dir.join("wal-000000.log");
    let original = fs::read(&wal).unwrap();

    // Frame boundaries: offset just past each complete record.
    let mut bounds = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos + 8 <= original.len() {
        let len = u32::from_le_bytes(original[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        bounds.push(pos);
    }
    assert_eq!(bounds.len(), 3);
    assert_eq!(*bounds.last().unwrap(), original.len());

    for cut in 0..=original.len() {
        fs::write(&wal, &original[..cut]).unwrap();
        let (d, rec) = Durability::open(cfg())
            .unwrap_or_else(|e| panic!("recovery failed at offset {cut}: {e}"));
        let expect = bounds.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            rec.wal_records, expect,
            "offset {cut}: prefix of history has {expect} records"
        );
        assert_eq!(rec.catalog.len(), expect, "offset {cut}: catalog matches");
        // The truncated log accepts appends and replays them afterwards.
        d.log_table_load(&tiny("z", 1)).unwrap();
        d.sync().unwrap();
        drop(d);
        let (_d, rec) = Durability::open(cfg()).unwrap();
        assert_eq!(rec.wal_records, expect + 1, "offset {cut}: append survives");
        assert!(
            !rec.torn_wal,
            "offset {cut}: tail is clean after truncation"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// Pin the hash values the on-disk formats and the shard routing depend
/// on. These must be identical in every process, on every architecture,
/// and across toolchain upgrades — a drift here silently orphans
/// persisted fingerprints.
#[test]
fn golden_hashes_are_stable_across_processes() {
    // FNV-1a (the basis of Value::key64 and ShapeKey::stable_hash).
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"hashstash"), 0xc60a_94af_dc5f_7f4e);

    // Value::key64 for each data type.
    assert_eq!(Value::Int(42).key64(), 42);
    assert_eq!(Value::Int(-1).key64(), u64::MAX);
    assert_eq!(Value::Date(7300).key64(), 7300);
    assert_eq!(Value::float(1.5).key64(), 1.5f64.to_bits());
    assert_eq!(Value::Str("BUILDING".into()).key64(), fnv1a(b"BUILDING"));

    // ShapeKey::stable_hash of a canonical join fingerprint (shard
    // routing; also what keeps rehydrated entries findable).
    let fp = HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: ["customer", "orders"]
            .into_iter()
            .map(std::sync::Arc::from)
            .collect(),
        edges: vec![JoinEdge::new(
            "customer",
            "customer.c_custkey",
            "orders",
            "orders.o_custkey",
        )],
        region: Region::all(),
        key_attrs: vec![std::sync::Arc::from("customer.c_custkey")],
        payload_attrs: vec![std::sync::Arc::from("customer.c_age")],
        aggregates: vec![],
    };
    assert_eq!(ShapeKey::of(&fp).stable_hash(), 0x6894_58a4_d0e0_8586);
}

/// Clean-shutdown contract: dropping the last handle flushes, leaving
/// exactly one valid snapshot and one fresh, torn-free WAL segment.
#[test]
fn clean_shutdown_leaves_one_snapshot_and_a_clean_wal() {
    let dir = fresh_dir("clean");
    {
        let db = Database::builder(catalog()).data_dir(&dir).build();
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        // No explicit flush: Drop must do it.
    }
    let mut snaps = Vec::new();
    let mut wals = Vec::new();
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("snap") => snaps.push(path),
            Some("log") => wals.push(path),
            _ => {}
        }
    }
    assert_eq!(snaps.len(), 1, "exactly one snapshot after clean exit");
    assert_eq!(wals.len(), 1, "exactly one WAL segment after clean exit");
    let snap = read_snapshot(&snaps[0]).expect("snapshot validates");
    assert!(!snap.catalog.is_empty());
    assert!(!snap.entries.is_empty(), "cache entries persisted");
    let replay = Wal::replay(&wals[0]).unwrap();
    assert!(!replay.torn, "no torn tail after clean exit");
    assert!(replay.records.is_empty(), "fresh segment after rotation");
    fs::remove_dir_all(&dir).ok();
}

/// The persistence bar filters what snapshots keep: an unreachable bar
/// persists no cache entries (while the catalog always survives), and the
/// default bar of zero persists them all.
#[test]
fn persistence_bar_filters_cache_entries() {
    let dir = fresh_dir("bar");
    {
        let db = Database::builder(catalog())
            .data_dir(&dir)
            .persist_min_benefit(f64::MAX)
            .build();
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        session.execute(&q3(2, "1996-01-01")).unwrap();
        assert!(db.cache_stats().entries > 0);
    }
    let db = Database::builder(Catalog::new()).data_dir(&dir).build();
    assert!(
        db.catalog().get("lineitem").is_ok(),
        "catalog still recovers"
    );
    assert_eq!(
        db.cache_stats().entries,
        0,
        "nothing clears an unreachable bar"
    );
    drop(db);
    fs::remove_dir_all(&dir).ok();

    // Strategy sanity: the materialized baseline's temp tables persist and
    // rehydrate the same way.
    let dir = fresh_dir("bar-temp");
    {
        let db = Database::builder(catalog())
            .data_dir(&dir)
            .strategy(EngineStrategy::Materialized)
            .build();
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        assert!(db.cache_stats().publishes > 0);
    }
    let db = Database::builder(Catalog::new()).data_dir(&dir).build();
    let entries = db.cache().snapshot_entries();
    assert!(!entries.is_empty(), "temp-table entries rehydrated");
    assert!(entries.iter().all(|e| e.payload.is_materialized()));
    drop(db);
    fs::remove_dir_all(&dir).ok();
}

/// Regression: a warm restart keeps the cache's LRU order. Rehydration
/// used to stamp every entry with one tick, and the snapshot listed entries
/// in hash-map order, so the first eviction after a restart took an
/// arbitrary entry. The snapshot now lists entries least recently used
/// first and recovery re-publishes them in that order.
#[test]
fn warm_restart_preserves_lru_order() {
    const TOUCH_ORDER: [i64; 6] = [3, 0, 5, 1, 4, 2];
    // Same shape, disjoint regions: one shard, one recycle-graph node.
    let warm_fp = |i: i64| HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::<str>::from("customer")).collect(),
        edges: vec![],
        region: Region::from_box(hashstash_plan::PredBox::all().with(
            "customer.c_custkey".to_string(),
            Interval::closed(Value::Int(i * 100), Value::Int(i * 100 + 99)),
        )),
        key_attrs: vec![Arc::from("customer.c_custkey")],
        payload_attrs: vec![Arc::from("customer.c_custkey")],
        aggregates: vec![],
    };
    let warm_ht = || {
        let mut t = hashstash_hashtable::ExtendibleHashTable::new(16);
        for i in 0..32u64 {
            t.insert(i, hashstash_types::Row::new(vec![Value::Int(i as i64)]));
        }
        hashstash_cache::StoredHt::Rows(t)
    };
    let schema = hashstash_types::Schema::new(vec![hashstash_types::Field::new(
        "customer.c_custkey",
        DataType::Int,
    )]);
    // Which of the tables an entry is, by its region.
    let which = |fp: &HtFingerprint| {
        (0..TOUCH_ORDER.len() as i64)
            .find(|&i| fp.region.set_eq(&warm_fp(i).region))
            .expect("a staged table")
    };

    let dir = fresh_dir("lru");
    {
        let db = Database::builder(catalog()).data_dir(&dir).build();
        let ids: Vec<_> = (0..TOUCH_ORDER.len() as i64)
            .map(|i| db.cache().publish(warm_fp(i), schema.clone(), warm_ht()))
            .collect();
        for &i in &TOUCH_ORDER {
            drop(db.cache().checkout(ids[i as usize]).unwrap());
        }
    } // Drop flushes.

    let db = Database::builder(Catalog::new()).data_dir(&dir).build();
    let cache = db.cache();
    assert_eq!(cache.len(), TOUCH_ORDER.len(), "cache rehydrated");
    let mut evicted = Vec::new();
    while !cache.is_empty() {
        let before: Vec<i64> = cache
            .snapshot_entries()
            .iter()
            .map(|e| which(&e.fingerprint))
            .collect();
        cache.set_gc_config(hashstash_cache::GcConfig {
            budget_bytes: Some(cache.stats().bytes - 1),
            ..cache.gc_config()
        });
        assert_eq!(cache.enforce_budget(), 1);
        let after: Vec<i64> = cache
            .snapshot_entries()
            .iter()
            .map(|e| which(&e.fingerprint))
            .collect();
        evicted.extend(before.into_iter().filter(|i| !after.contains(i)));
    }
    assert_eq!(
        evicted, TOUCH_ORDER,
        "post-restart evictions follow the LRU order"
    );
    drop(db);
    fs::remove_dir_all(&dir).ok();
}

/// Regression: `Database::drop`'s best-effort final flush used to swallow
/// the error silently — a failed final snapshot left stale on-disk state
/// with no trace. The outcome is now recorded in the database's
/// [`hashstash::FlushErrorSlot`] (shareable, surviving the drop) as well
/// as logged; and a failing flush in `Drop` must not panic.
#[test]
fn drop_flush_failure_is_recorded_not_swallowed() {
    let dir = fresh_dir("dropflush");
    let db = Database::builder(catalog()).data_dir(&dir).build();
    let mut session = db.session();
    session.execute(&q3(1, "1996-06-01")).unwrap();

    // Sabotage the data dir *after* build: replace the directory with a
    // plain file, so every snapshot/WAL write fails with NotADirectory.
    // (chmod-based traps don't work under root, which ignores modes.)
    fs::remove_dir_all(&dir).unwrap();
    fs::write(&dir, b"not a directory").unwrap();

    // An explicit flush reports the failure both ways.
    let err = db.flush();
    assert!(err.is_err(), "flush into a file-at-dir-path succeeded?");
    assert!(db.take_flush_error().is_some(), "flush error not recorded");
    assert!(db.take_flush_error().is_none(), "take must drain the slot");

    // The drop path: clone the slot, drop the engine. The final flush
    // fails, must not panic, and must leave the error in the slot.
    let slot = db.flush_error_slot();
    drop(session);
    drop(db);
    let recorded = slot.take();
    assert!(
        recorded.is_some(),
        "drop-time flush failure was swallowed (empty slot)"
    );
    assert!(slot.take().is_none());
    fs::remove_file(&dir).ok();

    // And on a healthy directory a successful flush clears the slot.
    let dir = fresh_dir("dropflush-ok");
    let db = Database::builder(catalog()).data_dir(&dir).build();
    db.session().execute(&q3(2, "1996-06-01")).unwrap();
    db.flush().unwrap();
    assert!(
        db.take_flush_error().is_none(),
        "success must clear the slot"
    );
    drop(db);
    fs::remove_dir_all(&dir).ok();
}
