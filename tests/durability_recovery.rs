//! Durability integration tests: warm restart end-to-end, torn-snapshot
//! torture, the crash window before the first flush, golden hash pinning
//! and the clean-shutdown contract.
//!
//! The torture test is the subsystem's core safety claim: truncating or
//! flipping the newest snapshot at **every byte offset** must leave
//! recovery with the previous snapshot (or none) — never a panic, never an
//! error — and the next snapshot must outrank the damaged file.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hashstash::{Database, EngineStrategy};
use hashstash_cache::recycle::ShapeKey;
use hashstash_durability::{read_snapshot, Durability, FsyncPolicy};
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

fn table_names(catalog: &Catalog) -> Vec<String> {
    catalog
        .table_names()
        .into_iter()
        .map(String::from)
        .collect()
}

/// The files of a data directory, by name.
fn dir_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A flush that crashed after its rename but before its cleanup leaves
/// `snap-N` and `snap-(N+1)`. Truncate `snap-(N+1)` at every byte offset,
/// and separately flip each of its bytes: recovery must always succeed,
/// with `snap-(N+1)`'s catalog only when the file is intact and `snap-N`'s
/// otherwise (or no snapshot, when `snap-(N+1)` is alone). The next flush
/// must outrank the damaged file and leave only itself behind.
#[test]
fn torn_snapshot_at_every_offset_recovers() {
    let dir = fresh_dir("torture");
    let mut older = Catalog::new();
    older.register(tiny("a", 2));
    older.register(tiny("b", 3));
    let mut newer = Catalog::new();
    newer.register(tiny("a", 2));
    newer.register(tiny("b", 3));
    newer.register(tiny("c", 4));
    {
        let (d, snap) = Durability::open(&dir, FsyncPolicy::None).unwrap();
        assert!(snap.is_none());
        d.flush_snapshot(&older, &[]).unwrap();
    }
    let older_bytes = fs::read(dir.join("snap-000000.snap")).unwrap();
    {
        let (d, _) = Durability::open(&dir, FsyncPolicy::None).unwrap();
        d.flush_snapshot(&newer, &[]).unwrap();
    }
    let newer_bytes = fs::read(dir.join("snap-000001.snap")).unwrap();

    let check = |damaged: &[u8], with_older: bool, what: &str| {
        fs::remove_dir_all(&dir).unwrap();
        fs::create_dir_all(&dir).unwrap();
        if with_older {
            fs::write(dir.join("snap-000000.snap"), &older_bytes).unwrap();
        }
        fs::write(dir.join("snap-000001.snap"), damaged).unwrap();
        let (d, snap) = Durability::open(&dir, FsyncPolicy::None)
            .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        let recovered = snap.map(|s| table_names(&s.catalog));
        let expect = if damaged == newer_bytes {
            Some(table_names(&newer))
        } else if with_older {
            Some(table_names(&older))
        } else {
            None
        };
        assert_eq!(recovered, expect, "{what}");
        d.flush_snapshot(&older, &[])
            .unwrap_or_else(|e| panic!("{what}: flush failed: {e}"));
        assert_eq!(
            dir_files(&dir),
            ["snap-000002.snap"],
            "{what}: the next snapshot outranks snap-000001"
        );
    };
    for with_older in [true, false] {
        for cut in 0..=newer_bytes.len() {
            check(
                &newer_bytes[..cut],
                with_older,
                &format!("cut at {cut}, older present: {with_older}"),
            );
        }
        for at in 0..newer_bytes.len() {
            let mut flipped = newer_bytes.clone();
            flipped[at] ^= 0xFF;
            check(
                &flipped,
                with_older,
                &format!("flip at {at}, older present: {with_older}"),
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A kill between first boot and the first flush: the directory copied
/// from a live engine that never flushed must still recover the full
/// catalog (from the first boot's catalog-only snapshot), with an empty
/// cache.
#[test]
fn kill_before_first_flush_recovers_the_catalog() {
    let dir = fresh_dir("crash-live");
    let copy = fresh_dir("crash-copy");
    let original = catalog();
    let db = Database::builder(catalog()).data_dir(&dir).build();
    db.session().execute(&q3(1, "1996-06-01")).unwrap();
    assert!(db.cache_stats().entries > 0);
    // What a kill right now leaves on disk.
    fs::create_dir_all(&copy).unwrap();
    for name in dir_files(&dir) {
        fs::copy(dir.join(&name), copy.join(&name)).unwrap();
    }
    drop(db);

    let db = Database::builder(Catalog::new()).data_dir(&copy).build();
    assert_eq!(table_names(db.catalog()), table_names(&original));
    for name in original.table_names() {
        assert_eq!(
            db.catalog().get(name).unwrap().row_count(),
            original.get(name).unwrap().row_count(),
            "{name}: row count"
        );
    }
    assert_eq!(
        db.cache_stats().entries,
        0,
        "no cache before the first flush"
    );
    drop(db);
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&copy).ok();
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
/// exactly one file in the data directory — a valid snapshot holding the
/// catalog and the cache, with no leftover temp file.
#[test]
fn clean_shutdown_leaves_exactly_one_snapshot() {
    let dir = fresh_dir("clean");
    {
        let db = Database::builder(catalog()).data_dir(&dir).build();
        let mut session = db.session();
        session.execute(&q3(1, "1996-06-01")).unwrap();
        // No explicit flush: Drop must do it.
    }
    let files = dir_files(&dir);
    assert_eq!(
        files.len(),
        1,
        "exactly one file after clean exit: {files:?}"
    );
    assert!(
        files[0].starts_with("snap-") && files[0].ends_with(".snap"),
        "{files:?}"
    );
    let snap = read_snapshot(&dir.join(&files[0])).expect("snapshot validates");
    assert!(!snap.catalog.is_empty());
    assert!(!snap.entries.is_empty(), "cache entries persisted");
    fs::remove_dir_all(&dir).ok();
}

/// The materialized baseline's temp tables persist and rehydrate the same
/// way hash tables do.
#[test]
fn materialized_temp_tables_persist_and_rehydrate() {
    let dir = fresh_dir("temp");
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
