//! One reuse cache holding both payload kinds: hash tables and the
//! materialization baseline's temp tables share one byte budget, one clock
//! and one eviction loop, with exact byte accounting under concurrency.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread;

use hashstash_cache::{ColumnHt, GcConfig, HtManager, StoredHt, TempTable, TenantId};
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region};
use hashstash_storage::{Column, Table};
use hashstash_types::{DataType, Field, HtId, Row, Schema, Value};

/// Hash tables and temp tables are published under different tenants, so
/// the per-tenant statistics tell the two kinds apart.
const HT_OWNER: TenantId = TenantId(1);
const TEMP_OWNER: TenantId = TenantId(2);

fn fp(table: &str, lo: i64, hi: i64) -> HtFingerprint {
    let t: Arc<str> = Arc::from(table);
    let key: Arc<str> = Arc::from(format!("{table}.k"));
    let attr: Arc<str> = Arc::from(format!("{table}.v"));
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(t).collect(),
        edges: vec![],
        region: Region::from_box(PredBox::all().with(
            attr.to_string(),
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )),
        key_attrs: vec![key.clone()],
        payload_attrs: vec![key],
        aggregates: vec![],
    }
}

fn ht(n: u64) -> StoredHt {
    let mut t = ColumnHt::new(16, &[DataType::Int]);
    for i in 0..n {
        t.insert(i, &Row::new(vec![Value::Int(i as i64)])).unwrap();
    }
    StoredHt::Rows(t)
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("t.k", DataType::Int)])
}

fn rows(n: usize) -> Arc<Table> {
    let keys = Column::Int((0..n as i64).collect());
    Arc::new(Table::from_columns(schema(), vec![keys]).unwrap())
}

/// What a temp table of `n` rows is charged.
fn temp_bytes(n: usize) -> usize {
    StoredHt::Materialized(TempTable::new(rows(n))).logical_bytes()
}

fn lru(budget_bytes: usize) -> HtManager {
    HtManager::new(GcConfig {
        budget_bytes: Some(budget_bytes),
        ..GcConfig::default()
    })
}

fn publish_temp(htm: &HtManager, fp: HtFingerprint, n: usize) -> HtId {
    htm.publish_temp(TEMP_OWNER, fp, schema(), rows(n))
}

fn ids(htm: &HtManager) -> HashSet<HtId> {
    htm.snapshot_entries().iter().map(|e| e.id).collect()
}

/// 8 threads publishing, reusing and evicting **both** payload kinds in one
/// cache under a tight budget: at quiesce the atomic statistics agree
/// exactly with a recount of the shards, the budget holds, both kinds were
/// evicted, and eviction follows one LRU order across kinds.
#[test]
fn mixed_payload_stress_audit_clean_under_shared_budget() {
    const THREADS: usize = 8;
    const OPS: usize = 60;

    let ht_bytes = ht(64).logical_bytes();
    let row_bytes_100 = temp_bytes(100);
    // Budget fits a handful of either kind — every thread's publishes race
    // the others' evictions.
    let budget_bytes = ht_bytes * 3 + row_bytes_100 * 3;
    let htm = Arc::new(lru(budget_bytes));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let htm = Arc::clone(&htm);
            let barrier = Arc::clone(&barrier);
            // Raw spawns model independent client sessions (see clippy.toml).
            #[allow(clippy::disallowed_methods)]
            thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let shape = (t + i) % 4;
                    let lo = ((t * 7 + i * 3) % 40) as i64;
                    if i % 2 == 0 {
                        // Hash-table side: publish + mixed reuse.
                        let table = format!("h{shape}");
                        htm.publish_as(HT_OWNER, fp(&table, lo, lo + 10), schema(), ht(64));
                        let cands = htm.candidates(&fp(&table, 0, 60));
                        if let Some(c) = cands.first() {
                            if i % 6 == 0 {
                                if let Ok(mut co) = htm.checkout_mut(c.id) {
                                    if let Ok(StoredHt::Rows(tab)) = co.table_mut() {
                                        let base = 1000 + i as u64;
                                        tab.insert(base, &Row::new(vec![Value::Int(base as i64)]))
                                            .unwrap();
                                    }
                                    let widened = co
                                        .fingerprint
                                        .region
                                        .union(&fp(&table, lo, lo + 10).region);
                                    std::sync::Arc::make_mut(&mut co.fingerprint).region = widened;
                                    co.checkin().expect("pinned entry checks in");
                                }
                            } else if let Ok(co) = htm.checkout(c.id) {
                                assert!(!co.table().is_empty());
                            }
                        }
                    } else {
                        // Temp-table side: publish + snapshot reads.
                        let table = format!("m{shape}");
                        let id = publish_temp(&htm, fp(&table, lo, lo + 10), 100);
                        // The entry may already be evicted by a concurrent
                        // publish — a read error is the documented protocol.
                        if let Ok((_, snap)) = htm.read_temp(id) {
                            assert_eq!(snap.len(), 100);
                        }
                        // Temp tables never answer a hash-table lookup.
                        assert!(htm.candidates(&fp(&table, 0, 60)).is_empty());
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked");
    }

    // Quiesce: with the `analysis` feature on, every checkout guard must
    // have been returned (pin-leak detector) before any other invariant is
    // checked — a leaked guard would pin entries and skew eviction.
    #[cfg(feature = "analysis")]
    htm.assert_quiesced();

    // Quiesce: stats agree exactly with shard recounts, and the limit holds.
    let s = htm.stats();
    assert_eq!((s.bytes, s.entries), htm.audit(), "accounting drifted");
    htm.enforce_budget();
    assert!(
        htm.stats().bytes <= budget_bytes,
        "budget exceeded at quiesce ({} > {budget_bytes})",
        htm.stats().bytes
    );
    // One victim loop ranked both payload kinds: each saw evictions.
    let hs = htm.tenant_stats_for(HT_OWNER);
    let ts = htm.tenant_stats_for(TEMP_OWNER);
    assert!(hs.evictions > 0, "hash tables were never evicted");
    assert!(ts.evictions > 0, "temp tables were never evicted");
    assert_eq!(hs.evictions + ts.evictions, s.evictions);
    // Publish accounting holds per kind (every call created or deduped).
    assert_eq!(hs.publishes + hs.publish_dedups, (THREADS * OPS / 2) as u64);
    assert_eq!(ts.publishes + ts.publish_dedups, (THREADS * OPS / 2) as u64);

    // One LRU order across kinds: shrinking the budget entry by entry
    // evicts the survivors oldest first, whatever their kind.
    while !htm.is_empty() {
        let oldest = htm.snapshot_entries()[0].id;
        let before = ids(&htm);
        htm.set_gc_config(GcConfig {
            budget_bytes: Some(htm.stats().bytes - 1),
            ..htm.gc_config()
        });
        assert_eq!(htm.enforce_budget(), 1);
        let gone: Vec<HtId> = before.difference(&ids(&htm)).copied().collect();
        assert_eq!(gone, vec![oldest], "evicted out of LRU order");
    }
    assert_eq!(htm.audit(), (0, 0));
}

/// The single victim search is genuinely cross-kind: under LRU, the oldest
/// entry is evicted regardless of which kind it is.
#[test]
fn unified_eviction_ranks_both_payload_kinds_by_recency() {
    let ht_bytes = ht(64).logical_bytes();
    let temp_bytes = temp_bytes(100);
    // Room for one of each, not a third entry.
    let htm = lru(ht_bytes + temp_bytes + ht_bytes / 2);
    let old_ht = htm.publish(fp("h", 0, 10), schema(), ht(64));
    let newer_temp = publish_temp(&htm, fp("m", 0, 10), 100);
    // Freshen the temp table so the hash table is globally LRU.
    htm.read_temp(newer_temp).unwrap();
    // A new hash-table publish overflows the budget: the victim must be
    // the *older hash table*, not the fresher temp table.
    let new_ht = htm.publish(fp("h", 20, 30), schema(), ht(64));
    assert!(!htm.is_available(old_ht), "oldest entry (ht) evicted");
    assert!(htm.is_available(new_ht));
    assert!(
        htm.read_temp(newer_temp).is_ok(),
        "fresher temp table survived"
    );

    // Mirror image: a fresh temp publish must evict the now-LRU hash table
    // rather than the recently-read temp table.
    let htm2 = lru(ht_bytes + temp_bytes + temp_bytes / 2);
    let lru_ht = htm2.publish(fp("h", 0, 10), schema(), ht(64));
    let warm_temp = publish_temp(&htm2, fp("m", 0, 10), 100);
    htm2.read_temp(warm_temp).unwrap();
    let _new_temp = publish_temp(&htm2, fp("m", 20, 30), 100);
    assert!(
        !htm2.is_available(lru_ht),
        "temp-side publish evicted the LRU hash table"
    );
    assert!(htm2.read_temp(warm_temp).is_ok());
}

/// The pin-leak detector actually detects: a `mem::forget`-leaked checkout
/// guard (never released, never dropped) must fail the quiesce assertion
/// instead of silently pinning its entry against eviction forever.
#[cfg(feature = "analysis")]
#[test]
#[should_panic(expected = "pin leak")]
fn forgotten_checkout_guard_fails_quiesce() {
    let htm = HtManager::unbounded();
    let id = htm.publish(fp("h", 0, 10), schema(), ht(8));
    let guard = htm.checkout(id).expect("fresh publish is available");
    std::mem::forget(guard);
    htm.assert_quiesced();
}
