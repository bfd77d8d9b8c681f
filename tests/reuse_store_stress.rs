//! Unified reuse-store tests: hash tables and temp tables sharing **one**
//! [`ReuseBudget`] — one byte limit, one eviction loop ranking both payload
//! kinds, exact byte accounting under concurrency, and the anti-starvation
//! floor that keeps either kind from squeezing the other out entirely.

use std::sync::{Arc, Barrier};
use std::thread;

use hashstash_cache::payload::row_bytes;
use hashstash_cache::{EvictionPolicy, GcConfig, HtManager, ReuseBudget, StoredHt, DEFAULT_SHARDS};
use hashstash_exec::TempTableCache;
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::{HtFingerprint, HtKind, Interval, PredBox, Region};
use hashstash_types::{DataType, Field, Row, Schema, Value};

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
    let mut t = ExtendibleHashTable::new(16);
    for i in 0..n {
        t.insert(i, Row::new(vec![Value::Int(i as i64)]));
    }
    StoredHt::Rows(t)
}

fn rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(vec![Value::Int(i as i64)]))
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("t.k", DataType::Int)])
}

fn shared_pair(gc: GcConfig) -> (Arc<ReuseBudget>, HtManager, TempTableCache) {
    let budget = ReuseBudget::new(gc);
    let htm = HtManager::with_budget(Arc::clone(&budget), DEFAULT_SHARDS);
    let temps = TempTableCache::with_budget(Arc::clone(&budget), DEFAULT_SHARDS);
    (budget, htm, temps)
}

/// 8 threads publishing, reusing and evicting **both** payload kinds under
/// one tight shared budget: at quiesce every per-store atomic statistic
/// must agree exactly with a recount of its shards, the combined footprint
/// must equal the budget's counter and hold the limit, and both kinds must
/// have been evicted by the single victim loop.
#[test]
fn mixed_payload_stress_audit_clean_under_shared_budget() {
    const THREADS: usize = 8;
    const OPS: usize = 60;

    let ht_bytes = ht(64).logical_bytes();
    let row_bytes_100 = rows(100).iter().map(row_bytes).sum::<usize>();
    // Budget fits a handful of either kind — every thread's publishes race
    // the others' evictions, in both stores.
    let budget_bytes = ht_bytes * 3 + row_bytes_100 * 3;
    let (budget, htm, temps) = shared_pair(GcConfig {
        budget_bytes: Some(budget_bytes),
        policy: EvictionPolicy::Lru,
        ..GcConfig::default()
    });
    let htm = Arc::new(htm);
    let temps = Arc::new(temps);
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let htm = Arc::clone(&htm);
            let temps = Arc::clone(&temps);
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
                        htm.publish(fp(&table, lo, lo + 10), schema(), ht(64));
                        let cands = htm.candidates(&fp(&table, 0, 60));
                        if let Some(c) = cands.first() {
                            if i % 6 == 0 {
                                if let Ok(mut co) = htm.checkout_mut(c.id) {
                                    if let Ok(StoredHt::Rows(tab)) = co.table_mut() {
                                        let base = 1000 + i as u64;
                                        tab.insert(base, Row::new(vec![Value::Int(base as i64)]));
                                    }
                                    co.fingerprint.region = co
                                        .fingerprint
                                        .region
                                        .union(&fp(&table, lo, lo + 10).region);
                                    co.checkin().expect("pinned entry checks in");
                                }
                            } else if let Ok(co) = htm.checkout(c.id) {
                                assert!(!co.table().is_empty());
                            }
                        }
                    } else {
                        // Temp-table side: publish + snapshot reads.
                        let table = format!("m{shape}");
                        let id = temps.publish(fp(&table, lo, lo + 10), schema(), rows(100));
                        // The entry may already be evicted by a concurrent
                        // publish — a read error is the documented protocol.
                        if let Ok((_, snap)) = temps.read(id) {
                            assert_eq!(snap.len(), 100);
                        }
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
    {
        htm.assert_quiesced();
        temps.assert_quiesced();
    }

    // Quiesce: per-store stats agree exactly with shard recounts.
    let hs = htm.stats();
    let (h_bytes, h_entries) = htm.audit();
    assert_eq!(hs.bytes, h_bytes, "ht byte accounting drifted");
    assert_eq!(hs.entries, h_entries, "ht entry count drifted");
    let ts = temps.stats();
    let (t_bytes, t_entries) = temps.audit();
    assert_eq!(ts.bytes, t_bytes, "temp byte accounting drifted");
    assert_eq!(ts.entries, t_entries, "temp entry count drifted");

    // The shared budget's combined counter is the sum of both stores…
    assert_eq!(
        budget.bytes(),
        hs.bytes + ts.bytes,
        "combined footprint drifted from the per-store counters"
    );
    // …and the limit holds at quiesce.
    htm.enforce_budget();
    assert!(
        budget.bytes() <= budget_bytes,
        "shared budget exceeded at quiesce ({} > {budget_bytes})",
        budget.bytes()
    );
    // One victim loop ranked both payload kinds: each store saw evictions.
    assert!(hs.evictions > 0, "hash tables were never evicted");
    assert!(ts.evictions > 0, "temp tables were never evicted");
    // Publish accounting holds per store (every call created or deduped).
    assert_eq!(hs.publishes + hs.publish_dedups, (THREADS * OPS / 2) as u64);
    assert_eq!(ts.publishes + ts.publish_dedups, (THREADS * OPS / 2) as u64);
}

/// The single victim search is genuinely cross-kind: under LRU, the oldest
/// entry is evicted regardless of which store holds it.
#[test]
fn unified_eviction_ranks_both_payload_kinds_by_recency() {
    let ht_bytes = ht(64).logical_bytes();
    let temp_bytes = rows(100).iter().map(row_bytes).sum::<usize>();
    // Room for one of each, not a third entry.
    let (_, htm, temps) = shared_pair(GcConfig {
        budget_bytes: Some(ht_bytes + temp_bytes + ht_bytes / 2),
        policy: EvictionPolicy::Lru,
        ..GcConfig::default()
    });
    let old_ht = htm.publish(fp("h", 0, 10), schema(), ht(64));
    let newer_temp = temps.publish(fp("m", 0, 10), schema(), rows(100));
    // Freshen the temp table so the hash table is globally LRU.
    temps.read(newer_temp).unwrap();
    // A new hash-table publish overflows the shared budget: the victim must
    // be the *older hash table*, not the fresher temp table — even though
    // the temp table lives in the other store.
    let new_ht = htm.publish(fp("h", 20, 30), schema(), ht(64));
    assert!(!htm.is_available(old_ht), "oldest entry (ht) evicted");
    assert!(htm.is_available(new_ht));
    assert!(
        temps.read(newer_temp).is_ok(),
        "fresher temp table survived"
    );

    // Mirror image: a fresh temp publish must evict the now-LRU hash table
    // rather than the recently-read temp table.
    let (_, htm2, temps2) = shared_pair(GcConfig {
        budget_bytes: Some(ht_bytes + temp_bytes + temp_bytes / 2),
        policy: EvictionPolicy::Lru,
        ..GcConfig::default()
    });
    let lru_ht = htm2.publish(fp("h", 0, 10), schema(), ht(64));
    let warm_temp = temps2.publish(fp("m", 0, 10), schema(), rows(100));
    temps2.read(warm_temp).unwrap();
    let _new_temp = temps2.publish(fp("m", 20, 30), schema(), rows(100));
    assert!(
        !htm2.is_available(lru_ht),
        "temp-side publish evicted the LRU hash table across stores"
    );
    assert!(temps2.read(warm_temp).is_ok());
}

/// Anti-starvation floor: a payload kind sitting at or below
/// `floor_bytes` is skipped by the victim search while the other kind has
/// evictable mass — flooding hash tables cannot flush the last temp
/// tables, and vice versa.
#[test]
fn floor_prevents_either_kind_from_starving_the_other() {
    let temp_bytes_each = rows(50).iter().map(row_bytes).sum::<usize>();
    let ht_bytes_each = ht(64).logical_bytes();

    // Keep two temp tables under the floor, then flood hash tables way past
    // the budget: every eviction must hit the hash-table store.
    let floor = temp_bytes_each * 2 + 1;
    let (_, htm, temps) = shared_pair(GcConfig {
        budget_bytes: Some(floor + ht_bytes_each * 2),
        policy: EvictionPolicy::Lru,
        floor_bytes: floor,
        ..GcConfig::default()
    });
    let t1 = temps.publish(fp("m", 0, 10), schema(), rows(50));
    let t2 = temps.publish(fp("m", 20, 30), schema(), rows(50));
    for i in 0..20 {
        let lo = i as i64 * 40;
        htm.publish(fp("h", lo, lo + 10), schema(), ht(64));
    }
    assert!(
        temps.read(t1).is_ok(),
        "temp table below the floor survives"
    );
    assert!(
        temps.read(t2).is_ok(),
        "temp table below the floor survives"
    );
    assert!(htm.stats().evictions > 0, "pressure fell on the ht store");
    assert_eq!(temps.stats().evictions, 0, "floor shielded the temp store");

    // Mirror image: hash tables below the floor survive a temp flood.
    let floor2 = ht_bytes_each * 2 + 1;
    let (_, htm2, temps2) = shared_pair(GcConfig {
        budget_bytes: Some(floor2 + temp_bytes_each * 2),
        policy: EvictionPolicy::Lru,
        floor_bytes: floor2,
        ..GcConfig::default()
    });
    let h1 = htm2.publish(fp("h", 0, 10), schema(), ht(64));
    let h2 = htm2.publish(fp("h", 20, 30), schema(), ht(64));
    for i in 0..20 {
        let lo = i as i64 * 40;
        temps2.publish(fp("m", lo, lo + 10), schema(), rows(50));
    }
    assert!(htm2.is_available(h1), "hash table below the floor survives");
    assert!(htm2.is_available(h2), "hash table below the floor survives");
    assert_eq!(htm2.stats().evictions, 0, "floor shielded the ht store");
    assert!(temps2.stats().evictions > 0);
}

/// The pin-leak detector actually detects: a `mem::forget`-leaked checkout
/// guard (never released, never dropped) must fail the quiesce assertion
/// instead of silently pinning its entry against eviction forever.
#[cfg(feature = "analysis")]
#[test]
#[should_panic(expected = "pin leak")]
fn forgotten_checkout_guard_fails_quiesce() {
    let (_, htm, _temps) = shared_pair(GcConfig::default());
    let id = htm.publish(fp("h", 0, 10), schema(), ht(8));
    let guard = htm.checkout(id).expect("fresh publish is available");
    std::mem::forget(guard);
    htm.assert_quiesced();
}

/// With a floor configured but only one store holding anything, the
/// fallback pass still makes progress: the budget is enforced even though
/// the only populated store is nominally "protected".
#[test]
fn floor_fallback_still_enforces_the_budget() {
    let ht_bytes_each = ht(64).logical_bytes();
    let (budget, htm, _temps) = shared_pair(GcConfig {
        budget_bytes: Some(ht_bytes_each * 2 + ht_bytes_each / 2),
        policy: EvictionPolicy::Lru,
        // Floor far above anything the store will ever hold.
        floor_bytes: usize::MAX / 2,
        ..GcConfig::default()
    });
    for i in 0..6 {
        let lo = i as i64 * 40;
        htm.publish(fp("h", lo, lo + 10), schema(), ht(64));
    }
    assert!(
        budget.bytes() <= ht_bytes_each * 2 + ht_bytes_each / 2,
        "budget enforced despite the universal floor"
    );
    assert!(htm.stats().evictions > 0);
}
