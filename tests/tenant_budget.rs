//! Per-tenant budget floors — what the serving front end builds on — and
//! the per-tenant statistics of the reuse cache.

use std::sync::Arc;

use hashstash_cache::{ColumnHt, GcConfig, HtManager, StoredHt, TenantId};
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
    let mut t = ColumnHt::new(16, &[DataType::Int]);
    for i in 0..n {
        t.insert(i, &Row::new(vec![Value::Int(i as i64)])).unwrap();
    }
    StoredHt::Rows(t)
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("t.k", DataType::Int)])
}

/// A tenant whose footprint is at its floor is skipped by the victim
/// search while another tenant still has evictable mass: the churning
/// tenant pays for its own pressure.
#[test]
fn tenant_floor_protects_the_quiet_tenant() {
    const QUIET: TenantId = TenantId(1);
    const NOISY: TenantId = TenantId(2);

    let htm = HtManager::new(GcConfig {
        budget_bytes: None,
        ..GcConfig::default()
    });
    // The quiet tenant stages a small working set first (oldest under LRU,
    // so *without* the floor it would be the first to go).
    for i in 0..3 {
        htm.publish_as(QUIET, fp("q", i, i + 1), schema(), ht(64));
    }
    let quiet_bytes = htm.tenant_stats_for(QUIET).bytes;
    assert!(quiet_bytes > 0);
    htm.set_tenant_floor(QUIET, quiet_bytes);
    assert_eq!(htm.tenant_floor(QUIET), quiet_bytes);

    for i in 0..12 {
        htm.publish_as(NOISY, fp("n", i, i + 1), schema(), ht(64));
    }
    let total = htm.stats().bytes;
    // Budget forces roughly half the noisy set out, but leaves more than
    // enough room for the quiet tenant's protected footprint.
    htm.set_gc_config(GcConfig {
        budget_bytes: Some(total - quiet_bytes),
        ..GcConfig::default()
    });
    let evicted = htm.enforce_budget();
    assert!(evicted > 0);

    let quiet_after = htm.tenant_stats_for(QUIET).bytes;
    assert_eq!(
        quiet_after, quiet_bytes,
        "quiet tenant lost bytes despite its floor"
    );
    assert_eq!(
        htm.tenant_stats_for(QUIET).evictions,
        0,
        "quiet tenant's entries were evicted under LRU despite the floor"
    );
    assert!(
        htm.tenant_stats_for(NOISY).evictions >= evicted as u64,
        "evictions were not charged to the churning tenant"
    );

    // Clearing the floor re-exposes the quiet tenant to the victim search.
    htm.set_tenant_floor(QUIET, 0);
    assert_eq!(htm.tenant_floor(QUIET), 0);
    htm.set_gc_config(GcConfig {
        budget_bytes: Some(quiet_bytes.saturating_sub(1)),
        ..GcConfig::default()
    });
    htm.enforce_budget();
    assert!(
        htm.tenant_stats_for(QUIET).evictions > 0,
        "cleared floor still protects the tenant"
    );
}

/// When every tenant is at its floor, the tenant-ignoring fallback still
/// makes progress — floors are starvation protection, not a way to wedge
/// the budget above its limit forever.
#[test]
fn all_tenants_at_floor_still_converges() {
    const A: TenantId = TenantId(1);
    const B: TenantId = TenantId(2);
    let htm = HtManager::unbounded();
    for i in 0..6 {
        let t = if i % 2 == 0 { A } else { B };
        htm.publish_as(t, fp("x", i, i + 1), schema(), ht(32));
    }
    // Floors cover everything both tenants hold.
    htm.set_tenant_floor(A, usize::MAX / 4);
    htm.set_tenant_floor(B, usize::MAX / 4);
    let total = htm.stats().bytes;
    htm.set_gc_config(GcConfig {
        budget_bytes: Some(total / 3),
        ..GcConfig::default()
    });
    let evicted = htm.enforce_budget();
    assert!(
        evicted > 0,
        "fallback never fired with every tenant at floor"
    );
    assert!(
        htm.stats().bytes <= total / 3,
        "budget stuck above the limit: floors must not block enforcement"
    );
}

/// Per-tenant statistics are an exact partition of the store totals for
/// the additive counters, and publishes under `publish_as` are credited
/// to their tenant.
#[test]
fn tenant_stats_partition_the_store_totals() {
    const A: TenantId = TenantId(1);
    const B: TenantId = TenantId(2);
    let htm = HtManager::unbounded();

    for i in 0..4 {
        htm.publish_as(A, fp("a", i, i + 1), schema(), ht(16));
    }
    for i in 0..2 {
        htm.publish_as(B, fp("b", i, i + 1), schema(), ht(16));
    }
    // A duplicate publish dedups onto the existing entry (same lineage).
    htm.publish_as(B, fp("a", 0, 1), schema(), ht(16));

    let global = htm.stats();
    let per: Vec<_> = htm.tenant_stats();
    let sum =
        |f: fn(&hashstash_cache::CacheStats) -> u64| -> u64 { per.iter().map(|(_, s)| f(s)).sum() };
    assert_eq!(sum(|s| s.publishes), global.publishes);
    assert_eq!(sum(|s| s.publish_dedups), global.publish_dedups);
    assert_eq!(sum(|s| s.evictions), global.evictions);
    assert_eq!(
        per.iter().map(|(_, s)| s.bytes).sum::<usize>(),
        global.bytes
    );
    assert_eq!(
        per.iter().map(|(_, s)| s.entries).sum::<usize>(),
        global.entries
    );

    let a = htm.tenant_stats_for(A);
    let b = htm.tenant_stats_for(B);
    assert_eq!(a.publishes, 4);
    assert_eq!(b.publishes, 2);
    // The dedup was B's call, so it is credited to B; the entry stays A's.
    assert_eq!(b.publish_dedups, 1);
    assert_eq!(a.entries, 4);
    assert_eq!(b.entries, 2);
}
