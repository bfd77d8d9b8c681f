//! The materialization baseline's view of the Hash Table Manager (paper
//! §6.1, after Nagel et al. ICDE'13).
//!
//! The baseline materializes operator *outputs* into temp tables of plain
//! rows ([`StoredHt::Materialized`]) and reuses them for exact and
//! subsuming requests only. Temp tables live in the same cache as hash
//! tables — one budget, one clock, one victim search, one snapshot — but
//! only these methods reach them: [`HtManager::candidates`] never returns a
//! temp table, and [`HtManager::temp_candidates`] and
//! [`HtManager::read_temp`] never return a hash table.

use std::sync::Arc;

use hashstash_types::{HsError, HtId, Result, Row, Schema};

use hashstash_plan::HtFingerprint;

use crate::manager::{Candidate, HtManager, TenantId};
use crate::payload::{MaterializedRows, StoredHt};

impl HtManager {
    /// Materialize `rows` under a fingerprint on behalf of `tenant`.
    /// Returns the temp table's id. Re-materializing an identical lineage
    /// (e.g. a re-planned retry) is deduplicated like any publish.
    pub fn publish_temp(
        &self,
        tenant: TenantId,
        fingerprint: HtFingerprint,
        schema: Schema,
        rows: Vec<Row>,
    ) -> HtId {
        let rows = StoredHt::Materialized(MaterializedRows::new(rows));
        self.publish_as(tenant, fingerprint, schema, rows)
    }

    /// Temp tables whose producing sub-plan has the request's shape key;
    /// the baseline checks shape, payload and region itself. Unlike
    /// [`HtManager::candidates`] this is not counted as a candidate lookup.
    pub fn temp_candidates(&self, request: &HtFingerprint) -> Vec<Candidate> {
        self.lookup(request, true, |_| true)
    }

    /// Read a temp table: an `Arc` snapshot of its rows — no copy of the
    /// table, however large. Bumps LRU and reuse statistics. Fails if the
    /// entry is gone or holds a hash table.
    pub fn read_temp(&self, id: HtId) -> Result<(Schema, Arc<StoredHt>)> {
        let co = self.checkout(id)?;
        if !co.table().is_materialized() {
            return Err(HsError::CacheError(format!("{id} is not a temp table")));
        }
        Ok(((*co.schema).clone(), co.snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::GcConfig;
    use crate::payload::row_bytes;
    use hashstash_plan::{HtKind, Interval, PredBox, Region};
    use hashstash_types::{DataType, Field, Value};

    fn fp() -> HtFingerprint {
        fp_over(0)
    }

    /// Distinct lineages per `lo` (publishing the *same* lineage twice is
    /// deduplicated — see `identical_lineage_publish_dedups`).
    fn fp_over(lo: i64) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("t")).collect(),
            edges: vec![],
            region: Region::from_box(
                PredBox::all().with("t.k", Interval::at_least(Value::Int(lo))),
            ),
            key_attrs: vec![Arc::from("t.k")],
            payload_attrs: vec![Arc::from("t.k")],
            aggregates: vec![],
        }
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("t.k", DataType::Int)])
    }

    fn publish(c: &HtManager, fp: HtFingerprint, n: usize) -> HtId {
        c.publish_temp(TenantId::DEFAULT, fp, schema(), rows(n))
    }

    fn budgeted(bytes: usize) -> HtManager {
        HtManager::new(GcConfig {
            budget_bytes: Some(bytes),
            ..GcConfig::default()
        })
    }

    #[test]
    fn publish_and_read() {
        let c = HtManager::unbounded();
        let id = publish(&c, fp(), 10);
        let (s, r) = c.read_temp(id).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(r.len(), 10);
        assert_eq!(c.stats().reuses, 1);
        assert!((c.stats().hit_ratio() - 1.0).abs() < 1e-9);
    }

    /// A read hands back a *snapshot* of the cached allocation, not a fresh
    /// copy — and the snapshot stays valid (and cheap) even if the table is
    /// evicted while the reader holds it.
    #[test]
    fn read_returns_shared_snapshot_not_a_copy() {
        let c = HtManager::unbounded();
        let id = publish(&c, fp(), 100);
        let (_, first) = c.read_temp(id).unwrap();
        let (_, second) = c.read_temp(id).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "both reads share the cached allocation"
        );
        // Snapshot outlives eviction of the entry.
        drop(c);
        assert_eq!(first.len(), 100);
    }

    #[test]
    fn missing_table_errors() {
        let c = HtManager::unbounded();
        assert!(c.read_temp(HtId(99)).is_err());
        // A hash table is not a temp table, whatever its lineage.
        let mut ht = crate::ColumnHt::new(8, &[DataType::Int]);
        ht.insert(1, &Row::new(vec![Value::Int(1)])).unwrap();
        let id = c.publish(fp(), schema(), StoredHt::Rows(ht));
        assert!(c.read_temp(id).is_err());
    }

    #[test]
    fn lru_eviction() {
        let bytes10 = rows(10).iter().map(row_bytes).sum::<usize>();
        let c = budgeted(bytes10 * 2 + 1);
        let a = publish(&c, fp_over(0), 10);
        let b = publish(&c, fp_over(1), 10);
        c.read_temp(a).unwrap(); // freshen a
        let _d = publish(&c, fp_over(2), 10);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.read_temp(a).is_ok());
        assert!(c.read_temp(b).is_err(), "LRU victim gone");
    }

    /// The baseline's lookup enumerates every temp table of the shape —
    /// and nothing else: hash-table lookups never see them.
    #[test]
    fn fingerprints_enumerate() {
        let c = HtManager::unbounded();
        publish(&c, fp_over(0), 1);
        publish(&c, fp_over(1), 2);
        assert_eq!(c.temp_candidates(&fp()).len(), 2);
        assert!(c.candidates(&fp()).is_empty());
        assert_eq!(c.stats().candidate_lookups, 1, "temp lookups not counted");
    }

    #[test]
    fn identical_lineage_publish_dedups() {
        let c = HtManager::unbounded();
        let a = publish(&c, fp(), 10);
        let b = publish(&c, fp(), 10);
        assert_eq!(a, b, "identical lineage maps to the existing table");
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().publishes, 1, "dedup does not inflate publishes");
        assert_eq!(c.stats().publish_dedups, 1);
        // A different lineage still gets its own entry.
        let d = publish(&c, fp_over(7), 10);
        assert_ne!(a, d);
        assert_eq!(c.len(), 2);
        // So does a hash table of the same lineage: kinds never dedup.
        let ht = StoredHt::Rows(crate::ColumnHt::new(8, &[]));
        let h = c.publish(fp(), schema(), ht);
        assert_ne!(a, h);
        assert_eq!(c.temp_candidates(&fp()).len(), 2);
        assert_eq!(c.candidates(&fp()).len(), 1);
    }

    #[test]
    fn dedup_refreshes_lru_stamp() {
        let bytes10 = rows(10).iter().map(row_bytes).sum::<usize>();
        let c = budgeted(bytes10 * 2 + 1);
        let a = publish(&c, fp_over(0), 10);
        let b = publish(&c, fp_over(1), 10);
        // Re-publishing `a`'s lineage freshens it, so `b` is the LRU victim.
        assert_eq!(publish(&c, fp_over(0), 10), a);
        publish(&c, fp_over(2), 10);
        assert!(
            c.read_temp(a).is_ok(),
            "deduped republish counts as a touch"
        );
        assert!(c.read_temp(b).is_err());
    }
}
