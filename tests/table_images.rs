//! A snapshot stores a cached hash table as its image — width, depth,
//! resize count and the arena's `(key, value)` sequence — and rebuilds it
//! by relinking the arena. On the paper's high- and low-reuse traces every
//! table version the cache holds must survive that: its directory stays
//! within `max(2, entries)` slots (the bound the decoder enforces against
//! forged depths), the decoded table is `==` to it, and every stored key
//! probes to the same arena positions in the same order.

use std::sync::Arc;

use hashstash::Database;
use hashstash_cache::StoredHt;
use hashstash_durability::codec::{decode_stored_ht, encode_stored_ht, Reader, Writer};
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

/// The directory bound, equality and per-key probe order of `decoded`
/// against `original`.
fn same_table<V: PartialEq>(
    original: &ExtendibleHashTable<V>,
    decoded: &ExtendibleHashTable<V>,
    what: &str,
) {
    assert!(
        original.bucket_count() <= original.len().max(2),
        "{what}: {} slots for {} entries",
        original.bucket_count(),
        original.len()
    );
    assert!(decoded == original, "{what}: decoded image differs");
    assert_eq!(decoded.stats(), original.stats(), "{what}");
    for key in original.keys() {
        assert!(
            decoded
                .probe_positions(key)
                .eq(original.probe_positions(key)),
            "{what}: probe order of key {key:#x}"
        );
    }
}

/// Replay trace 0 of `reuse` and check every hash-table version the cache
/// held after some query; returns how many were checked.
fn check_trace(reuse: ReusePotential) -> usize {
    let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
        .parallelism(2)
        .build();
    let mut session = db.session();
    let mut seen: Vec<Arc<StoredHt>> = Vec::new();
    for tq in generate_trace(TraceConfig::paper(reuse, 0)) {
        session.execute(&tq.query).unwrap();
        for e in db.cache().snapshot_entries() {
            if e.payload.is_materialized() || seen.iter().any(|s| Arc::ptr_eq(s, &e.payload)) {
                continue;
            }
            let mut w = Writer::new();
            encode_stored_ht(&mut w, &e.payload);
            let bytes = w.into_inner();
            let mut r = Reader::new(&bytes);
            let decoded = decode_stored_ht(&mut r).expect("image decodes");
            assert!(r.is_exhausted());
            let what = format!("{reuse:?} {:?}", e.fingerprint.payload_attrs);
            match (&*e.payload, &decoded) {
                (StoredHt::Rows(a), StoredHt::Rows(b)) => {
                    same_table(a.index(), b.index(), &what);
                    assert!(a == b, "{what}: payload columns differ");
                }
                (StoredHt::Agg(a), StoredHt::Agg(b)) => same_table(a, b, &what),
                _ => panic!("{what}: kind changed"),
            }
            seen.push(e.payload);
        }
    }
    seen.len()
}

#[test]
fn high_reuse_tables_round_trip_through_their_image() {
    assert!(check_trace(ReusePotential::High) > 0);
}

#[test]
fn low_reuse_tables_round_trip_through_their_image() {
    assert!(check_trace(ReusePotential::Low) > 0);
}
