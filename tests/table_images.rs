//! A snapshot stores a cached hash table as its image — width, depth,
//! resize count and the arena's `(key, value)` sequence — and rebuilds it
//! by relinking the arena. On the paper's high- and low-reuse traces every
//! table version the cache holds must survive that: its directory stays
//! within `max(2, entries)` slots (the bound the decoder enforces against
//! forged depths), the decoded table is `==` to it, and every stored key
//! probes to the same arena positions in the same order. An aggregate
//! table's image carries its group-key and state columns after the index:
//! every accumulator (`SUM`, `COUNT`, `AVG`, `MIN`, `MAX`) over every
//! argument type decodes to the same bits.

use std::sync::Arc;

use hashstash::Database;
use hashstash_cache::{AggHt, StoredHt};
use hashstash_durability::codec::{decode_stored_ht, encode_stored_ht, Reader, Writer};
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::AggFunc;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Column;
use hashstash_types::{DataType, Value};
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

/// `stored` through its image and back.
fn round_trip(stored: &StoredHt) -> StoredHt {
    let mut w = Writer::new();
    encode_stored_ht(&mut w, stored);
    let bytes = w.into_inner();
    let mut r = Reader::new(&bytes);
    let decoded = decode_stored_ht(&mut r).expect("image decodes");
    assert!(r.is_exhausted());
    decoded
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
            let decoded = round_trip(&e.payload);
            let what = format!("{reuse:?} {:?}", e.fingerprint.payload_attrs);
            match (&*e.payload, &decoded) {
                (StoredHt::Rows(a), StoredHt::Rows(b)) => {
                    same_table(a.index(), b.index(), &what);
                    assert!(a == b, "{what}: payload columns differ");
                }
                (StoredHt::Agg(a), StoredHt::Agg(b)) => {
                    same_table(a.index(), b.index(), &what);
                    assert!(a == b, "{what}: group or state columns differ");
                }
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

/// Every accumulator over an argument of every type, grouped on a float
/// and a string key: the decoded states are the same bits (a `NaN`, a
/// `-0.0` and an infinity among them).
#[test]
fn every_accumulator_type_round_trips() {
    let n = 300;
    let floats = [0.5, -0.0, f64::NAN, 2.25, f64::INFINITY, -7.0];
    let words = ["oak", "ash", "fir", "", "birch"];
    let text = |i: usize| Value::str(words[i % words.len()]);
    let args = [
        Column::Int((0..n as i64).map(|i| i * 37 % 101 - 50).collect()),
        Column::Float(
            (0..n)
                .map(|i| floats[i % floats.len()] * i as f64)
                .collect(),
        ),
        Column::Date((0..n as i32).map(|i| 9000 - i * 13 % 97).collect()),
        {
            let mut c = Column::new(DataType::Str);
            let cells: Vec<Value> = (0..n).map(|i| text(i * 7)).collect();
            assert!(c.extend_values(&cells));
            c
        },
    ];
    let groups = [Column::Float((0..n).map(|i| floats[i % 4]).collect()), {
        let mut c = Column::new(DataType::Str);
        let cells: Vec<Value> = (0..n).map(|i| text(i % 3)).collect();
        assert!(c.extend_values(&cells));
        c
    }];
    let keys: Vec<u64> = (0..n)
        .map(|i| hashstash_types::Row::new(vec![groups[0].get(i), groups[1].get(i)]).key64(&[0, 1]))
        .collect();
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    for arg in &args {
        let aggs: Vec<(AggFunc, DataType)> = funcs.iter().map(|&f| (f, arg.data_type())).collect();
        let mut ht = AggHt::new(
            12 + 8 * funcs.len(),
            &[DataType::Float, DataType::Str],
            &aggs,
        );
        ht.fold(&keys, &groups, &[Some(arg); 5], None).unwrap();
        assert!(ht.len() > 1);
        let what = format!("{} arguments", arg.data_type());
        let stored = StoredHt::Agg(ht);
        match (&stored, &round_trip(&stored)) {
            (StoredHt::Agg(a), StoredHt::Agg(b)) => {
                same_table(a.index(), b.index(), &what);
                assert!(a == b, "{what}: states differ");
                assert_eq!(a.states().len(), 5, "{what}");
            }
            _ => panic!("{what}: kind changed"),
        }
    }
}
