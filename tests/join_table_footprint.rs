//! Join and aggregate tables store their payload as typed columns, and that
//! changed what the heap holds, not what the cache charges: on the paper's
//! high- and low-reuse traces every join table and every aggregate table
//! the cache ever holds reports the tuple width and logical footprint a
//! table of rows (or of a group row plus accumulators) reported — fixed
//! tables, recorded from the row-payload engine — so budgets, eviction and
//! `cache_peak_mb` cannot move. And the heap now holds what is charged:
//! within 1.2× of `logical_bytes()`, plus the string dictionaries, which a
//! code stands in for.

use hashstash::Database;
use hashstash_cache::StoredHt;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

/// `(tuple_width, logical_bytes)` of every join-table version the cache
/// held during trace 0, in the order they appeared.
const HIGH: [(usize, usize); 5] = [
    (16, 469152),
    (36, 266304),
    (16, 48144),
    (12, 54144),
    (16, 3184),
];

const LOW: [(usize, usize); 86] = [
    (20, 44224),
    (16, 48144),
    (20, 46304),
    (28, 56784),
    (12, 54144),
    (36, 65952),
    (52, 85888),
    (36, 67104),
    (52, 87424),
    (36, 67488),
    (52, 87936),
    (36, 71664),
    (52, 93504),
    (36, 61200),
    (52, 79552),
    (36, 62784),
    (52, 81664),
    (36, 66144),
    (52, 86144),
    (36, 67296),
    (52, 87680),
    (52, 104640),
    (36, 66576),
    (52, 86720),
    (36, 63840),
    (52, 83072),
    (36, 69504),
    (52, 90624),
    (36, 67632),
    (52, 88128),
    (36, 70128),
    (52, 91456),
    (36, 65376),
    (52, 85120),
    (36, 67296),
    (52, 87680),
    (52, 179712),
    (52, 99904),
    (52, 108992),
    (52, 105216),
    (36, 64608),
    (52, 84096),
    (52, 118016),
    (52, 129728),
    (52, 117952),
    (36, 63168),
    (52, 82176),
    (52, 120000),
    (36, 66912),
    (52, 87168),
    (52, 94336),
    (36, 67728),
    (52, 88256),
    (52, 143424),
    (52, 149632),
    (36, 68160),
    (52, 88832),
    (52, 133568),
    (52, 110656),
    (52, 150144),
    (36, 19680),
    (52, 25728),
    (52, 89152),
    (52, 147968),
    (52, 121536),
    (52, 221312),
    (52, 136832),
    (52, 132608),
    (36, 67824),
    (52, 88384),
    (52, 145088),
    (52, 192192),
    (52, 151680),
    (52, 179712),
    (36, 36720),
    (52, 47936),
    (52, 74688),
    (52, 241920),
    (52, 190016),
    (52, 112128),
    (52, 122432),
    (52, 134080),
    (52, 92480),
    (52, 203264),
    (52, 272320),
    (52, 115328),
];

/// `(tuple_width, logical_bytes)` of every aggregate-table version the
/// cache held during trace 0, in the order they appeared.
const AGG_HIGH: [(usize, usize); 30] = [
    (24, 3084),
    (24, 3084),
    (28, 58704),
    (28, 68384),
    (28, 75544),
    (28, 62584),
    (32, 65016),
    (32, 44608),
    (24, 3084),
    (24, 3084),
    (24, 3048),
    (24, 2940),
    (24, 3012),
    (24, 3084),
    (24, 3084),
    (32, 66336),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
];

const AGG_LOW: [(usize, usize); 64] = [
    (24, 3084),
    (24, 3084),
    (28, 38792),
    (36, 64704),
    (36, 65856),
    (36, 66048),
    (28, 40952),
    (28, 36952),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 2868),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3048),
    (24, 3084),
    (24, 3084),
    (24, 3048),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3012),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3084),
    (24, 3048),
    (24, 3084),
    (24, 3084),
    (24, 3084),
];

/// The footprint of a cached table: `(tuple_width, logical_bytes,
/// heap_bytes, dict_bytes)`.
type Footprint = (usize, usize, usize, usize);

/// Replay trace 0 of `reuse` and return every version of a table `kind`
/// accepts that the cache held after some query, checking each one's heap
/// against its charge.
fn table_versions(
    reuse: ReusePotential,
    kind: fn(&StoredHt) -> Option<Footprint>,
) -> Vec<(usize, usize)> {
    let db = Database::builder(generate(TpchConfig::new(0.01, 42)))
        .parallelism(2)
        .build();
    let mut session = db.session();
    let mut seen: Vec<(u64, usize, usize)> = Vec::new();
    for tq in generate_trace(TraceConfig::paper(reuse, 0)) {
        session.execute(&tq.query).unwrap();
        for e in db.cache().snapshot_entries() {
            let Some((width, logical, heap, dicts)) = kind(&e.payload) else {
                continue;
            };
            let version = (e.id.0, width, logical);
            if seen.contains(&version) {
                continue;
            }
            seen.push(version);
            let charged = logical as f64 * 1.2 + dicts as f64;
            assert!(
                heap as f64 <= charged,
                "{:?}: {heap} heap bytes for {logical} logical + {dicts} of dictionaries",
                e.fingerprint.payload_attrs,
            );
        }
    }
    seen.into_iter().map(|(_, w, b)| (w, b)).collect()
}

fn join_table(t: &StoredHt) -> Option<Footprint> {
    match t {
        StoredHt::Rows(t) => Some((
            t.tuple_width(),
            t.logical_bytes(),
            t.heap_bytes(),
            t.dict_bytes(),
        )),
        _ => None,
    }
}

fn agg_table(t: &StoredHt) -> Option<Footprint> {
    match t {
        StoredHt::Agg(t) => Some((
            t.tuple_width(),
            t.logical_bytes(),
            t.heap_bytes(),
            t.dict_bytes(),
        )),
        _ => None,
    }
}

#[test]
fn high_reuse_join_tables_keep_their_footprint() {
    assert_eq!(table_versions(ReusePotential::High, join_table), HIGH);
}

#[test]
fn low_reuse_join_tables_keep_their_footprint() {
    assert_eq!(table_versions(ReusePotential::Low, join_table), LOW);
}

#[test]
fn high_reuse_aggregate_tables_keep_their_footprint() {
    assert_eq!(table_versions(ReusePotential::High, agg_table), AGG_HIGH);
}

#[test]
fn low_reuse_aggregate_tables_keep_their_footprint() {
    assert_eq!(table_versions(ReusePotential::Low, agg_table), AGG_LOW);
}
