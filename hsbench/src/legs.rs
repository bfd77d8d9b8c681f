//! Fixed micro-legs of the traced run: each times one mechanism of one
//! layer in isolation, so an end-to-end change can be explained by (or
//! shown not to come from) that mechanism.

use std::hint::black_box;
use std::time::Instant;

use hashstash::{Database, Session};
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_storage::{Catalog, RangeKernel};

use crate::engine;
use crate::metrics::{quantile, ratio, us, Tracer, Values};
use crate::wire::Client;

/// The hot tenant's wide projection: the one reply of thousands of rows.
pub const WIDE_PROJECTION: &str = "SELECT c_custkey, c_age FROM customer WHERE c_age <= 45";

const HT_KEYS: usize = 1 << 18;

/// SplitMix64: seeded keys without a dependency on the `rand` stand-in.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `hashtable.*`: insert, read-only probe and upsert of 2^18 seeded keys.
pub fn hashtable(seed: u64, out: &mut Values) {
    let mut state = seed;
    let keys: Vec<u64> = (0..HT_KEYS).map(|_| splitmix(&mut state)).collect();
    let per_row = |t0: Instant| t0.elapsed().as_nanos() as f64 / HT_KEYS as f64;

    let mut ht: ExtendibleHashTable<u64> = ExtendibleHashTable::new(16);
    let t0 = Instant::now();
    for &k in &keys {
        ht.insert(k, k);
    }
    out.insert("hashtable.insert_ns_per_row", per_row(t0));

    let t0 = Instant::now();
    let mut hits = 0usize;
    for &k in &keys {
        hits += ht.probe_readonly(k).count();
    }
    out.insert("hashtable.probe_ns_per_row", per_row(t0));
    assert!(black_box(hits) >= HT_KEYS, "probe lost keys");

    let t0 = Instant::now();
    for &k in &keys {
        ht.upsert(k, || 0, |v| *v = v.wrapping_add(1));
    }
    out.insert("hashtable.upsert_ns_per_row", per_row(t0));
    out.insert(
        "hashtable.heap_bytes_per_row",
        ht.heap_bytes() as f64 / ht.len() as f64,
    );
}

/// `storage.select_ns_per_row`: the date-range selection kernel over
/// `lineitem.l_shipdate`, middle third of the domain.
pub fn storage(catalog: &Catalog, out: &mut Values) {
    let lineitem = catalog.get("lineitem").expect("lineitem exists");
    let col = lineitem
        .column_by_name("l_shipdate")
        .expect("l_shipdate exists");
    let (lo, hi) = (
        hashstash_storage::tpch::min_order_date(),
        hashstash_storage::tpch::max_ship_date(),
    );
    let third = (hi - lo) / 3;
    let kernel = RangeKernel::Date {
        lo: lo + third,
        hi: hi - third,
    };
    const PASSES: usize = 20;
    let mut sel = Vec::with_capacity(col.len());
    let t0 = Instant::now();
    for _ in 0..PASSES {
        sel.clear();
        assert!(col.select_range(0..col.len(), &kernel, &mut sel));
        black_box(&sel);
    }
    out.insert(
        "storage.select_ns_per_row",
        t0.elapsed().as_nanos() as f64 / (PASSES * col.len()) as f64,
    );
    out.insert("storage.table_bytes", catalog.bytes() as f64);
}

/// `server.{ping,stats}_us_p50` and `server.encode_ns_per_row` (wire round
/// trip minus in-process execution of the wide projection, per reply row).
pub fn server(mut session: Session, client: &mut Client, out: &mut Values) {
    let mut timed = |line: &str, n: usize| -> f64 {
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let t0 = Instant::now();
                let reply = client.send(line).expect("leg round trip");
                assert!(reply.starts_with("OK"), "{line} refused: {reply}");
                us(t0.elapsed())
            })
            .collect();
        quantile(&samples, 0.5)
    };
    out.insert("server.ping_us_p50", timed("PING", 200));
    out.insert("server.stats_us_p50", timed("STATS", 50));

    const REPS: usize = 20;
    let mut tr = Tracer::new(Instant::now(), false);
    let (mut wire_us, mut inproc_us, mut rows) = (Vec::new(), Vec::new(), 0);
    for i in 0..REPS {
        let reply = client.query(WIDE_PROJECTION).expect("wide projection");
        wire_us.push(us(reply.round_trip));
        rows = reply.digest.expect("wide projection succeeds").rows;
        let r = engine::replay(&mut tr, i as u64, &mut session, WIDE_PROJECTION);
        inproc_us.push(us(r.parse + r.lower + r.execute));
    }
    let overhead_us = quantile(&wire_us, 0.5) - quantile(&inproc_us, 0.5);
    out.insert(
        "server.encode_ns_per_row",
        ratio(overhead_us * 1e3, rows as f64),
    );
}

/// `cache.{candidates,checkout}_us_p50` over every resident table.
pub fn cache(db: &Database, candidates_us: &mut Vec<f64>, checkout_us: &mut Vec<f64>) {
    let cache = db.cache();
    for entry in cache.snapshot_entries() {
        let t0 = Instant::now();
        black_box(cache.candidates(&entry.fingerprint));
        candidates_us.push(us(t0.elapsed()));
        let t0 = Instant::now();
        drop(black_box(cache.checkout(entry.id)));
        checkout_us.push(us(t0.elapsed()));
    }
}
