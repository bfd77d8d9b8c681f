//! Build-equivalence battery: a partitioned parallel build must produce a
//! table `==` to the serial build — same arena order, same directory depth
//! and resize count, same footprint bytes and statistics — with every chain
//! in descending arena position, at any worker count, for random row
//! counts, key distributions, and tuple widths. Cached hash tables are the
//! reuse currency: if any of this drifted, every downstream exact/subsuming/
//! mutating reuse decision (fingerprint dedup, footprint accounting, probe
//! output order) would silently change with the `PARALLELISM` knob.
//!
//! Serial references are built through the *real* serial code paths the
//! executor uses (`reserve` + `insert` loop for joins, `AggHt::fold`'s own
//! find-or-insert loop for aggregates), not through the helper's own
//! one-worker arm — so these properties pin the parallel helpers against
//! the executor's ground truth.

use hashstash_cache::AggHt;
use hashstash_exec::parallel::{build_multimap_partitioned, group_ids_partitioned};
use hashstash_exec::{Scheduler, WorkerPool};
use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::AggFunc;
use hashstash_storage::Column;
use hashstash_types::DataType;
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// A pool big enough for every entry of [`WORKER_COUNTS`].
fn pool() -> WorkerPool {
    WorkerPool::new(7)
}

fn on(pool: &WorkerPool, parallelism: usize) -> Scheduler<'_> {
    Scheduler {
        parallelism,
        pool: Some(pool),
    }
}

/// Whether every key's chain lists its entries in descending arena
/// position — the order that makes a table a function of its arena.
fn descending_chains<V>(ht: &ExtendibleHashTable<V>) -> bool {
    ht.keys().all(|key| {
        let at: Vec<usize> = ht.probe_positions(key).collect();
        at.windows(2).all(|w| w[0] > w[1])
    })
}

/// Random key sequences covering the shapes that stress different parts of
/// the table machinery: dense distinct keys, heavy duplicates (long
/// chains), clustered low bits (bucket skew + stale-family splits), hashed
/// spread, and a single all-equal chain.
fn key_vecs() -> BoxedStrategy<Vec<u64>> {
    prop_oneof![
        (0usize..4000).prop_map(|n| (0..n as u64).collect()),
        (0usize..4000, 1u64..50).prop_map(|(n, m)| (0..n as u64).map(|i| i % m).collect()),
        (0usize..4000, 0u32..6).prop_map(|(n, k)| (0..n as u64).map(|i| i << k).collect()),
        (0usize..4000).prop_map(|n| {
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect()
        }),
        (0usize..2000).prop_map(|n| vec![42u64; n]),
    ]
    .boxed()
}

fn values_of(keys: &[u64]) -> Vec<u64> {
    (0..keys.len() as u64).collect()
}

// Case count: `PROPTEST_CASES` (CI raises it in a release run), else 64.
proptest! {
    // Join-build path (`exec.rs`): `new` + `reserve` + row-order inserts
    // vs. the partitioned build at 2/4/8 workers.
    #[test]
    fn join_build_partitioned_is_byte_identical(keys in key_vecs(), width in 8usize..64) {
        let mut serial = ExtendibleHashTable::new(width);
        serial.reserve(keys.len());
        for (k, v) in keys.iter().copied().zip(values_of(&keys)) {
            serial.insert(k, v);
        }
        let pool = pool();
        for workers in WORKER_COUNTS {
            let mut par = ExtendibleHashTable::new(width);
            build_multimap_partitioned(on(&pool, workers), &mut par, keys.clone(), values_of(&keys));
            prop_assert!(
                par == serial,
                "join build diverged at {} workers (n={}, width={}, serial stats {:?} vs {:?})",
                workers, keys.len(), width, serial.stats(), par.stats()
            );
            prop_assert!(descending_chains(&par), "{} workers", workers);
        }
        prop_assert!(descending_chains(&serial));
    }

    // Aggregate-build path (`exec.rs`): `AggHt::fold`'s serial
    // find-or-insert loop — incremental directory growth, lookup-triggered
    // lazy splits, per-group floating-point folds in row order — vs. the
    // key-partitioned grouping installed with one `insert` per group in
    // first-row order. Group keys deliberately collide on the 64-bit hash
    // (`key = gid % collide`) so group-column disambiguation is covered.
    #[test]
    fn agg_build_partitioned_is_byte_identical(
        shape in (0usize..3000, 1u64..200, 1u64..16),
        width in 8usize..64,
    ) {
        let (n, groups, collide) = shape;
        // (hash key, logical group id) per row; values fold as float sums,
        // which detect any deviation from the serial accumulation order.
        let gids: Vec<i64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) % groups) as i64)
            .collect();
        let keys: Vec<u64> = gids.iter().map(|&g| g as u64 % collide.min(groups)).collect();
        let group_cols = [Column::Int(gids.clone())];
        let vals = Column::Float((0..n).map(|i| (i as f64) * 0.7 - 3.0).collect());
        let aggs = [(AggFunc::Sum, DataType::Float), (AggFunc::Count, DataType::Float)];
        let args = [Some(&vals), None];
        let table = || AggHt::new(width, &[DataType::Int], &aggs);

        let mut serial = table();
        let serial_inserts = serial.fold(&keys, &group_cols, &args, None).unwrap();

        let pool = pool();
        for workers in WORKER_COUNTS {
            let same = |i: usize, j: usize| gids[i] == gids[j];
            let grouping = group_ids_partitioned(on(&pool, workers), &keys, same);
            let mut par = table();
            let inserts = par.fold(&keys, &group_cols, &args, Some(grouping)).unwrap();
            prop_assert_eq!(inserts, serial_inserts, "{} workers", workers);
            prop_assert!(
                par == serial,
                "agg build diverged at {} workers (n={}, groups={}, collide={}, width={})",
                workers, n, groups, collide, width
            );
            prop_assert!(descending_chains(par.index()), "{} workers", workers);
        }
        prop_assert!(descending_chains(serial.index()));
    }
}
