//! Model-based property test of the directory-slot tag filter and of the
//! canonical chain order.
//!
//! Random operation sequences run against a model of the arena: the
//! `(key, value)` sequence in insertion order, updated in place by an
//! upsert. After every step, for every key of a small domain — present and
//! absent, on fresh buckets and on buckets a directory doubling just left
//! stale — the key's `probe_positions` must be exactly the model positions
//! holding it, newest first (so strictly descending), and `probe_readonly`
//! and `probe` must yield the values at those positions. The model holds no
//! tags and no chains: a filter false negative shows up as a missing value,
//! a split that reorders a chain as a wrong order.
//!
//! Case count: `PROPTEST_CASES` (CI raises it in a release run).

use hashstash_hashtable::{bucket_ranges, partition_chains, ExtendibleHashTable};
use proptest::prelude::*;

type Table = ExtendibleHashTable<u64>;
/// The arena as it should be: `(key, value)` per entry, in arena order.
type Model = Vec<(u64, u64)>;

/// Three key shapes over 32 values each: small integers (the bucket index
/// *is* the key), keys that agree on their low six bits (one bucket of a
/// small directory, told apart only by the tags), and mixed 64-bit keys.
fn key_of(shape: u64, x: u64) -> u64 {
    match shape {
        0 => x,
        1 => x << 6 | 5,
        _ => x.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn domain() -> Vec<u64> {
    (0..3)
        .flat_map(|shape| (0..32).map(move |x| key_of(shape, x)))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    /// Update the `n`-th value under the key if there is one, else insert.
    UpsertWhere(u64, usize),
    /// A freshening probe: splits the key's bucket if it is stale.
    Probe(u64),
    Reserve(usize),
    Clone,
    /// Rebuild from the table's image (`from_entries`).
    Rebuild,
    /// Rebuild from the entries in arena order with this many partitions.
    PartitionedRebuild(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = || (0u64..3, 0u64..32).prop_map(|(shape, x)| key_of(shape, x));
    prop_oneof![
        key().prop_map(Op::Insert),
        key().prop_map(Op::Insert),
        key().prop_map(Op::Insert),
        (key(), 0usize..4).prop_map(|(k, n)| Op::UpsertWhere(k, n)),
        key().prop_map(Op::Probe),
        (0usize..160).prop_map(Op::Reserve),
        Just(Op::Clone),
        Just(Op::Rebuild),
        (1usize..5).prop_map(Op::PartitionedRebuild),
    ]
}

/// The model positions holding `key`, newest first.
fn positions(model: &Model, key: u64) -> Vec<usize> {
    (0..model.len())
        .rev()
        .filter(|&at| model[at].0 == key)
        .collect()
}

fn check(ht: &Table, model: &Model, step: &str) {
    let keys = domain();
    for &key in &keys {
        let want = positions(model, key);
        let got: Vec<usize> = ht.probe_positions(key).collect();
        assert!(
            got.windows(2).all(|w| w[0] > w[1]),
            "{step}: chain of {key:#x} not descending: {got:?}"
        );
        assert_eq!(got, want, "{step}: probe_positions({key:#x})");
        let values: Vec<u64> = want.iter().map(|&at| model[at].1).collect();
        let read: Vec<u64> = ht.probe_readonly(key).copied().collect();
        assert_eq!(read, values, "{step}: probe_readonly({key:#x})");
    }
    // The batch prologue admits (at least) every present key, in order.
    let mut admitted = Vec::new();
    ht.filter_keys(&keys, &mut admitted);
    assert!(admitted.windows(2).all(|w| w[0] < w[1]), "{step}: order");
    for (pos, key) in keys.iter().enumerate() {
        if model.iter().any(|&(k, _)| k == *key) {
            assert!(
                admitted.contains(&(pos as u32)),
                "{step}: {key:#x} filtered out"
            );
        }
    }
    // `probe` freshens first; it must answer as the read-only walk did.
    let mut fresh = ht.clone();
    for &key in &keys {
        let got: Vec<u64> = fresh.probe(key).copied().collect();
        let want: Vec<u64> = positions(model, key)
            .iter()
            .map(|&at| model[at].1)
            .collect();
        assert_eq!(got, want, "{step}: probe({key:#x})");
    }
    assert!(fresh == *ht, "{step}: freshening is invisible to ==");
    let arena: Model = ht.iter().map(|(k, v)| (k, *v)).collect();
    assert_eq!(&arena, model, "{step}: arena order");
    let mut distinct: Vec<u64> = model.iter().map(|&(k, _)| k).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(ht.distinct_keys(), distinct.len(), "{step}");
}

fn rebuild(ht: &Table) -> Table {
    let s = ht.stats();
    let depth = ht.bucket_count().trailing_zeros() as u8;
    let entries = ht.iter().map(|(k, v)| (k, *v)).collect();
    Table::from_entries(s.tuple_width, depth, s.resizes, entries)
}

fn partitioned_rebuild(ht: &Table, parts: usize) -> Table {
    let (keys, values): (Vec<u64>, Vec<u64>) = ht.iter().map(|(k, v)| (k, *v)).unzip();
    let mut serial = Table::new(ht.tuple_width());
    serial.reserve(keys.len());
    for (&k, &v) in keys.iter().zip(&values) {
        serial.insert(k, v);
    }
    let mut built = Table::new(ht.tuple_width());
    built.reserve(keys.len());
    let dir_len = built.bucket_count();
    let chains = bucket_ranges(dir_len, parts)
        .into_iter()
        .map(|range| partition_chains(&keys, dir_len, range))
        .collect();
    built.fill_from_partitions(&keys, values, chains);
    assert!(built == serial, "partitioned build == serial build");
    built
}

proptest! {
    #[test]
    fn filter_never_hides_an_entry(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut ht = Table::new(8);
        let mut model = Model::new();
        let mut next_value = 0u64;
        let mut fresh_value = || {
            next_value += 1;
            next_value
        };
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(k) => {
                    let v = fresh_value();
                    let new_key = ht.insert(k, v);
                    prop_assert_eq!(new_key, !model.iter().any(|&(mk, _)| mk == k));
                    model.push((k, v));
                }
                Op::UpsertWhere(k, n) => {
                    // The n-th value under `k` in arena order, if any.
                    let target = model.iter().filter(|&&(mk, _)| mk == k).nth(n).map(|&(_, v)| v);
                    let (inserted, bumped) = (fresh_value(), fresh_value());
                    let created = ht.upsert_where(
                        k,
                        |v| Some(*v) == target,
                        || inserted,
                        |v| *v = bumped,
                    );
                    prop_assert_eq!(created, target.is_none());
                    match model.iter_mut().find(|(mk, v)| *mk == k && Some(*v) == target) {
                        Some(entry) => entry.1 = bumped,
                        None => model.push((k, inserted)),
                    }
                }
                Op::Probe(k) => {
                    let got: Vec<u64> = ht.probe(k).copied().collect();
                    let want: Vec<u64> =
                        positions(&model, k).iter().map(|&at| model[at].1).collect();
                    prop_assert_eq!(got, want);
                }
                Op::Reserve(n) => ht.reserve(n),
                Op::Clone => ht = ht.clone(),
                Op::Rebuild => {
                    let rebuilt = rebuild(&ht);
                    prop_assert!(rebuilt == ht);
                    ht = rebuilt;
                }
                Op::PartitionedRebuild(parts) => ht = partitioned_rebuild(&ht, parts),
            }
            check(&ht, &model, &format!("step {i} {op:?}"));
        }
    }
}
