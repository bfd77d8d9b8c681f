//! Model-based property test of the directory-slot tag filter.
//!
//! Random operation sequences run against a `BTreeMap<u64, Vec<u64>>` model.
//! After every step, for every key of a small domain — present and absent,
//! on fresh buckets and on buckets a directory doubling just left stale —
//! `probe_readonly` and `probe` must return exactly what a *tag-less* walk
//! of the key's chain returns, in the same order, and that must be the
//! model's values. The reference walk reads only the exported layout
//! (`layout()` + `arena_entries()`), which does not contain the tags: a
//! filter false negative shows up as a missing value, a stale or leaked tag
//! as nothing at all (false positives only cost a chain walk).
//!
//! Case count: `PROPTEST_CASES` (CI raises it in a release run).

use std::collections::BTreeMap;

use hashstash_hashtable::{bucket_ranges, partition_chains, ExtendibleHashTable};
use proptest::prelude::*;

type Table = ExtendibleHashTable<u64>;
type Model = BTreeMap<u64, Vec<u64>>;

const NIL: u32 = u32::MAX;

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
    Touch(u64),
    Reserve(usize),
    /// Drop the values with `v % m == r`.
    Retain(u64, u64),
    Clone,
    /// `layout()` → `from_layout`.
    Relayout,
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
        key().prop_map(Op::Touch),
        (0usize..160).prop_map(Op::Reserve),
        (2u64..5, 0u64..2).prop_map(|(m, r)| Op::Retain(m, r)),
        Just(Op::Clone),
        Just(Op::Relayout),
        (1usize..5).prop_map(Op::PartitionedRebuild),
    ]
}

/// The table's chains as exported for persistence — no tags in sight.
struct ChainView {
    global_depth: u8,
    heads: Vec<u32>,
    depths: Vec<u8>,
    arena: Vec<(u64, u32, u64)>,
}

impl ChainView {
    fn of(ht: &Table) -> Self {
        let l = ht.layout();
        ChainView {
            global_depth: l.global_depth,
            heads: l.directory.to_vec(),
            depths: l.depths().collect(),
            arena: ht.arena_entries().map(|(k, n, v)| (k, n, *v)).collect(),
        }
    }

    /// The values under `key`, in chain order from the bucket's family root.
    fn walk(&self, key: u64) -> Vec<u64> {
        let bucket = (key & ((1 << self.global_depth) - 1)) as usize;
        let root = bucket & ((1 << self.depths[bucket]) - 1);
        let mut out = Vec::new();
        let mut node = self.heads[root];
        while node != NIL {
            let (k, next, v) = self.arena[node as usize];
            if k == key {
                out.push(v);
            }
            node = next;
        }
        out
    }

    fn stale_buckets(&self) -> usize {
        let g = self.global_depth;
        self.depths.iter().filter(|&&d| d < g).count()
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn check(ht: &Table, model: &Model, step: &str) {
    let keys = domain();
    let expect = |key: u64| sorted(model.get(&key).cloned().unwrap_or_default());
    let view = ChainView::of(ht);
    for &key in &keys {
        let got: Vec<u64> = ht.probe_readonly(key).copied().collect();
        assert_eq!(got, view.walk(key), "{step}: probe_readonly({key:#x})");
        assert_eq!(sorted(got), expect(key), "{step}: model under {key:#x}");
    }
    // The batch prologue admits (at least) every present key, in order.
    let mut admitted = Vec::new();
    ht.filter_keys(&keys, &mut admitted);
    assert!(admitted.windows(2).all(|w| w[0] < w[1]), "{step}: order");
    for (pos, key) in keys.iter().enumerate() {
        if model.contains_key(key) {
            assert!(
                admitted.contains(&(pos as u32)),
                "{step}: {key:#x} filtered out"
            );
        }
    }
    // `probe` freshens first; a fresh bucket's chain no longer changes, so
    // one view taken after all the probes is the reference for each.
    let mut fresh = ht.clone();
    let probed: Vec<Vec<u64>> = keys
        .iter()
        .map(|&key| fresh.probe(key).copied().collect())
        .collect();
    let view = ChainView::of(&fresh);
    for (&key, got) in keys.iter().zip(probed) {
        assert_eq!(got, view.walk(key), "{step}: probe({key:#x})");
        assert_eq!(sorted(got), expect(key), "{step}: model under {key:#x}");
    }
    assert_eq!(
        ht.len(),
        model.values().map(Vec::len).sum::<usize>(),
        "{step}"
    );
    assert_eq!(ht.distinct_keys(), model.len(), "{step}");
}

fn relayout(ht: &Table) -> Table {
    let l = ht.layout();
    Table::from_layout(
        l.tuple_width,
        l.global_depth,
        l.resizes,
        l.distinct_keys,
        l.directory.to_vec(),
        l.depths().collect(),
        ht.arena_entries().map(|(k, n, v)| (k, n, *v)).collect(),
    )
    .expect("an exported layout is consistent")
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
    assert!(
        built.layout_eq(&serial),
        "partitioned build == serial build"
    );
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
        let mut stale_checks = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(k) => {
                    let v = fresh_value();
                    let new_key = ht.insert(k, v);
                    prop_assert_eq!(new_key, !model.contains_key(&k));
                    model.entry(k).or_default().push(v);
                }
                Op::UpsertWhere(k, n) => {
                    let target = model.get(&k).and_then(|vs| vs.get(n)).copied();
                    let (inserted, bumped) = (fresh_value(), fresh_value());
                    let created = ht.upsert_where(
                        k,
                        |v| Some(*v) == target,
                        || inserted,
                        |v| *v = bumped,
                    );
                    prop_assert_eq!(created, target.is_none());
                    let vs = model.entry(k).or_default();
                    match vs.iter_mut().find(|v| Some(**v) == target) {
                        Some(v) => *v = bumped,
                        None => vs.push(inserted),
                    }
                }
                Op::Touch(k) => ht.touch(k),
                Op::Reserve(n) => ht.reserve(n),
                Op::Retain(m, r) => {
                    ht.retain(|_, v| v % m != r);
                    model.retain(|_, vs| {
                        vs.retain(|v| v % m != r);
                        !vs.is_empty()
                    });
                }
                Op::Clone => ht = ht.clone(),
                Op::Relayout => {
                    let rebuilt = relayout(&ht);
                    prop_assert!(rebuilt.layout_eq(&ht));
                    ht = rebuilt;
                }
                Op::PartitionedRebuild(parts) => ht = partitioned_rebuild(&ht, parts),
            }
            stale_checks += usize::from(ChainView::of(&ht).stale_buckets() > 0 && !ht.is_empty());
            check(&ht, &model, &format!("step {i} {op:?}"));
        }
        // Long sequences must have exercised non-empty tables with stale
        // buckets (a `Reserve` doubling with nothing touched since).
        if ops.len() >= 100 {
            prop_assert!(stale_checks > 0, "no stale-bucket state in {} steps", ops.len());
        }
    }
}
