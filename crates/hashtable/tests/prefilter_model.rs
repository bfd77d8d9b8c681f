//! Property test of the exact key pre-filter ([`KeyBitmap`]).
//!
//! `any_in`, the block test of a skipping probe, is checked exhaustively:
//! every range between points around a drawn key set against a scan.
//!
//! A probe filters its keys into candidates, then walks the chains of the
//! candidates only. With the pre-filter, the `(probe position, arena
//! position)` pairs must be exactly the pairs the tag filter yields — and
//! both exactly a brute-force scan of the arena. Keys are drawn as `i64`s
//! (integer and date keys are their own hash keys): negative ones, dense
//! and sparse spans, `i64::MIN` and `i64::MAX` (whose span must make the
//! bitmap decline, not wrap), one-entry tables, and probe keys one past
//! either end of the table's span.
//!
//! Case count: `PROPTEST_CASES` (CI raises it in a release run).

use hashstash_hashtable::{ExtendibleHashTable, KeyBitmap};
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        -40i64..40,
        -40i64..40,
        -5_000i64..5_000,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MIN + 1),
        Just(i64::MAX - 1),
        any::<i64>(),
    ]
}

/// The pairs a probe of `keys` yields with `filter` choosing candidates.
fn pairs(
    ht: &ExtendibleHashTable<()>,
    keys: &[u64],
    filter: impl Fn(&[u64], &mut Vec<u32>),
) -> Vec<(u32, usize)> {
    let mut candidates = Vec::new();
    filter(keys, &mut candidates);
    candidates
        .iter()
        .flat_map(|&c| ht.probe_positions(keys[c as usize]).map(move |at| (c, at)))
        .collect()
}

/// Whether `[min, max]` of `keys` fits in `max_words` words, in `i128`.
fn fits(keys: &[i64], max_words: usize) -> bool {
    let (lo, hi) = (keys.iter().min(), keys.iter().max());
    let (Some(&lo), Some(&hi)) = (lo, hi) else {
        return false;
    };
    let span = i128::from(hi) - i128::from(lo) + 1;
    span < 1 << 63 && (span + 63) / 64 <= max_words as i128
}

proptest! {
    #[test]
    fn prefiltered_probe_returns_the_tag_filters_pairs(
        table_keys in prop_oneof![
            // Dense spans, so the bitmap is built whenever `words` allows.
            proptest::collection::vec(-40i64..40, 1..60),
            proptest::collection::vec(-5_000i64..5_000, 1..60),
            proptest::collection::vec(key_strategy(), 1..60),
        ],
        drawn in proptest::collection::vec(key_strategy(), 0..120),
        words in prop_oneof![0usize..4, 4usize..200, Just(1usize << 16)],
    ) {
        let mut ht = ExtendibleHashTable::new(8);
        for &k in &table_keys {
            ht.insert(k as u64, ());
        }
        let (lo, hi) = (table_keys.iter().min().unwrap(), table_keys.iter().max().unwrap());
        let mut probe: Vec<u64> = drawn.iter().map(|&k| k as u64).collect();
        for k in [lo.wrapping_sub(1), *lo, *hi, hi.wrapping_add(1)] {
            probe.push(k as u64);
        }

        let bitmap = ht.key_bitmap(words);
        prop_assert_eq!(bitmap.is_some(), fits(&table_keys, words));
        let by_tags = pairs(&ht, &probe, |k, out| ht.filter_keys(k, out));
        let scan: Vec<(u32, usize)> = probe
            .iter()
            .enumerate()
            .flat_map(|(j, &k)| {
                let mut at: Vec<usize> = ht.keys().enumerate().filter(|(_, t)| *t == k).map(|(a, _)| a).collect();
                at.sort_unstable_by_key(|&a| std::cmp::Reverse(a));
                at.into_iter().map(move |a| (j as u32, a))
            })
            .collect();
        let mut sorted = by_tags.clone();
        sorted.sort_unstable_by_key(|&(j, a)| (j, std::cmp::Reverse(a)));
        prop_assert_eq!(&sorted, &scan);
        if let Some(bitmap) = bitmap {
            let exact = pairs(&ht, &probe, |k, out| bitmap.filter_keys(k, out));
            prop_assert_eq!(&exact, &by_tags);
            // Exact: every candidate has a match.
            let mut candidates = Vec::new();
            bitmap.filter_keys(&probe, &mut candidates);
            for &c in &candidates {
                prop_assert!(ht.probe_positions(probe[c as usize]).next().is_some());
            }
            for k in [lo.wrapping_sub(1), hi.wrapping_add(1)] {
                prop_assert_eq!(bitmap.contains(k as u64), table_keys.contains(&k));
            }
        }
        let direct = KeyBitmap::new(table_keys.iter().map(|&k| k as u64), words);
        prop_assert_eq!(direct.is_some(), fits(&table_keys, words));
    }

    #[test]
    fn any_in_matches_a_scan_of_every_range(
        anchor in key_strategy(),
        offsets in proptest::collection::vec(0i64..150, 1..12),
    ) {
        // Keys within 150 of an anchor at any point of `i64`, so the bitmap
        // is built; every range around them is checked, ends past both
        // extremes of the key set included.
        let anchor = anchor.clamp(i64::MIN + 200, i64::MAX - 200);
        let keys: Vec<i64> = offsets.iter().map(|&o| anchor + o).collect();
        let bitmap = KeyBitmap::new(keys.iter().map(|&k| k as u64), 8).expect("a span of 150");
        let mut ends: Vec<i64> = (-3..154).map(|o| anchor + o).collect();
        ends.extend([i64::MIN, i64::MAX]);
        for &lo in &ends {
            for &hi in &ends {
                let scan = keys.iter().any(|&k| lo <= k && k <= hi);
                prop_assert_eq!(bitmap.any_in(lo, hi), scan, "[{}, {}]", lo, hi);
            }
        }
    }
}
