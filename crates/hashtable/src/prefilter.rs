//! An exact key pre-filter for probes on integer keys.
//!
//! The directory's tag filter ([`ExtendibleHashTable::filter_keys`]) admits
//! a key when one of 11 bits in its bucket's `meta` word is set, so a small
//! table probed by a large fact table still admits about a tenth of the
//! keys that miss. Integer and date keys are their own hash keys, and the
//! keys of a small table usually span a range a bitmap covers in fewer
//! words than the probe has tuples. [`KeyBitmap`] is that bitmap: one bit
//! per value of `[min, max]` of the table's keys read as `i64`, exact in
//! both directions, and a miss costs one word load.

use crate::ExtendibleHashTable;

/// One bit per value of `[min, max]` of a key set, the keys read as `i64`.
#[derive(Debug, Clone)]
pub struct KeyBitmap {
    /// The smallest key, as the base of the wrapping offset.
    min: u64,
    /// `max - min + 1`: offsets at or past it are out of range.
    span: u64,
    words: Vec<u64>,
}

impl KeyBitmap {
    /// The bitmap of `keys`, or `None` when there are none or their span
    /// needs more than `max_words` 64-bit words. The span is computed
    /// without wrapping, and one of `2^63` values or more declines, so keys
    /// at both ends of `i64` do.
    pub fn new(keys: impl Iterator<Item = u64> + Clone, max_words: usize) -> Option<Self> {
        let (min, max) = keys.clone().fold(None, |acc: Option<(i64, i64)>, k| {
            let k = k as i64;
            Some(acc.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))))
        })?;
        let span = i128::from(max) - i128::from(min) + 1;
        if span > i128::from(i64::MAX) || (span as u64).div_ceil(64) > max_words as u64 {
            return None;
        }
        let span = span as u64;
        let mut words = vec![0u64; span.div_ceil(64) as usize];
        let min = min as u64;
        for k in keys {
            let off = k.wrapping_sub(min);
            words[(off >> 6) as usize] |= 1 << (off & 63);
        }
        Some(KeyBitmap { min, span, words })
    }

    /// Whether `key` is one of the keys.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        // The wrapping offset is below `span` exactly for keys in
        // `[min, max]`: the span is below 2^63, so no key outside wraps in.
        let off = key.wrapping_sub(self.min);
        off < self.span && self.words[(off >> 6) as usize] >> (off & 63) & 1 != 0
    }

    /// Whether any key of the set lies in `[lo, hi]` (keys read as `i64`):
    /// the test a probe puts to a block of its key column, given the
    /// block's smallest and largest key. One word load per 64 values of
    /// the range's overlap with `[min, max]`, stopping at the first key.
    pub fn any_in(&self, lo: i64, hi: i64) -> bool {
        let min = self.min as i64;
        // `span` is below 2^63, so `max` does not overflow.
        let max = min + (self.span - 1) as i64;
        let (lo, hi) = (lo.max(min), hi.min(max));
        if lo > hi {
            return false;
        }
        let (first, last) = (lo.abs_diff(min), hi.abs_diff(min));
        let (first_word, last_word) = ((first >> 6) as usize, (last >> 6) as usize);
        let head = !0u64 << (first & 63);
        let tail = !0u64 >> (63 - (last & 63));
        if first_word == last_word {
            return self.words[first_word] & head & tail != 0;
        }
        self.words[first_word] & head != 0
            || self.words[first_word + 1..last_word]
                .iter()
                .any(|&w| w != 0)
            || self.words[last_word] & tail != 0
    }

    /// Append to `out` the positions in `keys` of the keys in the set, in
    /// order: the exact counterpart of the tag filter's candidate list.
    /// One predictable branch per key — the filter serves probes most of
    /// whose keys miss — measured faster here than the tag filter's
    /// branch-free write of every position.
    pub fn filter_keys(&self, keys: &[u64], out: &mut Vec<u32>) {
        for (j, &key) in keys.iter().enumerate() {
            if self.contains(key) {
                out.push(j as u32);
            }
        }
    }
}

impl<V> ExtendibleHashTable<V> {
    /// The exact pre-filter over this table's keys, if its span fits in
    /// `max_words` words (see [`KeyBitmap::new`]).
    pub fn key_bitmap(&self, max_words: usize) -> Option<KeyBitmap> {
        KeyBitmap::new(self.keys(), max_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_over_the_span_and_out_of_it() {
        let keys = [-5i64, -3, 0, 60, 64, 130];
        let bm = KeyBitmap::new(keys.iter().map(|&k| k as u64), 3).expect("3 words");
        for k in -70i64..200 {
            assert_eq!(bm.contains(k as u64), keys.contains(&k), "{k}");
        }
        assert!(!bm.contains(i64::MIN as u64) && !bm.contains(i64::MAX as u64));
        assert!(KeyBitmap::new(keys.iter().map(|&k| k as u64), 2).is_none());
    }

    #[test]
    fn any_in_clamps_to_the_span() {
        let bm = KeyBitmap::new([-5i64, 60, 200].iter().map(|&k| k as u64), 8).expect("4 words");
        assert!(bm.any_in(i64::MIN, i64::MAX));
        assert!(bm.any_in(-5, -5) && bm.any_in(59, 61) && bm.any_in(199, i64::MAX));
        assert!(!bm.any_in(-4, 59) && !bm.any_in(61, 199) && !bm.any_in(201, i64::MAX));
        assert!(!bm.any_in(i64::MIN, -6) && !bm.any_in(60, 59));
    }

    #[test]
    fn declines_empty_and_unrepresentable_spans() {
        assert!(KeyBitmap::new(std::iter::empty(), 10).is_none());
        let ends = [i64::MIN as u64, i64::MAX as u64];
        assert!(KeyBitmap::new(ends.into_iter(), usize::MAX).is_none());
        let one = KeyBitmap::new(std::iter::once(i64::MAX as u64), 1).expect("one key");
        assert!(one.contains(i64::MAX as u64) && !one.contains(i64::MIN as u64));
    }
}
