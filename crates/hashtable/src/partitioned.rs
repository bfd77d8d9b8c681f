//! Partition-aware build primitives for deterministic parallel builds.
//!
//! A serial build inserts `(key, value)` pairs in row order; collision-chain
//! order (newest entry at the chain head) and arena order (one entry per row,
//! in row order) follow from that. To parallelize the build *without changing
//! either*, the work is partitioned **by bucket**, not by row:
//!
//! 1. the caller pre-sizes the directory
//!    ([`ExtendibleHashTable::reserve`](crate::ExtendibleHashTable::reserve)),
//!    fixing the bucket of every key up front;
//! 2. each worker takes a contiguous range of buckets and scans the full key
//!    sequence in row order, recording — for its buckets only — the chain
//!    links every insert would have created ([`partition_chains`]);
//! 3. a single serial pass stitches the per-partition chains and the values
//!    into the table
//!    ([`ExtendibleHashTable::fill_from_partitions`](crate::ExtendibleHashTable::fill_from_partitions)).
//!
//! Because every bucket is owned by exactly one partition and each partition
//! observes rows in row order, the assembled chains are *identical* to the
//! serial build's — same arena order, same next-links, same directory heads
//! and tag filters, same lazy-split bookkeeping — for any partition count. The test battery
//! (`tests/build_equivalence.rs`) pins this byte for byte.

use std::ops::Range;

use crate::extendible::tag_bit;

/// Sentinel for "no entry" in partition chain links (mirrors the table's
/// internal NIL).
pub(crate) const PART_NIL: u32 = u32::MAX;

/// Chains computed by one bucket-range partition of a build.
///
/// Positions in `links` index into `rows`; `heads` holds, per bucket of the
/// partition's range, the position of the chain head (the *latest* row
/// hashed to that bucket) or `NIL`.
#[derive(Debug)]
pub struct ChainPartition {
    /// The contiguous bucket range this partition owns.
    pub(crate) buckets: Range<usize>,
    /// Per bucket in `buckets`: position into `rows` of the chain head.
    pub(crate) heads: Vec<u32>,
    /// Per bucket in `buckets`: the tag-filter bits of its chained keys.
    pub(crate) tags: Vec<u16>,
    /// Global row indices owned by this partition, in ascending row order.
    pub(crate) rows: Vec<u32>,
    /// Chain link per `rows` slot: position (into `rows`) of the previous
    /// row in the same bucket, or `PART_NIL`.
    pub(crate) links: Vec<u32>,
    /// Keys in this partition that were new on first insertion (the
    /// serial build's distinct-key bookkeeping, computed bucket-locally).
    pub(crate) distinct: usize,
}

impl ChainPartition {
    /// Number of rows owned by this partition.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the partition owns no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Compute the collision chains a serial build of `keys` would create inside
/// the buckets of `range`, for a directory of `dir_len` slots (a power of
/// two). Pure and thread-safe: workers run one call per disjoint range.
///
/// The distinct-key count is exact because a key's bucket is fixed by
/// `dir_len` — all rows sharing a key land in the same partition.
pub fn partition_chains(keys: &[u64], dir_len: usize, range: Range<usize>) -> ChainPartition {
    assert!(dir_len.is_power_of_two(), "directory length {dir_len}");
    assert!(range.end <= dir_len);
    let mask = (dir_len - 1) as u64;
    let mut heads = vec![PART_NIL; range.len()];
    let mut tags = vec![0u16; range.len()];
    let mut rows: Vec<u32> = Vec::new();
    let mut links: Vec<u32> = Vec::new();
    let mut distinct = 0usize;
    for (i, &key) in keys.iter().enumerate() {
        let b = (key & mask) as usize;
        if b < range.start || b >= range.end {
            continue;
        }
        let head = heads[b - range.start];
        // Walk the chain exactly as the serial insert does to learn whether
        // the key is new (maintains the distinct-key statistic).
        let mut node = head;
        let mut new_key = true;
        while node != PART_NIL {
            if keys[rows[node as usize] as usize] == key {
                new_key = false;
                break;
            }
            node = links[node as usize];
        }
        if new_key {
            distinct += 1;
        }
        let pos = rows.len() as u32;
        rows.push(i as u32);
        links.push(head);
        heads[b - range.start] = pos;
        tags[b - range.start] |= tag_bit(key);
    }
    ChainPartition {
        buckets: range,
        heads,
        tags,
        rows,
        links,
        distinct,
    }
}

/// Split `0..dir_len` into at most `parts` contiguous, non-empty ranges.
pub fn bucket_ranges(dir_len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(dir_len.max(1));
    let base = dir_len / parts;
    let extra = dir_len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, dir_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ranges_tile_exactly() {
        for dir_len in [2usize, 4, 8, 1024, 4096] {
            for parts in [1usize, 2, 3, 7, 8, 64] {
                let ranges = bucket_ranges(dir_len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, dir_len);
                assert!(ranges.len() <= parts);
            }
        }
    }

    #[test]
    fn partition_chains_union_counts_all_rows() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i % 37).collect();
        let dir_len = 1024;
        let mut total = 0;
        let mut distinct = 0;
        for r in bucket_ranges(dir_len, 4) {
            let p = partition_chains(&keys, dir_len, r);
            total += p.len();
            distinct += p.distinct;
        }
        assert_eq!(total, keys.len());
        assert_eq!(distinct, 37);
    }

    #[test]
    fn partition_chains_is_partition_count_invariant() {
        let keys: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37)).collect();
        let dir_len = 256;
        // Heads and links per bucket must not depend on how buckets are
        // grouped into partitions: resolve chains to global row sequences.
        let resolve = |parts: usize| -> Vec<Vec<u32>> {
            let mut chains = vec![Vec::new(); dir_len];
            for r in bucket_ranges(dir_len, parts) {
                let p = partition_chains(&keys, dir_len, r.clone());
                for b in r.clone() {
                    let mut node = p.heads[b - r.start];
                    while node != PART_NIL {
                        chains[b].push(p.rows[node as usize]);
                        node = p.links[node as usize];
                    }
                }
            }
            chains
        };
        let one = resolve(1);
        for parts in [2, 3, 8] {
            assert_eq!(resolve(parts), one, "{parts} partitions");
        }
    }
}
