//! Extendible hashing with lazily split, index-linked collision chains and
//! a tag filter in every directory slot.
//!
//! # Layout
//!
//! ```text
//! heads: [u32; 2^g]     arena index of each bucket's newest chain entry
//!                       (g = global depth; NIL = empty)
//! meta:  [u16; 2^g]     bits 0..5   local depth (<= g < 32) the bucket's
//!                                   chain was last rebuilt at
//!                       bits 5..16  tags: one bit per chained key, picked
//!                                   by a multiplicative mix of the key
//! arena: Vec<Entry<V>>  contiguous, append-only; u32 next-links
//! ```
//!
//! A key hashes to bucket `key & (2^g - 1)`. When the average chain length
//! exceeds a threshold the directory doubles — an O(directory) operation that
//! copies *no entries*. Every bucket remembers the depth `d` at which its
//! chain was last rebuilt; a whole *family* of directory slots that share the
//! same low `d` bits keeps its entries chained at the family root. The first
//! access that touches a stale bucket redistributes the family's chain across
//! all members at the current depth (`freshen`). This matches the paper's
//! description: "instead of re-hashing all entries, only the bucket array
//! needs to get resized and entries can be assigned to the new buckets
//! lazily."
//!
//! # Canonical chains
//!
//! Every chain lists its entries in descending arena position: an insert
//! links the newest entry at the head, and a split reverses the detached
//! family chain before re-linking it head-first, so each member's chain
//! keeps that order. When a split happens is therefore invisible: probe
//! order, iteration order and every statistic are a function of the arena's
//! `(key, value)` sequence and the directory depth alone. That is what
//! [`PartialEq`] compares, what a snapshot stores, and what
//! [`from_entries`](ExtendibleHashTable::from_entries) rebuilds a table
//! from. The arena is append-only: no operation removes an entry.
//!
//! # Lookup
//!
//! Every lookup — `probe`, `probe_readonly`, `get_mut`, `upsert_where` and
//! the is-this-key-new walk of `insert` — first loads the bucket's `meta`
//! word and tests the key's tag bit against its tags. A clear bit proves no
//! chained entry carries the key: a probe that misses costs that one 2-byte
//! load and touches neither `heads` nor the arena (the paper prices a probe
//! as `cl(htSize, tWidth)`, the data it moves). A set bit reads the head —
//! the same word says at which depth, so of which family root — and walks
//! the chain comparing full keys; a stale bucket mirrors its root's tags,
//! the union over the un-split chain. The tags are derived state: `insert`,
//! `freshen`, the partitioned fill and `from_entries` keep them exact, and
//! equality does not see them.

const NIL: u32 = u32::MAX;

/// Average chain length that triggers a directory doubling.
const MAX_AVG_CHAIN: usize = 2;

/// Bits of a [`Meta`] word that hold the depth (directories stay below
/// 2^32 slots); the other 11 are tags.
const DEPTH_BITS: u32 = 5;

/// Tag bit, in [`Meta`] position, for each value of a 5-bit hash: 32 values
/// spread over the 11 tag bits as evenly as they go (3 or 2 each). A table
/// load is cheaper in the per-key loops than scaling and shifting.
const TAG_OF: [u16; 32] = {
    let mut tags = [0; 32];
    let mut h = 0;
    while h < 32 {
        tags[h] = 1 << (DEPTH_BITS as usize + h * (16 - DEPTH_BITS as usize) / 32);
        h += 1;
    }
    tags
};

/// The tag-filter bit of `key`: picked by the top bits of a multiplicative
/// mix, so it does not follow the low bits the bucket index uses (integer
/// keys are their own hash keys).
#[inline]
pub(crate) fn tag_bit(key: u64) -> u16 {
    TAG_OF[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize]
}

/// A bucket's lazy-split depth and the tag filter of its chained keys.
#[derive(Debug, Clone, Copy)]
struct Meta(u16);

impl Meta {
    #[inline]
    fn depth(self) -> u8 {
        (self.0 & ((1 << DEPTH_BITS) - 1)) as u8
    }

    /// Whether the chain may hold `key` (no false negatives).
    #[inline]
    fn admits(self, key: u64) -> bool {
        self.0 & tag_bit(key) != 0
    }
}

/// One arena slot: a key, the chain link and the payload.
#[derive(Debug, Clone)]
struct Entry<V> {
    key: u64,
    next: u32,
    value: V,
}

/// Statistics the Hash Table Manager stores per cached table (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HtStats {
    /// Total number of entries (tuples) in the table.
    pub entries: usize,
    /// Number of distinct keys.
    pub distinct_keys: usize,
    /// Logical tuple width in bytes (the paper's `tWidth`).
    pub tuple_width: usize,
    /// Logical memory footprint in bytes (the paper's `htSize`).
    pub bytes: usize,
    /// Number of directory doublings performed so far.
    pub resizes: usize,
}

/// An extendible, multi-map hash table keyed by `u64`.
///
/// * Join build sides insert duplicates ([`insert`](Self::insert)) and scan
///   matches with [`probe`](Self::probe).
/// * Aggregations keep one entry per key via [`upsert`](Self::upsert).
///
/// The `u64` key is a *hash key*: callers that need exact key semantics embed
/// the full key in `V` and verify on probe (the engine's operators do this
/// for string keys; integer/date keys are injective into `u64`).
///
/// Two tables are equal when their arenas hold the same `(key, value)`
/// sequence and they agree on depth, resize count and tuple width — which
/// buckets have been split since the last doubling is not compared, since
/// no probe or statistic can tell.
#[derive(Debug, Clone)]
pub struct ExtendibleHashTable<V> {
    heads: Vec<u32>,
    meta: Vec<Meta>,
    arena: Vec<Entry<V>>,
    global_depth: u8,
    distinct_keys: usize,
    /// Logical width of one tuple in bytes; used for `htSize` statistics fed
    /// to the cost model (actual `V` layout may differ).
    tuple_width: usize,
    resizes: usize,
}

impl<V> ExtendibleHashTable<V> {
    /// Create a table with an initial directory of two buckets.
    ///
    /// `tuple_width` is the *logical* width in bytes of one stored tuple. It
    /// parameterizes the cost model (`tWidth`); it does not change storage.
    pub fn new(tuple_width: usize) -> Self {
        Self::with_capacity(tuple_width, 0)
    }

    /// Create a table pre-sized for `capacity` entries, so that no resize
    /// happens until the capacity is exceeded. Mirrors the `c_resize`
    /// component of the paper's cost model: the reuse-aware operators resize
    /// once up front instead of incrementally.
    pub fn with_capacity(tuple_width: usize, capacity: usize) -> Self {
        let buckets = (capacity / MAX_AVG_CHAIN + 1).next_power_of_two().max(2);
        let global_depth = buckets.trailing_zeros() as u8;
        ExtendibleHashTable {
            heads: vec![NIL; buckets],
            meta: vec![Meta(global_depth.into()); buckets],
            arena: Vec::with_capacity(capacity),
            global_depth,
            distinct_keys: 0,
            tuple_width,
            resizes: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the table holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Number of distinct keys currently stored.
    #[inline]
    pub fn distinct_keys(&self) -> usize {
        self.distinct_keys
    }

    /// Number of directory slots (2^global_depth).
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.heads.len()
    }

    /// Logical tuple width in bytes (the cost model's `tWidth`).
    #[inline]
    pub fn tuple_width(&self) -> usize {
        self.tuple_width
    }

    /// Logical memory footprint in bytes (the cost model's `htSize`):
    /// directory slots (4 of head, 2 of depth + tags) plus per-entry header
    /// and logical payload.
    pub fn logical_bytes(&self) -> usize {
        self.heads.len() * 6 + self.arena.len() * (12 + self.tuple_width)
    }

    /// Actual heap footprint in bytes of the directory and arena.
    pub fn heap_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<u32>()
            + self.meta.capacity() * std::mem::size_of::<Meta>()
            + self.arena.capacity() * std::mem::size_of::<Entry<V>>()
    }

    /// Snapshot of the statistics the Hash Table Manager keeps.
    pub fn stats(&self) -> HtStats {
        HtStats {
            entries: self.len(),
            distinct_keys: self.distinct_keys,
            tuple_width: self.tuple_width,
            bytes: self.logical_bytes(),
            resizes: self.resizes,
        }
    }

    #[inline]
    fn mask(depth: u8) -> u64 {
        (1u64 << depth) - 1
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        (key & Self::mask(self.global_depth)) as usize
    }

    /// The one lookup prologue: the head of the chain holding `key`'s
    /// entries, or `NIL` when the bucket's tag filter proves there are none
    /// — decided from the `meta` word alone. A stale bucket mirrors its
    /// family root's tags and is answered from the root's chain.
    #[inline]
    fn chain_head(&self, key: u64) -> u32 {
        let i = self.bucket_of(key);
        let meta = self.meta[i];
        if meta.admits(key) {
            self.heads[i & Self::mask(meta.depth()) as usize]
        } else {
            NIL
        }
    }

    /// Arena index of the first entry under `key` whose value satisfies
    /// `matches`, read-only (a stale bucket is searched at its family root).
    #[inline]
    fn find(&self, key: u64, matches: impl Fn(&V) -> bool) -> Option<usize> {
        let mut node = self.chain_head(key);
        while node != NIL {
            let e = &self.arena[node as usize];
            if e.key == key && matches(&e.value) {
                return Some(node as usize);
            }
            node = e.next;
        }
        None
    }

    /// Bring `key`'s bucket up to the current global depth — the lazy split
    /// every `&mut self` lookup performs first.
    #[inline]
    fn touch(&mut self, key: u64) {
        let b = self.bucket_of(key);
        self.freshen(b);
    }

    /// Bring bucket `i`'s chain up to the current global depth by splitting
    /// its family root. Amortized O(1) per entry per doubling.
    fn freshen(&mut self, i: usize) {
        let d = self.meta[i].depth();
        if d == self.global_depth {
            return;
        }
        let root = i & Self::mask(d) as usize;
        // Detach the family chain from the root and reverse it in place, so
        // the head-first re-linking below leaves every member's chain in
        // descending arena position, as the family chain was.
        let mut node = std::mem::replace(&mut self.heads[root], NIL);
        let mut ascending = NIL;
        while node != NIL {
            let next = std::mem::replace(&mut self.arena[node as usize].next, ascending);
            ascending = node;
            node = next;
        }
        let mut node = ascending;
        // Mark the whole family fresh, with no tags yet (stale members only
        // mirrored the root's). Family members are root + k*2^d.
        let family = 1usize << (self.global_depth - d);
        for k in 0..family {
            let member = root + (k << d);
            debug_assert!(self.heads[member] == NIL);
            self.meta[member] = Meta(self.global_depth.into());
        }
        // Redistribute the chain by the low `global_depth` bits of each key.
        while node != NIL {
            let e = &mut self.arena[node as usize];
            let target = (e.key & Self::mask(self.global_depth)) as usize;
            self.meta[target].0 |= tag_bit(e.key);
            let next = std::mem::replace(&mut e.next, self.heads[target]);
            self.heads[target] = node;
            node = next;
        }
    }

    /// Double the directory. Entries are *not* moved — new slots inherit the
    /// family depth (and mirror the tags) of their lower half and are split
    /// lazily on first touch.
    fn grow_directory(&mut self) {
        let old = self.heads.len();
        // Depths are stored in `DEPTH_BITS` bits (and heads index a u32 arena).
        assert!(
            u32::from(self.global_depth) + 1 < u32::BITS,
            "directory overflow"
        );
        self.heads.resize(old * 2, NIL);
        self.meta.extend_from_within(0..old);
        self.global_depth += 1;
        self.resizes += 1;
    }

    #[inline]
    fn maybe_grow(&mut self) {
        if self.arena.len() >= self.heads.len() * MAX_AVG_CHAIN {
            self.grow_directory();
        }
    }

    /// Chain a new entry under `key`, whose bucket must be fresh. Returns
    /// `true` if the key was not present before.
    fn link(&mut self, key: u64, value: V) -> bool {
        let new_key = self.find(key, |_| true).is_none();
        let b = self.bucket_of(key);
        let idx = self.arena.len() as u32;
        self.arena.push(Entry {
            key,
            next: self.heads[b],
            value,
        });
        self.heads[b] = idx;
        self.meta[b].0 |= tag_bit(key);
        self.distinct_keys += usize::from(new_key);
        new_key
    }

    /// Insert a `(key, value)` pair, allowing duplicate keys (multi-map).
    ///
    /// Returns `true` if the key was not present before (used to maintain the
    /// distinct-key statistic).
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        self.maybe_grow();
        self.touch(key);
        self.link(key, value)
    }

    /// Iterate over the values stored under `key`.
    pub fn probe(&mut self, key: u64) -> ProbeIter<'_, V> {
        self.touch(key);
        self.probe_readonly(key)
    }

    /// Probe without freshening (read-only). A stale bucket is answered from
    /// its family root's chain, so it never misses.
    #[inline]
    pub fn probe_readonly(&self, key: u64) -> ProbeIter<'_, V> {
        ProbeIter {
            positions: self.probe_positions(key),
        }
    }

    /// The arena positions of the entries stored under `key`, in the order
    /// [`probe_readonly`](Self::probe_readonly) yields their values — for
    /// consumers that keep the payload beside the table, indexed by arena
    /// position.
    #[inline]
    pub fn probe_positions(&self, key: u64) -> Positions<'_, V> {
        Positions {
            arena: &self.arena,
            node: self.chain_head(key),
            key,
        }
    }

    /// Append to `out` the positions in `keys` of the keys the tag filter
    /// admits — the only ones a probe can match — in order. One `meta` load
    /// per key and no arena access: the batch form of the lookup prologue,
    /// for consumers that probe many keys of which few hit.
    pub fn filter_keys(&self, keys: &[u64], out: &mut Vec<u32>) {
        // Branch-free: write every position, advance past the admitted ones.
        let base = out.len();
        out.resize(base + keys.len(), 0);
        let mut n = base;
        for (j, &key) in keys.iter().enumerate() {
            out[n] = j as u32;
            n += usize::from(self.meta[self.bucket_of(key)].admits(key));
        }
        out.truncate(n);
    }

    /// Mutable access to the first entry with `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.touch(key);
        let i = self.find(key, |_| true)?;
        Some(&mut self.arena[i].value)
    }

    /// Aggregate-style access: update the entry under `key`, inserting it
    /// first via `init` if missing. Returns `true` if a new entry was
    /// created (the paper's `c_insert` path) and `false` if an existing one
    /// was updated (`c_update` path).
    pub fn upsert<I, U>(&mut self, key: u64, init: I, update: U) -> bool
    where
        I: FnOnce() -> V,
        U: FnOnce(&mut V),
    {
        self.upsert_where(key, |_| true, init, update)
    }

    /// Like [`upsert`](Self::upsert) but verifies candidate entries with
    /// `matches` before updating, so callers whose 64-bit keys are *hashes*
    /// of wider keys (e.g. string group keys) stay correct under collisions.
    pub fn upsert_where<M, I, U>(&mut self, key: u64, matches: M, init: I, update: U) -> bool
    where
        M: Fn(&V) -> bool,
        I: FnOnce() -> V,
        U: FnOnce(&mut V),
    {
        self.touch(key);
        match self.find(key, matches) {
            Some(i) => {
                update(&mut self.arena[i].value);
                false
            }
            None => {
                self.insert(key, init());
                true
            }
        }
    }

    /// Iterate over the keys in arena order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.arena.iter().map(|e| e.key)
    }

    /// Iterate over all `(key, value)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.arena.iter().map(|e| (e.key, &e.value))
    }

    /// Iterate over the `(key, value)` pairs stored in arena slots `range`,
    /// in arena order — the row-range access path of morsel-parallel
    /// consumers: workers each take a disjoint range, and concatenating the
    /// ranges in order reproduces [`iter`](Self::iter) exactly.
    pub fn iter_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (u64, &V)> {
        self.arena[range].iter().map(|e| (e.key, &e.value))
    }

    /// Pre-size the directory so `additional` more entries fit without a
    /// doubling. This is the explicit `c_resize` step of the reuse-aware
    /// operators: pay the directory growth once, up front.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.arena.len() + additional;
        self.arena.reserve(additional);
        while self.heads.len() * MAX_AVG_CHAIN < needed {
            self.grow_directory();
        }
    }

    /// Release the arena's spare capacity (the directory never has any).
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
    }

    /// Install the chains computed by a partitioned build
    /// ([`partition_chains`](crate::partitioned::partition_chains)) and the
    /// corresponding key/value columns into this **empty** table, producing
    /// the table a serial `reserve(n)` + row-order [`insert`](Self::insert)
    /// loop would have produced.
    ///
    /// Requirements (checked): the table is empty and already sized so that
    /// no directory growth happens during `keys.len()` inserts (call
    /// [`reserve`](Self::reserve) first), the partitions tile the directory
    /// contiguously, and every row is owned by exactly one partition. The
    /// empty directory is marked fresh as a whole before the chains go in.
    pub fn fill_from_partitions(
        &mut self,
        keys: &[u64],
        values: Vec<V>,
        parts: Vec<crate::partitioned::ChainPartition>,
    ) {
        use crate::partitioned::PART_NIL;
        assert_eq!(keys.len(), values.len(), "one key per value");
        assert!(
            self.arena.is_empty(),
            "fill_from_partitions: table not empty"
        );
        assert!(
            self.heads.len() * MAX_AVG_CHAIN >= keys.len(),
            "fill_from_partitions: reserve() the table for {} rows first",
            keys.len()
        );
        let mut next_tile = 0usize;
        let owned: usize = parts.iter().map(|p| p.rows.len()).sum();
        assert_eq!(
            owned,
            keys.len(),
            "every row owned by exactly one partition"
        );
        self.meta.fill(Meta(self.global_depth.into()));
        self.arena
            .extend(keys.iter().zip(values).map(|(&key, value)| Entry {
                key,
                next: NIL,
                value,
            }));
        for part in &parts {
            assert_eq!(part.buckets.start, next_tile, "partitions must tile");
            next_tile = part.buckets.end;
            // Links in arena terms (arena index == row index).
            for (&row, &link) in part.rows.iter().zip(&part.links) {
                if link != PART_NIL {
                    self.arena[row as usize].next = part.rows[link as usize];
                }
            }
            for (off, (&head, &tags)) in part.heads.iter().zip(&part.tags).enumerate() {
                if head == PART_NIL {
                    continue;
                }
                let bucket = part.buckets.start + off;
                self.heads[bucket] = part.rows[head as usize];
                self.meta[bucket].0 |= tags;
            }
            self.distinct_keys += part.distinct;
        }
        assert_eq!(
            next_tile,
            self.heads.len(),
            "partitions must cover the directory"
        );
    }

    /// Rebuild a table from its image: the tuple width, the directory depth,
    /// the resize count and the arena's `(key, value)` sequence (what
    /// [`iter`](Self::iter) yields). Every bucket starts fresh and the
    /// entries are linked in arena order, so the result is `==` to the
    /// table the image was taken from and answers every probe in its order.
    ///
    /// # Panics
    ///
    /// If `global_depth` does not fit a directory (`>= 32`). A decoder of
    /// untrusted images also bounds it by the entry count first: no engine
    /// path grows a directory past `max(2, entries)` slots.
    pub fn from_entries(
        tuple_width: usize,
        global_depth: u8,
        resizes: usize,
        entries: Vec<(u64, V)>,
    ) -> Self {
        assert!(u32::from(global_depth) < u32::BITS, "directory overflow");
        let buckets = 1usize << global_depth;
        let mut ht = ExtendibleHashTable {
            heads: vec![NIL; buckets],
            meta: vec![Meta(global_depth.into()); buckets],
            arena: Vec::with_capacity(entries.len()),
            global_depth,
            distinct_keys: 0,
            tuple_width,
            resizes,
        };
        for (key, value) in entries {
            ht.link(key, value);
        }
        ht
    }
}

impl<V: PartialEq> PartialEq for ExtendibleHashTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.global_depth == other.global_depth
            && self.resizes == other.resizes
            && self.tuple_width == other.tuple_width
            && self.arena.len() == other.arena.len()
            && self
                .arena
                .iter()
                .zip(&other.arena)
                .all(|(a, b)| a.key == b.key && a.value == b.value)
    }
}

/// Iterator over the arena positions of the entries matching a probe key.
pub struct Positions<'a, V> {
    arena: &'a [Entry<V>],
    node: u32,
    key: u64,
}

impl<V> Iterator for Positions<'_, V> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.node != NIL {
            let at = self.node as usize;
            let e = &self.arena[at];
            self.node = e.next;
            if e.key == self.key {
                return Some(at);
            }
        }
        None
    }
}

/// Iterator over values matching a probe key.
pub struct ProbeIter<'a, V> {
    positions: Positions<'a, V>,
}

impl<'a, V> Iterator for ProbeIter<'a, V> {
    type Item = &'a V;

    fn next(&mut self) -> Option<Self::Item> {
        let arena = self.positions.arena;
        self.positions.next().map(|at| &arena[at].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_probe_roundtrip() {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..1000u64 {
            ht.insert(i, i * 10);
        }
        assert_eq!(ht.len(), 1000);
        assert_eq!(ht.distinct_keys(), 1000);
        for i in 0..1000u64 {
            let hits: Vec<_> = ht.probe(i).copied().collect();
            assert_eq!(hits, vec![i * 10]);
        }
        assert!(ht.probe(5000).next().is_none());
    }

    #[test]
    fn multimap_duplicates() {
        let mut ht = ExtendibleHashTable::new(8);
        assert!(ht.insert(42, 1));
        assert!(!ht.insert(42, 2));
        assert!(!ht.insert(42, 3));
        assert_eq!(ht.len(), 3);
        assert_eq!(ht.distinct_keys(), 1);
        let mut hits: Vec<_> = ht.probe(42).copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn directory_doubles_without_losing_entries() {
        let mut ht = ExtendibleHashTable::new(8);
        let before = ht.bucket_count();
        for i in 0..10_000u64 {
            // adversarial key pattern: many shared low bits
            ht.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i);
        }
        assert!(ht.bucket_count() > before);
        assert!(ht.stats().resizes > 0);
        let mut count = 0;
        for i in 0..10_000u64 {
            let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            count += ht.probe(k).count();
        }
        assert_eq!(count, 10_000);
    }

    #[test]
    fn lazy_split_probe_readonly_never_misses() {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..64u64 {
            ht.insert(i, i);
        }
        // Force several doublings without touching most buckets afterwards.
        ht.reserve(4096);
        for i in 0..64u64 {
            let hits: Vec<_> = ht.probe_readonly(i).copied().collect();
            assert_eq!(hits, vec![i], "stale bucket must still be reachable");
        }
    }

    #[test]
    fn upsert_insert_then_update() {
        let mut ht = ExtendibleHashTable::new(16);
        let created = ht.upsert(7, || 100i64, |v| *v += 1);
        assert!(created);
        let created = ht.upsert(7, || 100i64, |v| *v += 1);
        assert!(!created);
        assert_eq!(ht.probe(7).copied().collect::<Vec<_>>(), vec![101]);
        assert_eq!(ht.distinct_keys(), 1);
    }

    #[test]
    fn upsert_where_distinguishes_colliding_values() {
        // Two logical keys that share the same 64-bit hash key.
        let mut ht: ExtendibleHashTable<(&'static str, i64)> = ExtendibleHashTable::new(16);
        ht.upsert_where(7, |v| v.0 == "a", || ("a", 1), |v| v.1 += 1);
        ht.upsert_where(7, |v| v.0 == "b", || ("b", 10), |v| v.1 += 1);
        ht.upsert_where(7, |v| v.0 == "a", || ("a", 1), |v| v.1 += 1);
        let mut vals: Vec<_> = ht.probe(7).copied().collect();
        vals.sort();
        assert_eq!(vals, vec![("a", 2), ("b", 10)]);
    }

    #[test]
    fn get_mut_finds_first_match() {
        let mut ht = ExtendibleHashTable::new(8);
        ht.insert(1, 10);
        assert_eq!(ht.get_mut(1), Some(&mut 10));
        assert_eq!(ht.get_mut(2), None);
        *ht.get_mut(1).unwrap() = 99;
        assert_eq!(ht.probe(1).copied().collect::<Vec<_>>(), vec![99]);
    }

    #[test]
    fn iter_range_tiles_iter_exactly() {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..1000u64 {
            ht.insert(i, i * 3);
        }
        let serial: Vec<(u64, u64)> = ht.iter().map(|(k, v)| (k, *v)).collect();
        let mut tiled = Vec::new();
        for start in (0..ht.len()).step_by(128) {
            let end = (start + 128).min(ht.len());
            tiled.extend(ht.iter_range(start..end).map(|(k, v)| (k, *v)));
        }
        assert_eq!(tiled, serial);
        assert_eq!(ht.iter_range(0..0).count(), 0);
    }

    #[test]
    fn with_capacity_avoids_resizes() {
        let mut ht = ExtendibleHashTable::with_capacity(8, 10_000);
        for i in 0..10_000u64 {
            ht.insert(i, i);
        }
        assert_eq!(ht.stats().resizes, 0);
    }

    #[test]
    fn reserve_is_explicit_resize() {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..100u64 {
            ht.insert(i, i);
        }
        let resizes_before = ht.stats().resizes;
        ht.reserve(100_000);
        let resizes_after = ht.stats().resizes;
        assert!(resizes_after > resizes_before);
        for i in 0..100u64 {
            ht.insert(i + 1000, i);
        }
        assert_eq!(ht.stats().resizes, resizes_after, "no growth after reserve");
    }

    #[test]
    fn logical_bytes_tracks_width_and_entries() {
        let mut narrow = ExtendibleHashTable::new(8);
        let mut wide = ExtendibleHashTable::new(256);
        for i in 0..100u64 {
            narrow.insert(i, ());
            wide.insert(i, ());
        }
        assert!(wide.logical_bytes() > narrow.logical_bytes());
        assert_eq!(
            wide.logical_bytes() - narrow.logical_bytes(),
            100 * (256 - 8)
        );
    }

    #[test]
    fn empty_table_behaviour() {
        let mut ht: ExtendibleHashTable<u64> = ExtendibleHashTable::new(8);
        assert!(ht.is_empty());
        assert_eq!(ht.probe(0).count(), 0);
        assert_eq!(ht.iter().count(), 0);
        assert_eq!(ht.distinct_keys(), 0);
    }

    #[test]
    fn stats_snapshot() {
        let mut ht = ExtendibleHashTable::new(32);
        ht.insert(1, 0u8);
        ht.insert(1, 0u8);
        ht.insert(2, 0u8);
        let s = ht.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.distinct_keys, 2);
        assert_eq!(s.tuple_width, 32);
        assert_eq!(s.bytes, ht.logical_bytes());
    }

    /// The table rebuilt from its image.
    fn rebuilt<V: Clone>(ht: &ExtendibleHashTable<V>) -> ExtendibleHashTable<V> {
        let s = ht.stats();
        let entries = ht.iter().map(|(k, v)| (k, v.clone())).collect();
        ExtendibleHashTable::from_entries(s.tuple_width, ht.global_depth, s.resizes, entries)
    }

    #[test]
    fn layout_roundtrip_is_layout_eq() {
        let mut ht = ExtendibleHashTable::new(16);
        for i in 0..100u64 {
            ht.insert(i % 37, i as u32);
        }
        // Stale buckets in the original, none in the copy.
        ht.reserve(1000);
        ht.insert(5, 1000);
        let copy = rebuilt(&ht);
        assert!(ht == copy);
        assert_eq!(copy.stats(), ht.stats());
        for k in 0..40 {
            assert_eq!(
                copy.probe_readonly(k).collect::<Vec<_>>(),
                ht.probe_readonly(k).collect::<Vec<_>>()
            );
        }
        let mut other = copy.clone();
        other.insert(5, 1001);
        assert!(other != copy);
    }

    /// A split keeps each chain in descending arena position, so probe
    /// order does not depend on when the split happened.
    #[test]
    fn splits_keep_chains_in_descending_arena_order() {
        let mut ht = ExtendibleHashTable::new(8);
        for v in 0..4u32 {
            ht.insert(0, v);
            ht.insert(4, v);
        }
        ht.reserve(64);
        let unsplit: Vec<usize> = ht.probe_positions(0).collect();
        assert_eq!(unsplit, [6, 4, 2, 0]);
        assert_eq!(ht.probe(0).copied().collect::<Vec<_>>(), [3, 2, 1, 0]);
        assert_eq!(ht.probe_positions(0).collect::<Vec<_>>(), unsplit);
        assert_eq!(ht.probe_positions(4).collect::<Vec<_>>(), [7, 5, 3, 1]);
    }

    /// The tags are exact — a pure function of the chains — however the
    /// table got its layout, and stale slots mirror their family root.
    #[test]
    fn tags_are_exact_on_every_construction_path() {
        fn assert_exact<V>(ht: &ExtendibleHashTable<V>, what: &str) {
            for (i, meta) in ht.meta.iter().enumerate() {
                let root = i & ExtendibleHashTable::<V>::mask(meta.depth()) as usize;
                let mut want = u16::from(meta.depth());
                let mut node = ht.heads[root];
                while node != NIL {
                    want |= tag_bit(ht.arena[node as usize].key);
                    node = ht.arena[node as usize].next;
                }
                assert_eq!(meta.0, want, "{what}: slot {i}");
            }
        }
        let keys: Vec<u64> = (0..600u64).map(|i| i.wrapping_mul(0x9e37) % 211).collect();
        let mut ht = ExtendibleHashTable::new(8);
        for (i, &k) in keys.iter().enumerate() {
            ht.insert(k, i);
            if i == 300 {
                ht.reserve(5_000);
                assert_exact(&ht, "stale after reserve");
            }
        }
        assert_exact(&ht, "incremental inserts");
        assert_exact(&rebuilt(&ht), "from_entries");

        let mut filled = ExtendibleHashTable::new(8);
        filled.reserve(keys.len());
        let dir_len = filled.bucket_count();
        let parts = crate::bucket_ranges(dir_len, 3)
            .into_iter()
            .map(|r| crate::partition_chains(&keys, dir_len, r))
            .collect();
        filled.fill_from_partitions(&keys, (0..keys.len()).collect(), parts);
        assert_exact(&filled, "partitioned fill");
    }
}
