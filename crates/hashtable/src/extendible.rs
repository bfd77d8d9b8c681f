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
//! arena: Vec<Entry<V>>  contiguous; u32 next-links
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
//! `freshen`, `retain` and the partitioned fill keep them exact,
//! `from_layout` rebuilds them, and neither [`HtLayout`] nor `layout_eq`
//! sees them.

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
/// * Fine-grained GC prunes entries in place with
///   [`retain`](Self::retain).
///
/// The `u64` key is a *hash key*: callers that need exact key semantics embed
/// the full key in `V` and verify on probe (the engine's operators do this
/// for string keys; integer/date keys are injective into `u64`).
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

    /// Bring bucket `i`'s chain up to the current global depth by splitting
    /// its family root. Amortized O(1) per entry per doubling.
    fn freshen(&mut self, i: usize) {
        let d = self.meta[i].depth();
        if d == self.global_depth {
            return;
        }
        let root = i & Self::mask(d) as usize;
        // Detach the family chain from the root.
        let mut node = std::mem::replace(&mut self.heads[root], NIL);
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

    /// Keep only entries whose `(key, value)` satisfies the predicate.
    ///
    /// Rebuilds the arena, all chains and their tags; used by the
    /// fine-grained GC mode and by tests. O(n).
    pub fn retain(&mut self, mut pred: impl FnMut(u64, &V) -> bool) {
        let old = std::mem::take(&mut self.arena);
        self.heads.fill(NIL);
        self.meta.fill(Meta(self.global_depth.into()));
        self.distinct_keys = 0;
        for e in old {
            if pred(e.key, &e.value) {
                // No growth check: the directory is already large enough.
                self.link(e.key, e.value);
            }
        }
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

    /// The structural half of a lookup: bring `key`'s bucket up to the
    /// current global depth, without reading or writing any entry.
    ///
    /// [`upsert`](Self::upsert)-style operations freshen the key's bucket on
    /// *every* row, hit or miss — so a stale bucket's lazy split (and the
    /// chain redistribution it performs) happens at a deterministic point in
    /// the input sequence. The partitioned parallel build replays exactly
    /// that freshen history: `touch` for every input row, plus
    /// [`insert`](Self::insert) for the rows that created a group. Skipping
    /// the touches would leave different lazy-split state (and therefore
    /// different chain order after later splits) than the serial build.
    #[inline]
    pub fn touch(&mut self, key: u64) {
        let b = self.bucket_of(key);
        self.freshen(b);
    }

    /// Install the chains computed by a partitioned build
    /// ([`partition_chains`](crate::partitioned::partition_chains)) and the
    /// corresponding key/value columns into this **empty** table, producing
    /// the same table a serial `reserve(n)` + row-order
    /// [`insert`](Self::insert) loop would have produced.
    ///
    /// Requirements (checked): the table is empty and already sized so that
    /// no directory growth happens during `pairs.len()` inserts (call
    /// [`reserve`](Self::reserve) first), the partitions tile the directory
    /// contiguously, and every row is owned by exactly one partition.
    ///
    /// The serial build freshens the bucket of every inserted row; on an
    /// empty table a freshen moves no entries, it only performs the
    /// lazy-split depth bookkeeping. Replaying it per populated bucket (the
    /// set of buckets a serial build would have freshened) reproduces that
    /// bookkeeping exactly, order-independently.
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
        let owned: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(
            owned,
            keys.len(),
            "every row owned by exactly one partition"
        );
        // Per-row next links in arena terms (arena index == row index).
        let mut next_global = vec![NIL; keys.len()];
        for part in &parts {
            assert_eq!(part.buckets.start, next_tile, "partitions must tile");
            next_tile = part.buckets.end;
            for (pos, &row) in part.rows.iter().enumerate() {
                let link = part.links[pos];
                next_global[row as usize] = if link == PART_NIL {
                    NIL
                } else {
                    part.rows[link as usize]
                };
            }
            for (off, (&head, &tags)) in part.heads.iter().zip(&part.tags).enumerate() {
                if head == PART_NIL {
                    continue;
                }
                let bucket = part.buckets.start + off;
                // Replay the serial build's insert-time freshen (empty-table
                // bookkeeping only), then install the chain and its tags.
                self.freshen(bucket);
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
        for (i, (&key, value)) in keys.iter().zip(values).enumerate() {
            self.arena.push(Entry {
                key,
                next: next_global[i],
                value,
            });
        }
    }

    /// Borrowed byte-exact structural view for persistence.
    ///
    /// Together with [`from_layout`](Self::from_layout) this round-trips a
    /// table *including* its physical layout: a serialized-then-restored
    /// table is [`layout_eq`](Self::layout_eq) to the original, so probes
    /// answer in the same order and the footprint statistics match.
    pub fn layout(&self) -> HtLayout<'_> {
        HtLayout {
            tuple_width: self.tuple_width,
            global_depth: self.global_depth,
            resizes: self.resizes,
            distinct_keys: self.distinct_keys,
            directory: &self.heads,
            meta: &self.meta,
        }
    }

    /// Arena entries in physical order as `(key, next_link, value)`. The
    /// next-link is the arena index of the next chain node (or `u32::MAX`
    /// for end-of-chain) — opaque to callers, but required to restore the
    /// exact chain structure via [`from_layout`](Self::from_layout).
    pub fn arena_entries(&self) -> impl Iterator<Item = (u64, u32, &V)> {
        self.arena.iter().map(|e| (e.key, e.next, &e.value))
    }

    /// Rebuild a table from a previously exported layout, tag filter
    /// included (it is recomputed from the chains, never stored).
    ///
    /// Returns `None` if the parts are structurally inconsistent: directory
    /// and depth length must equal `2^global_depth`; local depths must not
    /// exceed the global depth and must agree across each lazy-split family,
    /// whose chain hangs off the family root alone; every chain link must
    /// stay inside the arena; and the chains must reach every arena entry
    /// exactly once (no cycle, no shared tail, no orphan). A corrupt or torn
    /// persisted image must never produce a table that panics or spins on
    /// probe.
    #[allow(clippy::too_many_arguments)]
    pub fn from_layout(
        tuple_width: usize,
        global_depth: u8,
        resizes: usize,
        distinct_keys: usize,
        directory: Vec<u32>,
        depth: Vec<u8>,
        arena: Vec<(u64, u32, V)>,
    ) -> Option<Self> {
        if global_depth as u32 >= u32::BITS {
            return None;
        }
        let buckets = 1usize << global_depth;
        if directory.len() != buckets || depth.len() != buckets {
            return None;
        }
        if !depth.iter().all(|&d| d <= global_depth) || distinct_keys > arena.len() {
            return None;
        }
        let arena: Vec<Entry<V>> = arena
            .into_iter()
            .map(|(key, next, value)| Entry { key, next, value })
            .collect();
        // Walk every chain once: rebuilds the tags and proves termination.
        let mut meta: Vec<Meta> = Vec::with_capacity(buckets);
        let mut reached = vec![false; arena.len()];
        let mut family_slots = 0usize;
        for (i, (&head, &d)) in directory.iter().zip(&depth).enumerate() {
            let root = i & Self::mask(d) as usize;
            if root != i {
                // A stale member: chained at its root (already rebuilt,
                // root < i), whose depth it shares and whose tags it mirrors.
                if head != NIL || meta[root].depth() != d {
                    return None;
                }
                meta.push(meta[root]);
                continue;
            }
            family_slots += 1usize << (global_depth - d);
            let mut tags = 0;
            let mut node = head;
            while node != NIL {
                let e = arena.get(node as usize)?;
                if std::mem::replace(&mut reached[node as usize], true) {
                    return None;
                }
                tags |= tag_bit(e.key);
                node = e.next;
            }
            meta.push(Meta(tags | u16::from(d)));
        }
        // Families that exactly tile the directory are disjoint: every slot
        // agreed with its root above.
        if reached.contains(&false) || family_slots != buckets {
            return None;
        }
        Some(ExtendibleHashTable {
            heads: directory,
            meta,
            arena,
            global_depth,
            distinct_keys,
            tuple_width,
            resizes,
        })
    }

    /// Structural equality down to the physical layout: directory heads,
    /// per-bucket lazy-split depths, arena order, chain links, and all
    /// statistics. Two tables that are `layout_eq` answer every probe in the
    /// same order, report the same footprint, and serialize identically —
    /// the equivalence the parallel-build determinism tests pin.
    pub fn layout_eq(&self, other: &Self) -> bool
    where
        V: PartialEq,
    {
        self.global_depth == other.global_depth
            && self.distinct_keys == other.distinct_keys
            && self.tuple_width == other.tuple_width
            && self.resizes == other.resizes
            && self.heads == other.heads
            && self.layout().depths().eq(other.layout().depths())
            && self.arena.len() == other.arena.len()
            && self
                .arena
                .iter()
                .zip(&other.arena)
                .all(|(a, b)| a.key == b.key && a.next == b.next && a.value == b.value)
    }
}

/// Borrowed structural view of an [`ExtendibleHashTable`] for persistence
/// (see [`ExtendibleHashTable::layout`]). Arena entries are exported
/// separately via [`ExtendibleHashTable::arena_entries`] so callers can
/// stream values through their own codec.
#[derive(Debug, Clone, Copy)]
pub struct HtLayout<'a> {
    /// Logical tuple width in bytes.
    pub tuple_width: usize,
    /// Directory depth (`2^global_depth` slots).
    pub global_depth: u8,
    /// Directory doublings performed so far.
    pub resizes: usize,
    /// Distinct keys currently stored.
    pub distinct_keys: usize,
    /// Directory: bucket heads as arena indices (`u32::MAX` = empty).
    pub directory: &'a [u32],
    meta: &'a [Meta],
}

impl<'a> HtLayout<'a> {
    /// Per-bucket lazy-split local depths, one per directory slot.
    pub fn depths(&self) -> impl ExactSizeIterator<Item = u8> + 'a {
        self.meta.iter().map(|m| m.depth())
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
    fn retain_filters_and_rebuilds() {
        let mut ht = ExtendibleHashTable::new(8);
        for i in 0..100u64 {
            ht.insert(i, i);
        }
        ht.retain(|k, _| k % 2 == 0);
        assert_eq!(ht.len(), 50);
        assert_eq!(ht.distinct_keys(), 50);
        assert!(ht.probe(1).next().is_none());
        assert_eq!(ht.probe(2).copied().collect::<Vec<_>>(), vec![2]);
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

    /// `layout()` → `from_layout`.
    fn relayout<V: Copy>(ht: &ExtendibleHashTable<V>) -> ExtendibleHashTable<V> {
        let l = ht.layout();
        ExtendibleHashTable::from_layout(
            l.tuple_width,
            l.global_depth,
            l.resizes,
            l.distinct_keys,
            l.directory.to_vec(),
            l.depths().collect(),
            ht.arena_entries().map(|(k, n, v)| (k, n, *v)).collect(),
        )
        .expect("exported layout is consistent")
    }

    #[test]
    fn layout_roundtrip_is_layout_eq() {
        let mut ht = ExtendibleHashTable::new(16);
        for i in 0..100u64 {
            ht.insert(i % 37, i as u32);
        }
        let rebuilt = relayout(&ht);
        assert!(ht.layout_eq(&rebuilt));
        assert_eq!(
            rebuilt.probe_readonly(5).copied().collect::<Vec<_>>(),
            ht.probe_readonly(5).copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_layout_rejects_corrupt_parts() {
        // Directory length must be 2^global_depth.
        assert!(ExtendibleHashTable::<u32>::from_layout(
            8,
            2,
            0,
            0,
            vec![NIL; 3],
            vec![2; 3],
            Vec::new()
        )
        .is_none());
        // Chain links must stay inside the arena.
        assert!(ExtendibleHashTable::<u32>::from_layout(
            8,
            1,
            0,
            1,
            vec![7, NIL],
            vec![1, 1],
            vec![(0, NIL, 1u32)]
        )
        .is_none());
        // Local depths must not exceed the global depth.
        assert!(ExtendibleHashTable::<u32>::from_layout(
            8,
            1,
            0,
            0,
            vec![NIL, NIL],
            vec![1, 2],
            Vec::new()
        )
        .is_none());
    }

    /// Links that are in range but do not form terminating, disjoint chains
    /// covering the arena would make `probe` spin (or lose entries).
    #[test]
    fn from_layout_rejects_chains_that_do_not_tile_the_arena() {
        let build = |directory: Vec<u32>, depth: Vec<u8>, links: [u32; 3]| {
            let arena = vec![(0u64, links[0], 0u32), (2, links[1], 1), (4, links[2], 2)];
            ExtendibleHashTable::from_layout(8, 1, 0, 3, directory, depth, arena)
        };
        let mut ok = build(vec![2, NIL], vec![1, 1], [NIL, 0, 1]).expect("one sound chain");
        assert_eq!(ok.probe(2).copied().collect::<Vec<_>>(), vec![1]);
        assert!(ok.probe(6).next().is_none());
        // An entry linked to itself.
        assert!(build(vec![2, NIL], vec![1, 1], [0, 0, 1]).is_none());
        // A longer cycle.
        assert!(build(vec![2, NIL], vec![1, 1], [2, 0, 1]).is_none());
        // Two heads sharing a tail.
        assert!(build(vec![2, 1], vec![1, 1], [NIL, 0, 0]).is_none());
        // An entry no chain reaches.
        assert!(build(vec![1, NIL], vec![1, 1], [NIL, 0, NIL]).is_none());
        // A chain hanging off a stale non-root slot: probes would never see it.
        assert!(build(vec![1, 2], vec![0, 0], [NIL, 0, NIL]).is_none());
        // A slot that disowns the lazy-split family its root claims.
        assert!(build(vec![2, NIL], vec![0, 1], [NIL, 0, 1]).is_none());
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
        let rebuilt = relayout(&ht);
        assert_exact(&rebuilt, "from_layout");
        ht.retain(|k, _| k % 3 != 0);
        assert_exact(&ht, "retain");

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
