//! Morsel-driven intra-query parallelism.
//!
//! The interpreter stays a plain recursive tree-walk; the hot loops inside
//! individual operators — base-table scan filtering, hash-join probing, the
//! post-filter pass over a reused table — are split into fixed-size
//! row-range *morsels* claimed by the participants of a phase submitted to
//! a persistent [`WorkerPool`] (see [`crate::pool`] for the submission
//! protocol). There is no per-phase thread spawning: workers live as long
//! as their pool, and a phase dispatch is one queue push plus a condvar
//! wakeup.
//!
//! # Determinism
//!
//! Each participant writes into a private output buffer per morsel; the
//! scheduler returns the per-morsel buffers **in morsel-index order**, and
//! rows within one morsel are processed in row order. Concatenating the
//! buffers therefore yields exactly the sequence the serial loop would have
//! produced: parallel execution is bit-identical to `parallelism = 1`, for
//! any worker count, any pool size, and any scheduling interleaving. Tests
//! pin this (`tests/parallel_determinism.rs`).
//!
//! # Granularity
//!
//! Inputs smaller than [`min_parallel_morsels`] morsels never cross a
//! thread boundary — tiny operators keep their serial fast path and zero
//! dispatch overhead, so unit tests and low-selectivity deltas are
//! unaffected by the engine-level parallelism default. A phase's size is
//! the work it runs, not its input: a probe that skips the zone-map blocks
//! no build key can hit (`join::Probe::pairs`) sizes its phase by the rows
//! of its live blocks, so a selective probe of a large fact table stays
//! inline. The threshold is *derived* from the measured per-phase dispatch
//! cost ([`PHASE_DISPATCH_NS`]), which the cost model also prices
//! (`CostParams::parallel_dispatch_ns`). In the other direction the
//! fan-out width is clamped to the machine's core count
//! ([`effective_parallelism`], floor two): CPU-bound morsels gain nothing
//! from oversubscription, and every output is participant-count-invariant
//! so the clamp is invisible to results. A [`Scheduler`] without a pool has
//! no workers to borrow: its phases keep their partitioned shape but every
//! index runs inline on the caller, with the same output.
//!
//! # Builds
//!
//! Hash-table *builds* cannot use the per-morsel output-buffer trick:
//! insertion order defines collision-chain order, which probe output order
//! (and the cached table's layout) depends on. Fresh builds instead fan out
//! **by bucket**: [`build_multimap_partitioned`] has workers compute the
//! chains of disjoint bucket ranges from the row-order key sequence and
//! stitches them serially, and [`build_grouped_partitioned`] partitions
//! aggregate folding by key and hands back the groups in first-row order
//! for one insert each. Chains list entries newest first however the
//! directory got split, so both tables are `==` to the serial build at any
//! worker count (pinned by `tests/build_equivalence.rs` and
//! `tests/parallel_determinism.rs`).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use hashstash_hashtable::{bucket_ranges, partition_chains, ExtendibleHashTable};

use crate::pool::WorkerPool;

/// Rows per morsel. Large enough that per-morsel dispatch (one atomic
/// fetch-add plus a buffer push) is noise; small enough that a handful of
/// morsels balance across workers even on skewed filters.
pub const MORSEL_ROWS: usize = 1024;

/// Measured cost of submitting one phase to a warm [`WorkerPool`] (queue
/// push + condvar wakeup + quiesce wait), in nanoseconds. `exp8_parallel`
/// records the live number per run (`dispatch_warm_ns`); this constant is
/// the calibrated ceiling the inline threshold and the cost model
/// (`CostParams::parallel_dispatch_ns`) both derive from. The retired
/// spawn-per-phase baseline cost ~25 µs per phase — an order of magnitude
/// more.
pub const PHASE_DISPATCH_NS: u64 = 2_500;

/// Minimum morsel count before a phase fans out, derived from the dispatch
/// cost: fanning out must buy at least ~20× [`PHASE_DISPATCH_NS`] of real
/// work (at a conservative ~2 ns/row for the cheapest morsel loops) to be
/// worth coordinating, and never engages below two morsels. The cost model
/// mirrors this exact threshold so plan pricing and runtime behaviour
/// agree.
pub fn min_parallel_morsels() -> usize {
    const AMORTIZE: u64 = 20;
    const CHEAPEST_NS_PER_ROW: u64 = 2;
    let rows = (PHASE_DISPATCH_NS * AMORTIZE / CHEAPEST_NS_PER_ROW) as usize;
    rows.div_ceil(MORSEL_ROWS).max(2)
}

/// The `PARALLELISM` environment variable, if it holds a worker count.
fn parallelism_from_env() -> Option<usize> {
    std::env::var("PARALLELISM")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Worker count taken from the `PARALLELISM` environment variable, falling
/// back to `1` (the serial interpreter). [`ExecContext::new`] uses this so
/// a whole test suite can be re-run under N-way execution by exporting
/// `PARALLELISM=N` (the CI matrix does exactly that).
///
/// [`ExecContext::new`]: crate::ExecContext::new
pub fn default_parallelism() -> usize {
    // Cached: this runs once per ExecContext, i.e. on the per-query hot
    // path, and the variable cannot meaningfully change mid-process.
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| parallelism_from_env().unwrap_or(1))
}

/// Worker count for an engine: the `PARALLELISM` environment variable if
/// set, otherwise every core the OS reports.
pub fn engine_default_parallelism() -> usize {
    parallelism_from_env().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Most participants a phase can productively use on this machine: every
/// core the OS reports, with a floor of two. CPU-bound morsel work gains
/// nothing from more runnable threads than cores, and the partitioned
/// builds pay a full (cheap) key scan *per partition* — so on a small
/// host an oversubscribed fan-out buys only context-switch churn and
/// duplicated scans. The floor keeps the pooled and partitioned code
/// paths live (and covered by the test battery) even on a single-core
/// container; results are unaffected either way because every output is
/// participant-count-invariant by construction.
pub fn effective_parallelism(requested: usize) -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    let limit = *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2)
    });
    requested.min(limit)
}

/// Where a phase runs: how many participants, and on which pool. Engine
/// execution passes `ExecContext::sched()`, which carries the
/// `Database`-owned pool so concurrent sessions share workers.
#[derive(Clone, Copy)]
pub struct Scheduler<'p> {
    /// Total participants per phase: the submitting thread plus up to
    /// `parallelism - 1` pool workers. `<= 1` is the serial interpreter,
    /// byte for byte; the fan-out *width* is this clamped by
    /// [`effective_parallelism`].
    pub parallelism: usize,
    /// Pool to borrow workers from; `None` runs every phase inline on the
    /// submitting thread.
    pub pool: Option<&'p WorkerPool>,
}

/// Run `f(i)` for every `i in 0..count` as one pool phase and return the
/// outputs **in index order** — the shared primitive under [`run_morsels`]
/// and the partitioned builds. Participants claim indices off one atomic
/// cursor, so every index runs exactly once regardless of who shows up.
/// Serial (`parallelism <= 1`, a single index, or no pool) runs inline
/// with zero scheduling machinery.
fn run_indexed<T, F>(sched: Scheduler<'_>, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let pool = match sched.pool {
        Some(pool) if sched.parallelism > 1 && count > 1 => pool,
        _ => return (0..count).map(f).collect(),
    };
    let participants = effective_parallelism(sched.parallelism).min(count);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    pool.run_phase(participants - 1, &|| {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            local.push((i, f(i)));
        }
        if !local.is_empty() {
            results
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(local);
        }
    });
    let mut all = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(all.len(), count);
    all.sort_unstable_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// Number of morsels `total` rows split into.
pub fn morsel_count(total: usize) -> usize {
    total.div_ceil(MORSEL_ROWS)
}

#[inline]
fn morsel_range(index: usize, total: usize) -> Range<usize> {
    let start = index * MORSEL_ROWS;
    start..(start + MORSEL_ROWS).min(total)
}

/// Run `f` once per morsel of `0..total` across the phase's participants
/// and return the per-morsel outputs **in morsel-index order**.
///
/// `f` receives the row range of its morsel and must be pure with respect
/// to shared state (it gets `&` captures only). With `parallelism <= 1`,
/// or when the input is smaller than [`min_parallel_morsels`] morsels (too
/// little work to amortize even a warm-pool dispatch), `f` runs once over
/// the whole range inline on the caller's thread — the serial interpreter
/// path, byte for byte and allocation for allocation.
///
/// A panic inside any participant is propagated to the caller with its
/// original payload after the phase quiesces (no detached threads, no
/// poisoned pool — see `crate::pool`).
pub fn run_morsels<T, F>(sched: Scheduler<'_>, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let morsels = morsel_count(total);
    if morsels == 0 {
        return Vec::new();
    }
    if sched.parallelism <= 1 || morsels < min_parallel_morsels() {
        // One undivided morsel: the pre-morsel serial loop, with no
        // per-chunk allocations (rows within a morsel are processed in row
        // order, so the output is the same either way).
        return vec![f(0..total)];
    }
    run_indexed(sched, morsels, |i| f(morsel_range(i, total)))
}

/// Minimum build-side row count before a hash-table build fans out. A
/// partitioned build pays one phase dispatch plus a serial stitch pass
/// whose cost scales with the row count, so its amortization point sits
/// well below the morsel threshold: four morsels of rows is where the
/// partitioned chain computation starts beating the plain insert loop.
/// The cost model prices the same cutoff
/// ([`CostModel::parallel_build`]).
///
/// [`CostModel::parallel_build`]: ../../hashstash_opt/cost/struct.CostModel.html#method.parallel_build
pub const MIN_PARALLEL_BUILD_ROWS: usize = MORSEL_ROWS * 4;

/// Build a multimap hash table from parallel `keys`/`values` columns in row
/// order, `==` to the table the serial `reserve(n)` + [`insert`] loop builds,
/// fanning the chain computation out over per-worker bucket-range
/// partitions. (Columns rather than pairs: call sites compute the keys in a
/// morsel-parallel pass and would otherwise zip and immediately un-zip.)
///
/// The directory is pre-sized first, which fixes every key's bucket; each
/// partition owns a contiguous bucket range and derives the collision
/// chains its buckets would have after a serial build (same newest-first
/// order, same distinct-key bookkeeping). A single serial stitch pass then
/// installs chains and values — arena order is row order either way, so the
/// result equals the serial build at any worker count: same arena,
/// directory, chains and resize counter. With `parallelism <= 1` this *is*
/// the serial loop.
///
/// `table` must be empty (fresh build). Mutating-reuse delta inserts keep
/// the plain serial loop: they extend a table with existing history.
///
/// [`insert`]: ExtendibleHashTable::insert
pub fn build_multimap_partitioned<V: Send>(
    sched: Scheduler<'_>,
    table: &mut ExtendibleHashTable<V>,
    keys: Vec<u64>,
    values: Vec<V>,
) {
    assert_eq!(keys.len(), values.len(), "one key per value");
    table.reserve(keys.len());
    if sched.parallelism <= 1 || keys.len() < 2 {
        for (key, value) in keys.into_iter().zip(values) {
            table.insert(key, value);
        }
        return;
    }
    let dir_len = table.bucket_count();
    // Every partition scans the full key column, so the partition count is
    // clamped to the machine — the chains are partition-count-invariant.
    let ranges = bucket_ranges(dir_len, effective_parallelism(sched.parallelism));
    let keys_ref = &keys;
    let ranges_ref = &ranges;
    let parts = run_indexed(sched, ranges.len(), |i| {
        partition_chains(keys_ref, dir_len, ranges_ref[i].clone())
    });
    table.fill_from_partitions(&keys, values, parts);
}

/// One group discovered by [`build_grouped_partitioned`], tagged with the
/// row that created it.
#[derive(Debug)]
pub struct MergedGroup<P> {
    /// Index of the first input row that hashed-and-matched this group —
    /// the row whose serial `upsert` would have inserted it.
    pub first_row: usize,
    /// The group's 64-bit hash key.
    pub key: u64,
    /// The fully folded payload (all of the group's rows applied in global
    /// row order).
    pub payload: P,
}

/// Result of a partitioned grouped build: groups in first-occurrence order
/// plus the insert/update counts the serial fold would have reported.
#[derive(Debug)]
pub struct GroupedBuild<P> {
    /// Discovered groups, ascending by [`MergedGroup::first_row`] — exactly
    /// the arena order a serial `upsert` loop produces.
    pub groups: Vec<MergedGroup<P>>,
    /// Rows that created a group (`c_insert` events).
    pub inserts: u64,
    /// Rows folded into an existing group (`c_update` events).
    pub updates: u64,
}

/// Deterministic key → worker assignment for grouped builds. Any map works
/// as long as equal keys agree (a group never spans workers); mixing the
/// key decorrelates it from the table's bucket-index low bits.
#[inline]
fn group_owner(key: u64, workers: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % workers
}

/// `HashMap` hasher for keys that already *are* 64-bit hashes (the grouped
/// build folds `Row::key64` outputs): re-mixing them through SipHash costs
/// more per row than the fold's real work. Finalizes with one
/// multiply-shift so low-bit-patterned keys still spread across HashMap
/// buckets.
#[derive(Clone, Copy, Default)]
struct PreHashed(u64);

impl std::hash::Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Total fallback for non-u64 writes (none today): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

type PreHashedMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<PreHashed>>;

/// Fold rows into groups in parallel, partitioned **by key**, such that the
/// outcome is independent of the worker count:
///
/// * group identity (`matches`) and per-group fold order are key-local
///   facts: each partition scans the full row sequence in row order and
///   folds only the rows whose key it owns, so every group's `update` calls
///   happen in global row order — floating-point accumulation included;
/// * the merged group list is ordered by first-occurrence row, which is the
///   arena order of a serial `upsert` loop.
///
/// The caller [`insert`]s the groups in that order to obtain a table `==`
/// to the serial build. With `parallelism <= 1` the single partition still
/// uses this code path; callers that want the serial fast path keep their
/// own loop.
///
/// [`insert`]: ExtendibleHashTable::insert
pub fn build_grouped_partitioned<P, M, I, U>(
    sched: Scheduler<'_>,
    keys: &[u64],
    matches: M,
    init: I,
    update: U,
) -> GroupedBuild<P>
where
    P: Send,
    M: Fn(usize, &P) -> bool + Sync,
    I: Fn(usize) -> P + Sync,
    U: Fn(usize, &mut P) + Sync,
{
    // Clamped like the multimap build: every partition scans (and
    // owner-filters) the full key column, and the merged result is
    // partition-count-invariant.
    let workers = effective_parallelism(sched.parallelism).max(1);
    let fold_partition = |w: usize| {
        let mut groups: Vec<MergedGroup<P>> = Vec::new();
        // key → most recent group with that key; earlier same-key groups
        // (64-bit collisions disambiguated by `matches`, like the serial
        // chain walk) are linked through `prev`. At most one group matches,
        // so walk order is irrelevant — and chaining through a side vector
        // avoids a heap allocation per distinct key.
        const NO_PREV: u32 = u32::MAX;
        let mut index: PreHashedMap<u32> = PreHashedMap::default();
        let mut prev: Vec<u32> = Vec::new();
        let mut inserts = 0u64;
        let mut updates = 0u64;
        for (i, &key) in keys.iter().enumerate() {
            if workers > 1 && group_owner(key, workers) != w {
                continue;
            }
            let mut found = None;
            let slot = index.entry(key);
            if let std::collections::hash_map::Entry::Occupied(ref e) = slot {
                let mut g = *e.get();
                loop {
                    if matches(i, &groups[g as usize].payload) {
                        found = Some(g);
                        break;
                    }
                    g = prev[g as usize];
                    if g == NO_PREV {
                        break;
                    }
                }
            }
            match found {
                Some(g) => {
                    update(i, &mut groups[g as usize].payload);
                    updates += 1;
                }
                None => {
                    let next = groups.len() as u32;
                    match slot {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            prev.push(*e.get());
                            *e.get_mut() = next;
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            prev.push(NO_PREV);
                            v.insert(next);
                        }
                    }
                    groups.push(MergedGroup {
                        first_row: i,
                        key,
                        payload: init(i),
                    });
                    inserts += 1;
                }
            }
        }
        (groups, inserts, updates)
    };
    let parts: Vec<(Vec<MergedGroup<P>>, u64, u64)> = if workers <= 1 {
        vec![fold_partition(0)]
    } else {
        run_indexed(sched, workers, fold_partition)
    };
    let mut inserts = 0;
    let mut updates = 0;
    let mut groups = Vec::with_capacity(parts.iter().map(|(g, _, _)| g.len()).sum());
    for (g, i, u) in parts {
        groups.extend(g);
        inserts += i;
        updates += u;
    }
    // first_row is unique (one creating row per group), so this is a total
    // order — the serial arena order, independent of the partitioning. Each
    // partition scanned in row order, so `groups` is a concatenation of
    // `workers` already-sorted runs: the stable sort's natural-run merge
    // makes this an O(n log workers) merge, not a full sort.
    groups.sort_by_key(|g| g.first_row);
    GroupedBuild {
        groups,
        inserts,
        updates,
    }
}

/// [`run_morsels`] for the common case of producing rows: flattens the
/// per-morsel buffers (still in morsel order) into one output vector.
pub fn collect_morsels<T, F>(sched: Scheduler<'_>, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let mut chunks = run_morsels(sched, total, f);
    if chunks.len() <= 1 {
        return chunks.pop().unwrap_or_default();
    }
    let n = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(n);
    for mut c in chunks {
        out.append(&mut c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parallelism` participants with no pool: partitioned, but inline.
    fn inline(parallelism: usize) -> Scheduler<'static> {
        Scheduler {
            parallelism,
            pool: None,
        }
    }

    /// `parallelism` participants on `pool`.
    fn on(pool: &WorkerPool, parallelism: usize) -> Scheduler<'_> {
        Scheduler {
            parallelism,
            pool: Some(pool),
        }
    }

    /// Smallest row count that engages the pool (at least
    /// `min_parallel_morsels()` morsels), plus a ragged tail.
    fn engaged_total(tail: usize) -> usize {
        MORSEL_ROWS * (min_parallel_morsels() + 2) + tail
    }

    #[test]
    fn threshold_derives_from_dispatch_cost() {
        // 2 500 ns dispatch × 20 amortization ÷ 2 ns/row = 25 600 rows.
        assert_eq!(min_parallel_morsels(), 25);
        assert!(min_parallel_morsels() >= 2);
    }

    #[test]
    fn empty_input_runs_nothing() {
        let calls = AtomicUsize::new(0);
        let out: Vec<Vec<u32>> = run_morsels(inline(4), 0, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn small_input_stays_on_caller_thread() {
        let pool = WorkerPool::new(7);
        let caller = std::thread::current().id();
        let out = run_morsels(on(&pool, 8), MORSEL_ROWS, |r| {
            assert_eq!(std::thread::current().id(), caller);
            r.len()
        });
        assert_eq!(out, vec![MORSEL_ROWS]);
    }

    #[test]
    fn morsel_order_is_deterministic_for_any_worker_count() {
        let pool = WorkerPool::new(7);
        let total = engaged_total(123);
        let serial: Vec<usize> = collect_morsels(inline(1), total, |r| r.collect());
        assert_eq!(serial, (0..total).collect::<Vec<_>>());
        for workers in [2, 3, 4, 8, 64] {
            let parallel: Vec<usize> = collect_morsels(on(&pool, workers), total, |r| r.collect());
            assert_eq!(parallel, serial, "{workers} workers");
        }
    }

    #[test]
    fn pool_less_scheduler_runs_inline_with_pooled_output() {
        let pool = WorkerPool::new(3);
        let total = engaged_total(7);
        let pooled: Vec<usize> = collect_morsels(on(&pool, 4), total, |r| r.collect());
        let caller = std::thread::current().id();
        let chunks = run_morsels(inline(4), total, |r| {
            assert_eq!(std::thread::current().id(), caller);
            r.collect::<Vec<usize>>()
        });
        assert_eq!(
            chunks.len(),
            morsel_count(total),
            "still one chunk per morsel"
        );
        assert_eq!(chunks.concat(), pooled);
        assert!(pool.jobs_dispatched() >= 1, "the pool was used");
        pool.assert_quiesced();
    }

    #[test]
    fn ranges_tile_the_input_exactly() {
        let pool = WorkerPool::new(3);
        let total = engaged_total(1);
        let ranges = run_morsels(on(&pool, 4), total, |r| r);
        assert_eq!(ranges.len(), morsel_count(total));
        let mut expect_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        assert_eq!(expect_start, total);
    }

    #[test]
    fn partitioned_multimap_build_matches_serial_layout() {
        let n = MORSEL_ROWS * 5 + 77;
        let keys: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(31) % 997).collect();
        let values = || (0..n as u64).collect::<Vec<_>>();
        let pool = WorkerPool::new(7);
        let mut serial = ExtendibleHashTable::new(16);
        build_multimap_partitioned(inline(1), &mut serial, keys.clone(), values());
        for workers in [2, 3, 4, 8] {
            let mut par = ExtendibleHashTable::new(16);
            build_multimap_partitioned(on(&pool, workers), &mut par, keys.clone(), values());
            assert!(par == serial, "{workers} workers");
        }
    }

    #[test]
    fn grouped_build_is_worker_count_invariant_bitwise() {
        // The payload is a running f64 sum: any change in per-group fold
        // order shows up as a bit difference.
        let keys: Vec<u64> = (0..5000u64).map(|i| (i * i) % 13).collect();
        let pool = WorkerPool::new(7);
        let run = |workers: usize| {
            build_grouped_partitioned(
                on(&pool, workers),
                &keys,
                |_i, _p: &f64| true,
                |i| (i as f64) * 0.1,
                |i, p| *p += (i as f64) * 0.1,
            )
        };
        let one = run(1);
        let distinct = {
            let mut k: Vec<u64> = keys.clone();
            k.sort_unstable();
            k.dedup();
            k.len()
        };
        assert_eq!(one.groups.len(), distinct);
        assert_eq!(one.inserts as usize, distinct);
        assert_eq!(one.updates as usize, keys.len() - distinct);
        for workers in [2, 4, 8] {
            let got = run(workers);
            assert_eq!((got.inserts, got.updates), (one.inserts, one.updates));
            assert_eq!(got.groups.len(), one.groups.len(), "{workers} workers");
            for (a, b) in got.groups.iter().zip(&one.groups) {
                assert_eq!((a.first_row, a.key), (b.first_row, b.key));
                assert_eq!(
                    a.payload.to_bits(),
                    b.payload.to_bits(),
                    "float fold order must be serial ({workers} workers)"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates_with_original_payload() {
        let pool = WorkerPool::new(1);
        run_morsels(on(&pool, 2), engaged_total(0), |r| {
            if r.start >= MORSEL_ROWS {
                panic!("boom");
            }
            r.len()
        });
    }

    #[test]
    fn sub_threshold_inputs_run_inline_as_one_chunk() {
        let pool = WorkerPool::new(7);
        let caller = std::thread::current().id();
        let total = MORSEL_ROWS * (min_parallel_morsels() - 1);
        let out = run_morsels(on(&pool, 8), total, |r| {
            assert_eq!(std::thread::current().id(), caller);
            r
        });
        assert_eq!(out, vec![0..total], "one undivided serial chunk");
    }
}
