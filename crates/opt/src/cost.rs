//! Reuse-aware cost models (paper §3.2).
//!
//! The models estimate nanoseconds for the reuse-aware hash join (RHJ) and
//! hash aggregate (RHA):
//!
//! ```text
//! c_RHJ = c_resize(HT) + c_build(HT) + c_probe(HT)
//! c_RHA = c_resize(HT) + c_insert(HT) + c_update(HT)
//!
//! c_build  = |Builder| · (1 − contr(HT)) · ci(htSize, tWidth)
//! c_probe  = |Prober| · cl(htSize, tWidth)
//! c_insert = |distinct(Input.key)| · (1 − contr) · ci(htSize, tWidth)
//! c_update = (|Input| − |distinct|) · (1 − contr) · cu(htSize, tWidth)
//! ```
//!
//! `ci`/`cl`/`cu` come from the calibrated [`CostGrid`] (paper Figure 3).
//! The **contribution-ratio** `contr` is the fraction of required tuples the
//! candidate already holds; the **overhead-ratio** `overh` is the fraction
//! of the candidate's tuples the request does not need — it inflates
//! `htSize` (cache pressure) and adds post-filter work.

use hashstash_hashtable::calibration::{CostGrid, HtOp};

/// Scalar cost constants besides the calibrated grid.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Random index lookup cost per fetched tuple (ns).
    pub index_ns: f64,
    /// Post-filter check per tuple (ns).
    pub filter_ns: f64,
    /// Emitting one output row (ns).
    pub output_ns: f64,
    /// Per-bucket directory resize cost (ns).
    pub resize_ns_per_slot: f64,
    /// Copy-on-write charge per byte of a cached table: a mutating
    /// (partial/overlapping) reuse clones the whole table before writing
    /// its delta, so the optimizer must not price mutating reuse of a large
    /// cached table as if the delta insert were the only cost.
    pub cow_ns_per_byte: f64,
    /// Worker threads the executor fans morsel-parallel phases (scan
    /// filtering, probe, reuse post-filtering) out to. `1` = serial
    /// interpreter; reuse-vs-recompute decisions would otherwise silently
    /// assume serial probe costs.
    pub parallel_workers: usize,
    /// Fixed dispatch overhead per morsel (ns): one atomic claim plus the
    /// output-buffer bookkeeping.
    pub morsel_overhead_ns: f64,
    /// Dispatch cost of one parallel phase (ns), paid once per phase
    /// regardless of worker count: a queue push, a condvar wakeup and the
    /// quiesce wait on the engine's persistent worker pool
    /// (`hashstash_exec::PHASE_DISPATCH_NS`, measured by `exp8_parallel`).
    /// The retired spawn-per-phase executor paid ~25 µs *per worker* here;
    /// together with the executor's derived morsel-count threshold this
    /// keeps the model honest about small inputs.
    pub parallel_dispatch_ns: f64,
    /// Serial stitch/replay cost per build-input row of a partitioned
    /// parallel build (ns): the single-threaded pass that installs the
    /// per-partition chains (joins) or replays the structural history
    /// (aggregates) after the workers' partition passes. It also absorbs
    /// the per-worker full key scan of the partition phase. This is the
    /// merge term that keeps the model honest about Amdahl's law on builds:
    /// a parallel build never gets cheaper than `rows ·
    /// build_merge_ns_per_row`.
    pub build_merge_ns_per_row: f64,
    /// Sequential scan cost per tuple (ns): one typed-slice compare in a
    /// monomorphized kernel, no boxed scalar materialization.
    pub vec_scan_ns: f64,
    /// Fixed per-batch overhead of a vectorized scan (ns): selection-vector
    /// allocation and kernel dispatch, paid once per morsel-sized batch.
    pub vec_batch_ns: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            index_ns: 18.0,
            filter_ns: 1.5,
            output_ns: 4.0,
            resize_ns_per_slot: 0.6,
            cow_ns_per_byte: 0.08,
            parallel_workers: 1,
            morsel_overhead_ns: 400.0,
            parallel_dispatch_ns: hashstash_exec::PHASE_DISPATCH_NS as f64,
            build_merge_ns_per_row: 1.5,
            vec_scan_ns: 0.5,
            vec_batch_ns: 60.0,
        }
    }
}

/// Inputs describing one candidate hash table for reuse costing.
#[derive(Debug, Clone, Copy)]
pub struct CandidateShape {
    /// Entries currently stored.
    pub entries: f64,
    /// Logical bytes currently occupied.
    pub bytes: f64,
    /// Tuple width in bytes.
    pub tuple_width: f64,
    /// Contribution-ratio: fraction of *required* tuples already present.
    pub contr: f64,
    /// Overhead-ratio: fraction of *stored* tuples that are not required.
    pub overh: f64,
}

/// The reuse-aware cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    grid: CostGrid,
    params: CostParams,
}

impl CostModel {
    /// Model from a calibrated grid.
    pub fn new(grid: CostGrid, params: CostParams) -> Self {
        CostModel { grid, params }
    }

    /// Deterministic model used by tests and default engines.
    pub fn synthetic() -> Self {
        CostModel::new(CostGrid::synthetic(), CostParams::default())
    }

    /// The same model assuming the executor fans morsel-parallel phases out
    /// to `workers` threads (engines set this from their `parallelism`
    /// knob; `1` reproduces the serial model exactly). The executor clamps
    /// its fan-out to the machine's core count
    /// ([`hashstash_exec::effective_parallelism`]), so the model prices
    /// the clamped width — requesting 16 workers on a 4-core host must
    /// not make plans look four times cheaper than they can run.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.params.parallel_workers = hashstash_exec::effective_parallelism(workers.max(1));
        self
    }

    /// Scalar parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Effective cost of a morsel-parallelizable phase whose serial cost is
    /// `serial_ns` over `rows` items: near-linear speedup capped by the
    /// morsel count, plus per-morsel dispatch overhead and one flat
    /// per-phase submission to the persistent worker pool
    /// ([`CostParams::parallel_dispatch_ns`] — *not* multiplied by the
    /// worker count; the pool's threads already exist). Identity for one
    /// worker or inputs below the executor's derived fan-out threshold
    /// ([`hashstash_exec::min_parallel_morsels`]) — exactly the serial
    /// fast path.
    pub fn parallel(&self, serial_ns: f64, rows: f64) -> f64 {
        let workers = self.params.parallel_workers.max(1) as f64;
        let morsel = hashstash_exec::MORSEL_ROWS as f64;
        let morsels = (rows / morsel).ceil();
        if workers <= 1.0 || morsels < hashstash_exec::min_parallel_morsels() as f64 {
            return serial_ns;
        }
        let effective = workers.min(morsels);
        (serial_ns + morsels * self.params.morsel_overhead_ns) / effective
            + self.params.parallel_dispatch_ns
    }

    /// Effective cost of a **partitioned parallel build** whose serial cost
    /// is `serial_ns` over `rows` build-input rows: the per-partition chain
    /// computation (joins) / key-partitioned folding (aggregates) divides
    /// across workers, then a serial stitch/replay pass pays
    /// [`CostParams::build_merge_ns_per_row`] per row, plus one flat
    /// per-phase pool dispatch. Identity for one worker or inputs below
    /// the executor's fan-out cutoff
    /// ([`hashstash_exec::MIN_PARALLEL_BUILD_ROWS`]) — exactly the serial
    /// insert loop. This is what lets reuse-vs-recompute (and admission
    /// benefit scoring) stop assuming serial `ht_inserts`.
    pub fn parallel_build(&self, serial_ns: f64, rows: f64) -> f64 {
        let workers = self.params.parallel_workers.max(1) as f64;
        if workers <= 1.0 || rows < hashstash_exec::MIN_PARALLEL_BUILD_ROWS as f64 {
            return serial_ns;
        }
        serial_ns / workers
            + rows * self.params.build_merge_ns_per_row
            + self.params.parallel_dispatch_ns
    }

    /// Serial cost of a **vectorized** scan over `rows` tuples: a tight
    /// typed-slice kernel per tuple plus a fixed overhead per morsel-sized
    /// batch (selection-vector bookkeeping). The admission scores and
    /// reuse-vs-recompute comparisons pick this up through [`Self::scan`],
    /// so a cheaper scan correctly shrinks the benefit of caching
    /// scan-dominated builds.
    pub fn vectorized(&self, rows: f64) -> f64 {
        let batches = (rows / hashstash_exec::MORSEL_ROWS as f64).ceil();
        rows * self.params.vec_scan_ns + batches * self.params.vec_batch_ns
    }

    /// Cost of scanning `rows` tuples sequentially (filter + projection
    /// fan out over morsels), priced with the vectorized kernel term.
    pub fn scan(&self, rows: f64) -> f64 {
        self.parallel(self.vectorized(rows), rows)
    }

    /// Cost of fetching `rows` tuples through a secondary index (the
    /// residual-filter pass over index hits fans out over morsels too).
    pub fn index_scan(&self, rows: f64) -> f64 {
        self.parallel(rows * self.params.index_ns, rows)
    }

    /// Estimated logical size of a hash table holding `entries` tuples of
    /// `width` bytes (mirrors `ExtendibleHashTable::logical_bytes`).
    pub fn ht_size(&self, entries: f64, width: f64) -> f64 {
        let buckets = (entries / 2.0).max(2.0);
        buckets * 6.0 + entries * (12.0 + width)
    }

    /// `c_RHJ` for building a *fresh* join table of `build_rows` tuples of
    /// `width` bytes and probing it with `probe_rows` tuples. The build is
    /// priced as a partitioned parallel build ([`Self::parallel_build`]):
    /// workers derive disjoint bucket partitions of the serial chain order
    /// and a serial stitch installs them, so determinism costs a merge term
    /// rather than serialization. The probe phase fans out over morsels.
    pub fn rhj_fresh(&self, build_rows: f64, width: f64, probe_rows: f64) -> f64 {
        let size = self.ht_size(build_rows, width);
        let resize = (build_rows / 2.0) * self.params.resize_ns_per_slot;
        let build = self.parallel_build(
            build_rows
                * self
                    .grid
                    .cost_ns(HtOp::Insert, size as usize, width as usize),
            build_rows,
        );
        let probe = self.parallel(
            probe_rows
                * self
                    .grid
                    .cost_ns(HtOp::Lookup, size as usize, width as usize),
            probe_rows,
        );
        resize + build + probe
    }

    /// `c_RHJ` when reusing a candidate table.
    ///
    /// * `required_rows` — tuples the request needs in the table.
    /// * `probe_rows` — probe-side input size.
    /// * `expected_matches` — estimated probe matches (drives post-filter
    ///   cost when the candidate carries overhead tuples).
    ///
    /// The delta insert of a mutating reuse is priced *serially* on
    /// purpose: the executor keeps delta inserts on the serial path (they
    /// extend a table with existing chain history, which the partitioned
    /// build cannot reproduce), so the model must not discount them.
    pub fn rhj_reuse(
        &self,
        cand: &CandidateShape,
        required_rows: f64,
        probe_rows: f64,
        expected_matches: f64,
    ) -> f64 {
        let missing = required_rows * (1.0 - cand.contr);
        // Final size after adding missing tuples.
        let final_entries = cand.entries + missing;
        let size = self
            .ht_size(final_entries, cand.tuple_width)
            .max(cand.bytes);
        let resize = if missing > 0.0 {
            (missing / 2.0) * self.params.resize_ns_per_slot
        } else {
            0.0
        };
        // Mutating (delta-inserting) reuse copies the whole cached table
        // before the first write (copy-on-write under the shared-checkout
        // model); read-only reuse pays nothing here.
        let cow = if missing > 0.0 {
            cand.bytes * self.params.cow_ns_per_byte
        } else {
            0.0
        };
        let build = missing
            * self
                .grid
                .cost_ns(HtOp::Insert, size as usize, cand.tuple_width as usize);
        let probe = self.parallel(
            probe_rows
                * self
                    .grid
                    .cost_ns(HtOp::Lookup, size as usize, cand.tuple_width as usize),
            probe_rows,
        );
        // Post-filtering false positives: matches scale with the overhead
        // share of the table. Runs inside the morsel-parallel probe loop.
        let post = if cand.overh > 0.0 {
            let false_matches = expected_matches * cand.overh / (1.0 - cand.overh).max(0.05);
            self.parallel(
                (expected_matches + false_matches) * self.params.filter_ns,
                probe_rows,
            )
        } else {
            0.0
        };
        resize + cow + build + probe + post
    }

    /// `c_RHA` for a *fresh* aggregation of `input_rows` tuples with
    /// `distinct_groups` groups of `width`-byte states. The fold (inserts +
    /// updates) is priced as a partitioned parallel build over the input
    /// rows ([`Self::parallel_build`]): key-partitioned workers fold groups
    /// in global row order, a serial replay pass reconstructs the table.
    pub fn rha_fresh(&self, input_rows: f64, distinct_groups: f64, width: f64) -> f64 {
        let groups = distinct_groups.min(input_rows).max(1.0);
        let size = self.ht_size(groups, width);
        let resize = (groups / 2.0) * self.params.resize_ns_per_slot;
        let insert = groups
            * self
                .grid
                .cost_ns(HtOp::Insert, size as usize, width as usize);
        let update = (input_rows - groups).max(0.0)
            * self
                .grid
                .cost_ns(HtOp::Update, size as usize, width as usize);
        resize + self.parallel_build(insert + update, input_rows)
    }

    /// `c_RHA` when reusing a candidate aggregate table: only the missing
    /// input needs to be folded in.
    pub fn rha_reuse(&self, cand: &CandidateShape, input_rows: f64, distinct_groups: f64) -> f64 {
        let missing_rows = input_rows * (1.0 - cand.contr);
        let missing_groups = distinct_groups.min(missing_rows) * (1.0 - cand.contr);
        let final_groups = cand.entries + missing_groups;
        let size = self.ht_size(final_groups, cand.tuple_width).max(cand.bytes);
        let resize = if missing_groups > 0.0 {
            (missing_groups / 2.0) * self.params.resize_ns_per_slot
        } else {
            0.0
        };
        // Copy-on-write: folding a delta into the cached aggregate clones
        // the whole table first (see `rhj_reuse`).
        let cow = if missing_rows > 0.0 {
            cand.bytes * self.params.cow_ns_per_byte
        } else {
            0.0
        };
        let insert = missing_groups
            * self
                .grid
                .cost_ns(HtOp::Insert, size as usize, cand.tuple_width as usize);
        let update = (missing_rows - missing_groups).max(0.0)
            * self
                .grid
                .cost_ns(HtOp::Update, size as usize, cand.tuple_width as usize);
        // Post-filtering groups that the request does not need (subsuming /
        // overlapping on group attributes); the output pass fans out over
        // the stored groups.
        let post = self.parallel(
            cand.entries * cand.overh * self.params.filter_ns,
            cand.entries,
        );
        resize + cow + insert + update + post
    }

    /// Admission score for publishing a fresh **join build**: the cycles
    /// one future exact reuse saves — the build-side share of `c_RHJ`
    /// (resize + inserts; the probe is paid either way) — per byte of the
    /// table's predicted footprint. The admission analogue of the GC's
    /// benefit/size weight.
    pub fn join_benefit_per_byte(&self, build_rows: f64, width: f64) -> f64 {
        benefit_per_byte(
            self.rhj_fresh(build_rows, width, 0.0),
            self.ht_size(build_rows, width),
        )
    }

    /// Admission score for publishing a fresh **aggregate**: a future exact
    /// reuse skips the whole `c_RHA` (aggregation is all build), per byte
    /// of the grouped table's predicted footprint.
    pub fn agg_benefit_per_byte(&self, input_rows: f64, distinct_groups: f64, width: f64) -> f64 {
        benefit_per_byte(
            self.rha_fresh(input_rows, distinct_groups, width),
            self.ht_size(distinct_groups.min(input_rows).max(1.0), width),
        )
    }

    /// Cost of emitting `rows` result rows.
    pub fn output(&self, rows: f64) -> f64 {
        rows * self.params.output_ns
    }
}

fn benefit_per_byte(benefit_ns: f64, bytes: f64) -> f64 {
    benefit_ns / bytes.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::synthetic()
    }

    #[test]
    fn fresh_join_cost_grows_with_inputs() {
        let m = model();
        let small = m.rhj_fresh(1_000.0, 32.0, 10_000.0);
        let large = m.rhj_fresh(100_000.0, 32.0, 1_000_000.0);
        assert!(large > small * 10.0);
    }

    #[test]
    fn exact_reuse_cheaper_than_fresh() {
        let m = model();
        let cand = CandidateShape {
            entries: 100_000.0,
            bytes: m.ht_size(100_000.0, 32.0),
            tuple_width: 32.0,
            contr: 1.0,
            overh: 0.0,
        };
        let reuse = m.rhj_reuse(&cand, 100_000.0, 1_000_000.0, 1_000_000.0);
        let fresh = m.rhj_fresh(100_000.0, 32.0, 1_000_000.0);
        assert!(
            reuse < fresh,
            "exact reuse skips the build: {reuse} < {fresh}"
        );
    }

    #[test]
    fn reuse_cost_monotone_in_contribution() {
        // Paper Figure 9a: as contribution falls, reuse cost rises.
        let m = model();
        let mut prev = f64::NEG_INFINITY;
        for contr_pct in (0..=100).rev().step_by(10) {
            let contr = contr_pct as f64 / 100.0;
            let cand = CandidateShape {
                entries: 100_000.0,
                bytes: m.ht_size(100_000.0, 32.0),
                tuple_width: 32.0,
                contr,
                overh: 1.0 - contr,
            };
            let c = m.rhj_reuse(&cand, 100_000.0, 1_000_000.0, 1_000_000.0);
            assert!(
                c >= prev,
                "cost must rise as contribution falls: contr={contr} cost={c} prev={prev}"
            );
            prev = c;
        }
    }

    #[test]
    fn always_share_crossover_exists() {
        // With low contribution the reuse cost must exceed the fresh cost —
        // the crossover the paper shows near 70% contribution (Fig 9a).
        let m = model();
        let fresh = m.rhj_fresh(100_000.0, 32.0, 1_000_000.0);
        let low = CandidateShape {
            entries: 100_000.0,
            bytes: m.ht_size(100_000.0, 32.0),
            tuple_width: 32.0,
            contr: 0.0,
            overh: 1.0,
        };
        let high = CandidateShape {
            contr: 1.0,
            overh: 0.0,
            ..low
        };
        assert!(m.rhj_reuse(&low, 100_000.0, 1_000_000.0, 1_000_000.0) > fresh);
        assert!(m.rhj_reuse(&high, 100_000.0, 1_000_000.0, 1_000_000.0) < fresh);
    }

    #[test]
    fn rha_fresh_distinguishes_insert_and_update() {
        let m = model();
        // Many groups ⇒ many inserts ⇒ more expensive than few groups.
        let many = m.rha_fresh(1_000_000.0, 500_000.0, 64.0);
        let few = m.rha_fresh(1_000_000.0, 100.0, 64.0);
        assert!(many > few);
    }

    #[test]
    fn rha_reuse_cheaper_with_full_contribution() {
        let m = model();
        let cand = CandidateShape {
            entries: 1_000.0,
            bytes: m.ht_size(1_000.0, 64.0),
            tuple_width: 64.0,
            contr: 1.0,
            overh: 0.0,
        };
        let reuse = m.rha_reuse(&cand, 1_000_000.0, 1_000.0);
        let fresh = m.rha_fresh(1_000_000.0, 1_000.0, 64.0);
        assert!(reuse < fresh * 0.05, "{reuse} vs {fresh}");
    }

    #[test]
    fn cow_copy_charged_to_mutating_reuse_only() {
        let m = model();
        let readonly = CandidateShape {
            entries: 1_000_000.0,
            bytes: m.ht_size(1_000_000.0, 32.0),
            tuple_width: 32.0,
            contr: 1.0,
            overh: 0.0,
        };
        let mutating = CandidateShape {
            contr: 0.999,
            ..readonly
        };
        let exact = m.rhj_reuse(&readonly, 1_000_000.0, 1_000.0, 1_000.0);
        let partial = m.rhj_reuse(&mutating, 1_000_000.0, 1_000.0, 1_000.0);
        // A near-exact partial reuse of a huge table still pays the O(table)
        // copy-on-write before inserting its tiny delta.
        let cow = readonly.bytes * m.params().cow_ns_per_byte;
        assert!(
            partial - exact >= cow * 0.99,
            "partial={partial} exact={exact} cow={cow}"
        );
        // Same for aggregates.
        let agg_exact = m.rha_reuse(&readonly, 0.0, 1_000.0);
        let agg_partial = m.rha_reuse(&mutating, 1_000.0, 1_000.0);
        assert!(agg_partial - agg_exact >= cow * 0.99);
    }

    #[test]
    fn parallel_workers_shrink_probe_and_scan_costs() {
        let serial = CostModel::synthetic();
        let par = CostModel::synthetic().with_parallelism(4);
        // One worker reproduces the serial model exactly.
        let one = CostModel::synthetic().with_parallelism(1);
        assert_eq!(
            one.rhj_fresh(100_000.0, 32.0, 1_000_000.0),
            serial.rhj_fresh(100_000.0, 32.0, 1_000_000.0)
        );
        // Probe-heavy joins and big scans get cheaper with workers…
        assert!(
            par.rhj_fresh(100_000.0, 32.0, 1_000_000.0)
                < serial.rhj_fresh(100_000.0, 32.0, 1_000_000.0)
        );
        assert!(par.scan(1_000_000.0) < serial.scan(1_000_000.0));
        // …but sub-morsel inputs keep the serial fast path.
        assert_eq!(par.scan(100.0), serial.scan(100.0));
        // Reuse probes are priced with the same parallel term, so the
        // reuse-vs-recompute comparison stays apples to apples.
        let cand = CandidateShape {
            entries: 100_000.0,
            bytes: serial.ht_size(100_000.0, 32.0),
            tuple_width: 32.0,
            contr: 1.0,
            overh: 0.0,
        };
        assert!(
            par.rhj_reuse(&cand, 100_000.0, 1_000_000.0, 1_000_000.0)
                < serial.rhj_reuse(&cand, 100_000.0, 1_000_000.0, 1_000_000.0)
        );
        assert!(
            par.rhj_reuse(&cand, 100_000.0, 1_000_000.0, 1_000_000.0)
                < par.rhj_fresh(100_000.0, 32.0, 1_000_000.0),
            "exact reuse still wins under parallel pricing"
        );
    }

    #[test]
    fn parallel_build_pricing() {
        let serial = model();
        let one = CostModel::synthetic().with_parallelism(1);
        let par = CostModel::synthetic().with_parallelism(4);
        // One worker reproduces the serial model exactly, builds included.
        assert_eq!(
            one.rhj_fresh(100_000.0, 32.0, 0.0),
            serial.rhj_fresh(100_000.0, 32.0, 0.0)
        );
        assert_eq!(
            one.rha_fresh(1_000_000.0, 50_000.0, 64.0),
            serial.rha_fresh(1_000_000.0, 50_000.0, 64.0)
        );
        // Big builds get cheaper with workers…
        assert!(par.rhj_fresh(100_000.0, 32.0, 0.0) < serial.rhj_fresh(100_000.0, 32.0, 0.0));
        assert!(
            par.rha_fresh(1_000_000.0, 50_000.0, 64.0)
                < serial.rha_fresh(1_000_000.0, 50_000.0, 64.0)
        );
        // …but below the executor's fan-out cutoff pricing stays serial…
        let small = (hashstash_exec::MIN_PARALLEL_BUILD_ROWS - 1) as f64;
        assert_eq!(
            par.rhj_fresh(small, 32.0, 0.0),
            serial.rhj_fresh(small, 32.0, 0.0)
        );
        // …and the serial stitch pass bounds the speedup (Amdahl).
        assert!(
            par.parallel_build(1e9, 100_000.0) >= 100_000.0 * par.params().build_merge_ns_per_row
        );
    }

    #[test]
    fn admission_benefit_reflects_parallel_build() {
        // A future reuse saves a *parallel* build on a parallel engine, so
        // the admission benefit must shrink with workers (same footprint).
        let serial = model();
        let par = CostModel::synthetic().with_parallelism(4);
        assert!(
            par.join_benefit_per_byte(100_000.0, 32.0)
                < serial.join_benefit_per_byte(100_000.0, 32.0)
        );
        assert!(
            par.agg_benefit_per_byte(1_000_000.0, 50_000.0, 64.0)
                < serial.agg_benefit_per_byte(1_000_000.0, 50_000.0, 64.0)
        );
        // An empty build still has a finite score.
        assert!(serial.join_benefit_per_byte(0.0, 0.0).is_finite());
    }

    #[test]
    fn vectorized_scan_pricing() {
        // The per-batch overhead keeps tiny scans from being priced as free.
        let m = model();
        assert!(m.scan(1.0) >= m.params().vec_batch_ns);
    }

    #[test]
    fn scan_and_aux_costs_positive() {
        let m = model();
        assert!(m.scan(100.0) > 0.0);
        assert!(m.index_scan(100.0) > m.scan(100.0));
        assert!(m.output(10.0) > 0.0);
        assert!(m.ht_size(1000.0, 32.0) > 1000.0 * 32.0);
    }
}
