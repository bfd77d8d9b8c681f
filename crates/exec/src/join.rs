//! Hash joins: the build side's table, the probe, and the join chain a
//! consumer reads in place.
//!
//! A join table is a [`ColumnHt`]: the hash table holds the keys, and the
//! payload sits beside it as typed columns in arena order, which a build
//! gathers straight from its input (a batch's base columns, a join chain's
//! positions, or rows' values) without building a row. The probe does not
//! build rows either: it emits `(probe position, arena position)` match
//! pairs, after filtering each chunk's keys into candidates through the
//! directory's tag filter — or, for an `Int` or `Date` probe key over a
//! table whose key span a bitmap covers cheaply, through the exact key
//! pre-filter ([`KeyBitmap`]).
//!
//! The pairs turn the join's output into a join chain ([`Joined`]): the
//! innermost join's probe-side pipe, the chain's tables innermost first,
//! and one position column per source. A join whose probe side is a join
//! probes that chain and extends it by one table and one position column,
//! so a multi-way join builds no row between pipeline breakers. A consumer
//! reads the chain in place (`JoinTuples`): an outer probe hashes its key
//! cells, an aggregate folds it, a build side appends its cells, and only a
//! consumer that needs rows builds each once.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use hashstash_types::{DataType, HsError, Result, Row, Schema, Value};

use hashstash_cache::{CheckedOut, ColumnHt, StoredHt};
use hashstash_hashtable::KeyBitmap;
use hashstash_plan::PredBox;
use hashstash_storage::{Column, ZoneMap};

use crate::exec::{
    run_input, widened_recovery_filter, BatchTuples, BoxEval, ExecContext, Input, Pipe, RowTuples,
    Tuples,
};
use crate::parallel::{
    build_multimap_partitioned, collect_morsels, morsel_count, Scheduler, MIN_PARALLEL_BUILD_ROWS,
    MORSEL_ROWS,
};
use crate::plan::{PhysicalPlan, ReuseSpec};

/// A join chain's output read in place: column `c` of tuple `i` is read at
/// position `i` of the position column of the source `c` comes from — the
/// base pipe's tuples, or one table's arena. The aggregate fold, a build
/// side, an outer probe and [`Joined::rows`] read a chain this way, at any
/// depth through a single indirection, so no `probe ++ build` row is ever
/// built for them.
pub(crate) struct JoinTuples<'a, P> {
    base: &'a P,
    len: usize,
    /// Per output column: the positions it is read at, and where.
    cols: Vec<(&'a [u32], Side<'a>)>,
    key_cols: &'a [usize],
}

/// Where a join output column comes from.
enum Side<'a> {
    /// A column of the base pipe's tuples.
    Base(usize),
    /// A payload column of one of the chain's tables.
    Table(&'a Column),
}

impl<'a, P: Tuples> JoinTuples<'a, P> {
    /// `joined`'s output over its base pipe's tuples `base`, hashed over
    /// `key_cols`.
    pub(crate) fn new(joined: &'a Joined<'_>, base: &'a P, key_cols: &'a [usize]) -> Self {
        let cols = joined
            .cols
            .iter()
            .map(|&(source, c)| {
                let side = match source.checked_sub(1) {
                    None => Side::Base(c),
                    Some(t) => Side::Table(&joined.tables[t].table.read_table().columns()[c]),
                };
                (joined.pos[source].as_slice(), side)
            })
            .collect();
        JoinTuples {
            base,
            len: joined.len(),
            cols,
            key_cols,
        }
    }

    /// Where column `col` of tuple `i` is: a position in its source, and
    /// the source.
    #[inline]
    fn at(&self, i: usize, col: usize) -> (usize, &Side<'a>) {
        let (pos, side) = &self.cols[col];
        (pos[i] as usize, side)
    }

    /// Tuple `i` as a row.
    fn row(&self, i: usize) -> Row {
        Row::new(
            (0..self.cols.len())
                .map(|c| self.cell(i, c).into_owned())
                .collect(),
        )
    }
}

impl<P: Tuples> Tuples for JoinTuples<'_, P> {
    fn len(&self) -> usize {
        self.len
    }

    fn key_cols(&self) -> &[usize] {
        self.key_cols
    }

    #[inline]
    fn cell_key64(&self, i: usize, col: usize) -> u64 {
        match self.at(i, col) {
            (at, Side::Table(c)) => c.key64(at),
            (p, Side::Base(c)) => self.base.cell_key64(p, *c),
        }
    }

    #[inline]
    fn cell_eq_at(&self, i: usize, col: usize, other: &Column, other_at: usize) -> bool {
        match self.at(i, col) {
            (at, Side::Table(c)) => c.eq_at(at, other, other_at),
            (p, Side::Base(c)) => self.base.cell_eq_at(p, *c, other, other_at),
        }
    }

    #[inline]
    fn cell(&self, i: usize, col: usize) -> Cow<'_, Value> {
        match self.at(i, col) {
            (at, Side::Table(c)) => Cow::Owned(c.get(at)),
            (p, Side::Base(c)) => self.base.cell(p, *c),
        }
    }

    /// Gathered per source: a table's column through the chain's positions
    /// in its arena, a base column through the base positions.
    fn append_column(&self, col: usize, dst: &mut Column) -> bool {
        match &self.cols[col] {
            (pos, Side::Table(c)) => dst.extend_from(c, pos.iter().map(|&at| at as usize)),
            (pos, Side::Base(c)) => self.base.append_column_at(*c, pos, dst),
        }
    }
}

/// A row table — the build side of a hash join, or a shared plan's
/// grouping table: either a freshly built local table or an RAII guard over
/// a reused cached table (shared snapshot for read-only reuse,
/// copy-on-write for delta insertion).
pub(crate) enum RowTable<'m> {
    Fresh(ColumnHt),
    Reused(CheckedOut<'m>),
    /// A mutating reuse that has already been checked back in: the writer
    /// pin is released and readers see this immutable snapshot.
    Snapshot(Arc<StoredHt>),
}

impl<'m> RowTable<'m> {
    /// An empty table for tuples of `schema`.
    pub(crate) fn fresh(schema: &Schema) -> Self {
        let types: Vec<DataType> = schema.fields().iter().map(|f| f.dtype).collect();
        RowTable::Fresh(ColumnHt::new(schema.tuple_width(), &types))
    }

    /// Check out the table a reuse directive names, verifying it holds rows.
    pub(crate) fn checkout(ctx: &mut ExecContext<'m>, spec: &ReuseSpec) -> Result<CheckedOut<'m>> {
        let co = ctx.checkout_for(spec)?;
        ctx.metrics.reused_tables += 1;
        if !matches!(co.table(), StoredHt::Rows(_)) {
            return Err(HsError::ExecError(format!(
                "{} is not a row hash table",
                spec.id
            )));
        }
        Ok(co)
    }

    pub(crate) fn read_table(&self) -> &ColumnHt {
        let stored = match self {
            RowTable::Fresh(t) => return t,
            RowTable::Reused(co) => co.table(),
            RowTable::Snapshot(s) => s,
        };
        match stored {
            StoredHt::Rows(t) => t,
            _ => unreachable!("kind verified at checkout"),
        }
    }

    pub(crate) fn write_table(&mut self) -> Result<&mut ColumnHt> {
        match self {
            RowTable::Fresh(t) => Ok(t),
            RowTable::Reused(co) => match co.table_mut()? {
                StoredHt::Rows(t) => Ok(t),
                _ => unreachable!("kind verified at checkout"),
            },
            RowTable::Snapshot(_) => unreachable!("mutation precedes check-in"),
        }
    }

    /// Hand the table back to the manager: a fresh table is published under
    /// `publish` (if any); dropping a read-only guard releases its pin, and
    /// a mutating reuse was already checked in.
    pub(crate) fn finish(
        self,
        ctx: &ExecContext<'_>,
        publish: Option<&hashstash_plan::HtFingerprint>,
        schema: Schema,
    ) {
        if let (RowTable::Fresh(ht), Some(fp)) = (self, publish) {
            ctx.htm
                .publish_as(ctx.tenant, fp.clone(), schema, StoredHt::Rows(ht));
        }
    }

    /// After a mutating reuse inserted its delta: publish the new version
    /// (widened lineage) right away so the writer pin is not held while the
    /// table is read, and keep a cheap snapshot of it. Other states pass
    /// through unchanged.
    pub(crate) fn checked_in(self, spec: &ReuseSpec) -> Result<Self> {
        match self {
            RowTable::Reused(co) if spec.case.needs_delta() => Ok(RowTable::Snapshot(
                co.checkin_widened(&spec.request_region)?,
            )),
            other => Ok(other),
        }
    }
}

/// Append `input`'s tuples to `table`, keyed on its key columns, in input
/// order: each payload column is gathered straight from the source (a
/// batch's base columns, or the rows' values), so no row is built. With
/// `partitioned` (fresh tables only) key extraction fans out over morsels
/// and chain construction over bucket ranges; the stitched table is `==`
/// to the serial loop's (same arena, chains and stats), so probe output,
/// fingerprints and publish dedup do not depend on the worker count. The
/// serial loop is also the only path for mutating-reuse deltas, which
/// append to an existing table.
fn insert_tuples<T: Tuples>(
    sched: Scheduler<'_>,
    table: &mut ColumnHt,
    input: &T,
    partitioned: bool,
) -> Result<()> {
    let n = input.len();
    let keys: Vec<u64> = collect_morsels(sched, n, |range| {
        let mut keys = Vec::with_capacity(range.len());
        input.keys_into(range, &mut keys);
        keys
    });
    table.append(
        n,
        |c, col| input.append_column(c, col),
        |index| {
            if partitioned {
                build_multimap_partitioned(sched, index, keys, vec![(); n]);
            } else {
                index.reserve(n);
                for key in keys {
                    index.insert(key, ());
                }
            }
        },
    )?;
    table.shrink_to_fit();
    Ok(())
}

/// One table of a join chain, and what handing it back needs.
pub(crate) struct ChainTable<'m> {
    table: RowTable<'m>,
    schema: Schema,
    publish: Option<hashstash_plan::HtFingerprint>,
}

/// A chain of hash joins whose probes have run: the innermost join's probe
/// side (the base pipe), the tables each join probed, and per output tuple
/// one position in every source — everything a consumer needs to read the
/// output without it being materialized. An outer join probes the chain in
/// place and extends it by one table and one position column.
pub(crate) struct Joined<'m> {
    /// Output schema.
    pub(crate) schema: Schema,
    /// Output column `c` is column `cols[c].1` of source `cols[c].0`:
    /// source 0 is the base pipe, source `1 + t` is `tables[t]`.
    pub(crate) cols: Vec<(usize, usize)>,
    /// The innermost join's probe-side tuples.
    pub(crate) base: Pipe,
    /// The chain's tables, innermost first.
    tables: Vec<ChainTable<'m>>,
    /// One position column per source, each with one entry per output
    /// tuple, in output order: base tuple positions, then arena positions
    /// in each table.
    pos: Vec<Vec<u32>>,
}

/// Run `$body` with `$t` bound to the [`JoinTuples`] view of `$joined`,
/// hashed over `$key_cols` — one monomorphized copy per base-pipe arm.
macro_rules! with_join_tuples {
    ($joined:expr, $key_cols:expr, |$t:ident| $body:expr) => {{
        let joined = $joined;
        match &joined.base {
            $crate::exec::Pipe::Rows(rows) => {
                let base = &$crate::exec::RowTuples {
                    rows,
                    key_cols: &[],
                };
                let $t = &$crate::join::JoinTuples::new(joined, base, $key_cols);
                $body
            }
            $crate::exec::Pipe::Columnar(batch) => {
                let base = &$crate::exec::BatchTuples::new(batch, &[]);
                let $t = &$crate::join::JoinTuples::new(joined, base, $key_cols);
                $body
            }
        }
    }};
}
pub(crate) use with_join_tuples;

impl<'m> Joined<'m> {
    /// The join of `input` with `table`, from the probe's match pairs
    /// `(input position, arena position)` in output order. A pipe becomes
    /// the base of a new chain; a chain composes its positions through the
    /// pairs and takes `table` as its outermost.
    fn probed(input: Input<'m>, pairs: Vec<(u32, u32)>, table: ChainTable<'m>) -> Self {
        let (mut joined, arena) = match input {
            Input::Pipe(schema, base) => {
                let (at_base, arena) = pairs.into_iter().unzip();
                let joined = Joined {
                    cols: (0..schema.len()).map(|c| (0, c)).collect(),
                    schema,
                    base,
                    tables: Vec::new(),
                    pos: vec![at_base],
                };
                (joined, arena)
            }
            Input::Join(inner) => {
                let mut joined = *inner;
                joined.pos = joined
                    .pos
                    .iter()
                    .map(|pos| pairs.iter().map(|&(i, _)| pos[i as usize]).collect())
                    .collect();
                (joined, pairs.iter().map(|&(_, at)| at).collect())
            }
        };
        let source = joined.pos.len();
        joined
            .cols
            .extend((0..table.schema.len()).map(|c| (source, c)));
        joined.schema = joined.schema.concat(&table.schema);
        joined.pos.push(arena);
        joined.tables.push(table);
        joined
    }

    /// Number of output tuples.
    pub(crate) fn len(&self) -> usize {
        self.pos[0].len()
    }

    /// The output as rows, each built once from its positions.
    pub(crate) fn rows(&self, sched: Scheduler<'_>) -> Vec<Row> {
        with_join_tuples!(self, &[], |t| {
            collect_morsels(sched, t.len(), |range| range.map(|i| t.row(i)).collect())
        })
    }

    /// Hand every table of the chain back, innermost first (publishing the
    /// fresh ones): the order in which the joins would have finished one by
    /// one, since probes publish nothing.
    pub(crate) fn finish(self, ctx: &ExecContext<'_>) {
        for t in self.tables {
            t.table.finish(ctx, t.publish.as_ref(), t.schema);
        }
    }
}

/// Build (or check out and extend) a hash join's table and probe it,
/// returning the match pairs; the table is handed back by
/// [`Joined::finish`] once the consumer has read the output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_hash_join<'m>(
    ctx: &mut ExecContext<'m>,
    probe: &PhysicalPlan,
    build: &Option<Box<PhysicalPlan>>,
    probe_key: &Arc<str>,
    build_key: &Arc<str>,
    reuse: &Option<ReuseSpec>,
    publish: &Option<hashstash_plan::HtFingerprint>,
) -> Result<Joined<'m>> {
    // --- Build phase -------------------------------------------------------
    let mut recovery_filter: Option<PredBox> = None;
    let (build_schema, mut source) = match reuse {
        Some(spec) => {
            let co = RowTable::checkout(ctx, spec)?;
            if !spec.case.needs_delta() {
                recovery_filter = widened_recovery_filter(spec, &co)?;
            }
            ((*co.schema).clone(), RowTable::Reused(co))
        }
        None => {
            let build_plan = build.as_ref().ok_or_else(|| {
                HsError::ExecError("hash join without build plan or reuse".into())
            })?;
            let schema = build_plan.schema(ctx.catalog)?;
            let table = RowTable::fresh(&schema);
            (schema, table)
        }
    };
    let build_key_idx = build_schema.index_of(build_key)?;

    // Insert the build sub-plan's tuples: all of them for a fresh table,
    // only the delta for partial/overlapping reuse (copy-on-write on the
    // checked-out handle).
    if let Some(build_plan) = build {
        if reuse.is_none() || reuse.as_ref().is_some_and(|r| r.case.needs_delta()) {
            let input = run_input(build_plan, ctx)?;
            if input.schema() != &build_schema {
                return Err(HsError::ExecError(format!(
                    "build schema mismatch: expected {build_schema:?}, got {:?}",
                    input.schema()
                )));
            }
            ctx.metrics.ht_inserts += input.len() as u64;
            let partitioned =
                reuse.is_none() && ctx.parallelism > 1 && input.len() >= MIN_PARALLEL_BUILD_ROWS;
            let sched = ctx.sched();
            let target = source.write_table()?;
            let key_cols = &[build_key_idx];
            match &input {
                Input::Pipe(_, Pipe::Rows(rows)) => {
                    insert_tuples(sched, target, &RowTuples { rows, key_cols }, partitioned)?
                }
                Input::Pipe(_, Pipe::Columnar(batch)) => {
                    let input = BatchTuples::new(batch, key_cols);
                    insert_tuples(sched, target, &input, partitioned)?
                }
                Input::Join(joined) => with_join_tuples!(joined, key_cols, |t| {
                    insert_tuples(sched, target, t, partitioned)?
                }),
            }
            if let Input::Join(joined) = input {
                joined.finish(ctx);
            }
            if reuse.is_none() {
                ctx.metrics.built_tables += 1;
            }
        }
    } else if reuse.is_none() {
        return Err(HsError::ExecError(
            "hash join with neither build plan nor reuse".into(),
        ));
    }

    // A mutating reuse is complete once the delta is inserted.
    if let Some(spec) = reuse {
        source = source.checked_in(spec)?;
    }

    // --- Probe phase (read-only: no lock, shared with other sessions) ------
    let probe_input = run_probe_side(probe, ctx)?;
    let probe_schema = probe_input.schema();
    let probe_key_idx = probe_schema.index_of(probe_key)?;
    let key_type = probe_schema.field_at(probe_key_idx).dtype;
    // Planned post-filter (subsuming/overlapping reuse) plus the recovery
    // filter compensating for a concurrently widened cached table.
    let mut post_filters: Vec<BoxEval> = Vec::new();
    if let Some(pf) = reuse.as_ref().and_then(|r| r.post_filter.as_ref()) {
        post_filters.push(BoxEval::bind(pf, &build_schema)?);
    }
    if let Some(rf) = &recovery_filter {
        post_filters.push(BoxEval::bind(rf, &build_schema)?);
    }
    ctx.metrics.ht_probes += probe_input.len() as u64;
    let table = source.read_table();
    let exact = exact_prefilter(table, key_type, probe_input.len());
    let probe = Probe {
        table,
        build_key_idx,
        post_filters: &post_filters,
        exact: exact.as_ref(),
    };
    let key_cols = &[probe_key_idx];
    let sched = ctx.sched();
    let pairs = match &probe_input {
        Input::Pipe(_, Pipe::Rows(rows)) => probe.pairs(sched, &RowTuples { rows, key_cols }),
        Input::Pipe(_, Pipe::Columnar(batch)) => {
            ctx.metrics.batches_processed += morsel_count(batch.sel.len()) as u64;
            probe.pairs(sched, &BatchTuples::new(batch, key_cols))
        }
        // Like a row probe, a chain probe counts no batches.
        Input::Join(inner) => with_join_tuples!(inner, key_cols, |t| probe.pairs(sched, t)),
    };

    let table = ChainTable {
        table: source,
        schema: build_schema,
        publish: publish.clone(),
    };
    Ok(Joined::probed(probe_input, pairs, table))
}

/// Run a join's probe side: a join there arrives as its chain, which the
/// join probes in place. The row oracle instead probes the join's rows,
/// the way every join did before chains, so differential tests compare the
/// two.
fn run_probe_side<'m>(plan: &PhysicalPlan, ctx: &mut ExecContext<'m>) -> Result<Input<'m>> {
    #[cfg(any(test, feature = "oracle"))]
    if ctx.row_oracle {
        let (schema, pipe) = crate::exec::run(plan, ctx)?;
        return Ok(Input::Pipe(schema, pipe));
    }
    run_input(plan, ctx)
}

/// The exact key pre-filter for a probe of `probe_tuples` tuples on a key
/// of type `key_type`: a bitmap over `[min, max]` of the table's keys
/// ([`KeyBitmap`]), worth building once per probe phase when the key is an
/// integer or a date (its own hash key), the probe has at least as many
/// tuples as the table has entries, and the bitmap needs no more words than
/// the probe has tuples. Otherwise `None`: the tag filter decides.
pub(crate) fn exact_prefilter(
    table: &ColumnHt,
    key_type: DataType,
    probe_tuples: usize,
) -> Option<KeyBitmap> {
    let integer = matches!(key_type, DataType::Int | DataType::Date);
    if !integer || probe_tuples < table.len() {
        return None;
    }
    table.index().key_bitmap(probe_tuples)
}

/// One probe phase against a join table: what decides a match.
pub(crate) struct Probe<'a> {
    pub(crate) table: &'a ColumnHt,
    pub(crate) build_key_idx: usize,
    pub(crate) post_filters: &'a [BoxEval],
    /// The exact pre-filter, when one was built; else the tag filter.
    pub(crate) exact: Option<&'a KeyBitmap>,
}

impl Probe<'_> {
    /// Probe with every input tuple on its (single) key column,
    /// morsel-parallel, emitting `(probe position, arena position)` match
    /// pairs in output order: input order, and chain order within a tuple.
    /// Per morsel-sized chunk: gather the keys (one typed loop for a
    /// columnar source), filter them into a candidate list — exactly, with
    /// the pre-filter, or through the directory's tag filter (one 2-byte
    /// load per key) — then walk chains for the candidates only, comparing
    /// the actual key cells (hash keys of strings may collide).
    ///
    /// A dense base-table input with the exact pre-filter first lists,
    /// serially, the blocks of its key column's zone map whose `[min, max]`
    /// holds a key of the table, and runs the phase over those blocks'
    /// tuples only: no other tuple can match, so the pairs are the same,
    /// and the phase's size — which decides whether it fans out — is the
    /// work left after skipping.
    pub(crate) fn pairs<T: Tuples>(&self, sched: Scheduler<'_>, input: &T) -> Vec<(u32, u32)> {
        let probe_key_idx = input.key_cols()[0];
        let live = self
            .exact
            .zip(input.zone_map(probe_key_idx))
            .map(|(bitmap, zones)| {
                zones.live_blocks(|lo, hi| {
                    // A block whose keys spread over more than `SPAN_WORDS`
                    // words of the bitmap is probed unchecked: bounds the cost
                    // of listing a shuffled column.
                    const SPAN_WORDS: u64 = 16;
                    hi.abs_diff(lo) >= SPAN_WORDS * 64 || bitmap.any_in(lo, hi)
                })
            });
        let Some(blocks) = live else {
            return collect_morsels(sched, input.len(), |range| {
                let mut chunk = ProbeChunk::new();
                for start in range.clone().step_by(MORSEL_ROWS) {
                    self.probe_rows(
                        input,
                        start..(start + MORSEL_ROWS).min(range.end),
                        &mut chunk,
                    );
                }
                chunk.pairs
            });
        };
        // The phase runs over `BLOCK` tuples per live block: morsels are
        // whole blocks, and runs of adjacent live blocks probe as one chunk.
        const BLOCK: usize = ZoneMap::BLOCK_ROWS;
        collect_morsels(sched, blocks.len() * BLOCK, |range| {
            let mut chunk = ProbeChunk::new();
            let blocks = &blocks[range.start / BLOCK..range.end.div_ceil(BLOCK)];
            let mut run = 0;
            while run < blocks.len() {
                let mut end = run + 1;
                while end < blocks.len()
                    && blocks[end] == blocks[end - 1] + 1
                    && (end - run) * BLOCK < MORSEL_ROWS
                {
                    end += 1;
                }
                let first = blocks[run] as usize * BLOCK;
                let last = (blocks[end - 1] as usize + 1) * BLOCK;
                self.probe_rows(input, first..last.min(input.len()), &mut chunk);
                run = end;
            }
            chunk.pairs
        })
    }

    /// Probe the tuples `rows` of `input`, appending their match pairs to
    /// `chunk.pairs` in order.
    fn probe_rows<T: Tuples>(&self, input: &T, rows: Range<usize>, chunk: &mut ProbeChunk) {
        let probe_key_idx = input.key_cols()[0];
        let index = self.table.index();
        let key_col = &self.table.columns()[self.build_key_idx];
        let ProbeChunk {
            keys,
            candidates,
            pairs,
        } = chunk;
        keys.clear();
        candidates.clear();
        input.keys_into(rows.clone(), keys);
        match self.exact {
            Some(bitmap) => bitmap.filter_keys(keys, candidates),
            None => index.filter_keys(keys, candidates),
        }
        for &c in candidates.iter() {
            let i = rows.start + c as usize;
            for at in index.probe_positions(keys[c as usize]) {
                if input.cell_eq_at(i, probe_key_idx, key_col, at)
                    && self
                        .post_filters
                        .iter()
                        .all(|pf| pf.eval_at(self.table.columns(), at))
                {
                    pairs.push((i as u32, at as u32));
                }
            }
        }
    }
}

/// One participant's buffers for [`Probe::probe_rows`]: a chunk's keys and
/// candidates, and the pairs found so far.
struct ProbeChunk {
    keys: Vec<u64>,
    candidates: Vec<u32>,
    pairs: Vec<(u32, u32)>,
}

impl ProbeChunk {
    fn new() -> Self {
        ProbeChunk {
            keys: Vec::with_capacity(MORSEL_ROWS),
            candidates: Vec::with_capacity(MORSEL_ROWS),
            pairs: Vec::new(),
        }
    }
}
