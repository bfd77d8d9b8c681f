//! The morsel-parallel plan interpreter.
//!
//! Each query runs on its own thread against a shared [`HtManager`]: the
//! interpreter holds no cache lock during execution. Reused tables are
//! [`CheckedOut`] RAII guards — read-only reuse probes a shared `Arc`
//! snapshot, mutating reuse copies-on-write and publishes at check-in, and
//! any error path (or panic) releases the guard instead of stranding the
//! cached table.
//!
//! Within one query, the hot loops — base-table scan filtering, hash-join
//! probing, and the post-filter pass over reused tables — are split into
//! row-range morsels and fanned out over [`ExecContext::parallelism`]
//! workers (see [`crate::parallel`]). Output is concatenated in morsel
//! order, so results are bit-identical to the serial interpreter
//! (`parallelism = 1`). Fresh *builds* fan out too, but partitioned by
//! bucket / key rather than by morsel: insertion order defines the
//! collision-chain order that probe output (and the cached table's layout)
//! depends on, so workers compute disjoint partitions of the serial chain
//! structure and a serial stitch installs it — parallel-built tables are
//! `==` to serially built ones, and publish into the reuse cache with
//! identical fingerprints and footprints. Mutating-reuse delta inserts stay
//! serial (they append to an existing table); the cost model prices both
//! regimes.
//!
//! Between operators, data flows as a [`ColumnarBatch`] (a selection over
//! a table's columns) or, out of a hash join, as a join chain (see the
//! `join` module) that the next join's probe, a build side or an aggregate
//! fold reads in place. No operator builds a `Row`: a consumer that needs
//! a whole result — a union, a join that feeds the reply or a
//! `Materialize` — gathers its typed columns into one table, and an
//! aggregate emits its groups as columns. Rows exist only at the
//! in-process edge, when a caller derefs a [`ResultRows`].

use std::collections::HashMap;
use std::ops::{Bound, Range};
use std::sync::Arc;

use hashstash_types::{
    f64_order_key, key64_combine, DataType, HsError, HtId, Result, Schema, Value, KEY64_SEED,
};

use hashstash_cache::{AggHt, AggState, CheckedOut, ColumnHt, HtManager, StoredHt, TenantId};
use hashstash_plan::{AggFunc, Interval, PredBox};
use hashstash_storage::{cross_type_order, Catalog, Column, RangeKernel, Table, ZoneMap};

use crate::join::{run_hash_join, JoinTuples, Joined};
use crate::parallel::{
    collect_morsels, default_parallelism, group_ids_partitioned, morsel_count, Scheduler,
    MIN_PARALLEL_BUILD_ROWS,
};
use crate::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use crate::pool::WorkerPool;
use crate::result::ResultRows;
use crate::vector::{self, ColumnarBatch, KeyKernel, Selection};

/// Operation counters collected during execution. These are the observables
/// the paper's cost models predict (tuples inserted / probed / updated,
/// paper §3.2), so tests can validate estimator accuracy directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Base-table tuples visited by scans (full or delta).
    pub rows_scanned: u64,
    /// Tuples located through a secondary index instead of a full scan.
    pub index_rows: u64,
    /// Hash-table inserts (join build + aggregate first-of-group).
    pub ht_inserts: u64,
    /// Hash-table probe lookups.
    pub ht_probes: u64,
    /// Aggregate in-place updates.
    pub ht_updates: u64,
    /// Rows emitted by the plan root.
    pub rows_output: u64,
    /// Rows copied into temp tables (materialization-based baseline).
    pub materialized_rows: u64,
    /// Cached hash tables reused.
    pub reused_tables: u64,
    /// Hash tables built from scratch.
    pub built_tables: u64,
    /// Selection-vector batches processed (one per morsel of a scan, or of
    /// a probe or aggregate fold over a batch; a probe or fold over a join
    /// chain counts none). Always a pure function of the input sizes —
    /// never of the worker count — so parallel runs stay metric-identical
    /// to serial ones.
    pub batches_processed: u64,
    /// Rows removed by a scan's selection kernels.
    pub rows_filtered_vectorized: u64,
}

impl ExecMetrics {
    /// Merge counters from another execution.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.rows_scanned += other.rows_scanned;
        self.index_rows += other.index_rows;
        self.ht_inserts += other.ht_inserts;
        self.ht_probes += other.ht_probes;
        self.ht_updates += other.ht_updates;
        self.rows_output += other.rows_output;
        self.materialized_rows += other.materialized_rows;
        self.reused_tables += other.reused_tables;
        self.built_tables += other.built_tables;
        self.batches_processed += other.batches_processed;
        self.rows_filtered_vectorized += other.rows_filtered_vectorized;
    }
}

/// Execution context threading the catalog, the Hash Table Manager (which
/// also holds the materialization baseline's temp tables) and metrics
/// through the tree.
///
/// The cache is sharded and `&self`-concurrent, so it is shared by plain
/// reference — no mutex anywhere on the executor's path.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub htm: &'a HtManager,
    pub metrics: ExecMetrics,
    /// Worker threads for morsel-parallel operator loops. `1` is the serial
    /// interpreter; any value produces bit-identical output (morsel-order
    /// concatenation), so this is purely a throughput knob.
    pub parallelism: usize,
    /// The persistent worker pool parallel phases borrow workers from.
    /// Engines pass their `Database`-owned pool (shared across sessions);
    /// without one, every phase runs inline on the calling thread.
    pool: Option<&'a WorkerPool>,
    /// The tenant this execution publishes on behalf of: every hash table
    /// or temp table materialized by the plan is owned by this tenant in
    /// the reuse cache ([`TenantId::DEFAULT`] for single-tenant
    /// embedders).
    pub tenant: TenantId,
    /// Checkout guards acquired by the session *before* execution started
    /// (so a table the optimizer picked cannot be evicted in between).
    /// Operators consume them by id; reuse specs without a pre-acquired
    /// guard fall back to checking out directly.
    checkouts: HashMap<HtId, CheckedOut<'a>>,
}

impl<'a> ExecContext<'a> {
    /// Fresh context. Parallelism defaults to the `PARALLELISM` environment
    /// variable (or `1` — the serial interpreter) so an entire test suite
    /// can be re-run N-way; engines override it explicitly via
    /// [`ExecContext::with_parallelism`].
    pub fn new(catalog: &'a Catalog, htm: &'a HtManager) -> Self {
        ExecContext {
            catalog,
            htm,
            metrics: ExecMetrics::default(),
            parallelism: default_parallelism(),
            pool: None,
            tenant: TenantId::DEFAULT,
            checkouts: HashMap::new(),
        }
    }

    /// Set the morsel-parallel worker count (`1` = serial).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Run parallel phases on `pool` instead of inline on the caller.
    /// Engines pass their `Database`-owned pool so every session of the
    /// database shares one set of workers.
    pub fn with_pool(mut self, pool: &'a WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attribute everything this execution publishes to `tenant`.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The scheduler parallel phases run under: this context's worker
    /// count, on its pool.
    pub fn sched(&self) -> Scheduler<'a> {
        Scheduler {
            parallelism: self.parallelism,
            pool: self.pool,
        }
    }

    /// Hand the context a checkout guard acquired ahead of execution.
    pub fn adopt_checkout(&mut self, co: CheckedOut<'a>) {
        self.checkouts.insert(co.id, co);
    }

    /// Acquire the guard for a reuse directive: a pre-acquired guard if the
    /// session pinned one of the matching mode, otherwise a direct
    /// (validated) checkout.
    pub(crate) fn checkout_for(&mut self, spec: &ReuseSpec) -> Result<CheckedOut<'a>> {
        if let Some(co) = self.checkouts.remove(&spec.id) {
            if co.is_exclusive() == spec.case.needs_delta() {
                return Ok(co);
            }
            // Wrong mode: keep the pre-acquired guard for a later operator
            // and fall through to a direct checkout.
            self.checkouts.insert(spec.id, co);
        }
        checkout_spec(self.htm, spec)
    }
}

/// Acquire checkout guards for every reuse directive in a plan, in plan
/// order. Sessions call this between optimization and execution: it is the
/// only moment a chosen candidate can turn out to be gone (evicted or
/// write-locked by a concurrent session), reported as a `CacheError` the
/// caller handles by re-planning.
pub fn acquire_plan_checkouts<'a>(
    plan: &PhysicalPlan,
    htm: &'a HtManager,
) -> Result<Vec<CheckedOut<'a>>> {
    acquire_checkouts(&plan.reuse_specs(), htm)
}

/// [`acquire_plan_checkouts`] over an explicit list of reuse directives —
/// e.g. a shared plan's join chain plus its grouping tables
/// ([`crate::shared::SharedPlanSpec::reuse_specs`]).
pub fn acquire_checkouts<'a>(
    specs: &[&ReuseSpec],
    htm: &'a HtManager,
) -> Result<Vec<CheckedOut<'a>>> {
    // The same table may legitimately serve two *read-only* operators (one
    // guard suffices; operators past the first fall back to a direct shared
    // checkout). A duplicate involving mutation cannot work — the first
    // operator's check-in widens the lineage out from under the second's
    // plan — so fail fast here (→ re-plan) instead of mid-execution.
    for (i, a) in specs.iter().enumerate() {
        for b in &specs[..i] {
            if a.id == b.id && (a.case.needs_delta() || b.case.needs_delta()) {
                return Err(HsError::CacheError(format!(
                    "{} reused twice in one plan with mutation",
                    a.id
                )));
            }
        }
    }
    let mut out = Vec::new();
    for &spec in specs {
        if out.iter().any(|co: &CheckedOut<'_>| co.id == spec.id) {
            continue;
        }
        out.push(checkout_spec(htm, spec)?);
    }
    Ok(out)
}

/// Check out the table a reuse directive names — shared for read-only
/// cases, exclusive when the case mutates — and validate its lineage
/// against what the optimizer planned. A concurrent session may have
/// widened the table's region (partial reuse) in the window since planning:
///
/// * a **mutating** reuse cannot survive that — its delta scan was computed
///   against the planned region — so the widening surfaces as a
///   `CacheError` and the session re-plans;
/// * a **read-only** (exact/subsuming) reuse still has everything it needs
///   as long as the widened region covers the request. The checkout is
///   accepted and the executor compensates with a recovery post-filter
///   ([`widened_recovery_filter`]) instead of throwing the plan away.
fn checkout_spec<'m>(htm: &'m HtManager, spec: &ReuseSpec) -> Result<CheckedOut<'m>> {
    if spec.case.needs_delta() {
        htm.checkout_mut_expecting(spec.id, &spec.cached_region)
    } else {
        htm.checkout_covering(spec.id, &spec.request_region)
    }
}

/// Recovery post-filter for a read-only reuse whose cached table was
/// widened between planning and checkout: the planned exact (or subsuming)
/// classification is re-classified **in place** as a subsuming match
/// against the widened lineage, by filtering stored tuples down to the
/// request region. Sound because box membership is fully determined by the
/// box's constrained attributes: a tuple passing every request constraint
/// lies in the request region, which the planned (narrower) lineage already
/// covered — so no widening-delta tuple can slip through, and completeness
/// follows from the covering check at checkout.
///
/// Returns `None` when the lineage is unchanged (the common case). Fails
/// with a `CacheError` — handled by the session as an ordinary re-plan —
/// when the request region is not a single box or constrains an attribute
/// the stored payload lacks (then no in-place filter can compensate).
pub(crate) fn widened_recovery_filter(
    spec: &ReuseSpec,
    co: &CheckedOut<'_>,
) -> Result<Option<PredBox>> {
    if co.fingerprint.region.set_eq(&spec.cached_region) {
        return Ok(None);
    }
    let boxes = spec.request_region.boxes();
    let [request_box] = boxes else {
        return Err(HsError::CacheError(format!(
            "{} widened since planning and the request region is not a single box",
            spec.id
        )));
    };
    for (attr, _) in request_box.constrained() {
        if co.schema.index_of(attr).is_err() {
            return Err(HsError::CacheError(format!(
                "{} widened since planning and payload lacks {attr} for recovery",
                spec.id
            )));
        }
    }
    Ok(Some(request_box.clone()))
}

/// Execute a plan, returning its output schema and rows. The output stays
/// a column selection — a scan's, an aggregate's groups, or a whole
/// result gathered into one table — which [`ResultRows`] writes as text
/// from the columns, or materializes as rows on first use.
pub fn execute(plan: &PhysicalPlan, ctx: &mut ExecContext<'_>) -> Result<(Schema, ResultRows)> {
    let (schema, batch) = run(plan, ctx)?;
    ctx.metrics.rows_output += batch.sel.len() as u64;
    Ok((schema, ResultRows::from(batch)))
}

/// Run a sub-plan to a batch. A join reaches this only when its consumer
/// needs the whole result (the reply, a union or a `Materialize`), which
/// gathers the chain's columns into one table; a join feeding another
/// join's probe, a build side or an aggregate fold runs through
/// [`run_input`] and is read in place.
pub(crate) fn run(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext<'_>,
) -> Result<(Schema, ColumnarBatch)> {
    match plan {
        PhysicalPlan::Scan(spec) => run_scan(spec, ctx),
        PhysicalPlan::Materialize { input, fingerprint } => {
            let (schema, table) = gather(std::slice::from_ref(&**input), ctx)?;
            // The baseline's materialization cost: one extra copy of every
            // tuple out of the pipeline into a temp table.
            ctx.metrics.materialized_rows += table.row_count() as u64;
            ctx.htm.publish_temp(
                ctx.tenant,
                fingerprint.clone(),
                schema.clone(),
                Arc::clone(&table),
            );
            Ok((schema, ColumnarBatch::dense(table)))
        }
        PhysicalPlan::TempScan {
            id,
            schema: _,
            post_filter,
        } => {
            // `read_temp` hands back an `Arc` snapshot of the cached table:
            // no per-reuse copy, only a selection of the rows that pass the
            // post-filter.
            let (schema, temp) = ctx.htm.read_temp(*id)?;
            let StoredHt::Materialized(temp) = &*temp else {
                unreachable!("read_temp returns temp tables only")
            };
            let table = Arc::clone(temp.table());
            let n = table.row_count();
            ctx.metrics.rows_scanned += n as u64;
            let sel = match post_filter {
                Some(pf) => {
                    let evaluator = BoxEval::bind(pf, &schema)?;
                    let columns = table.columns();
                    let passing = (0..n).filter(|&at| evaluator.eval_at(columns, at));
                    Selection::Rows(passing.map(|at| at as u32).collect())
                }
                None => Selection::Dense(n),
            };
            let proj = (0..schema.len()).collect();
            Ok((schema, ColumnarBatch { table, proj, sel }))
        }
        PhysicalPlan::Union { inputs } => {
            let (schema, table) = gather(inputs, ctx)?;
            Ok((schema, ColumnarBatch::dense(table)))
        }
        PhysicalPlan::Project { .. } | PhysicalPlan::HashJoin { .. } => {
            match run_input(plan, ctx)? {
                Input::Batch(schema, batch) => Ok((schema, batch)),
                joined @ Input::Join(_) => {
                    let schema = joined.schema().clone();
                    let mut columns = empty_columns(&schema);
                    joined.append_to(&mut columns, ctx)?;
                    let table = Table::from_columns(schema.clone(), columns)?;
                    Ok((schema, ColumnarBatch::dense(Arc::new(table))))
                }
            }
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            output_aggs,
            reuse,
            publish,
            post_group_by,
        } => run_hash_agg(
            ctx,
            input,
            group_by,
            aggs,
            output_aggs,
            reuse,
            publish,
            post_group_by,
        ),
    }
}

/// Run `inputs` (one, or a union's) and gather their output, in order,
/// into one table of typed columns: every input's columns are appended
/// per source, a join chain's through its positions, so no row is built.
pub(crate) fn gather(
    inputs: &[PhysicalPlan],
    ctx: &mut ExecContext<'_>,
) -> Result<(Schema, Arc<Table>)> {
    let mut out: Option<(Schema, Vec<Column>)> = None;
    for plan in inputs {
        let input = run_input(plan, ctx)?;
        let (schema, columns) = out.get_or_insert_with(|| {
            let schema = input.schema().clone();
            let columns = empty_columns(&schema);
            (schema, columns)
        });
        if input.schema() != schema {
            return Err(HsError::ExecError("union schema mismatch".into()));
        }
        input.append_to(columns, ctx)?;
    }
    let (schema, columns) = out.ok_or_else(|| HsError::ExecError("empty union".into()))?;
    let table = Table::from_columns(schema.clone(), columns)?;
    Ok((schema, Arc::new(table)))
}

/// One empty column per field of `schema`.
fn empty_columns(schema: &Schema) -> Vec<Column> {
    schema
        .fields()
        .iter()
        .map(|f| Column::new(f.dtype))
        .collect()
}

/// A sub-plan's output as a join's probe, a build side or an aggregate
/// fold consumes it: a batch, or a join chain read in place through its
/// position columns, so the join's output is never materialized.
pub(crate) enum Input<'m> {
    Batch(Schema, ColumnarBatch),
    Join(Box<Joined<'m>>),
}

impl Input<'_> {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Input::Batch(schema, _) => schema,
            Input::Join(joined) => &joined.schema,
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Input::Batch(_, batch) => batch.sel.len(),
            Input::Join(joined) => joined.len(),
        }
    }

    /// Append every output column, in output order, to `columns` (one
    /// per output column); a join chain's tables are handed back once
    /// read.
    fn append_to(self, columns: &mut [Column], ctx: &ExecContext<'_>) -> Result<()> {
        let mut cols = columns.iter_mut().enumerate();
        let appended = match &self {
            Input::Batch(_, batch) => {
                let tuples = BatchTuples::new(batch, &[]);
                cols.all(|(c, dst)| tuples.append_column(c, dst))
            }
            Input::Join(joined) => {
                let tuples = JoinTuples::new(joined, &[]);
                cols.all(|(c, dst)| tuples.append_column(c, dst))
            }
        };
        if let Input::Join(joined) = self {
            joined.finish(ctx);
        }
        if appended {
            Ok(())
        } else {
            Err(HsError::ExecError(
                "a column does not match its schema".into(),
            ))
        }
    }
}

/// Run a sub-plan for a probe or a breaker: a hash join (under any
/// projections) stops at its join chain; everything else runs as [`run`]
/// does.
pub(crate) fn run_input<'m>(plan: &PhysicalPlan, ctx: &mut ExecContext<'m>) -> Result<Input<'m>> {
    match plan {
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_key,
            build_key,
            reuse,
            publish,
        } => Ok(Input::Join(Box::new(run_hash_join(
            ctx, probe, build, probe_key, build_key, reuse, publish,
        )?))),
        PhysicalPlan::Project { input, attrs } => {
            let input = run_input(input, ctx)?;
            let indices = attrs
                .iter()
                .map(|a| input.schema().index_of(a))
                .collect::<Result<Vec<_>>>()?;
            let names: Vec<&str> = attrs.iter().map(|a| a.as_ref()).collect();
            let out_schema = input.schema().project(&names)?;
            // A projection is a different view of the same columns:
            // nothing is copied.
            Ok(match input {
                Input::Batch(_, mut batch) => {
                    batch.proj = indices.iter().map(|&i| batch.proj[i]).collect();
                    Input::Batch(out_schema, batch)
                }
                Input::Join(mut joined) => {
                    joined.cols = indices.iter().map(|&i| joined.cols[i]).collect();
                    joined.schema = out_schema;
                    Input::Join(joined)
                }
            })
        }
        plan => {
            let (schema, batch) = run(plan, ctx)?;
            Ok(Input::Batch(schema, batch))
        }
    }
}

/// A predicate box bound to column positions.
pub(crate) struct BoxEval {
    checks: Vec<(usize, Interval)>,
}

impl BoxEval {
    pub(crate) fn bind(pred: &PredBox, schema: &Schema) -> Result<Self> {
        let mut checks = Vec::new();
        for (attr, iv) in pred.constrained() {
            checks.push((schema.index_of(attr)?, iv.clone()));
        }
        Ok(BoxEval { checks })
    }

    /// Whether position `at` of `columns` (in the bound schema's order)
    /// lies in the box.
    pub(crate) fn eval_at(&self, columns: &[Column], at: usize) -> bool {
        self.checks
            .iter()
            .all(|(idx, iv)| iv.contains_value(&columns[*idx].get(at)))
    }
}

/// What the probe, the build and the aggregate fold need from their input
/// tuples, bound to the key columns they hash. Implemented for a columnar
/// batch, a join's match pairs and a cached table's entries; the consumers
/// are generic over it (static dispatch — nothing dynamic in the per-tuple
/// loops), so every source builds bit-identical tables and output by
/// construction.
///
/// `col` arguments are positions in the source's output schema.
pub(crate) trait Tuples: Sync {
    /// Number of tuples.
    fn len(&self) -> usize;
    /// The key columns the source is bound to.
    fn key_cols(&self) -> &[usize];
    /// 64-bit hash of tuple `i` over the key columns.
    fn key64(&self, i: usize) -> u64 {
        composite_key64(self.key_cols(), |c| self.cell_key64(i, c))
    }
    /// Append the `key64` of tuples `range`, in order, to `out`.
    fn keys_into(&self, range: Range<usize>, out: &mut Vec<u64>) {
        out.extend(range.map(|i| self.key64(i)));
    }
    /// The `Value::key64` of column `col` of tuple `i`.
    fn cell_key64(&self, i: usize, col: usize) -> u64;
    /// Whether column `col` of tuple `i` equals row `at` of `other`.
    fn cell_eq_at(&self, i: usize, col: usize, other: &Column, at: usize) -> bool;
    /// Append column `col` of every tuple, in order, to `dst`; `false` on
    /// a type mismatch.
    fn append_column(&self, col: usize, dst: &mut Column) -> bool;
    /// The zone map of column `col` when tuple `i` is row `i` of a base
    /// table (a dense batch), so block `b` of the map covers the tuples
    /// `b * ZoneMap::BLOCK_ROWS ..`; `None` otherwise.
    fn zone_map(&self, _col: usize) -> Option<&ZoneMap> {
        None
    }
}

/// The hash key over `cols`, from each column's key — `Row::key64`'s
/// combination: no columns hash to the constant empty key, one column is
/// its own key, several mix in column order.
#[inline]
pub(crate) fn composite_key64(cols: &[usize], key_of: impl Fn(usize) -> u64) -> u64 {
    match cols {
        [] => 0,
        [c] => key_of(*c),
        many => many
            .iter()
            .fold(KEY64_SEED, |h, &c| key64_combine(h, key_of(c))),
    }
}

/// A columnar batch read in place: keys come off the key columns through
/// monomorphized kernels and cells compare against stored values without
/// boxing.
pub(crate) struct BatchTuples<'a> {
    batch: &'a ColumnarBatch,
    key_cols: &'a [usize],
    kernels: Vec<KeyKernel<'a>>,
}

impl<'a> BatchTuples<'a> {
    pub(crate) fn new(batch: &'a ColumnarBatch, key_cols: &'a [usize]) -> Self {
        let kernels = key_cols
            .iter()
            .map(|&c| vector::key_kernel(batch.table.column(batch.proj[c])))
            .collect();
        BatchTuples {
            batch,
            key_cols,
            kernels,
        }
    }

    #[inline]
    fn rid(&self, i: usize) -> usize {
        self.batch.sel.rid(i)
    }

    #[inline]
    fn column(&self, col: usize) -> &Column {
        self.batch.table.column(self.batch.proj[col])
    }

    /// Append column `col` of the tuples at `positions`, in that order, to
    /// `dst`; `false` on a type mismatch.
    pub(crate) fn append_column_at(&self, col: usize, positions: &[u32], dst: &mut Column) -> bool {
        let rids = positions.iter().map(|&i| self.rid(i as usize));
        dst.extend_from(self.column(col), rids)
    }
}

impl Tuples for BatchTuples<'_> {
    fn len(&self) -> usize {
        self.batch.sel.len()
    }

    fn key_cols(&self) -> &[usize] {
        self.key_cols
    }

    #[inline]
    fn key64(&self, i: usize) -> u64 {
        vector::group_key64(&self.kernels, self.rid(i))
    }

    fn keys_into(&self, range: Range<usize>, out: &mut Vec<u64>) {
        vector::gather_keys(&self.kernels, &self.batch.sel, range, out);
    }

    #[inline]
    fn cell_key64(&self, i: usize, col: usize) -> u64 {
        self.column(col).key64(self.rid(i))
    }

    #[inline]
    fn cell_eq_at(&self, i: usize, col: usize, other: &Column, at: usize) -> bool {
        self.column(col).eq_at(self.rid(i), other, at)
    }

    fn append_column(&self, col: usize, dst: &mut Column) -> bool {
        match self.batch.sel {
            Selection::Dense(n) => dst.extend_from(self.column(col), 0..n),
            Selection::Rows(ref rows) => {
                dst.extend_from(self.column(col), rows.iter().map(|&r| r as usize))
            }
        }
    }

    fn zone_map(&self, col: usize) -> Option<&ZoneMap> {
        match self.batch.sel {
            Selection::Dense(_) => self.batch.table.zone_map(self.batch.proj[col]),
            Selection::Rows(_) => None,
        }
    }
}

/// The entries of a cached table at positions `sel`, in that order.
pub(crate) struct EntryTuples<'a> {
    pub(crate) table: &'a ColumnHt,
    pub(crate) sel: &'a [u32],
    pub(crate) key_cols: &'a [usize],
}

impl EntryTuples<'_> {
    #[inline]
    fn at(&self, i: usize) -> usize {
        self.sel[i] as usize
    }
}

impl Tuples for EntryTuples<'_> {
    fn len(&self) -> usize {
        self.sel.len()
    }

    fn key_cols(&self) -> &[usize] {
        self.key_cols
    }

    #[inline]
    fn cell_key64(&self, i: usize, col: usize) -> u64 {
        self.table.columns()[col].key64(self.at(i))
    }

    #[inline]
    fn cell_eq_at(&self, i: usize, col: usize, other: &Column, at: usize) -> bool {
        self.table.columns()[col].eq_at(self.at(i), other, at)
    }

    fn append_column(&self, col: usize, dst: &mut Column) -> bool {
        let at = self.sel.iter().map(|&i| i as usize);
        dst.extend_from(&self.table.columns()[col], at)
    }
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

fn run_scan(spec: &ScanSpec, ctx: &mut ExecContext<'_>) -> Result<(Schema, ColumnarBatch)> {
    let table = ctx.catalog.get(&spec.table)?;
    let qualified = table.qualified_schema();
    let (out_schema, proj) = crate::plan::project_scan(qualified, &spec.projection)?;
    let per_box = lower_region(&table, qualified, spec)?;
    let sel = match per_box.as_slice() {
        // One unconstrained box: every row survives, in order. The
        // consumers read the dense range; no selection pass runs.
        [b] if b.hits.is_none() && b.checks.is_empty() => {
            let n = table.row_count();
            ctx.metrics.rows_scanned += n as u64;
            ctx.metrics.batches_processed += morsel_count(n) as u64;
            Selection::Dense(n)
        }
        _ => {
            let mut sel: Vec<u32> = Vec::new();
            for b in &per_box {
                // The index hits, or every row, are the candidates.
                let (n, mut box_sel) = match b.hits {
                    Some(ids) => {
                        ctx.metrics.index_rows += ids.len() as u64;
                        let sel = vector::select_ids(ctx.sched(), &table, ids, &b.checks);
                        (ids.len(), sel)
                    }
                    None => {
                        let n = table.row_count();
                        (n, vector::select_rows(ctx.sched(), &table, &b.checks, n))
                    }
                };
                ctx.metrics.rows_scanned += n as u64;
                ctx.metrics.batches_processed += morsel_count(n) as u64;
                ctx.metrics.rows_filtered_vectorized += (n - box_sel.len()) as u64;
                sel.append(&mut box_sel);
            }
            Selection::Rows(sel)
        }
    };
    Ok((out_schema, ColumnarBatch { table, proj, sel }))
}

/// One region box lowered onto the table's columns.
struct LoweredBox<'t> {
    /// The hits of the box's index access path, in index order: they
    /// replace the row-id range as the candidates.
    hits: Option<&'t [u32]>,
    /// The residual checks: every constraint but the one the index
    /// answered, as `(column position, kernel)`.
    checks: Vec<(usize, RangeKernel)>,
}

/// Lower every box of a scan's region onto per-column [`RangeKernel`]s,
/// taking as index access path the first constraint on an indexed column
/// with at least one bound. An empty region lowers to no box.
fn lower_region<'t>(
    table: &'t Table,
    qualified: &Schema,
    spec: &ScanSpec,
) -> Result<Vec<LoweredBox<'t>>> {
    let mut per_box = Vec::new();
    for pbox in spec.region.boxes() {
        let checks = BoxEval::bind(pbox, qualified)?.checks;
        let via_index = checks
            .iter()
            .position(|(col, iv)| table.has_index(*col) && !iv.is_all());
        let lowered = checks
            .iter()
            .enumerate()
            .filter(|&(pos, _)| Some(pos) != via_index)
            .map(|(_, (col, iv))| (*col, lower_check(iv, table.column(*col))))
            .collect();
        let hits = match via_index {
            Some(pos) => Some(index_hits(table, &checks[pos])?),
            None => None,
        };
        per_box.push(LoweredBox {
            hits,
            checks: lowered,
        });
    }
    Ok(per_box)
}

/// Lower one interval constraint onto a typed column as a [`RangeKernel`]
/// of the column's type, with `Value`'s semantics. Discrete columns turn
/// exclusive bounds into inclusive neighbours (an overflowing neighbour
/// means the interval is empty); floats compare through the
/// order-preserving [`f64_order_key`] mapping, so every float interval
/// becomes an inclusive `u64` range; dictionary strings evaluate the
/// interval once per distinct entry and reduce the predicate to a
/// code-mask lookup. A bound of another type than the column's holds for
/// every value or for none, by [`cross_type_order`].
fn lower_check(iv: &Interval, col: &Column) -> RangeKernel {
    let dtype = col.data_type();
    let key = |v: &Value| match v {
        Value::Int(x) if dtype == DataType::Int => Some(i128::from(*x)),
        Value::Date(x) if dtype == DataType::Date => Some(i128::from(*x)),
        Value::Float(f) if dtype == DataType::Float => Some(i128::from(f64_order_key(f.0))),
        _ => None,
    };
    let range = |min: i128, max: i128| inclusive(iv, dtype, key, min, max);
    match col {
        Column::Int(_) => {
            let (lo, hi) = range(i64::MIN.into(), i64::MAX.into());
            RangeKernel::Int {
                lo: lo as i64,
                hi: hi as i64,
            }
        }
        Column::Date(_) => {
            let (lo, hi) = range(i32::MIN.into(), i32::MAX.into());
            RangeKernel::Date {
                lo: lo as i32,
                hi: hi as i32,
            }
        }
        // `f64_order_key` is a monotone injection of the engine's F64 total
        // order into u64, so exclusive bounds shift by one key step.
        Column::Float(_) => {
            let (lo, hi) = range(0, u64::MAX.into());
            RangeKernel::Float {
                lo: lo as u64,
                hi: hi as u64,
            }
        }
        // One boxed comparison per *distinct* string, with the interval's
        // own semantics (cross-type bounds included).
        Column::Str { dict, .. } => RangeKernel::Dict {
            ok: dict
                .iter()
                .map(|s| iv.contains_value(&Value::Str(s.clone())))
                .collect(),
        },
    }
}

/// `iv` over a column of type `dtype` as an inclusive range of keys, where
/// `key` maps the column's values order-preservingly into `min..=max`
/// (`None` for a value of another type). An empty interval is `(1, 0)`,
/// so a non-empty range always lies within `min..=max`.
fn inclusive(
    iv: &Interval,
    dtype: DataType,
    key: impl Fn(&Value) -> Option<i128>,
    min: i128,
    max: i128,
) -> (i128, i128) {
    // The bound's first key inside the interval, seen from `open` (the
    // end of the domain it bounds away from): `open` itself when every
    // value satisfies the bound, `None` when none does.
    let bound = |b: &Bound<Value>, open: i128, step: i128| match b {
        Bound::Unbounded => Some(open),
        Bound::Included(v) | Bound::Excluded(v) => match key(v) {
            Some(k) if matches!(b, Bound::Included(_)) => Some(k),
            Some(k) => Some(k + step),
            None => {
                let beyond = if step > 0 {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Less
                };
                (cross_type_order(dtype, v) == beyond).then_some(open)
            }
        },
    };
    match (bound(iv.lo(), min, 1), bound(iv.hi(), max, -1)) {
        (Some(lo), Some(hi)) if lo <= hi => (lo, hi),
        _ => (1, 0),
    }
}

/// The row ids an index access path hits, in index order (by key, ties by
/// row id).
fn index_hits<'t>(table: &'t Table, (col, iv): &(usize, Interval)) -> Result<&'t [u32]> {
    let name = &table.schema().field_at(*col).name;
    let index = table
        .index_on(name)
        .ok_or_else(|| HsError::ExecError(format!("index on {name} vanished")))?;
    Ok(index.range(table.column(*col), iv.lo().as_ref(), iv.hi().as_ref()))
}

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

/// The state of a hash aggregate: fresh local table or reused guard, with
/// the schema of the table's group columns.
pub(crate) enum AggSource<'m> {
    Fresh(AggHt, Schema),
    Reused(CheckedOut<'m>),
    /// A mutating reuse that has already been checked back in: the writer
    /// pin is released and the output phase reads this immutable snapshot.
    Snapshot(Arc<StoredHt>, Arc<Schema>),
}

impl AggSource<'_> {
    fn read_table(&self) -> (&AggHt, &Schema) {
        let (stored, schema) = match self {
            AggSource::Fresh(t, schema) => return (t, schema),
            AggSource::Reused(co) => (co.table(), &*co.schema),
            AggSource::Snapshot(s, schema) => (&**s, &**schema),
        };
        match stored {
            StoredHt::Agg(t) => (t, schema),
            _ => unreachable!("kind verified at checkout"),
        }
    }

    fn write_table(&mut self) -> Result<&mut AggHt> {
        match self {
            AggSource::Fresh(t, _) => Ok(t),
            AggSource::Reused(co) => match co.table_mut()? {
                StoredHt::Agg(t) => Ok(t),
                _ => unreachable!("kind verified at checkout"),
            },
            AggSource::Snapshot(..) => unreachable!("mutation precedes check-in"),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_hash_agg(
    ctx: &mut ExecContext<'_>,
    input: &Option<Box<PhysicalPlan>>,
    group_by: &[Arc<str>],
    aggs: &[hashstash_plan::AggExpr],
    output_aggs: &[OutputAgg],
    reuse: &Option<crate::plan::ReuseSpec>,
    publish: &Option<hashstash_plan::HtFingerprint>,
    post_group_by: &Option<Vec<Arc<str>>>,
) -> Result<(Schema, ColumnarBatch)> {
    // --- Acquire the hash table --------------------------------------------
    let mut recovery_filter: Option<PredBox> = None;
    let mut source = match reuse {
        Some(spec) => {
            let co = ctx.checkout_for(spec)?;
            ctx.metrics.reused_tables += 1;
            if !matches!(co.table(), StoredHt::Agg(_)) {
                return Err(HsError::ExecError(format!(
                    "{} is not an aggregate hash table",
                    spec.id
                )));
            }
            if !spec.case.needs_delta() {
                recovery_filter = widened_recovery_filter(spec, &co)?;
            }
            AggSource::Reused(co)
        }
        None => {
            // Group attrs + one 8-byte accumulator per aggregate.
            let mut width = aggs.len() * 8;
            let mut fields = Vec::new();
            for g in group_by {
                let dtype = crate::plan::lookup_attr_type(ctx.catalog, g)?;
                width += dtype.payload_width();
                fields.push(hashstash_types::Field::new(g.to_string(), dtype));
            }
            let group_types: Vec<DataType> = fields.iter().map(|f| f.dtype).collect();
            // Only a MIN or MAX keeps its argument's type.
            let states = aggs
                .iter()
                .map(|a| {
                    let arg = match a.func {
                        AggFunc::Min | AggFunc::Max => {
                            crate::plan::lookup_attr_type(ctx.catalog, &a.attr)?
                        }
                        _ => DataType::Float,
                    };
                    Ok((a.func, arg))
                })
                .collect::<Result<Vec<_>>>()?;
            AggSource::Fresh(
                AggHt::new(width, &group_types, &states),
                Schema::new(fields),
            )
        }
    };

    // --- Fold input tuples (all of them, or the reuse delta) ---------------
    if let Some(input_plan) = input {
        if reuse.is_none() || reuse.as_ref().is_some_and(|r| r.case.needs_delta()) {
            let input = run_input(input_plan, ctx)?;
            let in_schema = input.schema();
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| in_schema.index_of(g))
                .collect::<Result<Vec<_>>>()?;
            let agg_idx: Vec<usize> = aggs
                .iter()
                .map(|a| in_schema.index_of(&a.attr))
                .collect::<Result<Vec<_>>>()?;
            if reuse.is_none() {
                ctx.metrics.built_tables += 1;
            }
            let parallel_build =
                reuse.is_none() && ctx.parallelism > 1 && input.len() >= MIN_PARALLEL_BUILD_ROWS;
            let ht = source.write_table()?;
            let sched = ctx.sched();
            let (inserts, updates) = match &input {
                // A join folds straight from its match pairs.
                Input::Join(joined) => {
                    let input = JoinTuples::new(joined, &group_idx);
                    fold_tuples(sched, ht, &input, in_schema, &agg_idx, parallel_build)?
                }
                Input::Batch(_, batch) => {
                    ctx.metrics.batches_processed += morsel_count(batch.sel.len()) as u64;
                    let input = BatchTuples::new(batch, &group_idx);
                    fold_tuples(sched, ht, &input, in_schema, &agg_idx, parallel_build)?
                }
            };
            if reuse.is_some() {
                // A widened version goes back to the cache holding what
                // it is charged for (a fresh table shrinks at publish).
                ht.shrink_to_fit();
            }
            ctx.metrics.ht_inserts += inserts;
            ctx.metrics.ht_updates += updates;
            // The join's table goes back after the fold, before the
            // aggregate's: cache events keep the row pipeline's order.
            if let Input::Join(joined) = input {
                joined.finish(ctx);
            }
        }
    }

    // A mutating reuse is complete once the delta is folded: publish the
    // new version (widened lineage) immediately so the writer pin is not
    // held across output production, and keep reading a cheap snapshot.
    if let Some(spec) = reuse {
        if spec.case.needs_delta() {
            source = match source {
                AggSource::Reused(co) => {
                    let schema = Arc::clone(&co.schema);
                    AggSource::Snapshot(co.checkin_widened(&spec.request_region)?, schema)
                }
                other => other,
            };
        }
    }

    produce_agg_output(
        ctx,
        source,
        &recovery_filter,
        group_by,
        output_aggs,
        reuse,
        publish,
        post_group_by,
    )
}

/// Fold the input tuples into the aggregate table, grouped on their key
/// columns, in input order, and return the (insert, update) counts.
///
/// The group-key columns and the aggregates' arguments are gathered once,
/// as typed columns, through [`Tuples::append_column`] (a `COUNT` reads no
/// argument, and an argument two aggregates share is gathered once), and
/// the keys are hashed off the gathered columns. [`AggHt::fold`] then
/// finds or opens each tuple's group through the table's index and runs
/// one typed loop per accumulator.
///
/// With `parallel_build` (a fresh table), hashing fans out over morsels
/// and grouping over key partitions ([`group_ids_partitioned`]), whose
/// groups open in first-tuple order: the arena order of the serial fold,
/// so the two tables are `==`. Each group's states still see its tuples in
/// input order, so even floating-point sums are bitwise serial.
pub(crate) fn fold_tuples<T: Tuples>(
    sched: Scheduler<'_>,
    ht: &mut AggHt,
    input: &T,
    in_schema: &Schema,
    agg_idx: &[usize],
    parallel_build: bool,
) -> Result<(u64, u64)> {
    let n = input.len();
    let gather = |col: usize, dtype: DataType| {
        let mut cells = Column::new(dtype);
        cells.reserve_exact(n);
        if input.append_column(col, &mut cells) {
            Ok(cells)
        } else {
            Err(HsError::ExecError(format!(
                "input column {} does not fold as {dtype}",
                in_schema.field_at(col).name
            )))
        }
    };
    let groups = input
        .key_cols()
        .iter()
        .zip(ht.groups())
        .map(|(&c, g)| gather(c, g.data_type()))
        .collect::<Result<Vec<_>>>()?;
    let mut gathered: Vec<(usize, Column)> = Vec::new();
    for (state, &c) in ht.states().iter().zip(agg_idx) {
        if matches!(state, AggState::Count(_)) || gathered.iter().any(|(g, _)| *g == c) {
            continue;
        }
        let dtype = match state {
            AggState::Min(kept) | AggState::Max(kept) => kept.data_type(),
            _ => in_schema.field_at(c).dtype,
        };
        gathered.push((c, gather(c, dtype)?));
    }
    let args: Vec<Option<&Column>> = ht
        .states()
        .iter()
        .zip(agg_idx)
        .map(|(state, c)| match state {
            AggState::Count(_) => None,
            _ => gathered.iter().find(|(g, _)| g == c).map(|(_, col)| col),
        })
        .collect();

    let kernels: Vec<KeyKernel<'_>> = groups.iter().map(vector::key_kernel).collect();
    let dense = Selection::Dense(n);
    let hash = |range: Range<usize>| {
        let mut keys = Vec::with_capacity(range.len());
        vector::gather_keys(&kernels, &dense, range, &mut keys);
        keys
    };
    let (keys, grouping) = if parallel_build {
        let keys = collect_morsels(sched, n, hash);
        let same = |i: usize, j: usize| groups.iter().all(|c| c.eq_at(i, c, j));
        let grouping = group_ids_partitioned(sched, &keys, same);
        (keys, Some(grouping))
    } else {
        (hash(0..n), None)
    };
    let inserts = ht.fold(&keys, &groups, &args, grouping)?;
    Ok((inserts, n as u64 - inserts))
}

/// The output phase of a hash aggregate: post-filter and finalize the
/// stored groups (optionally re-grouping on a subset of the group-by
/// attributes) into a [`ColumnarBatch`] of the group columns and one
/// column per output aggregate, and hand the table back to the manager.
#[allow(clippy::too_many_arguments)]
pub(crate) fn produce_agg_output(
    ctx: &mut ExecContext<'_>,
    source: AggSource<'_>,
    recovery_filter: &Option<PredBox>,
    group_by: &[Arc<str>],
    output_aggs: &[OutputAgg],
    reuse: &Option<crate::plan::ReuseSpec>,
    publish: &Option<hashstash_plan::HtFingerprint>,
    post_group_by: &Option<Vec<Arc<str>>>,
) -> Result<(Schema, ColumnarBatch)> {
    let (ht, group_schema) = source.read_table();
    // Planned post-filter (subsuming reuse) plus the recovery filter for a
    // concurrently widened cached table; both apply to group keys.
    let mut post_filters: Vec<BoxEval> = Vec::new();
    if let Some(pf) = reuse.as_ref().and_then(|r| r.post_filter.as_ref()) {
        post_filters.push(BoxEval::bind(pf, group_schema)?);
    }
    if let Some(rf) = &recovery_filter {
        post_filters.push(BoxEval::bind(rf, group_schema)?);
    }

    // The groups that pass the filters, in arena order (`None`: all).
    let passing: Option<Vec<u32>> = (!post_filters.is_empty()).then(|| {
        (0..ht.len())
            .filter(|&at| post_filters.iter().all(|pf| pf.eval_at(ht.groups(), at)))
            .map(|at| at as u32)
            .collect()
    });
    let regrouped;
    let (groups, passing) = match post_group_by {
        None => (ht, passing),
        Some(subset) => {
            // Post-aggregation: re-group the passing groups on a subset of
            // the group-by attributes, merging their states in arena order.
            let subset_idx = subset
                .iter()
                .map(|g| group_schema.index_of(g))
                .collect::<Result<Vec<_>>>()?;
            let (table, opened) = ht.regroup(&subset_idx, passing.as_deref(), ht.tuple_width())?;
            let merged = passing.as_ref().map_or(ht.len(), Vec::len) as u64;
            ctx.metrics.ht_inserts += opened;
            ctx.metrics.ht_updates += merged - opened;
            regrouped = table;
            (&regrouped, None)
        }
    };

    // --- Output columns and schema -------------------------------------------
    let rows = passing.as_deref();
    let out_group_attrs: &[Arc<str>] = post_group_by.as_deref().unwrap_or(group_by);
    let mut columns: Vec<Column> = groups
        .groups()
        .iter()
        .map(|g| match rows {
            None => g.clone(),
            Some(rows) => {
                let mut col = Column::new(g.data_type());
                col.extend_from(g, rows.iter().map(|&at| at as usize));
                col
            }
        })
        .collect();
    let states = groups.states();
    let n = rows.map_or(groups.len(), <[u32]>::len);
    let at = |i: usize| rows.map_or(i, |rows| rows[i] as usize);
    columns.reserve_exact(output_aggs.len());
    for oa in output_aggs {
        columns.push(match *oa {
            OutputAgg::Direct(i) => states[i].finalize(rows),
            OutputAgg::AvgOf { sum_idx, count_idx } => Column::Float(
                (0..n)
                    .map(|i| {
                        let sum = states[sum_idx].finalized_f64(at(i));
                        let count = states[count_idx].finalized_f64(at(i));
                        if count == 0.0 {
                            0.0
                        } else {
                            sum / count
                        }
                    })
                    .collect(),
            ),
        });
    }
    let names = out_group_attrs
        .iter()
        .map(|g| g.to_string())
        .chain((0..output_aggs.len()).map(|i| format!("agg_{i}")));
    let fields = names
        .zip(&columns)
        .map(|(name, col)| hashstash_types::Field::new(name, col.data_type()))
        .collect();
    let out_schema = Schema::new(fields);
    let table = Table::from_columns(out_schema.clone(), columns)?;
    let batch = ColumnarBatch::dense(Arc::new(table));

    // --- Hand the table back -------------------------------------------------
    match source {
        // Read-only reuse: the guard drop releases the shared pin.
        // Mutating reuse was already checked in before output production.
        AggSource::Reused(_) | AggSource::Snapshot(..) => {}
        AggSource::Fresh(mut ht, group_schema) => {
            if let Some(fp) = publish {
                ht.shrink_to_fit();
                ctx.htm
                    .publish_as(ctx.tenant, fp.clone(), group_schema, StoredHt::Agg(ht));
            }
        }
    }

    Ok((out_schema, batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{exact_prefilter, Probe};
    use crate::plan::ReuseSpec;
    use hashstash_cache::GcConfig;
    use hashstash_hashtable::KeyBitmap;
    use hashstash_plan::{AggExpr, AggFunc, HtFingerprint, HtKind, Interval, Region, ReuseCase};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_types::Row;

    fn setup() -> (Catalog, HtManager) {
        (
            generate(TpchConfig::new(0.002, 5)),
            HtManager::new(GcConfig::default()),
        )
    }

    fn scan_all(table: &str) -> PhysicalPlan {
        PhysicalPlan::Scan(ScanSpec::full(table))
    }

    #[test]
    fn scan_with_filter_matches_manual_count() {
        let (cat, htm) = setup();
        let pred = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(40)),
        );
        let plan = PhysicalPlan::Scan(ScanSpec::filtered("customer", pred));
        let mut ctx = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&plan, &mut ctx).unwrap();
        let age_idx = schema.index_of("customer.c_age").unwrap();
        assert!(!rows.is_empty());
        for r in &rows {
            let age = r.get(age_idx).as_int().unwrap();
            assert!((30..=40).contains(&age));
        }
        // Index was used (c_age is indexed).
        assert!(ctx.metrics.index_rows > 0);

        // Compare against a brute-force count.
        let table = cat.get("customer").unwrap();
        let col = table.column_by_name("c_age").unwrap();
        let expected = (0..table.row_count())
            .filter(|&i| (30..=40).contains(&col.get(i).as_int().unwrap()))
            .count();
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn join_produces_correct_pairs() {
        let (cat, htm) = setup();
        let plan = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(scan_all("customer"))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&plan, &mut ctx).unwrap();
        // Every order joins exactly one customer.
        let orders = cat.get("orders").unwrap().row_count();
        assert_eq!(rows.len(), orders);
        let ok = schema.index_of("orders.o_custkey").unwrap();
        let ck = schema.index_of("customer.c_custkey").unwrap();
        for r in &rows {
            assert_eq!(r.get(ok), r.get(ck));
        }
        assert_eq!(ctx.metrics.built_tables, 1);
        assert_eq!(ctx.metrics.reused_tables, 0);
    }

    #[test]
    fn aggregate_sums_match_manual() {
        let (cat, htm) = setup();
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, "customer.c_acctbal"),
            AggExpr::new(AggFunc::Count, "customer.c_custkey"),
        ];
        let plan = PhysicalPlan::HashAggregate {
            input: Some(Box::new(scan_all("customer"))),
            group_by: vec!["customer.c_age".into()],
            aggs: aggs.clone(),
            output_aggs: vec![OutputAgg::Direct(0), OutputAgg::Direct(1)],
            reuse: None,
            publish: None,
            post_group_by: None,
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&plan, &mut ctx).unwrap();
        assert_eq!(schema.len(), 3);
        // Totals across groups must equal table totals.
        let table = cat.get("customer").unwrap();
        let bal = table.column_by_name("c_acctbal").unwrap();
        let total: f64 = (0..table.row_count())
            .map(|i| bal.get(i).as_float().unwrap())
            .sum();
        let sum_groups: f64 = rows.iter().map(|r| r.get(1).as_float().unwrap()).sum();
        assert!((total - sum_groups).abs() < 1e-6 * total.abs().max(1.0));
        let count_groups: i64 = rows.iter().map(|r| r.get(2).as_int().unwrap()).sum();
        assert_eq!(count_groups as usize, table.row_count());
    }

    #[test]
    fn avg_reconstruction_from_sum_count() {
        let (cat, htm) = setup();
        let aggs = vec![
            AggExpr::new(AggFunc::Sum, "customer.c_acctbal"),
            AggExpr::new(AggFunc::Count, "customer.c_acctbal"),
        ];
        let plan = PhysicalPlan::HashAggregate {
            input: Some(Box::new(scan_all("customer"))),
            group_by: vec![],
            aggs,
            output_aggs: vec![OutputAgg::AvgOf {
                sum_idx: 0,
                count_idx: 1,
            }],
            reuse: None,
            publish: None,
            post_group_by: None,
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let (_, rows) = execute(&plan, &mut ctx).unwrap();
        assert_eq!(rows.len(), 1);
        let table = cat.get("customer").unwrap();
        let bal = table.column_by_name("c_acctbal").unwrap();
        let expect: f64 = (0..table.row_count())
            .map(|i| bal.get(i).as_float().unwrap())
            .sum::<f64>()
            / table.row_count() as f64;
        let got = rows[0].get(0).as_float().unwrap();
        assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
    }

    #[test]
    fn join_publish_then_exact_reuse() {
        let (cat, htm) = setup();
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::all(),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        };
        let build = PhysicalPlan::Scan(
            ScanSpec::full("customer").project(&["customer.c_custkey", "customer.c_age"]),
        );
        let first = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(build)),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let (_, rows1) = execute(&first, &mut ctx).unwrap();
        let inserts_first = ctx.metrics.ht_inserts;
        assert!(inserts_first > 0);

        // Find the published table and reuse it exactly.
        let cands = htm.candidates(&fp);
        assert_eq!(cands.len(), 1);
        let cand = &cands[0];
        let second = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: None,
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Exact,
                post_filter: None,
                request_region: Region::all(),
                cached_region: cand.fingerprint.region.clone(),
                schema: cand.schema.clone(),
            }),
            publish: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let (_, rows2) = execute(&second, &mut ctx2).unwrap();
        assert_eq!(rows1.len(), rows2.len());
        assert_eq!(ctx2.metrics.ht_inserts, 0, "exact reuse inserts nothing");
        assert_eq!(ctx2.metrics.reused_tables, 1);
        assert!(htm.is_available(cand.id), "checked back in");
    }

    #[test]
    fn subsuming_reuse_post_filters() {
        let (cat, htm) = setup();
        // Build a cached table over customers age >= 20 (wide).
        let wide_pred = PredBox::all().with("customer.c_age", Interval::at_least(Value::Int(20)));
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(wide_pred.clone()),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        };
        let first = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", wide_pred)
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        execute(&first, &mut ctx).unwrap();

        // Now ask for age >= 30 (narrow) via subsuming reuse.
        let narrow = PredBox::all().with("customer.c_age", Interval::at_least(Value::Int(30)));
        let cands = htm.candidates(&fp);
        let cand = &cands[0];
        let second = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: None,
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Subsuming,
                post_filter: Some(narrow.clone()),
                request_region: Region::from_box(narrow.clone()),
                cached_region: cand.fingerprint.region.clone(),
                schema: cand.schema.clone(),
            }),
            publish: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&second, &mut ctx2).unwrap();
        let age_idx = schema.index_of("customer.c_age").unwrap();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.get(age_idx).as_int().unwrap() >= 30, "post-filtered");
        }

        // Reference: fresh join with the narrow predicate.
        let reference = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", narrow)
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let mut ctx3 = ExecContext::new(&cat, &htm);
        let (_, ref_rows) = execute(&reference, &mut ctx3).unwrap();
        assert_eq!(rows.len(), ref_rows.len());
    }

    #[test]
    fn partial_reuse_adds_missing_tuples() {
        let (cat, htm) = setup();
        // Cache customers with age in [40, 60].
        let cached_pred = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(40), Value::Int(60)),
        );
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(cached_pred.clone()),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        };
        let first = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", cached_pred)
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        execute(&first, &mut ctx).unwrap();

        // Request age in [30, 60]: delta is [30, 39].
        let request = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(60)),
        );
        let request_region = Region::from_box(request.clone());
        let delta_region = request_region.difference(&fp.region);
        let cands = htm.candidates(&fp);
        let cand = &cands[0];
        let delta_scan = PhysicalPlan::Scan(ScanSpec {
            table: "customer".into(),
            region: delta_region,
            projection: vec!["customer.c_custkey".into(), "customer.c_age".into()],
        });
        let second = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(delta_scan)),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Partial,
                post_filter: None,
                request_region: request_region.clone(),
                cached_region: cand.fingerprint.region.clone(),
                schema: cand.schema.clone(),
            }),
            publish: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&second, &mut ctx2).unwrap();
        assert!(ctx2.metrics.ht_inserts > 0, "delta rows inserted");
        let age_idx = schema.index_of("customer.c_age").unwrap();
        for r in &rows {
            let a = r.get(age_idx).as_int().unwrap();
            assert!((30..=60).contains(&a));
        }

        // Reference run.
        let reference = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", request)
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let mut ctx3 = ExecContext::new(&cat, &htm);
        let (_, ref_rows) = execute(&reference, &mut ctx3).unwrap();
        assert_eq!(rows.len(), ref_rows.len());

        // The cached table's lineage was widened at check-in.
        let cands_after = htm.candidates(&fp);
        assert!(cands_after[0]
            .fingerprint
            .region
            .set_eq(&request_region.union(&fp.region)));
    }

    #[test]
    fn post_group_by_reaggregates() {
        let (cat, htm) = setup();
        // Group by (age, nation) then post-group to age only.
        let aggs = vec![AggExpr::new(AggFunc::Sum, "customer.c_acctbal")];
        let plan = PhysicalPlan::HashAggregate {
            input: Some(Box::new(scan_all("customer"))),
            group_by: vec!["customer.c_age".into(), "customer.c_nationkey".into()],
            aggs: aggs.clone(),
            output_aggs: vec![OutputAgg::Direct(0)],
            reuse: None,
            publish: None,
            post_group_by: Some(vec!["customer.c_age".into()]),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let (schema, rows) = execute(&plan, &mut ctx).unwrap();
        assert_eq!(schema.len(), 2);

        // Reference: direct group-by age.
        let reference = PhysicalPlan::HashAggregate {
            input: Some(Box::new(scan_all("customer"))),
            group_by: vec!["customer.c_age".into()],
            aggs,
            output_aggs: vec![OutputAgg::Direct(0)],
            reuse: None,
            publish: None,
            post_group_by: None,
        };
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let mut ref_rows = execute(&reference, &mut ctx2).unwrap().1.into_vec();
        let mut got = rows.into_vec();
        got.sort();
        ref_rows.sort();
        assert_eq!(got.len(), ref_rows.len());
        for (a, b) in got.iter().zip(&ref_rows) {
            assert_eq!(a.get(0), b.get(0));
            let fa = a.get(1).as_float().unwrap();
            let fb = b.get(1).as_float().unwrap();
            assert!((fa - fb).abs() < 1e-6 * fb.abs().max(1.0));
        }
    }

    /// A planned exact match whose cached table was widened by a concurrent
    /// partial reuse between planning and checkout is re-classified in
    /// place as a subsuming match (post-filter to the request region)
    /// instead of failing the checkout and forcing a full re-plan.
    #[test]
    fn widened_exact_reuse_recovers_in_place() {
        let (cat, htm) = setup();
        // Cache customers with age in [40, 60].
        let cached_pred = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(40), Value::Int(60)),
        );
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(cached_pred.clone()),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        };
        let first = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", cached_pred.clone())
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        execute(&first, &mut ctx).unwrap();
        let cand = &htm.candidates(&fp)[0];

        // The plan as of *now*: exact reuse of the [40, 60] table.
        let stale = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: None,
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Exact,
                post_filter: None,
                request_region: fp.region.clone(),
                cached_region: fp.region.clone(),
                schema: cand.schema.clone(),
            }),
            publish: None,
        };

        // Concurrent session: partial reuse widens the table to [30, 60]
        // by inserting the [30, 39] delta.
        let widened = Region::from_box(PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(60)),
        ));
        {
            let mut w = htm.checkout_mut(cand.id).unwrap();
            let table = cat.get("customer").unwrap();
            let key = table.schema().index_of("c_custkey").unwrap();
            let age = table.schema().index_of("c_age").unwrap();
            let StoredHt::Rows(ht) = w.table_mut().unwrap() else {
                panic!("join table")
            };
            for rid in 0..table.row_count() {
                let a = table.column(age).get(rid).as_int().unwrap();
                if (30..40).contains(&a) {
                    let row = table.row_projected(rid, &[key, age]);
                    ht.insert(row.key64(&[0]), &row).unwrap();
                }
            }
            w.checkin_widened(&widened).unwrap();
        }

        // Executing the stale plan succeeds — no CacheError, no re-plan —
        // and still answers for [40, 60] only.
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let (_, rows) = execute(&stale, &mut ctx2).unwrap();
        assert_eq!(ctx2.metrics.reused_tables, 1);

        let reference = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", cached_pred)
                    .project(&["customer.c_custkey", "customer.c_age"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let mut ctx3 = ExecContext::new(&cat, &htm);
        let mut expect = execute(&reference, &mut ctx3).unwrap().1.into_vec();
        let mut got = rows.into_vec();
        got.sort();
        expect.sort();
        assert_eq!(got, expect, "recovery post-filter restores the request");
    }

    /// When the widened table cannot compensate (payload lacks a request
    /// attribute), the checkout surfaces a `CacheError` so the session
    /// re-plans — never a wrong answer.
    #[test]
    fn widened_reuse_without_filter_attrs_replans() {
        let (cat, htm) = setup();
        let pred = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(40), Value::Int(60)),
        );
        let fp = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(pred.clone()),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            // Payload does NOT store c_age: no recovery filter possible.
            payload_attrs: vec![Arc::from("customer.c_custkey")],
            aggregates: vec![],
        };
        let first = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::filtered("customer", pred).project(&["customer.c_custkey"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        execute(&first, &mut ctx).unwrap();
        let cand = &htm.candidates(&fp)[0];
        let stale = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: None,
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: Some(ReuseSpec {
                id: cand.id,
                case: ReuseCase::Exact,
                post_filter: None,
                request_region: fp.region.clone(),
                cached_region: fp.region.clone(),
                schema: cand.schema.clone(),
            }),
            publish: None,
        };
        let widened = Region::from_box(PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(30), Value::Int(60)),
        ));
        let w = htm.checkout_mut(cand.id).unwrap();
        w.checkin_widened(&widened).unwrap();
        let mut ctx2 = ExecContext::new(&cat, &htm);
        assert!(matches!(
            execute(&stale, &mut ctx2),
            Err(HsError::CacheError(_))
        ));
    }

    /// The same tuples twice: a strided selection of a synthetic table
    /// (large enough that the morsel fan-out engages) under a
    /// column-reordering projection, and those tuples gathered into a
    /// table of their own, as a union gathers its inputs. Output schema:
    /// `s, f, k, d`.
    fn both_arms() -> (ColumnarBatch, ColumnarBatch) {
        let n = crate::MORSEL_ROWS * (crate::min_parallel_morsels() + 2) + 5;
        let mut t = hashstash_storage::TableBuilder::with_capacity(
            "t",
            vec![
                ("k", DataType::Int),
                ("f", DataType::Float),
                ("d", DataType::Date),
                ("s", DataType::Str),
            ],
            n,
        );
        for i in 0..n as i64 {
            t.push_row(vec![
                Value::Int(i * 7 % 701),
                Value::float((i % 13) as f64 * 0.1),
                Value::Date((i % 29) as i32),
                Value::str(["ash", "birch", "cedar", "fir", "oak"][(i % 5) as usize]),
            ]);
        }
        let table = Arc::new(t.finish());
        let proj = vec![3, 1, 0, 2];
        let sel = Selection::Rows((0..n as u32).filter(|r| r % 3 != 1).collect());
        let batch = ColumnarBatch { table, proj, sel };
        let gathered = gathered(&batch);
        (batch, gathered)
    }

    /// `batch`'s tuples gathered into a table of their own.
    fn gathered(batch: &ColumnarBatch) -> ColumnarBatch {
        let schema = Schema::new(
            ["t.s", "t.f", "t.k", "t.d"]
                .iter()
                .zip(&batch.proj)
                .map(|(name, &c)| {
                    hashstash_types::Field::new(*name, batch.table.column(c).data_type())
                })
                .collect(),
        );
        let tuples = BatchTuples::new(batch, &[]);
        let columns = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let mut column = Column::new(f.dtype);
                assert!(tuples.append_column(c, &mut column));
                column
            })
            .collect();
        ColumnarBatch::dense(Arc::new(Table::from_columns(schema, columns).unwrap()))
    }

    /// The batch's tuples as materialized rows.
    fn batch_rows(batch: &ColumnarBatch) -> Vec<Row> {
        (0..batch.sel.len())
            .map(|i| batch.table.row_projected(batch.sel.rid(i), &batch.proj))
            .collect()
    }

    /// Serial, and four-way on `pool`.
    fn serial_and_pooled(pool: &WorkerPool) -> [Scheduler<'_>; 2] {
        [1, 4].map(|parallelism| Scheduler {
            parallelism,
            pool: Some(pool),
        })
    }

    /// Whether every key's chain lists its entries in descending arena
    /// position.
    fn descending_chains<V>(ht: &hashstash_hashtable::ExtendibleHashTable<V>) -> bool {
        ht.keys().all(|key| {
            let at: Vec<usize> = ht.probe_positions(key).collect();
            at.windows(2).all(|w| w[0] > w[1])
        })
    }

    /// The generic fold builds the same table — arena, accumulator bits
    /// and counts — from a selection or from its tuples gathered into a
    /// table, serial or partitioned.
    #[test]
    fn fold_is_tuple_source_invariant() {
        fn folded<T: Tuples>(
            sched: Scheduler<'_>,
            input: &T,
            partitioned: bool,
        ) -> (AggHt, (u64, u64)) {
            // The batch's projection: `t.s`, `t.f`, `t.k`, `t.d`.
            let schema = Schema::new(
                [
                    ("t.s", DataType::Str),
                    ("t.f", DataType::Float),
                    ("t.k", DataType::Int),
                    ("t.d", DataType::Date),
                ]
                .map(|(name, dtype)| hashstash_types::Field::new(name, dtype))
                .to_vec(),
            );
            let aggs = [
                (AggFunc::Sum, DataType::Float),
                (AggFunc::Min, DataType::Date),
            ];
            let mut ht = AggHt::new(24, &[DataType::Str, DataType::Int], &aggs);
            let counts = fold_tuples(sched, &mut ht, input, &schema, &[1, 3], partitioned).unwrap();
            (ht, counts)
        }
        const GROUP: [usize; 2] = [0, 2];
        let (strided, gathered) = both_arms();
        let from_gathered = BatchTuples::new(&gathered, &GROUP);
        let from_batch = BatchTuples::new(&strided, &GROUP);
        let pool = WorkerPool::new(3);
        let [serial, pooled] = serial_and_pooled(&pool);
        let (want, want_counts) = folded(serial, &from_gathered, false);
        assert_eq!(want_counts.0 as usize, want.len());
        assert_eq!((want_counts.0 + want_counts.1) as usize, strided.sel.len());
        for (label, (got, counts)) in [
            (
                "gathered, partitioned",
                folded(pooled, &from_gathered, true),
            ),
            ("batch, serial", folded(serial, &from_batch, false)),
            ("batch, partitioned", folded(pooled, &from_batch, true)),
        ] {
            assert!(got == want, "{label}");
            assert!(descending_chains(got.index()), "{label}");
            assert_eq!(counts, want_counts, "{label}");
        }
    }

    /// The generic probe emits the same rows in the same order from a
    /// selection or from its tuples gathered into a table, serial or
    /// morsel-parallel, on an int and on a dictionary-string key — for a
    /// strided selection and for the dense range an unfiltered scan hands
    /// on, and against a build side that ≈ 1 % of the tuples hit (the tag
    /// filter rejects most of the rest before any chain walk). On the int
    /// keys the exact pre-filter, which the probe builds there, answers as
    /// the tag filter does.
    #[test]
    fn probe_is_tuple_source_invariant() {
        fn probed(
            sched: Scheduler<'_>,
            batch: &ColumnarBatch,
            key_cols: &[usize],
            table: &ColumnHt,
            exact: Option<&KeyBitmap>,
        ) -> Vec<Row> {
            let probe = Probe {
                table,
                build_key_idx: 0,
                post_filters: &[],
                exact,
            };
            let row = |&(i, at): &(u32, u32)| {
                let rid = batch.sel.rid(i as usize);
                let mut values = batch.table.row_projected(rid, &batch.proj).into_values();
                values.extend(table.columns().iter().map(|c| c.get(at as usize)));
                Row::new(values)
            };
            let input = BatchTuples::new(batch, key_cols);
            probe.pairs(sched, &input).iter().map(row).collect()
        }
        let (strided, _) = both_arms();
        let dense = ColumnarBatch {
            sel: Selection::Dense(strided.table.row_count()),
            ..strided.clone()
        };
        let pool = WorkerPool::new(3);
        let [serial, pooled] = serial_and_pooled(&pool);
        for (batch, shape) in [(&strided, "strided"), (&dense, "dense")] {
            let rows = batch_rows(batch);
            let copy = gathered(batch);
            // Build sides of `(key, d)` rows. The first 60 tuples on the int
            // key (60 of its 701 values) and on the string key (all 5
            // values, so chains hold several matches per key); and, twice
            // over, one row per int key value, shifted out of the probe
            // domain unless it is a multiple of 100 — 8 of 701 values hit.
            let selective = (0..701i64).chain(0..701).map(|k| {
                let key = if k % 100 == 0 { k } else { k + 1_000_000 };
                Row::new(vec![Value::Int(key), Value::Date((k % 29) as i32)])
            });
            let builds: [(usize, DataType, Vec<Row>); 3] = [
                (
                    2,
                    DataType::Int,
                    rows[..60].iter().map(|r| r.project(&[2, 3])).collect(),
                ),
                (
                    0,
                    DataType::Str,
                    rows[..60].iter().map(|r| r.project(&[0, 3])).collect(),
                ),
                (2, DataType::Int, selective.collect()),
            ];
            for (b, (probe_key, key_type, build_rows)) in builds.iter().enumerate() {
                let mut table = ColumnHt::new(12, &[*key_type, DataType::Date]);
                for build_row in build_rows {
                    table.insert(build_row.key64(&[0]), build_row).unwrap();
                }
                let exact = exact_prefilter(&table, *key_type, rows.len());
                assert_eq!(
                    exact.is_some(),
                    *key_type == DataType::Int,
                    "build side {b}"
                );
                let key_cols = [*probe_key];
                let want = probed(serial, &copy, &key_cols, &table, None);
                assert!(!want.is_empty() && want.len() != rows.len());
                if b == 2 {
                    // Every hit key is in the build side twice.
                    let per_cent = want.len() / 2 * 100 / rows.len();
                    assert_eq!(per_cent, 1, "selective build side: {} rows", want.len());
                }
                for exact in [None, exact.as_ref()] {
                    for (label, got) in [
                        (
                            "gathered, pooled",
                            probed(pooled, &copy, &key_cols, &table, exact),
                        ),
                        (
                            "batch, serial",
                            probed(serial, batch, &key_cols, &table, exact),
                        ),
                        (
                            "batch, pooled",
                            probed(pooled, batch, &key_cols, &table, exact),
                        ),
                    ] {
                        let filter = if exact.is_some() { "exact" } else { "tags" };
                        assert_eq!(got, want, "{label}, {shape}, build side {b}, {filter}");
                    }
                }
            }
        }
    }

    /// Lowering keeps exactly the rows the interval contains, on every
    /// column type, under bounds of every type (a bound of another type
    /// holds for every value or for none), inclusive and exclusive, at
    /// either end of each domain.
    #[test]
    fn lowered_checks_keep_what_the_interval_contains() {
        let mut words = Column::new(DataType::Str);
        assert!(words.extend_values(&[Value::str("ash"), Value::str("m"), Value::str("oak")]));
        let columns = [
            Column::Int(vec![i64::MIN, -3, 0, 5, i64::MAX]),
            Column::Date(vec![i32::MIN, -1, 0, 7, i32::MAX]),
            Column::Float(vec![f64::NEG_INFINITY, -0.0, 0.0, 2.5, f64::NAN]),
            words,
        ];
        let values = [
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::float(f64::NEG_INFINITY),
            Value::float(-0.0),
            Value::float(2.5),
            Value::float(f64::NAN),
            Value::str("m"),
            Value::Date(i32::MIN),
            Value::Date(0),
            Value::Date(i32::MAX),
        ];
        let bounds = || {
            std::iter::once(Bound::Unbounded).chain(
                values
                    .iter()
                    .flat_map(|v| [Bound::Included(v.clone()), Bound::Excluded(v.clone())]),
            )
        };
        for col in &columns {
            for lo in bounds() {
                for hi in bounds() {
                    let iv = Interval::new(lo.clone(), hi);
                    let mut sel = Vec::new();
                    assert!(col.select_range(0..col.len(), &lower_check(&iv, col), &mut sel));
                    let want: Vec<u32> = (0..col.len() as u32)
                        .filter(|&i| iv.contains_value(&col.get(i as usize)))
                        .collect();
                    assert_eq!(sel, want, "{:?} in {iv:?}", col.data_type());
                }
            }
        }
    }

    /// Parallel execution is bit-identical (unsorted, row for row) to the
    /// serial interpreter, counters included.
    #[test]
    fn parallel_execution_is_bit_identical() {
        let (cat, htm) = setup();
        let pred = PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(25), Value::Int(55)),
        );
        let plan = PhysicalPlan::HashJoin {
            probe: Box::new(scan_all("orders")),
            build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::filtered(
                "customer", pred,
            )))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let mut serial = ExecContext::new(&cat, &htm).with_parallelism(1);
        let (_, want) = execute(&plan, &mut serial).unwrap();
        for workers in [2, 4, 8] {
            let mut par = ExecContext::new(&cat, &htm).with_parallelism(workers);
            let (_, got) = execute(&plan, &mut par).unwrap();
            assert_eq!(got, want, "{workers} workers");
            assert_eq!(par.metrics, serial.metrics, "{workers} workers");
        }
    }

    #[test]
    fn empty_region_scan_returns_nothing() {
        let (cat, htm) = setup();
        let plan = PhysicalPlan::Scan(ScanSpec {
            table: "customer".into(),
            region: Region::empty(),
            projection: vec![],
        });
        let mut ctx = ExecContext::new(&cat, &htm);
        let (_, rows) = execute(&plan, &mut ctx).unwrap();
        assert!(rows.is_empty());
        assert_eq!(ctx.metrics.rows_scanned, 0);
    }
}
