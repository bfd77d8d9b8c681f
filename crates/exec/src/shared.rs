//! Reuse-aware shared plans (paper §4).
//!
//! A shared plan executes a *batch* of queries with the same join graph in
//! one pass. Its joins are not special: they are an ordinary
//! [`PhysicalPlan::HashJoin`] chain over the union of the batch's predicate
//! regions, run by the single-query executor ([`crate::exec::execute`]) with
//! its partitioned builds, its probe spine and its reuse directives — so a
//! shared batch and a single query reuse each other's join tables, and exact
//! or subsuming reuse is a read-only `Arc` checkout.
//!
//! What is shared-specific lives here:
//!
//! * **Per-query qualification.** Each query's predicate box is bound once
//!   to the schema it reads and evaluated per row, when the row is read.
//! * **The SRHA grouping phase.** Queries with identical group-by share one
//!   table of *raw* rows grouped by key, which is why a cached grouping table
//!   can later serve a different aggregate function. Reusing it is
//!   read-only unless a delta (partial/overlapping reuse) must be folded in.
//! * **Per-query aggregation** over the grouping table's qualifying rows,
//!   through the executor's aggregate fold.
//!
//! The paper's Data-Query model instead tags every stored tuple with the
//! set of queries it qualifies for and re-tags a cached table before reusing
//! it. Evaluating qualification at read time gives the same answers, stores
//! plain tuples (a [`ColumnHt`]'s typed columns), and never rewrites a
//! cached table.

use hashstash_types::{DataType, Field, QueryId, Result, Row, Schema};

use hashstash_cache::{AggHt, ColumnHt};
use hashstash_plan::{AggExpr, HtFingerprint, QuerySpec, Region, ReuseCase};

use crate::exec::{
    fold_tuples, produce_agg_output, AggSource, BoxEval, EntryTuples, ExecContext, Pipe,
};
use crate::join::RowTable;
use crate::parallel::{collect_morsels, MIN_PARALLEL_BUILD_ROWS};
use crate::plan::{lookup_attr_type, OutputAgg, PhysicalPlan, ReuseSpec};
use crate::result::ResultRows;

/// Output required by one query of the batch.
#[derive(Debug, Clone)]
pub enum SharedOutput {
    /// SPJ: project the join pipeline rows the query qualifies for.
    Projection(Vec<std::sync::Arc<str>>),
    /// SPJA: aggregate the query's qualifying rows of a grouping table.
    Aggregate {
        /// Index into [`SharedPlanSpec::group_specs`].
        group_spec: usize,
        /// This query's aggregate expressions.
        aggs: Vec<AggExpr>,
    },
}

/// One shared grouping phase (queries with identical group-by share it).
#[derive(Debug, Clone)]
pub struct SharedGroupSpec {
    /// Group-by attributes.
    pub group_by: Vec<std::sync::Arc<str>>,
    /// Attributes stored per grouped row: the group-by, and every sharing
    /// query's aggregate inputs and predicate attributes (qualification is
    /// evaluated on stored rows).
    pub stored_attrs: Vec<std::sync::Arc<str>>,
    /// Reuse directive for the grouping table; its `request_region` is the
    /// batch's union region. `post_filter` is unused: qualification filters.
    pub reuse: Option<ReuseSpec>,
    /// Publish fingerprint for a fresh table.
    pub publish: Option<HtFingerprint>,
}

/// A complete shared plan for a batch of queries with one join graph.
#[derive(Debug, Clone)]
pub struct SharedPlanSpec {
    /// The batch; slot `i` is query `queries[i]`.
    pub queries: Vec<QuerySpec>,
    /// The join pipeline: the driver scan probed through a hash-join chain,
    /// with ordinary reuse/publish directives. `None` when no output needs
    /// it (every grouping phase is covered by a cached table).
    pub join: Option<PhysicalPlan>,
    /// Shared grouping phases.
    pub group_specs: Vec<SharedGroupSpec>,
    /// Per-query outputs, aligned with `queries`.
    pub outputs: Vec<SharedOutput>,
}

impl SharedPlanSpec {
    /// Every reuse directive of the plan — the join chain's, then the
    /// grouping tables' — for the session to pin before execution.
    pub fn reuse_specs(&self) -> Vec<&ReuseSpec> {
        let mut out = self
            .join
            .as_ref()
            .map(PhysicalPlan::reuse_specs)
            .unwrap_or_default();
        out.extend(self.group_specs.iter().filter_map(|g| g.reuse.as_ref()));
        out
    }

    /// The reuse decisions behind query `slot`'s result (paper Table 8b):
    /// the join chain's, if it runs, plus its grouping phase as `agg`.
    pub fn reuse_decisions(&self, slot: usize) -> Vec<(String, Option<ReuseCase>)> {
        let mut out = self
            .join
            .as_ref()
            .map(PhysicalPlan::reuse_decisions)
            .unwrap_or_default();
        if let Some(SharedOutput::Aggregate { group_spec, .. }) = self.outputs.get(slot) {
            let reuse = self.group_specs[*group_spec].reuse.as_ref();
            out.push(("agg".to_string(), reuse.map(|r| r.case)));
        }
        out
    }
}

/// Result of one query in the batch.
#[derive(Debug, Clone)]
pub struct SharedQueryResult {
    pub query: QueryId,
    pub schema: Schema,
    pub rows: ResultRows,
}

/// Execute a shared plan, returning per-query results in batch order.
pub fn execute_shared(
    spec: &SharedPlanSpec,
    ctx: &mut ExecContext<'_>,
) -> Result<Vec<SharedQueryResult>> {
    let (pschema, prows) = match &spec.join {
        Some(plan) => {
            let (schema, rows) = crate::exec::execute(plan, ctx)?;
            (schema, rows.into_vec())
        }
        None => (Schema::new(Vec::new()), Vec::new()),
    };
    let union = spec
        .queries
        .iter()
        .fold(Region::empty(), |acc, q| acc.union(&q.region()));
    let mut groups = Vec::with_capacity(spec.group_specs.len());
    for g in &spec.group_specs {
        groups.push(run_grouping_phase(g, &union, &pschema, &prows, ctx)?);
    }

    let mut results = Vec::with_capacity(spec.queries.len());
    for (q, output) in spec.queries.iter().zip(&spec.outputs) {
        let (schema, rows) = match output {
            SharedOutput::Projection(attrs) => {
                let qualifies = BoxEval::bind(&q.predicates, &pschema)?;
                let idx = attrs
                    .iter()
                    .map(|a| pschema.index_of(a))
                    .collect::<Result<Vec<_>>>()?;
                let names: Vec<&str> = attrs.iter().map(|a| a.as_ref()).collect();
                let rows = collect_morsels(ctx.sched(), prows.len(), |range| {
                    prows[range]
                        .iter()
                        .filter(|r| qualifies.eval(r))
                        .map(|r| r.project(&idx))
                        .collect()
                });
                (pschema.project(&names)?, Pipe::Rows(rows))
            }
            SharedOutput::Aggregate { group_spec, aggs } => {
                let (table, gschema) = &groups[*group_spec];
                aggregate_for_query(q, aggs, table.read_table(), gschema, ctx)?
            }
        };
        results.push(SharedQueryResult {
            query: q.id,
            schema,
            rows: ResultRows::new(rows),
        });
    }

    for (g, (table, schema)) in spec.group_specs.iter().zip(groups) {
        table.finish(ctx, g.publish.as_ref(), schema);
    }
    Ok(results)
}

/// Acquire (fresh or reused) the grouping table of one phase and fold in
/// the pipeline rows it still lacks: the batch's whole union region for a
/// fresh table, the delta region for partial/overlapping reuse, nothing for
/// exact/subsuming reuse (a read-only checkout).
fn run_grouping_phase<'m>(
    g: &SharedGroupSpec,
    union: &Region,
    pschema: &Schema,
    prows: &[Row],
    ctx: &mut ExecContext<'m>,
) -> Result<(RowTable<'m>, Schema)> {
    let (schema, mut table, need) = match &g.reuse {
        Some(r) => {
            let co = RowTable::checkout(ctx, r)?;
            let need = r
                .case
                .needs_delta()
                .then(|| r.request_region.difference(&r.cached_region));
            ((*co.schema).clone(), RowTable::Reused(co), need)
        }
        None => {
            let fields = g
                .stored_attrs
                .iter()
                .map(|a| Ok(Field::new(a.to_string(), lookup_attr_type(ctx.catalog, a)?)))
                .collect::<Result<Vec<_>>>()?;
            let schema = Schema::new(fields);
            ctx.metrics.built_tables += 1;
            let table = RowTable::fresh(&schema);
            (schema, table, Some(union.clone()))
        }
    };
    if let Some(need) = need {
        // Store rows in the table's own layout, keyed on its group-by.
        let stored_idx = schema
            .fields()
            .iter()
            .map(|f| pschema.index_of(&f.name))
            .collect::<Result<Vec<_>>>()?;
        let key_idx = g
            .group_by
            .iter()
            .map(|a| schema.index_of(a))
            .collect::<Result<Vec<_>>>()?;
        let need = need
            .boxes()
            .iter()
            .map(|b| BoxEval::bind(b, pschema))
            .collect::<Result<Vec<_>>>()?;
        let rows: Vec<&Row> = prows
            .iter()
            .filter(|r| need.iter().any(|b| b.eval(r)))
            .collect();
        let key_idx: Vec<usize> = key_idx.iter().map(|&k| stored_idx[k]).collect();
        table.write_table()?.append(
            rows.len(),
            |c, col| col.extend_values(rows.iter().map(|r| r.get(stored_idx[c]))),
            |index| {
                for r in &rows {
                    index.insert(r.key64(&key_idx), ());
                }
            },
        )?;
        ctx.metrics.ht_inserts += rows.len() as u64;
    }
    if let Some(r) = &g.reuse {
        table = table.checked_in(r)?;
    }
    Ok((table, schema))
}

/// Aggregate the rows of a grouping table that query `q` qualifies for.
/// The grouping table's inserts are the SRHA's hash-table inserts; this
/// phase counts one accumulator update per qualifying row.
fn aggregate_for_query(
    q: &QuerySpec,
    aggs: &[AggExpr],
    table: &ColumnHt,
    schema: &Schema,
    ctx: &mut ExecContext<'_>,
) -> Result<(Schema, Pipe)> {
    let qualifies = BoxEval::bind(&q.predicates, schema)?;
    let sel: Vec<u32> = collect_morsels(ctx.sched(), table.len(), |range| {
        range
            .filter(|&at| qualifies.eval_at(table.columns(), at))
            .map(|at| at as u32)
            .collect()
    });
    let group_idx = q
        .group_by
        .iter()
        .map(|a| schema.index_of(a))
        .collect::<Result<Vec<_>>>()?;
    let agg_idx = aggs
        .iter()
        .map(|a| schema.index_of(&a.attr))
        .collect::<Result<Vec<_>>>()?;
    let input = EntryTuples {
        table,
        sel: &sel,
        key_cols: &group_idx,
    };
    let parallel = ctx.parallelism > 1 && sel.len() >= MIN_PARALLEL_BUILD_ROWS;
    let group_types: Vec<DataType> = group_idx
        .iter()
        .map(|&c| schema.field_at(c).dtype)
        .collect();
    let states: Vec<_> = aggs
        .iter()
        .zip(&agg_idx)
        .map(|(a, &c)| (a.func, schema.field_at(c).dtype))
        .collect();
    let mut ht = AggHt::new(schema.tuple_width(), &group_types, &states);
    let (inserts, updates) = fold_tuples(ctx.sched(), &mut ht, &input, schema, &agg_idx, parallel)?;
    ctx.metrics.ht_updates += inserts + updates;
    let outputs: Vec<OutputAgg> = (0..aggs.len()).map(OutputAgg::Direct).collect();
    produce_agg_output(
        ctx,
        AggSource::Fresh(ht, schema.clone()),
        &None,
        &q.group_by,
        &outputs,
        &None,
        &None,
        &None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScanSpec;
    use hashstash_cache::HtManager;
    use hashstash_plan::{AggFunc, HtKind, Interval, PredBox, QueryBuilder};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_storage::Catalog;
    use hashstash_types::Value;
    use std::sync::Arc;

    fn setup() -> (Catalog, HtManager) {
        (generate(TpchConfig::new(0.002, 11)), HtManager::unbounded())
    }

    fn mk_query(id: u32, age_lo: i64, age_hi: i64) -> QuerySpec {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(age_lo), Value::Int(age_hi)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .build()
            .unwrap()
    }

    fn ages(lo: i64, hi: i64) -> Region {
        Region::from_box(PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        ))
    }

    /// orders ⋈ customer over the batch's customer region, building (or
    /// reusing) the customer table.
    fn customer_join(
        queries: &[QuerySpec],
        reuse: Option<ReuseSpec>,
        publish: Option<HtFingerprint>,
    ) -> PhysicalPlan {
        let region = queries
            .iter()
            .fold(Region::empty(), |acc, q| acc.union(&q.region()))
            .project_table("customer");
        PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(
                ScanSpec::full("orders").project(&["orders.o_orderkey", "orders.o_custkey"]),
            )),
            build: reuse.is_none().then(|| {
                Box::new(PhysicalPlan::Scan(ScanSpec {
                    table: "customer".into(),
                    region,
                    projection: vec!["customer.c_age".into(), "customer.c_custkey".into()],
                }))
            }),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse,
            publish,
        }
    }

    fn mk_spec(queries: Vec<QuerySpec>, join: PhysicalPlan) -> SharedPlanSpec {
        let outputs = queries
            .iter()
            .map(|q| SharedOutput::Aggregate {
                group_spec: 0,
                aggs: q.aggregates.clone(),
            })
            .collect();
        SharedPlanSpec {
            queries,
            join: Some(join),
            group_specs: vec![SharedGroupSpec {
                group_by: vec!["customer.c_age".into()],
                stored_attrs: vec!["customer.c_age".into(), "orders.o_orderkey".into()],
                reuse: None,
                publish: None,
            }],
            outputs,
        }
    }

    fn customer_fp(region: Region) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region,
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_age"), Arc::from("customer.c_custkey")],
            aggregates: vec![],
        }
    }

    /// Reference: run one query through the single-query executor.
    fn reference(q: &QuerySpec, cat: &Catalog) -> Vec<Row> {
        let htm = HtManager::unbounded();
        let plan = PhysicalPlan::HashAggregate {
            input: Some(Box::new(PhysicalPlan::HashJoin {
                probe: Box::new(PhysicalPlan::Scan(
                    ScanSpec::full("orders").project(&["orders.o_orderkey", "orders.o_custkey"]),
                )),
                build: Some(Box::new(PhysicalPlan::Scan(
                    ScanSpec::filtered("customer", q.predicates.project_table("customer"))
                        .project(&["customer.c_custkey", "customer.c_age"]),
                ))),
                probe_key: "orders.o_custkey".into(),
                build_key: "customer.c_custkey".into(),
                reuse: None,
                publish: None,
            })),
            group_by: vec!["customer.c_age".into()],
            aggs: q.aggregates.clone(),
            output_aggs: vec![OutputAgg::Direct(0)],
            reuse: None,
            publish: None,
            post_group_by: None,
        };
        let mut ctx = ExecContext::new(cat, &htm);
        let mut rows = crate::exec::execute(&plan, &mut ctx).unwrap().1.into_vec();
        rows.sort();
        rows
    }

    #[test]
    fn shared_plan_matches_individual_execution() {
        let (cat, htm) = setup();
        let queries = vec![
            mk_query(1, 20, 40),
            mk_query(2, 30, 60),
            mk_query(3, 50, 80),
        ];
        let spec = mk_spec(queries.clone(), customer_join(&queries, None, None));
        let mut ctx = ExecContext::new(&cat, &htm);
        let results = execute_shared(&spec, &mut ctx).unwrap();
        assert_eq!(results.len(), 3);
        for (q, res) in queries.iter().zip(&results) {
            let mut got = res.rows.clone().into_vec();
            got.sort();
            let want = reference(q, &cat);
            assert_eq!(got, want, "query {} differs", q.id);
        }
    }

    #[test]
    fn shared_plan_publishes_join_tables() {
        let (cat, htm) = setup();
        let queries = vec![mk_query(1, 20, 40), mk_query(2, 30, 60)];
        let fp = customer_fp(ages(20, 60));
        let spec = mk_spec(
            queries.clone(),
            customer_join(&queries, None, Some(fp.clone())),
        );
        let mut ctx = ExecContext::new(&cat, &htm);
        execute_shared(&spec, &mut ctx).unwrap();
        let cands = htm.candidates(&fp);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].fingerprint.same_lineage(&fp));
    }

    #[test]
    fn shared_join_reuse_matches_fresh_run() {
        let (cat, htm) = setup();
        // Batch 1 publishes the customer table over ages [20, 60].
        let batch1 = vec![mk_query(1, 20, 40), mk_query(2, 30, 60)];
        let fp = customer_fp(ages(20, 60));
        let spec1 = mk_spec(
            batch1.clone(),
            customer_join(&batch1, None, Some(fp.clone())),
        );
        let mut ctx = ExecContext::new(&cat, &htm);
        execute_shared(&spec1, &mut ctx).unwrap();
        let cand = htm.candidates(&fp).remove(0);

        // Batch 2 (subset ages) reuses it read-only, without a post-filter:
        // per-query qualification drops the stored rows it does not need.
        let batch2 = vec![mk_query(10, 25, 35), mk_query(11, 40, 55)];
        let reuse = ReuseSpec {
            id: cand.id,
            case: ReuseCase::Subsuming,
            post_filter: None,
            request_region: ages(25, 55),
            cached_region: fp.region.clone(),
            schema: cand.schema.clone(),
        };
        let spec2 = mk_spec(batch2.clone(), customer_join(&batch2, Some(reuse), None));
        let mut ctx2 = ExecContext::new(&cat, &htm);
        let results = execute_shared(&spec2, &mut ctx2).unwrap();
        assert_eq!(ctx2.metrics.reused_tables, 1);
        assert_eq!(ctx2.metrics.built_tables, 1, "only the grouping table");
        for (q, res) in batch2.iter().zip(&results) {
            let mut got = res.rows.clone().into_vec();
            got.sort();
            assert_eq!(got, reference(q, &cat), "query {} differs", q.id);
        }
    }

    #[test]
    fn spj_projection_output() {
        let (cat, htm) = setup();
        let q = QueryBuilder::new(5)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(30), Value::Int(35)),
            )
            .project(&["orders.o_orderkey", "customer.c_age"])
            .build()
            .unwrap();
        let queries = vec![q];
        let spec = SharedPlanSpec {
            join: Some(customer_join(&queries, None, None)),
            queries,
            group_specs: vec![],
            outputs: vec![SharedOutput::Projection(vec![
                "orders.o_orderkey".into(),
                "customer.c_age".into(),
            ])],
        };
        let mut ctx = ExecContext::new(&cat, &htm);
        let results = execute_shared(&spec, &mut ctx).unwrap();
        assert_eq!(results.len(), 1);
        assert!(!results[0].rows.is_empty());
        for r in &results[0].rows {
            let age = r.get(1).as_int().unwrap();
            assert!((30..=35).contains(&age));
        }
    }
}
