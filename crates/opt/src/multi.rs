//! The query-batch interface: DP-based merging into reuse-aware shared
//! plans (paper §4.2).
//!
//! Merge configurations are built incrementally: starting from the first
//! query, every subsequent query is either merged into one of the existing
//! shared groups (only legal when the join graphs are identical) or kept as
//! a separate single-query plan. At every level the configuration with the
//! minimal estimated total runtime survives; evaluated group costs are
//! memoized (paper Figure 6).
//!
//! A shared group's joins are planned like a single query's: one hash-join
//! chain from the driver (largest) table over the batch's union region,
//! each build side matched against the cache by the same
//! [`find_matches`](crate::matching::find_matches) and priced by the same
//! cost terms, and the driver scan priced by the same index-or-full-scan
//! rule, all through the batch's [`Optimizer`]. No post-filter is attached
//! to a reused build side — the executor qualifies every row per query — so
//! the chain runs unchanged through `hashstash_exec::execute`, and single
//! queries and shared batches reuse each other's join tables. Grouping
//! tables (the SRHA raw-row tables) are matched the same way under
//! `HtKind::SharedGroup`.

use std::collections::HashMap;
use std::sync::Arc;

use hashstash_types::{HsError, Result};

use hashstash_cache::HtManager;
use hashstash_exec::plan::{PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::shared::{SharedGroupSpec, SharedOutput, SharedPlanSpec};
use hashstash_plan::{HtFingerprint, HtKind, PredBox, QuerySpec, Region};
use hashstash_storage::Catalog;

use crate::cost::CostModel;
use crate::matching::MatchRewrite;
use crate::optimizer::{required_attrs, sorted_edges, Optimizer};
use crate::policy::EngineStrategy;
use crate::stats::DbStats;

/// One unit of a batch plan.
#[derive(Debug)]
pub enum BatchUnit {
    /// Execute the query alone through the single-query interface.
    Single {
        /// Index into the batch.
        index: usize,
        /// Estimated cost.
        est_cost_ns: f64,
    },
    /// Execute several queries through one reuse-aware shared plan.
    Shared {
        /// Indices into the batch, in slot order.
        indices: Vec<usize>,
        /// The executable shared plan.
        spec: Box<SharedPlanSpec>,
        /// Estimated cost.
        est_cost_ns: f64,
    },
}

/// The planned batch.
#[derive(Debug)]
pub struct BatchPlan {
    pub units: Vec<BatchUnit>,
    pub est_cost_ns: f64,
}

/// Plan a batch of queries into single plans and reuse-aware shared plans.
pub fn plan_batch(
    queries: &[QuerySpec],
    catalog: &Catalog,
    stats: &DbStats,
    cost: &CostModel,
    strategy: EngineStrategy,
    htm: &HtManager,
) -> Result<BatchPlan> {
    if queries.is_empty() {
        return Ok(BatchPlan {
            units: vec![],
            est_cost_ns: 0.0,
        });
    }
    let optimizer = Optimizer::new(catalog, stats, cost, strategy);
    let mut single_cost: Vec<f64> = Vec::with_capacity(queries.len());
    for q in queries.iter() {
        single_cost.push(optimizer.optimize(q, htm)?.est_cost_ns);
    }

    // Incremental DP over merge configurations (paper Figure 6): groups of
    // query indices; singletons may later become shared groups.
    let mut groups: Vec<Vec<usize>> = vec![vec![0]];
    let mut group_cost_memo: HashMap<Vec<usize>, f64> = HashMap::new();
    let mut eval_group = |g: &Vec<usize>| -> f64 {
        if g.len() == 1 {
            return single_cost[g[0]];
        }
        if let Some(&c) = group_cost_memo.get(g) {
            return c;
        }
        let qs: Vec<&QuerySpec> = g.iter().map(|&i| &queries[i]).collect();
        // A group that cannot run as one join chain never merges.
        let c = derive_shared_spec(&optimizer, &qs, htm).map_or(f64::INFINITY, |(_, c)| c);
        group_cost_memo.insert(g.clone(), c);
        c
    };
    for i in 1..queries.len() {
        // Option A: keep query i separate.
        let mut best_groups = groups.clone();
        best_groups.push(vec![i]);
        let mut best_cost: f64 = best_groups.iter().map(&mut eval_group).sum();
        // Option B: merge query i into each mergeable existing group.
        for gi in 0..groups.len() {
            let mergeable = groups[gi]
                .iter()
                .all(|&j| queries[j].same_join_graph(&queries[i]));
            if !mergeable {
                continue;
            }
            let mut candidate = groups.clone();
            candidate[gi].push(i);
            let total: f64 = candidate.iter().map(&mut eval_group).sum();
            if total < best_cost {
                best_cost = total;
                best_groups = candidate;
            }
        }
        groups = best_groups;
    }

    // Materialize units.
    let mut units = Vec::new();
    let mut total = 0.0;
    for g in groups {
        if g.len() == 1 {
            let c = single_cost[g[0]];
            total += c;
            units.push(BatchUnit::Single {
                index: g[0],
                est_cost_ns: c,
            });
        } else {
            let qs: Vec<&QuerySpec> = g.iter().map(|&i| &queries[i]).collect();
            let (spec, c) = derive_shared_spec(&optimizer, &qs, htm)?;
            total += c;
            units.push(BatchUnit::Shared {
                indices: g,
                spec: Box::new(spec),
                est_cost_ns: c,
            });
        }
    }
    Ok(BatchPlan {
        units,
        est_cost_ns: total,
    })
}

/// Union of the queries' predicate regions.
fn union_region(queries: &[&QuerySpec]) -> Region {
    queries
        .iter()
        .fold(Region::empty(), |acc, q| acc.union(&q.region()))
}

/// The driver (probe pipeline) table: the query's largest.
fn driver_table(q: &QuerySpec, stats: &DbStats) -> Arc<str> {
    q.tables
        .iter()
        .max_by_key(|t| stats.table_rows(t))
        .expect("query has tables")
        .clone()
}

/// One build side of a shared plan's join chain.
struct JoinStep {
    table: Arc<str>,
    /// Join key on the accumulated (probe) side.
    probe_key: Arc<str>,
    /// The table a fresh build publishes: keyed on the build-side join
    /// key, over the batch's union region projected to `table`.
    request: HtFingerprint,
}

/// The join chain of a batch, in probe order: breadth-first from the
/// driver along the shared join graph.
fn join_steps(queries: &[&QuerySpec], driver: &Arc<str>, union: &Region) -> Result<Vec<JoinStep>> {
    let q0 = queries[0];
    let mut covered: Vec<Arc<str>> = vec![driver.clone()];
    let mut remaining: Vec<Arc<str>> = q0.tables.iter().filter(|t| *t != driver).cloned().collect();
    let mut steps = Vec::new();
    while !remaining.is_empty() {
        let next = remaining.iter().enumerate().find_map(|(ri, t)| {
            q0.joins.iter().find_map(|e| {
                if e.left_table == *t && covered.contains(&e.right_table) {
                    Some((ri, e.right_col.clone(), e.left_col.clone()))
                } else if e.right_table == *t && covered.contains(&e.left_table) {
                    Some((ri, e.left_col.clone(), e.right_col.clone()))
                } else {
                    None
                }
            })
        });
        let Some((ri, probe_key, build_key)) = next else {
            return Err(HsError::PlanError(
                "shared plan: join graph is not connected from the driver".into(),
            ));
        };
        let table = remaining.remove(ri);
        let request = HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(table.clone()).collect(),
            edges: vec![],
            region: union.project_table(&table),
            key_attrs: vec![build_key],
            payload_attrs: required_attrs(queries, &table),
            aggregates: vec![],
        };
        covered.push(table.clone());
        steps.push(JoinStep {
            table,
            probe_key,
            request,
        });
    }
    Ok(steps)
}

/// A base-table scan of `region` projected to `attrs`.
fn scan(table: &Arc<str>, region: Region, attrs: Vec<Arc<str>>) -> PhysicalPlan {
    PhysicalPlan::Scan(ScanSpec {
        table: table.clone(),
        region,
        projection: attrs,
    })
}

/// A reuse directive for a matched candidate. No post-filter: shared plans
/// qualify every row per query.
fn reuse_spec(m: &MatchRewrite, request: &HtFingerprint) -> ReuseSpec {
    ReuseSpec {
        post_filter: None,
        ..m.reuse_spec(&request.region)
    }
}

/// Derive an executable [`SharedPlanSpec`] for a mergeable group, making
/// reuse decisions against the current cache state, and its estimated
/// runtime. The strategy decides whether reuse candidates are matched and
/// which fresh tables are admitted (published) into the cache.
pub fn derive_shared_spec(
    opt: &Optimizer,
    queries: &[&QuerySpec],
    htm: &HtManager,
) -> Result<(SharedPlanSpec, f64)> {
    let (stats, cost, strategy) = (opt.stats, opt.cost, opt.strategy);
    let q0 = queries[0];
    let driver = driver_table(q0, stats);
    let union = union_region(queries);
    let joined =
        |region: &Region| stats.join_rows(q0.tables.iter().map(|t| t.as_ref()), &q0.joins, region);
    let candidates = |request: &HtFingerprint| opt.candidates(htm, request, &PredBox::all());
    let best = |ms: Vec<MatchRewrite>| ms.into_iter().max_by(|a, b| a.contr.total_cmp(&b.contr));
    let mut total = 0.0;

    // Shared grouping phases: one per distinct group-by list.
    let mut group_specs: Vec<SharedGroupSpec> = Vec::new();
    let mut outputs: Vec<SharedOutput> = Vec::new();
    for &q in queries {
        if !q.is_aggregate() {
            let attrs = if q.projection.is_empty() {
                required_attrs(&[q], &driver)
            } else {
                q.projection.clone()
            };
            outputs.push(SharedOutput::Projection(attrs));
            continue;
        }
        // Per-query aggregation over the grouping table.
        let rows_q = joined(&q.region());
        let groups = stats.distinct_combinations(&q.group_by, rows_q.max(1.0));
        total += cost.rha_fresh(rows_q, groups, 48.0) * 0.5 + cost.output(groups);
        let group_spec = match group_specs.iter().position(|g| g.group_by == q.group_by) {
            Some(gi) => gi,
            None => {
                // Stored attrs: everything any sharing query needs.
                let mut stored: Vec<Arc<str>> = q.group_by.clone();
                for s in queries
                    .iter()
                    .filter(|p| p.group_by == q.group_by && p.is_aggregate())
                {
                    stored.extend(s.aggregates.iter().map(|a| a.attr.clone()));
                    stored.extend(s.predicates.constrained().map(|(a, _)| a.clone()));
                }
                stored.sort();
                stored.dedup();
                let request = HtFingerprint {
                    kind: HtKind::SharedGroup,
                    tables: q0.tables.clone(),
                    edges: sorted_edges(q0),
                    region: union.clone(),
                    key_attrs: q.group_by.clone(),
                    payload_attrs: stored.clone(),
                    aggregates: vec![],
                };
                // A delta is folded in the cached table's own layout, so
                // that layout — and the delta region — must be made of
                // attributes the pipeline carries.
                let foldable = |m: &MatchRewrite| {
                    let carried = |a: &Arc<str>| stored.contains(a);
                    !m.case.needs_delta()
                        || (m.candidate.fingerprint.payload_attrs.iter().all(carried)
                            && m.delta_region.attrs().iter().all(carried))
                };
                let m = best(
                    candidates(&request)
                        .into_iter()
                        .filter(|m| !m.needs_post_group && foldable(m))
                        .collect(),
                );
                // Grouping inserts: every joined row, or the delta's.
                let inserted = match &m {
                    None => joined(&union),
                    Some(m) => joined(&m.delta_region),
                };
                total += cost.rha_fresh(inserted, inserted, 48.0) * 0.5;
                let reuse = m.map(|m| reuse_spec(&m, &request));
                group_specs.push(SharedGroupSpec {
                    group_by: q.group_by.clone(),
                    stored_attrs: stored,
                    publish: (strategy.admits(None) && reuse.is_none()).then_some(request),
                    reuse,
                });
                group_specs.len() - 1
            }
        };
        outputs.push(SharedOutput::Aggregate {
            group_spec,
            aggs: q.aggregates.clone(),
        });
    }

    // The join pipeline runs only for the rows some output still needs:
    // projections and fresh grouping tables need the union region, a
    // partially reused grouping table its delta.
    let pipeline_region = outputs
        .iter()
        .filter_map(|o| match o {
            SharedOutput::Projection(_) => Some(union.clone()),
            SharedOutput::Aggregate { group_spec, .. } => match &group_specs[*group_spec].reuse {
                None => Some(union.clone()),
                Some(r) if r.case.needs_delta() => {
                    Some(r.request_region.difference(&r.cached_region))
                }
                Some(_) => None,
            },
        })
        .reduce(|a, b| a.union(&b));
    let join = if let Some(pipeline_region) = pipeline_region {
        let driver_region = pipeline_region.project_table(&driver);
        let driver_rows = stats.filtered_rows(&driver, &driver_region);
        total += opt.scan_cost(&driver, &driver_region.attrs(), driver_rows)?;
        let mut plan = scan(&driver, driver_region, required_attrs(queries, &driver));
        for step in join_steps(queries, &driver, &union)? {
            let build_rows = stats.filtered_rows(&step.table, &step.request.region);
            let m = best(candidates(&step.request));
            // Probe volume: the pipeline stream (approximated by driver rows).
            total += match &m {
                None => cost.rhj_fresh(build_rows.max(1.0), 24.0, driver_rows),
                Some(m) => cost.rhj_reuse(&m.shape(), build_rows, driver_rows, driver_rows),
            };
            let build = match &m {
                None => Some(scan(
                    &step.table,
                    step.request.region.clone(),
                    step.request.payload_attrs.clone(),
                )),
                // The delta lands in the cached table: scan it in that layout.
                Some(m) if m.case.needs_delta() => {
                    let attrs = m
                        .candidate
                        .schema
                        .fields()
                        .iter()
                        .map(|f| f.name.as_str().into());
                    Some(scan(&step.table, m.delta_region.clone(), attrs.collect()))
                }
                Some(_) => None,
            };
            let reuse = m.map(|m| reuse_spec(&m, &step.request));
            plan = PhysicalPlan::HashJoin {
                probe: Box::new(plan),
                probe_key: step.probe_key,
                build_key: step.request.key_attrs[0].clone(),
                build: build.map(Box::new),
                publish: (strategy.admits(None) && reuse.is_none()).then_some(step.request),
                reuse,
            };
        }
        Some(plan)
    } else {
        None
    };

    let spec = SharedPlanSpec {
        queries: queries.iter().map(|&q| q.clone()).collect(),
        join,
        group_specs,
        outputs,
    };
    Ok((spec, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_cache::GcConfig;
    use hashstash_exec::shared::execute_shared;
    use hashstash_exec::ExecContext;
    use hashstash_plan::{AggExpr, AggFunc, Interval, QueryBuilder};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_types::{Row, Value};

    fn setup() -> (Catalog, DbStats, CostModel) {
        let cat = generate(TpchConfig::new(0.002, 31));
        let stats = DbStats::from_catalog(&cat);
        (cat, stats, CostModel::synthetic())
    }

    fn mk(id: u32, lo: i64, hi: i64) -> QuerySpec {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .build()
            .unwrap()
    }

    #[test]
    fn batch_merges_same_join_graph() {
        let (cat, stats, cost) = setup();
        let htm = HtManager::new(GcConfig::default());
        let queries = vec![mk(1, 20, 40), mk(2, 30, 50), mk(3, 35, 60), mk(4, 50, 70)];
        let plan = plan_batch(
            &queries,
            &cat,
            &stats,
            &cost,
            EngineStrategy::HashStash,
            &htm,
        )
        .unwrap();
        // All four share a join graph — expect at least one shared unit.
        assert!(plan
            .units
            .iter()
            .any(|u| matches!(u, BatchUnit::Shared { .. })));
        let covered: usize = plan
            .units
            .iter()
            .map(|u| match u {
                BatchUnit::Single { .. } => 1,
                BatchUnit::Shared { indices, .. } => indices.len(),
            })
            .sum();
        assert_eq!(covered, 4, "every query appears exactly once");
    }

    #[test]
    fn batch_keeps_different_join_graphs_apart() {
        let (cat, stats, cost) = setup();
        let htm = HtManager::new(GcConfig::default());
        let other = QueryBuilder::new(9)
            .join("part", "part.p_partkey", "lineitem", "lineitem.l_partkey")
            .filter(
                "part.p_size",
                Interval::closed(Value::Int(1), Value::Int(10)),
            )
            .group_by("part.p_brand")
            .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
            .build()
            .unwrap();
        let queries = vec![mk(1, 20, 40), other, mk(3, 30, 50)];
        let plan = plan_batch(
            &queries,
            &cat,
            &stats,
            &cost,
            EngineStrategy::HashStash,
            &htm,
        )
        .unwrap();
        for u in &plan.units {
            if let BatchUnit::Shared { indices, .. } = u {
                assert!(
                    !indices.contains(&1),
                    "the part–lineitem query must not merge with customer–orders"
                );
            }
        }
    }

    /// Execute a planned batch unit by unit, returning each query's rows
    /// (sorted) in batch order.
    fn run_batch(
        plan: BatchPlan,
        queries: &[QuerySpec],
        cat: &Catalog,
        htm: &HtManager,
    ) -> Vec<Vec<Row>> {
        let stats = DbStats::from_catalog(cat);
        let cost = CostModel::synthetic();
        let opt = Optimizer::new(cat, &stats, &cost, EngineStrategy::HashStash);
        let mut out: Vec<Vec<Row>> = vec![Vec::new(); queries.len()];
        for unit in plan.units {
            let mut ctx = ExecContext::new(cat, htm);
            match unit {
                BatchUnit::Single { index, .. } => {
                    let oq = opt.optimize(&queries[index], htm).unwrap();
                    out[index] = hashstash_exec::execute(&oq.plan, &mut ctx)
                        .unwrap()
                        .1
                        .into_vec();
                }
                BatchUnit::Shared { indices, spec, .. } => {
                    for (i, r) in indices
                        .into_iter()
                        .zip(execute_shared(&spec, &mut ctx).unwrap())
                    {
                        out[i] = r.rows;
                    }
                }
            }
        }
        for rows in &mut out {
            rows.sort();
        }
        out
    }

    /// Reference answers: every query alone, without reuse.
    fn one_at_a_time(queries: &[QuerySpec], cat: &Catalog) -> Vec<Vec<Row>> {
        let stats = DbStats::from_catalog(cat);
        let cost = CostModel::synthetic();
        let opt = Optimizer::new(cat, &stats, &cost, EngineStrategy::NoReuse);
        let htm = HtManager::new(GcConfig::default());
        queries
            .iter()
            .map(|q| {
                let oq = opt.optimize(q, &htm).unwrap();
                let mut ctx = ExecContext::new(cat, &htm);
                let mut rows = hashstash_exec::execute(&oq.plan, &mut ctx)
                    .unwrap()
                    .1
                    .into_vec();
                rows.sort();
                rows
            })
            .collect()
    }

    #[test]
    fn derived_shared_spec_executes_correctly() {
        let (cat, stats, cost) = setup();
        let htm = HtManager::new(GcConfig::default());
        let queries = vec![mk(1, 20, 40), mk(2, 30, 60)];
        let refs: Vec<&QuerySpec> = queries.iter().collect();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let (spec, _) = derive_shared_spec(&opt, &refs, &htm).unwrap();
        let mut ctx = ExecContext::new(&cat, &htm);
        let results = execute_shared(&spec, &mut ctx).unwrap();
        assert_eq!(results.len(), 2);
        let expect = one_at_a_time(&queries, &cat);
        for (r, want) in results.into_iter().zip(expect) {
            let mut got = r.rows;
            got.sort();
            assert_eq!(got, want);
        }
    }

    /// A batch wider than the paper's 64-bit query tag plans into shared
    /// units and answers exactly like one-at-a-time execution.
    #[test]
    fn batch_of_65_queries_matches_one_at_a_time() {
        let (cat, stats, cost) = setup();
        let htm = HtManager::new(GcConfig::default());
        let queries: Vec<QuerySpec> = (0..65)
            .map(|i| mk(i, 20 + i64::from(i % 30), 40 + i64::from(i % 45)))
            .collect();
        let plan = plan_batch(
            &queries,
            &cat,
            &stats,
            &cost,
            EngineStrategy::HashStash,
            &htm,
        )
        .unwrap();
        assert!(plan
            .units
            .iter()
            .any(|u| matches!(u, BatchUnit::Shared { indices, .. } if indices.len() > 1)));
        assert_eq!(
            run_batch(plan, &queries, &cat, &htm),
            one_at_a_time(&queries, &cat)
        );
    }

    /// Two `orders ⋈ lineitem` aggregates whose only predicate is on
    /// `attr`, over `[lo, lo + 10]` and `[lo + 5, lo + 15]`.
    fn lineitem_pair(attr: &str, lo: impl Fn(i64) -> Value) -> Vec<QuerySpec> {
        [(1, 0), (2, 5)]
            .map(|(id, shift)| {
                QueryBuilder::new(id)
                    .join(
                        "orders",
                        "orders.o_orderkey",
                        "lineitem",
                        "lineitem.l_orderkey",
                    )
                    .filter(attr, Interval::closed(lo(shift), lo(shift + 10)))
                    .group_by("orders.o_orderpriority")
                    .agg(AggExpr::new(AggFunc::Count, "lineitem.l_orderkey"))
                    .build()
                    .unwrap()
            })
            .to_vec()
    }

    /// The shared driver scan goes through an index only where the
    /// executor would: on a constrained column that has one.
    #[test]
    fn driver_scan_prices_an_index_only_where_one_exists() {
        let (cat, stats, cost) = setup();
        let free_index = CostModel::new(
            hashstash_hashtable::CostGrid::synthetic(),
            crate::CostParams {
                index_ns: 0.0,
                ..crate::CostParams::default()
            },
        );
        let htm = HtManager::new(GcConfig::default());
        let batch_cost = |queries: &[QuerySpec], model: &CostModel| {
            let opt = Optimizer::new(&cat, &stats, model, EngineStrategy::NoReuse);
            let refs: Vec<&QuerySpec> = queries.iter().collect();
            derive_shared_spec(&opt, &refs, &htm).unwrap().1
        };
        // `l_quantity` has no index: a full driver scan, whatever an index
        // lookup would cost.
        let unindexed = lineitem_pair("lineitem.l_quantity", |v| Value::float(v as f64));
        assert_eq!(
            batch_cost(&unindexed, &cost),
            batch_cost(&unindexed, &free_index)
        );
        // `l_shipdate` has one: a free lookup makes the batch cheaper.
        let indexed = lineitem_pair("lineitem.l_shipdate", |v| {
            Value::Date(hashstash_storage::tpch::min_order_date() + 400 + v as i32)
        });
        assert!(batch_cost(&indexed, &free_index) < batch_cost(&indexed, &cost));
    }

    #[test]
    fn empty_batch_is_empty_plan() {
        let (cat, stats, cost) = setup();
        let htm = HtManager::new(GcConfig::default());
        let plan = plan_batch(&[], &cat, &stats, &cost, EngineStrategy::HashStash, &htm).unwrap();
        assert!(plan.units.is_empty());
        assert_eq!(plan.est_cost_ns, 0.0);
    }
}
