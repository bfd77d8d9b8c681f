//! Single-query reuse-aware plan enumeration (paper §3, Algorithm 1).
//!
//! The optimizer performs a memoized top-down partitioning search over the
//! join graph. For every partition `(G_l, G_r)` and both build orientations
//! it enumerates the candidate hash tables for the build side (plus a fresh
//! table), rewrites the sub-plan for the applicable reuse case — eliminating
//! it entirely for exact/subsuming reuse, or replacing it with a delta
//! sub-plan over `R \ C` for partial/overlapping reuse — and costs every
//! alternative with the reuse-aware cost models. SPJA queries add an
//! aggregation enumeration on top (paper §3.1, "Complex Queries").
//!
//! The benefit-oriented optimizations of §3.4 are always on: `AVG` is
//! stored as `SUM` + `COUNT`, join payloads keep the selection attributes
//! future queries post-filter on, and among plans within 10 % of the best
//! cost the one building hash tables with more future reuse potential
//! wins. The [`EngineStrategy`] decides what is matched, what is admitted
//! and whether reuse is preferred greedily.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use hashstash_types::{HsError, Result, StableHasher};

use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ScanSpec};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, JoinGraph, PredBox, QuerySpec, Region,
};
use hashstash_storage::Catalog;

use crate::cost::CostModel;
use crate::matching::{find_matches, restrict_to_tables, MatchRewrite};
use crate::policy::EngineStrategy;
use crate::stats::DbStats;

/// Relative cost slack within which the §3.4 join-order preference picks
/// the plan with more future reuse potential over the cheaper one.
const BENEFIT_EPSILON: f64 = 0.1;

/// The optimizer's result for one query.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    /// Executable plan.
    pub plan: PhysicalPlan,
    /// Estimated total cost (ns).
    pub est_cost_ns: f64,
}

/// A reuse-free pipeline: `(plan, cost, rows)`.
type FreshPlan = (PhysicalPlan, f64, f64);

/// One entry of the fresh-plan memo: its key — a join mask, a predicate box
/// and the attributes kept in flight — and the pipeline.
struct FreshEntry {
    mask: u64,
    pred: PredBox,
    attrs: Vec<Arc<str>>,
    plan: Rc<FreshPlan>,
}

#[derive(Debug, Clone)]
struct PlanInfo {
    plan: PhysicalPlan,
    cost: f64,
    rows: f64,
    reused: bool,
    /// Future-benefit score for the §3.4 join-order preference.
    benefit: f64,
}

/// The reuse-aware optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    pub(crate) stats: &'a DbStats,
    pub(crate) cost: &'a CostModel,
    pub(crate) strategy: EngineStrategy,
    /// Per-optimize memo for reuse-free delta pipelines, bucketed by the
    /// hash of their `(mask, predicate, needed attrs)` key, so a lookup
    /// builds no key. Delta plans are enumerated once per candidate
    /// otherwise — quadratic in cache size without this.
    fresh_memo: std::cell::RefCell<HashMap<u64, Vec<FreshEntry>>>,
}

impl<'a> Optimizer<'a> {
    /// Construct an optimizer over the given catalog, statistics and cost
    /// model, planning under `strategy`.
    pub fn new(
        catalog: &'a Catalog,
        stats: &'a DbStats,
        cost: &'a CostModel,
        strategy: EngineStrategy,
    ) -> Self {
        Optimizer {
            catalog,
            stats,
            cost,
            strategy,
            fresh_memo: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// Optimize a query into a reuse-aware physical plan.
    pub fn optimize(&self, q: &QuerySpec, htm: &HtManager) -> Result<OptimizedQuery> {
        let graph = JoinGraph::of_query(q);
        let mut memo: HashMap<u64, PlanInfo> = HashMap::new();
        self.fresh_memo.borrow_mut().clear();
        let join_info = self.best_plan(q, &graph, graph.all(), htm, &mut memo)?;

        let (plan, est_cost_ns) = if q.is_aggregate() {
            self.plan_aggregate(q, &graph, join_info, htm)?
        } else if q.projection.is_empty() {
            (join_info.plan, join_info.cost)
        } else {
            let plan = PhysicalPlan::Project {
                input: Box::new(join_info.plan),
                attrs: q.projection.clone(),
            };
            (plan, join_info.cost + self.cost.output(join_info.rows))
        };
        Ok(OptimizedQuery { plan, est_cost_ns })
    }

    // -----------------------------------------------------------------
    // Join enumeration (Algorithm 1)
    // -----------------------------------------------------------------

    fn best_plan(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        mask: u64,
        htm: &HtManager,
        memo: &mut HashMap<u64, PlanInfo>,
    ) -> Result<PlanInfo> {
        if let Some(hit) = memo.get(&mask) {
            return Ok(hit.clone());
        }
        let info = if mask.count_ones() == 1 {
            let table = only_table(graph, mask)?;
            let projection = required_attrs(&[q], &table);
            let (plan, cost, rows) = self.table_scan(table, &q.predicates, projection)?;
            PlanInfo {
                plan,
                cost,
                rows,
                reused: false,
                benefit: 0.0,
            }
        } else {
            let mut best: Option<PlanInfo> = None;
            for (l, r) in graph.connected_partitions(mask) {
                for (probe_mask, build_mask) in [(l, r), (r, l)] {
                    let options = self.join_options(q, graph, probe_mask, build_mask, htm, memo)?;
                    for opt in options {
                        best = Some(self.pick(best.take(), opt));
                    }
                }
            }
            best.ok_or_else(|| {
                HsError::PlanError(format!("no connected partition for mask {mask:#b}"))
            })?
        };
        memo.insert(mask, info.clone());
        Ok(info)
    }

    /// Choose between the incumbent and a challenger according to the
    /// strategy and the benefit-oriented join-order preference.
    fn pick(&self, incumbent: Option<PlanInfo>, challenger: PlanInfo) -> PlanInfo {
        let Some(inc) = incumbent else {
            return challenger;
        };
        if self.strategy.prefers_reuse() {
            // Prefer any reusing plan over a non-reusing one.
            match (inc.reused, challenger.reused) {
                (true, false) => return inc,
                (false, true) => return challenger,
                _ => {}
            }
        }
        let close = (inc.cost - challenger.cost).abs()
            <= BENEFIT_EPSILON * inc.cost.min(challenger.cost).max(1.0);
        if close && challenger.benefit != inc.benefit {
            return if challenger.benefit > inc.benefit {
                challenger
            } else {
                inc
            };
        }
        if challenger.cost < inc.cost {
            challenger
        } else {
            inc
        }
    }

    /// A scan of `table` under `pred`'s constraints on it, keeping
    /// `projection`: `(plan, cost, rows)`.
    fn table_scan(
        &self,
        table: Arc<str>,
        pred: &PredBox,
        projection: Vec<Arc<str>>,
    ) -> Result<FreshPlan> {
        let table_pred = pred.project_table(&table);
        let constrained = table_pred.attrs();
        let region = Region::from_box(table_pred);
        let rows = self.stats.filtered_rows(&table, &region);
        let cost = self.scan_cost(&table, &constrained, rows)?;
        let plan = PhysicalPlan::Scan(ScanSpec {
            table,
            region,
            projection,
        });
        Ok((plan, cost, rows))
    }

    /// Price of reading the `rows` qualifying tuples of `table`: through an
    /// index when one of the `constrained` attributes has one and that is
    /// cheaper (the executor's index access path), else a full scan.
    pub(crate) fn scan_cost(
        &self,
        table: &str,
        constrained: &[Arc<str>],
        rows: f64,
    ) -> Result<f64> {
        let table_ref = self.catalog.get(table)?;
        let full = self.cost.scan(self.stats.table_rows(table) as f64);
        let indexed = constrained.iter().any(|attr| {
            attr.split('.')
                .nth(1)
                .is_some_and(|col| table_ref.index_on(col).is_some())
        });
        Ok(if indexed {
            self.cost.index_scan(rows).min(full)
        } else {
            full
        })
    }

    /// All alternatives for joining `probe_mask` with a hash table over
    /// `build_mask`: one fresh build plus every matched reuse.
    fn join_options(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        probe_mask: u64,
        build_mask: u64,
        htm: &HtManager,
        memo: &mut HashMap<u64, PlanInfo>,
    ) -> Result<Vec<PlanInfo>> {
        let (probe_key, build_key) = join_keys(graph, probe_mask, build_mask)
            .ok_or_else(|| HsError::PlanError("partition without cross edge".into()))?;
        let build_tables = graph.tables_of_mask(build_mask);

        let probe_info = self.best_plan(q, graph, probe_mask, htm, memo)?;
        let out_rows = self.stats.join_rows(
            graph
                .tables_of_mask(probe_mask | build_mask)
                .iter()
                .map(|t| t.as_ref()),
            &graph.edges_within_mask(probe_mask | build_mask),
            &q.region(),
        );

        // Request fingerprint describing what a build-side table looks like.
        let request_box = restrict_to_tables(&q.predicates, &build_tables);
        let request_fp = self.build_fingerprint(q, graph, build_mask, &build_key, &request_box);
        let build_rows = self.stats.join_rows(
            build_tables.iter().map(|t| t.as_ref()),
            &graph.edges_within_mask(build_mask),
            &request_fp.region,
        );
        let payload_width = self.payload_width(&request_fp.payload_attrs);

        let mut options = Vec::new();

        // --- Fresh build (always an option; AlwaysShare falls back to it
        // when no candidate matches) ---------------------------------------
        {
            let build_info = self.best_plan(q, graph, build_mask, htm, memo)?;
            let join_cost =
                self.cost
                    .rhj_fresh(build_info.rows.max(1.0), payload_width, probe_info.rows);
            let cost = probe_info.cost + build_info.cost + join_cost + self.cost.output(out_rows);
            // Benefit-scored admission: the strategy sees what a future
            // exact reuse of this build would save per byte of footprint.
            let score = self
                .cost
                .join_benefit_per_byte(build_info.rows.max(1.0), payload_width);
            options.push(PlanInfo {
                plan: PhysicalPlan::HashJoin {
                    probe: Box::new(probe_info.plan.clone()),
                    build: Some(Box::new(build_info.plan.clone())),
                    probe_key: probe_key.clone(),
                    build_key: build_key.clone(),
                    reuse: None,
                    publish: self
                        .strategy
                        .admits(Some(score))
                        .then(|| request_fp.clone()),
                },
                cost,
                rows: out_rows,
                reused: probe_info.reused || build_info.reused,
                benefit: probe_info.benefit + build_info.benefit + build_info.rows,
            });
        }

        // --- Reuse candidates --------------------------------------------
        for m in self.candidates(htm, &request_fp, &request_box) {
            let mut cost = probe_info.cost
                + self
                    .cost
                    .rhj_reuse(&m.shape(), build_rows, probe_info.rows, out_rows)
                + self.cost.output(out_rows);
            let build = if m.case.needs_delta() {
                // The delta lands in the cached table, in its schema order.
                let attrs: Vec<Arc<str>> = m
                    .candidate
                    .schema
                    .fields()
                    .iter()
                    .map(|f| Arc::from(f.name.as_str()))
                    .collect();
                let (delta_plan, delta_cost) =
                    self.delta_plan(q, graph, build_mask, &m.delta_region, &attrs)?;
                cost += delta_cost;
                delta_plan.map(Box::new)
            } else {
                None
            };
            options.push(PlanInfo {
                plan: PhysicalPlan::HashJoin {
                    probe: Box::new(probe_info.plan.clone()),
                    build,
                    probe_key: probe_key.clone(),
                    build_key: build_key.clone(),
                    reuse: Some(m.reuse_spec(&request_fp.region)),
                    publish: None,
                },
                cost,
                rows: out_rows,
                reused: true,
                benefit: probe_info.benefit + m.candidate.entries as f64,
            });
        }
        Ok(options)
    }

    /// Delta sub-plan producing the rows of `delta_region` over the
    /// sub-graph `mask`, projected onto `attrs`: one fresh (reuse-free)
    /// pipeline per disjoint box, concatenated by a union. Returns
    /// `(plan, cost)`, with no plan for an empty delta.
    fn delta_plan(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        mask: u64,
        delta_region: &Region,
        attrs: &[Arc<str>],
    ) -> Result<(Option<PhysicalPlan>, f64)> {
        let mut inputs = Vec::new();
        let mut cost = 0.0;
        for b in delta_region.boxes() {
            let fresh = self.fresh_plan(q, graph, mask, b, attrs)?;
            cost += fresh.1;
            inputs.push(PhysicalPlan::Project {
                input: Box::new(fresh.0.clone()),
                attrs: attrs.to_vec(),
            });
        }
        let plan = match inputs.len() {
            0 | 1 => inputs.pop(),
            _ => Some(PhysicalPlan::Union { inputs }),
        };
        Ok((plan, cost))
    }

    /// A reuse-free pipeline over `mask` under the predicate `pred`, keeping
    /// at least `needed_attrs` (plus internal join keys) in flight.
    fn fresh_plan(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        mask: u64,
        pred: &PredBox,
        needed_attrs: &[Arc<str>],
    ) -> Result<Rc<FreshPlan>> {
        let mut h = StableHasher::new();
        (mask, pred, needed_attrs).hash(&mut h);
        let hash = h.finish();
        let hit = self.fresh_memo.borrow().get(&hash).and_then(|bucket| {
            bucket
                .iter()
                .find(|e| e.mask == mask && e.pred == *pred && e.attrs == needed_attrs)
                .map(|e| Rc::clone(&e.plan))
        });
        if let Some(hit) = hit {
            return Ok(hit);
        }
        let plan = Rc::new(self.fresh_plan_uncached(q, graph, mask, pred, needed_attrs)?);
        let entry = FreshEntry {
            mask,
            pred: pred.clone(),
            attrs: needed_attrs.to_vec(),
            plan: Rc::clone(&plan),
        };
        self.fresh_memo
            .borrow_mut()
            .entry(hash)
            .or_default()
            .push(entry);
        Ok(plan)
    }

    fn fresh_plan_uncached(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        mask: u64,
        pred: &PredBox,
        needed_attrs: &[Arc<str>],
    ) -> Result<FreshPlan> {
        if mask.count_ones() == 1 {
            let table = only_table(graph, mask)?;
            // Projection: needed attrs of this table plus its join keys.
            let prefix = format!("{table}.");
            let mut projection: Vec<Arc<str>> = needed_attrs
                .iter()
                .filter(|a| a.starts_with(&prefix))
                .chain(q.joins.iter().filter_map(|e| e.col_of(&table)))
                .cloned()
                .collect();
            projection.sort();
            projection.dedup();
            return self.table_scan(table, pred, projection);
        }
        // Multi-table: pick the cheapest connected partition and build
        // orientation (reuse-free, so orientation matters only for cost).
        let rows = self.stats.join_rows(
            graph.tables_of_mask(mask).iter().map(|t| t.as_ref()),
            &graph.edges_within_mask(mask),
            &Region::from_box(pred.clone()),
        );
        let mut best: Option<FreshPlan> = None;
        for (l, r) in graph.connected_partitions(mask) {
            for (probe_mask, build_mask) in [(l, r), (r, l)] {
                let Some((probe_key, build_key)) = join_keys(graph, probe_mask, build_mask) else {
                    continue;
                };
                let (pp, pc, pr) = &*self.fresh_plan(q, graph, probe_mask, pred, needed_attrs)?;
                let (bp, bc, br) = &*self.fresh_plan(q, graph, build_mask, pred, needed_attrs)?;
                // Delta pipelines are priced at a flat 16-byte payload.
                let cost = pc + bc + self.cost.rhj_fresh(br.max(1.0), 16.0, *pr);
                if best.as_ref().is_none_or(|(_, c, _)| cost < *c) {
                    let plan = PhysicalPlan::HashJoin {
                        probe: Box::new(pp.clone()),
                        build: Some(Box::new(bp.clone())),
                        probe_key,
                        build_key,
                        reuse: None,
                        publish: None,
                    };
                    best = Some((plan, cost, rows));
                }
            }
        }
        best.ok_or_else(|| HsError::PlanError("no fresh plan for mask".into()))
    }

    // -----------------------------------------------------------------
    // Aggregation (SPJA root)
    // -----------------------------------------------------------------

    fn plan_aggregate(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        join_info: PlanInfo,
        htm: &HtManager,
    ) -> Result<(PhysicalPlan, f64)> {
        let storage_aggs = storage_aggs(q);
        let output_aggs = map_output_aggs(&q.aggregates, &storage_aggs)?;
        let request_fp = HtFingerprint {
            kind: HtKind::Aggregate,
            tables: q.tables.clone(),
            edges: sorted_edges(q),
            region: q.region(),
            key_attrs: q.group_by.clone(),
            payload_attrs: q.group_by.clone(),
            aggregates: storage_aggs.clone(),
        };
        let groups = self
            .stats
            .distinct_combinations(&q.group_by, join_info.rows.max(1.0));
        let state_width = (q.group_by.len() * 8 + storage_aggs.len() * 8) as f64;

        // --- Fresh aggregation -------------------------------------------
        let fresh_cost = join_info.cost
            + self.cost.rha_fresh(join_info.rows, groups, state_width)
            + self.cost.output(groups);
        // Benefit-scored admission (see join_options): cycles a future
        // exact reuse of the grouped table would save, per byte kept.
        let agg_score = self
            .cost
            .agg_benefit_per_byte(join_info.rows, groups, state_width);
        let mut best = PlanInfo {
            plan: PhysicalPlan::HashAggregate {
                input: Some(Box::new(join_info.plan.clone())),
                group_by: q.group_by.clone(),
                aggs: storage_aggs,
                output_aggs,
                reuse: None,
                publish: self
                    .strategy
                    .admits(Some(agg_score))
                    .then(|| request_fp.clone()),
                post_group_by: None,
            },
            cost: fresh_cost,
            rows: groups,
            reused: join_info.reused,
            benefit: join_info.benefit + groups,
        };

        // --- Reuse candidates ---------------------------------------------
        for m in self.candidates(htm, &request_fp, &q.predicates) {
            if let Some(opt) = self.reuse_agg_option(q, graph, &request_fp, groups, &m)? {
                best = self.pick(Some(best), opt);
            }
        }
        Ok((best.plan, best.cost))
    }

    fn reuse_agg_option(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        request_fp: &HtFingerprint,
        groups: f64,
        m: &MatchRewrite,
    ) -> Result<Option<PlanInfo>> {
        // Output mapping against the *cached* table's stored aggregates.
        let cached = &m.candidate.fingerprint;
        let Ok(output_aggs) = map_output_aggs(&q.aggregates, &cached.aggregates) else {
            return Ok(None); // cached table lacks a needed accumulator
        };
        // The delta pipeline must feed the *cached* table's grouping keys
        // and aggregate inputs, which may be wider than the query's own
        // (post-group reuse folds delta rows into the finer-grained table).
        let cached_inputs = || {
            cached
                .key_attrs
                .iter()
                .chain(cached.aggregates.iter().map(|a| &a.attr))
        };
        // Every needed attribute must come from a table the query joins.
        let resolvable = cached_inputs()
            .all(|attr| attr.split('.').next().is_some_and(|t| q.tables.contains(t)));
        if !resolvable {
            return Ok(None);
        }
        let shape = m.shape();
        let mut cost;
        let input = if m.case.needs_delta() {
            let mut attrs: Vec<Arc<str>> = q
                .group_by
                .iter()
                .chain(q.aggregates.iter().map(|a| &a.attr))
                .chain(cached_inputs())
                .cloned()
                .collect();
            attrs.sort();
            attrs.dedup();
            let (delta_plan, delta_cost) =
                self.delta_plan(q, graph, graph.all(), &m.delta_region, &attrs)?;
            let delta_rows = m
                .delta_region
                .boxes()
                .iter()
                .map(|b| {
                    self.stats.join_rows(
                        q.tables.iter().map(|t| t.as_ref()),
                        &q.joins,
                        &Region::from_box(b.clone()),
                    )
                })
                .sum::<f64>();
            cost = delta_cost + self.cost.rha_reuse(&shape, delta_rows, groups);
            delta_plan.map(Box::new)
        } else {
            cost = self.cost.rha_reuse(&shape, 0.0, groups);
            None
        };
        cost += self.cost.output(groups);
        let plan = PhysicalPlan::HashAggregate {
            input,
            group_by: cached.key_attrs.clone(),
            aggs: cached.aggregates.clone(),
            output_aggs,
            reuse: Some(m.reuse_spec(&request_fp.region)),
            publish: None,
            post_group_by: m.needs_post_group.then(|| q.group_by.clone()),
        };
        Ok(Some(PlanInfo {
            plan,
            cost,
            rows: groups,
            reused: true,
            benefit: m.candidate.entries as f64,
        }))
    }

    // -----------------------------------------------------------------
    // Helpers
    // -----------------------------------------------------------------

    /// The cached tables the strategy lets this request consider (none,
    /// without a cache lookup, when it does not reuse).
    pub(crate) fn candidates(
        &self,
        htm: &HtManager,
        request_fp: &HtFingerprint,
        request_box: &PredBox,
    ) -> Vec<MatchRewrite> {
        if !self.strategy.reuses() {
            return Vec::new();
        }
        find_matches(htm, request_fp, request_box, self.stats)
    }

    /// Fingerprint of the hash table a fresh build over `build_mask` would
    /// publish.
    fn build_fingerprint(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        build_mask: u64,
        build_key: &Arc<str>,
        request_box: &PredBox,
    ) -> HtFingerprint {
        let tables = graph.tables_of_mask(build_mask);
        let mut payload: Vec<Arc<str>> = Vec::new();
        for t in &tables {
            payload.extend(required_attrs(&[q], t));
        }
        payload.sort();
        payload.dedup();
        let mut edges = graph.edges_within_mask(build_mask);
        edges.sort();
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables,
            edges,
            region: Region::from_box(request_box.clone()),
            key_attrs: vec![build_key.clone()],
            payload_attrs: payload,
            aggregates: vec![],
        }
    }

    fn payload_width(&self, attrs: &[Arc<str>]) -> f64 {
        attrs
            .iter()
            .map(|a| {
                hashstash_exec::plan::lookup_attr_type(self.catalog, a)
                    .map(|t| t.payload_width())
                    .unwrap_or(8)
            })
            .sum::<usize>() as f64
    }
}

/// The one table of a single-table mask.
fn only_table(graph: &JoinGraph, mask: u64) -> Result<Arc<str>> {
    graph
        .tables_of_mask(mask)
        .into_iter()
        .next()
        .ok_or_else(|| HsError::PlanError("empty scan mask".into()))
}

/// `(probe key, build key)` of the first join edge between `probe_mask`
/// and `build_mask`, if they are joined at all.
fn join_keys(graph: &JoinGraph, probe_mask: u64, build_mask: u64) -> Option<(Arc<str>, Arc<str>)> {
    let edge = graph
        .cross_edges(probe_mask, build_mask)
        .into_iter()
        .next()?;
    Some(
        if graph.tables_of_mask(build_mask).contains(&edge.left_table) {
            (edge.right_col, edge.left_col)
        } else {
            (edge.left_col, edge.right_col)
        },
    )
}

/// Attributes a plan must carry from `table` for `queries`: join keys,
/// outputs, and the selection attributes per-query qualification and
/// (benefit-oriented) future post-filters read. Sorted, deduplicated.
pub(crate) fn required_attrs(queries: &[&QuerySpec], table: &str) -> Vec<Arc<str>> {
    let prefix = format!("{table}.");
    let mut out: Vec<Arc<str>> = Vec::new();
    for q in queries {
        out.extend(q.joins.iter().filter_map(|e| e.col_of(table)).cloned());
        let used = q
            .projection
            .iter()
            .chain(&q.group_by)
            .chain(q.aggregates.iter().map(|a| &a.attr))
            .chain(q.predicates.constrained().map(|(a, _)| a));
        out.extend(used.filter(|a| a.starts_with(&prefix)).cloned());
    }
    out.sort();
    out.dedup();
    out
}

/// The query's join edges in canonical (sorted) order, as fingerprints
/// carry them.
pub(crate) fn sorted_edges(q: &QuerySpec) -> Vec<hashstash_plan::JoinEdge> {
    let mut edges = q.joins.clone();
    edges.sort();
    edges
}

/// Aggregates as stored in hash tables (after the AVG rewrite),
/// deduplicated.
fn storage_aggs(q: &QuerySpec) -> Vec<AggExpr> {
    let mut out: Vec<AggExpr> = Vec::new();
    for r in q.aggregates.iter().flat_map(AggExpr::rewrite_avg) {
        if !out.contains(&r) {
            out.push(r);
        }
    }
    out
}

/// Map the query's requested aggregates onto stored accumulator indices.
fn map_output_aggs(requested: &[AggExpr], stored: &[AggExpr]) -> Result<Vec<OutputAgg>> {
    let find = |expr: &AggExpr| -> Result<usize> {
        stored
            .iter()
            .position(|s| s == expr)
            .ok_or_else(|| HsError::PlanError(format!("stored aggregates lack {expr}")))
    };
    requested
        .iter()
        .map(|r| {
            if r.func == AggFunc::Avg {
                let sum_idx = find(&AggExpr::new(AggFunc::Sum, r.attr.clone()))?;
                let count_idx = find(&AggExpr::new(AggFunc::Count, r.attr.clone()))?;
                Ok(OutputAgg::AvgOf { sum_idx, count_idx })
            } else {
                Ok(OutputAgg::Direct(find(r)?))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_cache::GcConfig;
    use hashstash_exec::{execute, ExecContext};
    use hashstash_plan::{Interval, QueryBuilder, ReuseCase};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_types::Value;

    fn setup() -> (Catalog, DbStats, CostModel) {
        let cat = generate(TpchConfig::new(0.002, 21));
        let stats = DbStats::from_catalog(&cat);
        (cat, stats, CostModel::synthetic())
    }

    fn q3(id: u32, ship_lo: &str) -> QuerySpec {
        QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .join(
                "orders",
                "orders.o_orderkey",
                "lineitem",
                "lineitem.l_orderkey",
            )
            .filter(
                "lineitem.l_shipdate",
                Interval::at_least(Value::Date(
                    hashstash_types::date::parse_date(ship_lo).unwrap(),
                )),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"))
            .build()
            .unwrap()
    }

    fn run(
        plan: &PhysicalPlan,
        cat: &Catalog,
        htm: &HtManager,
    ) -> (hashstash_types::Schema, Vec<hashstash_types::Row>) {
        let mut ctx = ExecContext::new(cat, htm);
        let (schema, rows) = execute(plan, &mut ctx).unwrap();
        let mut rows = rows.into_vec();
        rows.sort();
        (schema, rows)
    }

    /// A hand-built alternative for `pick`: only cost, reuse and benefit
    /// matter to it.
    fn alternative(cost: f64, reused: bool, benefit: f64) -> PlanInfo {
        PlanInfo {
            plan: PhysicalPlan::Scan(ScanSpec::full("customer")),
            cost,
            rows: 1.0,
            reused,
            benefit,
        }
    }

    #[test]
    fn always_share_keeps_a_reusing_plan_over_a_cheaper_fresh_one() {
        let (cat, stats, cost) = setup();
        let reusing = alternative(1_000.0, true, 0.0);
        let fresh = alternative(10.0, false, 0.0);
        let greedy = Optimizer::new(&cat, &stats, &cost, EngineStrategy::AlwaysShare);
        assert!(greedy.pick(Some(reusing.clone()), fresh.clone()).reused);
        assert!(greedy.pick(Some(fresh.clone()), reusing.clone()).reused);
        // The cost model takes the cheaper one either way round.
        let costed = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        assert!(!costed.pick(Some(reusing.clone()), fresh.clone()).reused);
        assert!(!costed.pick(Some(fresh), reusing).reused);
    }

    #[test]
    fn within_benefit_epsilon_the_higher_benefit_wins() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        // 105 is within 10 % of 100: benefit decides, whichever is cheaper.
        let cheap = alternative(100.0, false, 1.0);
        let beneficial = alternative(105.0, false, 5.0);
        assert_eq!(
            opt.pick(Some(cheap.clone()), beneficial.clone()).cost,
            105.0
        );
        assert_eq!(opt.pick(Some(beneficial), cheap).cost, 105.0);
    }

    #[test]
    fn outside_benefit_epsilon_the_cheaper_wins() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        // 120 is more than 10 % above 100: cost decides, benefit is ignored.
        let cheap = alternative(100.0, false, 1.0);
        let beneficial = alternative(120.0, false, 50.0);
        assert_eq!(
            opt.pick(Some(cheap.clone()), beneficial.clone()).cost,
            100.0
        );
        assert_eq!(opt.pick(Some(beneficial), cheap).cost, 100.0);
    }

    #[test]
    fn optimize_and_execute_q3() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        let oq = opt.optimize(&q3(1, "1996-01-01"), &htm).unwrap();
        assert!(oq.est_cost_ns > 0.0);
        let (_, rows) = run(&oq.plan, &cat, &htm);
        assert!(!rows.is_empty());
        // Three pipeline breakers were published: 2 joins + 1 aggregate.
        assert_eq!(htm.stats().publishes, 3);
    }

    #[test]
    fn second_identical_query_gets_exact_reuse() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        let q = q3(1, "1996-01-01");
        let first = opt.optimize(&q, &htm).unwrap();
        let (_, rows1) = run(&first.plan, &cat, &htm);

        let q2 = q3(2, "1996-01-01");
        let second = opt.optimize(&q2, &htm).unwrap();
        let decisions = second.plan.reuse_decisions();
        assert!(
            decisions.iter().any(|(_, c)| c == &Some(ReuseCase::Exact)),
            "expected exact reuse, got {decisions:?}"
        );
        assert!(second.est_cost_ns < first.est_cost_ns);
        let (_, rows2) = run(&second.plan, &cat, &htm);
        assert_eq!(rows1, rows2, "reuse must not change answers");
    }

    #[test]
    fn widened_predicate_gets_partial_reuse_and_correct_answers() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        let q = q3(1, "1996-06-01");
        let first = opt.optimize(&q, &htm).unwrap();
        run(&first.plan, &cat, &htm);

        // Wider request (earlier ship date) ⇒ partial reuse with a delta.
        let q2 = q3(2, "1996-01-01");
        let second = opt.optimize(&q2, &htm).unwrap();
        let decisions = second.plan.reuse_decisions();
        assert!(
            decisions
                .iter()
                .any(|(_, c)| matches!(c, Some(ReuseCase::Partial))),
            "expected partial reuse, got {decisions:?}"
        );
        let (_, rows) = run(&second.plan, &cat, &htm);

        // Reference: never-share run in a fresh engine.
        let ns = Optimizer::new(&cat, &stats, &cost, EngineStrategy::NoReuse);
        let htm2 = HtManager::new(GcConfig::default());
        let reference = ns.optimize(&q3(3, "1996-01-01"), &htm2).unwrap();
        let (_, expect) = run(&reference.plan, &cat, &htm2);
        assert_eq!(rows.len(), expect.len());
        for (a, b) in rows.iter().zip(&expect) {
            assert_eq!(a.get(0), b.get(0), "group keys match");
            let fa = a.get(1).as_float().unwrap();
            let fb = b.get(1).as_float().unwrap();
            assert!((fa - fb).abs() < 1e-6 * fb.abs().max(1.0), "{fa} vs {fb}");
        }
    }

    #[test]
    fn narrowed_predicate_gets_subsuming_reuse() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        run(
            &opt.optimize(&q3(1, "1996-01-01"), &htm).unwrap().plan,
            &cat,
            &htm,
        );

        let q2 = q3(2, "1996-06-01"); // narrower
        let second = opt.optimize(&q2, &htm).unwrap();
        let decisions = second.plan.reuse_decisions();
        assert!(
            decisions
                .iter()
                .any(|(_, c)| matches!(c, Some(ReuseCase::Subsuming) | Some(ReuseCase::Exact))),
            "expected subsuming reuse, got {decisions:?}"
        );
        // Correctness vs never-share.
        let (_, rows) = run(&second.plan, &cat, &htm);
        let ns = Optimizer::new(&cat, &stats, &cost, EngineStrategy::NoReuse);
        let htm2 = HtManager::new(GcConfig::default());
        let (_, expect) = run(
            &ns.optimize(&q3(3, "1996-06-01"), &htm2).unwrap().plan,
            &cat,
            &htm2,
        );
        assert_eq!(rows.len(), expect.len());
    }

    #[test]
    fn rollup_uses_post_group_by() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        // First: group by (age, nationkey).
        let q1 = QueryBuilder::new(1)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "orders.o_orderdate",
                Interval::at_least(Value::date_ymd(1995, 1, 1)),
            )
            .group_by("customer.c_age")
            .group_by("customer.c_nationkey")
            .agg(AggExpr::new(AggFunc::Sum, "orders.o_totalprice"))
            .build()
            .unwrap();
        run(&opt.optimize(&q1, &htm).unwrap().plan, &cat, &htm);

        // Roll-up: drop c_nationkey.
        let q2 = QueryBuilder::new(2)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "orders.o_orderdate",
                Interval::at_least(Value::date_ymd(1995, 1, 1)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Sum, "orders.o_totalprice"))
            .build()
            .unwrap();
        let second = opt.optimize(&q2, &htm).unwrap();
        match &second.plan {
            PhysicalPlan::HashAggregate {
                input,
                post_group_by,
                reuse,
                ..
            } => {
                assert!(input.is_none(), "roll-up eliminates the whole pipeline (X)");
                assert!(post_group_by.is_some());
                assert!(reuse.is_some());
            }
            other => panic!("expected aggregate root, got {other:?}"),
        }
        let (_, rows) = run(&second.plan, &cat, &htm);
        // Reference.
        let ns = Optimizer::new(&cat, &stats, &cost, EngineStrategy::NoReuse);
        let htm2 = HtManager::new(GcConfig::default());
        let (_, expect) = run(&ns.optimize(&q2, &htm2).unwrap().plan, &cat, &htm2);
        assert_eq!(rows.len(), expect.len());
        for (a, b) in rows.iter().zip(&expect) {
            let fa = a.get(1).as_float().unwrap();
            let fb = b.get(1).as_float().unwrap();
            assert!((fa - fb).abs() < 1e-6 * fb.abs().max(1.0));
        }
    }

    #[test]
    fn never_share_never_reuses() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::NoReuse);
        let htm = HtManager::new(GcConfig::default());
        run(
            &opt.optimize(&q3(1, "1996-01-01"), &htm).unwrap().plan,
            &cat,
            &htm,
        );
        let second = opt.optimize(&q3(2, "1996-01-01"), &htm).unwrap();
        assert!(second
            .plan
            .reuse_decisions()
            .iter()
            .all(|(_, c)| c.is_none()));
    }

    #[test]
    fn avg_query_round_trips_through_rewrite() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        let htm = HtManager::new(GcConfig::default());
        let q = QueryBuilder::new(1)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(30), Value::Int(50)),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Avg, "orders.o_totalprice"))
            .build()
            .unwrap();
        let oq = opt.optimize(&q, &htm).unwrap();
        // Storage aggregates are SUM + COUNT; output reconstructs AVG.
        match &oq.plan {
            PhysicalPlan::HashAggregate {
                aggs, output_aggs, ..
            } => {
                assert_eq!(aggs.len(), 2);
                assert!(matches!(output_aggs[0], OutputAgg::AvgOf { .. }));
            }
            other => panic!("unexpected root {other:?}"),
        }
        let (_, rows) = run(&oq.plan, &cat, &htm);
        assert!(!rows.is_empty());
        for r in &rows {
            let avg = r.get(1).as_float().unwrap();
            assert!(avg > 0.0, "order totals are positive");
        }
    }
}
