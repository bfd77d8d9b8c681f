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

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use hashstash_types::{HsError, Result, StableHasher};

use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ScanSpec};
use hashstash_plan::{
    is_attr_of, AggExpr, AggFunc, HtFingerprint, HtKind, JoinGraph, PredBox, QuerySpec, Region,
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

/// A priced alternative: what the search compares and memoizes per join
/// mask. It holds no plan — only the choice that builds one, once the
/// search is over ([`Optimizer::build`]).
#[derive(Debug, Clone, Copy)]
struct PlanInfo {
    cost: f64,
    rows: f64,
    reused: bool,
    /// Future-benefit score for the §3.4 join-order preference.
    benefit: f64,
    choice: Choice,
}

/// How a priced alternative is built.
#[derive(Debug, Clone, Copy)]
enum Choice {
    /// A scan of the mask's one table.
    Scan,
    /// A hash join probing the `probe` mask's plan against a table over the
    /// `build` mask, as `Search::requests[request]` describes it: built
    /// fresh, or reusing the request's `reuse`-th match.
    Join {
        probe: u64,
        build: u64,
        request: usize,
        reuse: Option<usize>,
    },
    /// The root aggregate: fresh over the join, or reusing the `reuse`-th
    /// priced cached table.
    Aggregate { reuse: Option<usize> },
}

/// A hash table over one build mask keyed on one attribute, as the query
/// asks for it. Every partition and orientation that builds it shares one
/// request, so its fingerprint, estimates and cache lookup are made once per
/// query.
struct BuildRequest {
    mask: u64,
    key: Arc<str>,
    /// What a fresh build would publish.
    fp: HtFingerprint,
    /// Rows the request's region selects.
    rows: f64,
    payload_width: f64,
    /// Every viable reuse, with the cost of its delta pipeline (`0` when it
    /// needs none).
    matches: Vec<(MatchRewrite, f64)>,
}

/// The state of one query's search.
struct Search<'q> {
    q: &'q QuerySpec,
    graph: JoinGraph,
    htm: &'q HtManager,
    /// `q.region()`, computed once if needed.
    region: OnceCell<Region>,
    /// The best alternative per join mask.
    memo: HashMap<u64, PlanInfo>,
    requests: Vec<BuildRequest>,
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
        self.fresh_memo.borrow_mut().clear();
        let mut s = Search {
            q,
            graph: JoinGraph::of_query(q),
            htm,
            region: OnceCell::new(),
            memo: HashMap::new(),
            requests: Vec::new(),
        };
        let all = s.graph.all();
        let join_info = self.best_plan(&mut s, all)?;

        let (plan, est_cost_ns) = if q.is_aggregate() {
            self.plan_aggregate(&mut s, join_info)?
        } else if q.projection.is_empty() {
            (self.build(&s, all)?, join_info.cost)
        } else {
            let plan = PhysicalPlan::Project {
                input: Box::new(self.build(&s, all)?),
                attrs: q.projection.clone(),
            };
            (plan, join_info.cost + self.cost.output(join_info.rows))
        };
        Ok(OptimizedQuery { plan, est_cost_ns })
    }

    // -----------------------------------------------------------------
    // Join enumeration (Algorithm 1)
    // -----------------------------------------------------------------

    fn best_plan(&self, s: &mut Search<'_>, mask: u64) -> Result<PlanInfo> {
        if let Some(&hit) = s.memo.get(&mask) {
            return Ok(hit);
        }
        let info = if mask.count_ones() == 1 {
            let table = only_table(&s.graph, mask)?;
            let (_, cost, rows) = self.scan_region(&table, &s.q.predicates)?;
            PlanInfo {
                cost,
                rows,
                reused: false,
                benefit: 0.0,
                choice: Choice::Scan,
            }
        } else {
            // Every partition of `mask` joins the same tables.
            let out_rows = self.stats.join_rows(
                s.graph.tables_of_mask(mask).iter().map(|t| t.as_ref()),
                &s.graph.edges_within_mask(mask),
                s.region.get_or_init(|| s.q.region()),
            );
            let mut best: Option<PlanInfo> = None;
            for (l, r) in s.graph.connected_partitions(mask) {
                for (probe_mask, build_mask) in [(l, r), (r, l)] {
                    self.join_options(s, probe_mask, build_mask, out_rows, &mut best)?;
                }
            }
            best.ok_or_else(|| {
                HsError::PlanError(format!("no connected partition for mask {mask:#b}"))
            })?
        };
        s.memo.insert(mask, info);
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
        let (region, cost, rows) = self.scan_region(&table, pred)?;
        let plan = PhysicalPlan::Scan(ScanSpec {
            table,
            region,
            projection,
        });
        Ok((plan, cost, rows))
    }

    /// The region a scan of `table` under `pred` reads, its cost and its
    /// rows.
    fn scan_region(&self, table: &str, pred: &PredBox) -> Result<(Region, f64, f64)> {
        let table_pred = pred.project_table(table);
        let indexed = self.any_indexed(table, table_pred.constrained().map(|(a, _)| a))?;
        let region = Region::from_box(table_pred);
        let rows = self.stats.filtered_rows(table, &region);
        Ok((region, self.scan_price(table, indexed, rows), rows))
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
        let indexed = self.any_indexed(table, constrained)?;
        Ok(self.scan_price(table, indexed, rows))
    }

    /// [`Optimizer::scan_cost`], given whether an index serves the scan.
    fn scan_price(&self, table: &str, indexed: bool, rows: f64) -> f64 {
        let full = self.cost.scan(self.stats.table_rows(table) as f64);
        if indexed {
            self.cost.index_scan(rows).min(full)
        } else {
            full
        }
    }

    /// Whether one of the `constrained` attributes of `table` has an index.
    fn any_indexed<'c>(
        &self,
        table: &str,
        constrained: impl IntoIterator<Item = &'c Arc<str>>,
    ) -> Result<bool> {
        let table_ref = self.catalog.get(table)?;
        Ok(constrained.into_iter().any(|attr| {
            attr.split('.')
                .nth(1)
                .is_some_and(|col| table_ref.index_on(col).is_some())
        }))
    }

    /// Offer `best` every alternative for joining `probe_mask` with a hash
    /// table over `build_mask`, in order: one fresh build, then every
    /// matched reuse. `out_rows` is the join's output estimate.
    fn join_options(
        &self,
        s: &mut Search<'_>,
        probe_mask: u64,
        build_mask: u64,
        out_rows: f64,
        best: &mut Option<PlanInfo>,
    ) -> Result<()> {
        let (_, build_key) = join_keys(&s.graph, probe_mask, build_mask)
            .ok_or_else(|| HsError::PlanError("partition without cross edge".into()))?;
        let probe_info = self.best_plan(s, probe_mask)?;
        let request = self.build_request(s, build_mask, build_key)?;
        let build_info = self.best_plan(s, build_mask)?;
        let req = &s.requests[request];
        let join = |reuse| Choice::Join {
            probe: probe_mask,
            build: build_mask,
            request,
            reuse,
        };

        // --- Fresh build (always an option; AlwaysShare falls back to it
        // when no candidate matches) ---------------------------------------
        let join_cost =
            self.cost
                .rhj_fresh(build_info.rows.max(1.0), req.payload_width, probe_info.rows);
        let fresh = PlanInfo {
            cost: probe_info.cost + build_info.cost + join_cost + self.cost.output(out_rows),
            rows: out_rows,
            reused: probe_info.reused || build_info.reused,
            benefit: probe_info.benefit + build_info.benefit + build_info.rows,
            choice: join(None),
        };
        *best = Some(self.pick(best.take(), fresh));

        // --- Reuse candidates --------------------------------------------
        for (i, (m, delta_cost)) in req.matches.iter().enumerate() {
            let mut cost = probe_info.cost
                + self
                    .cost
                    .rhj_reuse(&m.shape(), req.rows, probe_info.rows, out_rows)
                + self.cost.output(out_rows);
            if m.case.needs_delta() {
                cost += delta_cost;
            }
            let reuse = PlanInfo {
                cost,
                rows: out_rows,
                reused: true,
                benefit: probe_info.benefit + m.candidate.entries as f64,
                choice: join(Some(i)),
            };
            *best = Some(self.pick(best.take(), reuse));
        }
        Ok(())
    }

    /// The index in `s.requests` of the request for a table over `mask`
    /// keyed on `key`, made (and matched against the cache) on first use.
    fn build_request(&self, s: &mut Search<'_>, mask: u64, key: Arc<str>) -> Result<usize> {
        if let Some(i) = s
            .requests
            .iter()
            .position(|r| r.mask == mask && r.key == key)
        {
            return Ok(i);
        }
        let tables = s.graph.tables_of_mask(mask);
        let request_box = restrict_to_tables(&s.q.predicates, &tables);
        let fp = self.build_fingerprint(s.q, &s.graph, mask, &key, &request_box);
        let rows = self.stats.join_rows(
            tables.iter().map(|t| t.as_ref()),
            &s.graph.edges_within_mask(mask),
            &fp.region,
        );
        let payload_width = self.payload_width(&fp.payload_attrs);
        let mut matches = Vec::new();
        for m in self.candidates(s.htm, &fp, &request_box) {
            let delta_cost = if m.case.needs_delta() {
                self.delta_plan(
                    s.q,
                    &s.graph,
                    mask,
                    &m.delta_region,
                    &delta_attrs(&m),
                    false,
                )?
                .1
            } else {
                0.0
            };
            matches.push((m, delta_cost));
        }
        s.requests.push(BuildRequest {
            mask,
            key,
            fp,
            rows,
            payload_width,
            matches,
        });
        Ok(s.requests.len() - 1)
    }

    /// The plan the search chose for `mask`, built from the memo.
    fn build(&self, s: &Search<'_>, mask: u64) -> Result<PhysicalPlan> {
        let Choice::Join {
            probe,
            build,
            request,
            reuse,
        } = chosen(s, mask)?.choice
        else {
            let table = only_table(&s.graph, mask)?;
            return Ok(PhysicalPlan::Scan(ScanSpec {
                region: Region::from_box(s.q.predicates.project_table(&table)),
                projection: required_attrs(&[s.q], &table),
                table,
            }));
        };
        let (probe_key, build_key) = join_keys(&s.graph, probe, build)
            .ok_or_else(|| HsError::PlanError("partition without cross edge".into()))?;
        let req = &s.requests[request];
        let probe = Box::new(self.build(s, probe)?);
        Ok(match reuse {
            None => {
                // Benefit-scored admission: the strategy sees what a future
                // exact reuse of this build would save per byte of footprint.
                let build_rows = chosen(s, build)?.rows;
                let score = self
                    .cost
                    .join_benefit_per_byte(build_rows.max(1.0), req.payload_width);
                PhysicalPlan::HashJoin {
                    probe,
                    build: Some(Box::new(self.build(s, build)?)),
                    probe_key,
                    build_key,
                    reuse: None,
                    publish: self.strategy.admits(Some(score)).then(|| req.fp.clone()),
                }
            }
            Some(i) => {
                let m = &req.matches[i].0;
                // The delta lands in the cached table, in its schema order.
                let delta = if m.case.needs_delta() {
                    let attrs = delta_attrs(m);
                    self.delta_plan(s.q, &s.graph, build, &m.delta_region, &attrs, true)?
                        .0
                        .map(Box::new)
                } else {
                    None
                };
                PhysicalPlan::HashJoin {
                    probe,
                    build: delta,
                    probe_key,
                    build_key,
                    reuse: Some(m.reuse_spec(&req.fp.region)),
                    publish: None,
                }
            }
        })
    }

    /// Delta sub-plan producing the rows of `delta_region` over the
    /// sub-graph `mask`, projected onto `attrs`: one fresh (reuse-free)
    /// pipeline per disjoint box, concatenated by a union. Returns
    /// `(plan, cost)`, with no plan for an empty delta, or without `build`
    /// (pricing only).
    fn delta_plan(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        mask: u64,
        delta_region: &Region,
        attrs: &[Arc<str>],
        build: bool,
    ) -> Result<(Option<PhysicalPlan>, f64)> {
        let mut inputs = Vec::new();
        let mut cost = 0.0;
        for b in delta_region.boxes() {
            let fresh = self.fresh_plan(q, graph, mask, b, attrs)?;
            cost += fresh.1;
            if build {
                inputs.push(PhysicalPlan::Project {
                    input: Box::new(fresh.0.clone()),
                    attrs: attrs.to_vec(),
                });
            }
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
            let mut projection: Vec<Arc<str>> = needed_attrs
                .iter()
                .filter(|a| is_attr_of(a, &table))
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
        s: &mut Search<'_>,
        join_info: PlanInfo,
    ) -> Result<(PhysicalPlan, f64)> {
        let q = s.q;
        let storage_aggs = storage_aggs(q);
        let output_aggs = map_output_aggs(&q.aggregates, &storage_aggs)?;
        let request_fp = HtFingerprint {
            kind: HtKind::Aggregate,
            tables: q.tables.clone(),
            edges: sorted_edges(q),
            region: s.region.take().unwrap_or_else(|| q.region()),
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
        let mut best = PlanInfo {
            cost: fresh_cost,
            rows: groups,
            reused: join_info.reused,
            benefit: join_info.benefit + groups,
            choice: Choice::Aggregate { reuse: None },
        };

        // --- Reuse candidates ---------------------------------------------
        let mut reuse_plans = Vec::new();
        for m in self.candidates(s.htm, &request_fp, &q.predicates) {
            if let Some((mut opt, plan)) =
                self.reuse_agg_option(q, &s.graph, &request_fp, groups, &m)?
            {
                opt.choice = Choice::Aggregate {
                    reuse: Some(reuse_plans.len()),
                };
                reuse_plans.push(plan);
                best = self.pick(Some(best), opt);
            }
        }
        let plan = match best.choice {
            Choice::Aggregate { reuse: Some(i) } => reuse_plans.swap_remove(i),
            _ => {
                // Benefit-scored admission (see `build`): cycles a future
                // exact reuse of the grouped table would save, per byte kept.
                let agg_score = self
                    .cost
                    .agg_benefit_per_byte(join_info.rows, groups, state_width);
                PhysicalPlan::HashAggregate {
                    input: Some(Box::new(self.build(s, s.graph.all())?)),
                    group_by: q.group_by.clone(),
                    aggs: storage_aggs,
                    output_aggs,
                    reuse: None,
                    publish: self.strategy.admits(Some(agg_score)).then_some(request_fp),
                    post_group_by: None,
                }
            }
        };
        Ok((plan, best.cost))
    }

    /// The reuse of the cached aggregate `m`, priced, with its plan; `None`
    /// when the cached table cannot answer the query.
    fn reuse_agg_option(
        &self,
        q: &QuerySpec,
        graph: &JoinGraph,
        request_fp: &HtFingerprint,
        groups: f64,
        m: &MatchRewrite,
    ) -> Result<Option<(PlanInfo, PhysicalPlan)>> {
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
                self.delta_plan(q, graph, graph.all(), &m.delta_region, &attrs, true)?;
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
        let info = PlanInfo {
            cost,
            rows: groups,
            reused: true,
            benefit: m.candidate.entries as f64,
            choice: Choice::Aggregate { reuse: None },
        };
        Ok(Some((info, plan)))
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

/// The alternative the search chose for `mask`.
fn chosen(s: &Search<'_>, mask: u64) -> Result<PlanInfo> {
    s.memo
        .get(&mask)
        .copied()
        .ok_or_else(|| HsError::PlanError(format!("mask {mask:#b} was not planned")))
}

/// The one table of a single-table mask.
fn only_table(graph: &JoinGraph, mask: u64) -> Result<Arc<str>> {
    graph
        .tables_of_mask(mask)
        .into_iter()
        .next()
        .ok_or_else(|| HsError::PlanError("empty scan mask".into()))
}

/// The attributes a delta for the cached join table `m` carries: the
/// table's schema, in its order.
fn delta_attrs(m: &MatchRewrite) -> Vec<Arc<str>> {
    m.candidate
        .schema
        .fields()
        .iter()
        .map(|f| Arc::from(f.name.as_str()))
        .collect()
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
    let mut out: Vec<Arc<str>> = Vec::new();
    for q in queries {
        out.extend(q.joins.iter().filter_map(|e| e.col_of(table)).cloned());
        let used = q
            .projection
            .iter()
            .chain(&q.group_by)
            .chain(q.aggregates.iter().map(|a| &a.attr))
            .chain(q.predicates.constrained().map(|(a, _)| a));
        out.extend(used.filter(|a| is_attr_of(a, table)).cloned());
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
            choice: Choice::Scan,
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
        assert!(greedy.pick(Some(reusing), fresh).reused);
        assert!(greedy.pick(Some(fresh), reusing).reused);
        // The cost model takes the cheaper one either way round.
        let costed = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        assert!(!costed.pick(Some(reusing), fresh).reused);
        assert!(!costed.pick(Some(fresh), reusing).reused);
    }

    #[test]
    fn within_benefit_epsilon_the_higher_benefit_wins() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        // 105 is within 10 % of 100: benefit decides, whichever is cheaper.
        let cheap = alternative(100.0, false, 1.0);
        let beneficial = alternative(105.0, false, 5.0);
        assert_eq!(opt.pick(Some(cheap), beneficial).cost, 105.0);
        assert_eq!(opt.pick(Some(beneficial), cheap).cost, 105.0);
    }

    #[test]
    fn outside_benefit_epsilon_the_cheaper_wins() {
        let (cat, stats, cost) = setup();
        let opt = Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash);
        // 120 is more than 10 % above 100: cost decides, benefit is ignored.
        let cheap = alternative(100.0, false, 1.0);
        let beneficial = alternative(120.0, false, 50.0);
        assert_eq!(opt.pick(Some(cheap), beneficial).cost, 100.0);
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
