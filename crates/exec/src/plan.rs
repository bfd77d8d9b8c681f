//! Physical plan trees.
//!
//! The reuse-aware optimizer produces these; the executor interprets them.
//! A plan node's output schema is computed structurally against the catalog
//! (qualified attribute names throughout).

use std::sync::Arc;

use hashstash_types::{HsError, HtId, Result, Schema};

use hashstash_plan::{AggExpr, HtFingerprint, PredBox, Region, ReuseCase};
use hashstash_storage::Catalog;

/// A base-table scan restricted to a predicate region.
///
/// `region` may be [`Region::all`] (full scan), a single box (ordinary
/// selection) or a union of boxes (the delta scan `r ∧ ¬c` of partial and
/// overlapping reuse). The executor uses a sorted secondary index when one
/// exists on a constrained attribute.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// Base table name.
    pub table: Arc<str>,
    /// Predicate region over this table's (qualified) attributes.
    pub region: Region,
    /// Output attributes (qualified). Empty means "all columns".
    pub projection: Vec<Arc<str>>,
}

impl ScanSpec {
    /// Scan everything.
    pub fn full(table: &str) -> Self {
        ScanSpec {
            table: table.into(),
            region: Region::all(),
            projection: Vec::new(),
        }
    }

    /// Scan with a single-box predicate.
    pub fn filtered(table: &str, pred: PredBox) -> Self {
        ScanSpec {
            table: table.into(),
            region: Region::from_box(pred),
            projection: Vec::new(),
        }
    }

    /// Restrict the output columns.
    pub fn project(mut self, attrs: &[&str]) -> Self {
        self.projection = attrs.iter().map(|a| Arc::from(*a)).collect();
        self
    }
}

/// How a join/aggregate node reuses a cached hash table.
#[derive(Debug, Clone)]
pub struct ReuseSpec {
    /// The cached table to check out.
    pub id: HtId,
    /// Reuse case decided by the matcher.
    pub case: ReuseCase,
    /// Post-filter applied to reused tuples (subsuming/overlapping): the
    /// requesting predicates restricted to attributes stored in the payload.
    pub post_filter: Option<PredBox>,
    /// Region of the *requesting* operator; used at check-in to widen the
    /// cached table's lineage after missing tuples were added.
    pub request_region: Region,
    /// Region of the *cached* table at planning time. The executor
    /// re-validates it at checkout: if a concurrent session widened the
    /// table's lineage in between, the classification (and delta/post
    /// filter) computed here is stale and the query must re-plan.
    pub cached_region: Region,
    /// Payload schema of the cached table (known to the optimizer from the
    /// candidate's statistics), so plan schemas are computable even when the
    /// build sub-plan is eliminated.
    pub schema: Schema,
}

/// How an aggregate output column is produced from stored accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputAgg {
    /// Finalize the accumulator at this index.
    Direct(usize),
    /// `AVG` reconstructed from rewritten `SUM`/`COUNT` accumulators
    /// (benefit-oriented optimization, paper §3.4).
    AvgOf { sum_idx: usize, count_idx: usize },
}

/// A node of the physical plan tree.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Leaf scan.
    Scan(ScanSpec),
    /// Column projection.
    Project {
        input: Box<PhysicalPlan>,
        attrs: Vec<Arc<str>>,
    },
    /// Concatenation of disjoint inputs with identical schemas. Used to
    /// evaluate multi-box delta regions: each disjoint box becomes one
    /// input, so no deduplication is needed.
    Union { inputs: Vec<PhysicalPlan> },
    /// Hash join. Output schema = probe schema ++ build schema.
    HashJoin {
        /// Probe side (pipelined through).
        probe: Box<PhysicalPlan>,
        /// Build side. `None` only when an exact/subsuming reuse removes the
        /// entire build sub-plan; with partial/overlapping reuse this is the
        /// *delta* sub-plan producing the missing tuples.
        build: Option<Box<PhysicalPlan>>,
        /// Qualified join key attribute resolved against the probe schema.
        probe_key: Arc<str>,
        /// Qualified join key attribute resolved against the build schema.
        build_key: Arc<str>,
        /// Reuse directive, if a cached table serves this join.
        reuse: Option<ReuseSpec>,
        /// Publish the build-side table after execution (HashStash caches
        /// every pipeline-breaker table; baselines pass `None`).
        publish: Option<HtFingerprint>,
    },
    /// Materialize the input into a temp table of the Hash Table Manager and
    /// pass it through
    /// (materialization-based baseline: the paper's "Mat." strategy pays
    /// this copy during the original query).
    Materialize {
        input: Box<PhysicalPlan>,
        fingerprint: HtFingerprint,
    },
    /// Scan a previously materialized temp table, optionally post-filtering
    /// (subsuming reuse — the only non-exact case the baseline supports).
    TempScan {
        id: HtId,
        schema: Schema,
        post_filter: Option<PredBox>,
    },
    /// Hash aggregate (SPJA root).
    HashAggregate {
        /// Input rows. `None` only for exact reuse of the aggregate table.
        input: Option<Box<PhysicalPlan>>,
        /// Group-by attributes of the *stored* hash table.
        group_by: Vec<Arc<str>>,
        /// Aggregates of the *stored* hash table (post AVG rewrite).
        aggs: Vec<AggExpr>,
        /// Map from stored accumulators to the query's requested outputs.
        output_aggs: Vec<OutputAgg>,
        /// Reuse directive.
        reuse: Option<ReuseSpec>,
        /// Publish directive.
        publish: Option<HtFingerprint>,
        /// Re-group on a subset of `group_by` before output (exact reuse
        /// with removed group-by attributes, paper Figure 2 / Q3).
        post_group_by: Option<Vec<Arc<str>>>,
    },
}

impl PhysicalPlan {
    /// Output schema of the node.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema> {
        match self {
            PhysicalPlan::Scan(s) => {
                let table = catalog.get(&s.table)?;
                Ok(project_scan(table.qualified_schema(), &s.projection)?.0)
            }
            PhysicalPlan::Materialize { input, .. } => input.schema(catalog),
            PhysicalPlan::Union { inputs } => inputs
                .first()
                .ok_or_else(|| HsError::PlanError("empty union".into()))?
                .schema(catalog),
            PhysicalPlan::TempScan { schema, .. } => Ok(schema.clone()),
            PhysicalPlan::Project { input, attrs } => {
                let in_schema = input.schema(catalog)?;
                let names: Vec<&str> = attrs.iter().map(|a| a.as_ref()).collect();
                in_schema.project(&names)
            }
            PhysicalPlan::HashJoin {
                probe,
                build,
                reuse,
                publish,
                ..
            } => {
                let probe_schema = probe.schema(catalog)?;
                let build_schema = self.join_build_schema(catalog, build, reuse, publish)?;
                Ok(probe_schema.concat(&build_schema))
            }
            PhysicalPlan::HashAggregate {
                group_by,
                output_aggs,
                post_group_by,
                input,
                reuse,
                ..
            } => {
                // Group columns keep their input types; aggregates are FLOAT
                // except COUNT (INT). We need the types of group attributes:
                // derive from the input schema when present, else from the
                // catalog (reuse-only node).
                let group_attrs = post_group_by.as_ref().unwrap_or(group_by);
                let mut fields = Vec::new();
                for g in group_attrs {
                    let dtype = match input {
                        Some(i) => i.schema(catalog)?.field(g)?.dtype,
                        None => lookup_attr_type(catalog, g)?,
                    };
                    fields.push(hashstash_types::Field::new(g.to_string(), dtype));
                }
                let _ = reuse;
                for (i, oa) in output_aggs.iter().enumerate() {
                    let dtype = match oa {
                        OutputAgg::Direct(idx) => {
                            match self.stored_agg_func(*idx) {
                                Some(hashstash_plan::AggFunc::Count) => {
                                    hashstash_types::DataType::Int
                                }
                                Some(hashstash_plan::AggFunc::Min)
                                | Some(hashstash_plan::AggFunc::Max) => {
                                    // Min/Max preserve input type; fall back
                                    // to FLOAT (numeric aggregates only in
                                    // our workloads… except dates). Use the
                                    // attr's type when resolvable.
                                    self.stored_agg_attr(*idx)
                                        .and_then(|a| lookup_attr_type(catalog, &a).ok())
                                        .unwrap_or(hashstash_types::DataType::Float)
                                }
                                _ => hashstash_types::DataType::Float,
                            }
                        }
                        OutputAgg::AvgOf { .. } => hashstash_types::DataType::Float,
                    };
                    fields.push(hashstash_types::Field::new(format!("agg_{i}"), dtype));
                }
                Ok(Schema::new(fields))
            }
        }
    }

    fn stored_agg_func(&self, idx: usize) -> Option<hashstash_plan::AggFunc> {
        match self {
            PhysicalPlan::HashAggregate { aggs, .. } => aggs.get(idx).map(|a| a.func),
            _ => None,
        }
    }

    fn stored_agg_attr(&self, idx: usize) -> Option<Arc<str>> {
        match self {
            PhysicalPlan::HashAggregate { aggs, .. } => aggs.get(idx).map(|a| a.attr.clone()),
            _ => None,
        }
    }

    /// Schema of a join's build-side payload rows.
    ///
    /// With a build sub-plan this is its output schema. With build removed
    /// (exact/subsuming reuse) it is the cached table's schema, which the
    /// executor learns at checkout — for schema *computation* we require the
    /// publish/reuse fingerprints to carry the payload attributes, and
    /// resolve their types from the catalog.
    fn join_build_schema(
        &self,
        catalog: &Catalog,
        build: &Option<Box<PhysicalPlan>>,
        reuse: &Option<ReuseSpec>,
        publish: &Option<HtFingerprint>,
    ) -> Result<Schema> {
        if let Some(b) = build {
            return b.schema(catalog);
        }
        if let Some(r) = reuse {
            return Ok(r.schema.clone());
        }
        // No build and no reuse: only legal when a publish fingerprint names
        // the payload attributes (not produced by the current optimizer, but
        // kept total for hand-written plans).
        match publish {
            Some(fp) => {
                let mut fields = Vec::new();
                for a in &fp.payload_attrs {
                    fields.push(hashstash_types::Field::new(
                        a.to_string(),
                        lookup_attr_type(catalog, a)?,
                    ));
                }
                Ok(Schema::new(fields))
            }
            None => Err(HsError::PlanError(
                "join with eliminated build side needs a reuse spec or publish fingerprint".into(),
            )),
        }
    }

    /// Count plan nodes (used by optimizer statistics and tests).
    pub fn node_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan(_) | PhysicalPlan::TempScan { .. } => 1,
            PhysicalPlan::Project { input, .. } | PhysicalPlan::Materialize { input, .. } => {
                1 + input.node_count()
            }
            PhysicalPlan::Union { inputs } => {
                1 + inputs.iter().map(PhysicalPlan::node_count).sum::<usize>()
            }
            PhysicalPlan::HashJoin { probe, build, .. } => {
                1 + probe.node_count() + build.as_ref().map_or(0, |b| b.node_count())
            }
            PhysicalPlan::HashAggregate { input, .. } => {
                1 + input.as_ref().map_or(0, |i| i.node_count())
            }
        }
    }

    /// Collect the reuse decisions in the tree (for experiment reporting:
    /// the paper's `N`/`S`/`X` decision strings, Table 8b).
    pub fn reuse_decisions(&self) -> Vec<(String, Option<ReuseCase>)> {
        let mut out = Vec::new();
        self.collect_decisions(&mut out);
        out
    }

    /// Collect every reuse directive in the tree, in execution order. The
    /// session uses this to check out (pin) all chosen tables right after
    /// optimization, before execution starts.
    pub fn reuse_specs(&self) -> Vec<&ReuseSpec> {
        let mut out = Vec::new();
        self.collect_reuse_specs(&mut out);
        out
    }

    fn collect_reuse_specs<'p>(&'p self, out: &mut Vec<&'p ReuseSpec>) {
        match self {
            PhysicalPlan::Scan(_) | PhysicalPlan::TempScan { .. } => {}
            PhysicalPlan::Project { input, .. } | PhysicalPlan::Materialize { input, .. } => {
                input.collect_reuse_specs(out)
            }
            PhysicalPlan::Union { inputs } => {
                for i in inputs {
                    i.collect_reuse_specs(out);
                }
            }
            PhysicalPlan::HashJoin {
                probe,
                build,
                reuse,
                ..
            } => {
                probe.collect_reuse_specs(out);
                if let Some(b) = build {
                    b.collect_reuse_specs(out);
                }
                if let Some(r) = reuse {
                    out.push(r);
                }
            }
            PhysicalPlan::HashAggregate { input, reuse, .. } => {
                if let Some(i) = input {
                    i.collect_reuse_specs(out);
                }
                if let Some(r) = reuse {
                    out.push(r);
                }
            }
        }
    }

    fn collect_decisions(&self, out: &mut Vec<(String, Option<ReuseCase>)>) {
        match self {
            PhysicalPlan::Scan(_) | PhysicalPlan::TempScan { .. } => {}
            PhysicalPlan::Project { input, .. } | PhysicalPlan::Materialize { input, .. } => {
                input.collect_decisions(out)
            }
            PhysicalPlan::Union { inputs } => {
                for i in inputs {
                    i.collect_decisions(out);
                }
            }
            PhysicalPlan::HashJoin {
                probe,
                build,
                reuse,
                build_key,
                ..
            } => {
                probe.collect_decisions(out);
                if let Some(b) = build {
                    b.collect_decisions(out);
                }
                out.push((format!("join[{build_key}]"), reuse.as_ref().map(|r| r.case)));
            }
            PhysicalPlan::HashAggregate { input, reuse, .. } => {
                if let Some(i) = input {
                    i.collect_decisions(out);
                }
                out.push(("agg".to_string(), reuse.as_ref().map(|r| r.case)));
            }
        }
    }
}

/// A scan's output schema and the positions of its columns in the table:
/// the qualified schema projected onto `projection` by position (all of
/// it when `projection` is empty).
pub(crate) fn project_scan(
    qualified: &Schema,
    projection: &[Arc<str>],
) -> Result<(Schema, Vec<usize>)> {
    if projection.is_empty() {
        return Ok((qualified.clone(), (0..qualified.len()).collect()));
    }
    let positions = projection
        .iter()
        .map(|a| qualified.index_of(a))
        .collect::<Result<Vec<_>>>()?;
    Ok((qualified.project_at(&positions), positions))
}

/// Resolve a qualified attribute's type from the catalog.
pub fn lookup_attr_type(catalog: &Catalog, attr: &str) -> Result<hashstash_types::DataType> {
    let (table, column) = attr
        .split_once('.')
        .ok_or_else(|| HsError::UnknownColumn(attr.to_string()))?;
    let t = catalog.get(table)?;
    Ok(t.schema().field(column)?.dtype)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_storage::tpch::{generate, TpchConfig};

    fn catalog() -> Catalog {
        generate(TpchConfig::new(0.001, 3))
    }

    #[test]
    fn scan_schema_projection() {
        let cat = catalog();
        let scan = PhysicalPlan::Scan(
            ScanSpec::full("customer").project(&["customer.c_custkey", "customer.c_age"]),
        );
        let s = scan.schema(&cat).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field_at(1).name, "customer.c_age");
    }

    #[test]
    fn join_schema_concatenates() {
        let cat = catalog();
        let plan = PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(
                ScanSpec::full("orders").project(&["orders.o_orderkey", "orders.o_custkey"]),
            )),
            build: Some(Box::new(PhysicalPlan::Scan(
                ScanSpec::full("customer").project(&["customer.c_custkey"]),
            ))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        };
        let s = plan.schema(&cat).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field_at(0).name, "orders.o_orderkey");
        assert_eq!(s.field_at(2).name, "customer.c_custkey");
    }

    #[test]
    fn lookup_attr_type_works() {
        let cat = catalog();
        assert_eq!(
            lookup_attr_type(&cat, "lineitem.l_shipdate").unwrap(),
            hashstash_types::DataType::Date
        );
        assert!(lookup_attr_type(&cat, "nope").is_err());
        assert!(lookup_attr_type(&cat, "lineitem.nope").is_err());
    }

    #[test]
    fn node_count_counts() {
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Scan(ScanSpec::full("customer"))),
            attrs: vec!["customer.c_age".into()],
        };
        assert_eq!(plan.node_count(), 2);
    }
}
