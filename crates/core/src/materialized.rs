//! Materialization-based reuse baseline (paper §6.1, after Nagel et al.).
//!
//! This strategy materializes the same intermediates HashStash caches — the
//! build inputs of hash joins and the outputs of aggregations — but as plain
//! *temp tables* (row vectors), not as hash tables. Consequences, exactly as
//! in the paper:
//!
//! 1. materialization costs extra work during the original query
//!    ([`hashstash_exec::plan::PhysicalPlan::Materialize`] copies rows);
//! 2. only **exact** and **subsuming** reuse are supported;
//! 3. a reused temp table feeds an ordinary hash-join build — the hash table
//!    must be rebuilt from the temp rows every time.

use std::sync::Arc;

use hashstash_types::{HtId, Result, Schema};

use hashstash_cache::HtManager;
use hashstash_exec::plan::{PhysicalPlan, ScanSpec};
use hashstash_opt::optimizer::{OptimizedQuery, Optimizer};
use hashstash_plan::{HtFingerprint, PredBox, QuerySpec, ReuseCase};

/// Rewrite a reuse-free plan into the materialization-based baseline:
/// replace reusable sub-plans with temp scans (exact/subsuming only) and
/// wrap the remaining pipeline breakers with materialization.
///
/// Temp tables live in the Hash Table Manager, a sharded `&self` cache, so
/// the rewrite takes no lock across the optimizer's join enumeration — a
/// temp table evicted between this rewrite and execution surfaces as a
/// `CacheError` the session's retry loop handles.
pub fn materialized_plan(
    optimizer: &Optimizer<'_>,
    q: &QuerySpec,
    htm: &HtManager,
) -> Result<OptimizedQuery> {
    let mut oq = optimizer.optimize(q, htm)?;
    let plan = std::mem::replace(&mut oq.plan, PhysicalPlan::Scan(ScanSpec::full("customer")));
    oq.plan = rewrite(plan, q, htm);
    Ok(oq)
}

fn rewrite(plan: PhysicalPlan, q: &QuerySpec, htm: &HtManager) -> PhysicalPlan {
    match plan {
        PhysicalPlan::HashJoin {
            probe,
            build,
            probe_key,
            build_key,
            publish,
            ..
        } => {
            let probe = Box::new(rewrite(*probe, q, htm));
            // Replace the build sub-plan with a temp scan when an exact or
            // subsuming match exists; otherwise materialize the build input.
            let build_plan = build.map(|b| rewrite(*b, q, htm));
            let new_build = match &publish {
                Some(fp) => match find_temp(htm, fp, &q.predicates) {
                    Some((id, schema, post_filter)) => PhysicalPlan::TempScan {
                        id,
                        schema,
                        post_filter,
                    },
                    None => PhysicalPlan::Materialize {
                        input: Box::new(build_plan.expect("fresh build has a sub-plan")),
                        fingerprint: fp.clone(),
                    },
                },
                None => build_plan.expect("baseline plans always carry builds"),
            };
            PhysicalPlan::HashJoin {
                probe,
                build: Some(Box::new(new_build)),
                probe_key,
                build_key,
                reuse: None,
                publish: None,
            }
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            output_aggs,
            publish,
            post_group_by,
            ..
        } => {
            let input = input.map(|i| Box::new(rewrite(*i, q, htm)));
            // Aggregate *outputs* are materialized; an exact/subsuming hit
            // replaces the whole sub-tree with a temp scan of final rows.
            if let Some(fp) = &publish {
                if let Some((id, schema, post_filter)) = find_temp(htm, fp, &q.predicates) {
                    return PhysicalPlan::TempScan {
                        id,
                        schema,
                        post_filter,
                    };
                }
            }
            let agg = PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                output_aggs,
                reuse: None,
                publish: None,
                post_group_by,
            };
            match publish {
                Some(fp) => PhysicalPlan::Materialize {
                    input: Box::new(agg),
                    fingerprint: fp,
                },
                None => agg,
            }
        }
        PhysicalPlan::Project { input, attrs } => PhysicalPlan::Project {
            input: Box::new(rewrite(*input, q, htm)),
            attrs,
        },
        PhysicalPlan::Union { inputs } => PhysicalPlan::Union {
            inputs: inputs.into_iter().map(|p| rewrite(p, q, htm)).collect(),
        },
        other @ (PhysicalPlan::Scan(_)
        | PhysicalPlan::TempScan { .. }
        | PhysicalPlan::Materialize { .. }) => other,
    }
}

/// Find a cached temp table matching the fingerprint with exact or subsuming
/// reuse (the only cases the baseline supports, per Nagel et al.).
fn find_temp(
    htm: &HtManager,
    request: &HtFingerprint,
    request_pred: &PredBox,
) -> Option<(HtId, Schema, Option<PredBox>)> {
    for c in htm.temp_candidates(request) {
        let fp = &c.fingerprint;
        if !fp.same_shape(request) {
            continue;
        }
        if !fp.provides_aggregates(&request.aggregates) {
            continue;
        }
        // The materialized output must carry every attribute the requesting
        // plan projects upward (e.g. a join key introduced by a later
        // drill-down is absent from older temp tables).
        if !fp.payload_covers(request.payload_attrs.iter().map(|a| a.as_ref())) {
            continue;
        }
        match ReuseCase::classify(&request.region, &fp.region) {
            ReuseCase::Exact => return Some((c.id, c.schema, None)),
            ReuseCase::Subsuming => {
                // Post-filter needs its attributes in the materialized output.
                let restricted = restrict_to_payload(request_pred, &fp.payload_attrs);
                let needed: Vec<Arc<str>> = {
                    let mut v = Vec::new();
                    for (a, _) in request_pred.constrained() {
                        let t = a.split('.').next().unwrap_or("");
                        if fp.tables.contains(t) {
                            v.push(a.clone());
                        }
                    }
                    v
                };
                if !fp.payload_covers(needed.iter().map(|a| a.as_ref())) {
                    continue;
                }
                return Some((c.id, c.schema, Some(restricted)));
            }
            _ => continue,
        }
    }
    None
}

fn restrict_to_payload(pred: &PredBox, payload: &[Arc<str>]) -> PredBox {
    let mut out = PredBox::all();
    for (attr, iv) in pred.constrained() {
        if payload.iter().any(|p| p == attr) {
            out.constrain(attr.clone(), iv.clone());
        }
    }
    out
}
