//! Candidate matching and rewrite planning (paper §3.3).
//!
//! For a requesting operator the matcher asks the Hash Table Manager for
//! shape-compatible candidates (the recycle-graph pruning), classifies each
//! into one of the four reuse cases by region algebra, verifies payload
//! coverage (post-filters need their attributes stored in the table) and
//! aggregate compatibility, and computes the contribution- and
//! overhead-ratios the cost model consumes.

use std::collections::BTreeSet;
use std::sync::Arc;

use hashstash_cache::manager::Candidate;
use hashstash_cache::HtManager;
use hashstash_exec::plan::ReuseSpec;
use hashstash_plan::{AggExpr, HtFingerprint, HtKind, PredBox, Region, ReuseCase};

use crate::cost::CandidateShape;
use crate::stats::DbStats;

/// One viable reuse option with its rewrite ingredients.
#[derive(Debug, Clone)]
pub struct MatchRewrite {
    /// The cached table.
    pub candidate: Candidate,
    /// Which reuse case applies.
    pub case: ReuseCase,
    /// Post-filter predicates (subsuming/overlapping), restricted to the
    /// payload attributes.
    pub post_filter: Option<PredBox>,
    /// Region of missing tuples to add (partial/overlapping).
    pub delta_region: Region,
    /// Fraction of required tuples already present (paper's `contr`).
    pub contr: f64,
    /// Fraction of stored tuples not required (paper's `overh`).
    pub overh: f64,
    /// For aggregates: request keys are a strict subset of the cached keys,
    /// requiring a post-aggregation (paper §3.3's additive-aggregate rule).
    pub needs_post_group: bool,
}

/// Find all viable reuse options for a requesting fingerprint.
///
/// * `request` — the fingerprint the requesting sub-plan would publish.
/// * `request_box` — the requesting predicates as a single box (queries
///   are conjunctive; regions only arise from cached lineage).
/// * `stats` — for contribution/overhead estimation.
pub fn find_matches(
    htm: &HtManager,
    request: &HtFingerprint,
    request_box: &PredBox,
    stats: &DbStats,
) -> Vec<MatchRewrite> {
    htm.overlapping_candidates(request)
        .into_iter()
        .filter_map(|candidate| try_match(candidate, request, request_box, stats))
        .collect()
}

impl MatchRewrite {
    /// The candidate as the reuse cost models see it.
    pub(crate) fn shape(&self) -> CandidateShape {
        CandidateShape {
            entries: self.candidate.entries as f64,
            bytes: self.candidate.bytes as f64,
            tuple_width: self.candidate.tuple_width as f64,
            contr: self.contr,
            overh: self.overh,
        }
    }

    /// The executor's reuse directive for this match, serving a request
    /// over `request_region`.
    pub(crate) fn reuse_spec(&self, request_region: &Region) -> ReuseSpec {
        ReuseSpec {
            id: self.candidate.id,
            case: self.case,
            post_filter: self.post_filter.clone(),
            request_region: request_region.clone(),
            cached_region: self.candidate.fingerprint.region.clone(),
            schema: self.candidate.schema.clone(),
        }
    }
}

fn try_match(
    candidate: Candidate,
    request: &HtFingerprint,
    request_box: &PredBox,
    stats: &DbStats,
) -> Option<MatchRewrite> {
    let fp = &candidate.fingerprint;
    // Key compatibility.
    let mut needs_post_group = false;
    match request.kind {
        HtKind::JoinBuild => {
            if fp.key_attrs != request.key_attrs {
                return None;
            }
        }
        HtKind::Aggregate | HtKind::SharedGroup => {
            if fp.key_attrs == request.key_attrs {
                // identical group-by
            } else if is_strict_subset(&request.key_attrs, &fp.key_attrs) {
                // Cached table is grouped more finely: allowed only when
                // every requested aggregate is additive (paper §3.3) —
                // AVG qualifies only after the SUM/COUNT rewrite.
                if !all_additive(&request.aggregates) {
                    return None;
                }
                needs_post_group = true;
            } else {
                return None;
            }
        }
    }
    // Aggregate provision (shared-group tables recompute anything).
    if !fp.provides_aggregates(&request.aggregates) {
        return None;
    }
    // Payload must cover everything the requester projects upward.
    if !fp.payload_covers(request.payload_attrs.iter().map(|a| a.as_ref())) {
        return None;
    }
    // Region classification (the lookup already passed over disjoint
    // lineage without copying it).
    let case = ReuseCase::classify(&request.region, &fp.region);
    if case == ReuseCase::Disjoint {
        return None;
    }
    // Post-filter feasibility: the requesting predicates over the
    // candidate's tables must be evaluable on stored tuples.
    let post_filter = if case.needs_post_filter() {
        let restricted = restrict_to_tables(request_box, &fp.tables);
        let attrs: Vec<Arc<str>> = restricted.attrs();
        if !fp.payload_covers(attrs.iter().map(|a| a.as_ref())) {
            return None; // paper: no post-filter attrs ⇒ no reuse
        }
        Some(restricted)
    } else {
        None
    };
    let delta_region = if case.needs_delta() {
        request.region.difference(&fp.region)
    } else {
        Region::empty()
    };

    // Contribution / overhead from region volumes.
    let tables: Vec<&str> = fp.tables.iter().map(|t| t.as_ref()).collect();
    let required = stats
        .join_rows(tables.iter().copied(), &fp.edges, &request.region)
        .max(1.0);
    let useful = stats
        .join_rows(
            tables.iter().copied(),
            &fp.edges,
            &request.region.intersect(&fp.region),
        )
        .clamp(0.0, required);
    let contr = (useful / required).clamp(0.0, 1.0);
    // Useful entries inside the cached table: estimated via the region
    // volume share of the cached lineage.
    let cached_total = stats
        .join_rows(tables.iter().copied(), &fp.edges, &fp.region)
        .max(1.0);
    let useful_share = (useful / cached_total).clamp(0.0, 1.0);
    let overh = (1.0 - useful_share).clamp(0.0, 1.0);

    Some(MatchRewrite {
        candidate,
        case,
        post_filter,
        delta_region,
        contr,
        overh,
        needs_post_group,
    })
}

fn is_strict_subset(a: &[Arc<str>], b: &[Arc<str>]) -> bool {
    a.len() < b.len() && a.iter().all(|x| b.contains(x))
}

fn all_additive(aggs: &[AggExpr]) -> bool {
    aggs.iter().all(|a| a.func.is_additive())
}

/// Restrict a box to attributes belonging to any of the given tables.
pub(crate) fn restrict_to_tables(pred: &PredBox, tables: &BTreeSet<Arc<str>>) -> PredBox {
    let mut out = PredBox::all();
    for (attr, iv) in pred.constrained() {
        let table = attr.split('.').next().unwrap_or("");
        if tables.contains(table) {
            out.constrain(attr.clone(), iv.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_cache::{ColumnHt, GcConfig, StoredHt};
    use hashstash_hashtable::ExtendibleHashTable;
    use hashstash_plan::{AggFunc, Interval};
    use hashstash_storage::tpch::{generate, TpchConfig};
    use hashstash_types::{DataType, Field, Row, Schema, Value};

    fn stats() -> DbStats {
        DbStats::from_catalog(&generate(TpchConfig::new(0.002, 13)))
    }

    fn join_fp(lo: i64, hi: i64) -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::from_box(PredBox::all().with(
                "customer.c_age",
                Interval::closed(Value::Int(lo), Value::Int(hi)),
            )),
            key_attrs: vec![Arc::from("customer.c_custkey")],
            payload_attrs: vec![Arc::from("customer.c_custkey"), Arc::from("customer.c_age")],
            aggregates: vec![],
        }
    }

    fn publish_join(htm: &HtManager, fp: &HtFingerprint, entries: usize) {
        let mut ht = ColumnHt::new(12, &[DataType::Int, DataType::Int]);
        for i in 0..entries as u64 {
            let row = Row::new(vec![Value::Int(i as i64), Value::Int(30)]);
            ht.insert(i, &row).unwrap();
        }
        htm.publish(
            fp.clone(),
            Schema::new(vec![
                Field::new("customer.c_custkey", DataType::Int),
                Field::new("customer.c_age", DataType::Int),
            ]),
            StoredHt::Rows(ht),
        );
    }

    fn request_box(lo: i64, hi: i64) -> PredBox {
        PredBox::all().with(
            "customer.c_age",
            Interval::closed(Value::Int(lo), Value::Int(hi)),
        )
    }

    #[test]
    fn four_cases_classified() {
        let st = stats();
        let htm = HtManager::new(GcConfig::default());
        publish_join(&htm, &join_fp(30, 60), 100);

        let mk_req = |lo: i64, hi: i64| {
            let mut fp = join_fp(lo, hi);
            fp.region = Region::from_box(request_box(lo, hi));
            fp
        };
        let cases = [
            (30, 60, ReuseCase::Exact),
            (40, 50, ReuseCase::Subsuming),
            (20, 70, ReuseCase::Partial),
            (50, 80, ReuseCase::Overlapping),
        ];
        for (lo, hi, expect) in cases {
            let req = mk_req(lo, hi);
            let matches = find_matches(&htm, &req, &request_box(lo, hi), &st);
            assert_eq!(matches.len(), 1, "case {expect}");
            assert_eq!(matches[0].case, expect);
            match expect {
                ReuseCase::Exact => {
                    assert!(matches[0].post_filter.is_none());
                    assert!(matches[0].delta_region.is_empty());
                    assert!((matches[0].contr - 1.0).abs() < 1e-6);
                }
                ReuseCase::Subsuming => {
                    assert!(matches[0].post_filter.is_some());
                    assert!(matches[0].delta_region.is_empty());
                    assert!(matches[0].overh > 0.0);
                }
                ReuseCase::Partial => {
                    assert!(matches[0].post_filter.is_none());
                    assert!(!matches[0].delta_region.is_empty());
                    assert!(matches[0].contr < 1.0);
                }
                ReuseCase::Overlapping => {
                    assert!(matches[0].post_filter.is_some());
                    assert!(!matches[0].delta_region.is_empty());
                }
                ReuseCase::Disjoint => unreachable!(),
            }
        }
        // Disjoint yields nothing.
        let req = mk_req(80, 90);
        assert!(find_matches(&htm, &req, &request_box(80, 90), &st).is_empty());
    }

    #[test]
    fn missing_post_filter_attr_rejected() {
        let st = stats();
        let htm = HtManager::new(GcConfig::default());
        // Candidate payload lacks c_age ⇒ subsuming reuse impossible.
        let mut fp = join_fp(30, 60);
        fp.payload_attrs = vec![Arc::from("customer.c_custkey")];
        publish_join(&htm, &fp, 10);
        let mut req = join_fp(40, 50);
        req.payload_attrs = vec![Arc::from("customer.c_custkey")];
        let matches = find_matches(&htm, &req, &request_box(40, 50), &st);
        assert!(
            matches.is_empty(),
            "paper: no post-filter attributes ⇒ no reuse"
        );
    }

    #[test]
    fn aggregate_group_subset_requires_additive() {
        let st = stats();
        let htm = HtManager::new(GcConfig::default());
        let cached = HtFingerprint {
            kind: HtKind::Aggregate,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::all(),
            key_attrs: vec![
                Arc::from("customer.c_age"),
                Arc::from("customer.c_nationkey"),
            ],
            payload_attrs: vec![
                Arc::from("customer.c_age"),
                Arc::from("customer.c_nationkey"),
            ],
            aggregates: vec![AggExpr::new(AggFunc::Sum, "customer.c_acctbal")],
        };
        let mut ht = ExtendibleHashTable::new(24);
        ht.insert(
            1,
            hashstash_cache::AggPayload::new(
                Row::new(vec![Value::Int(30), Value::Int(2)]),
                &cached.aggregates,
            ),
        );
        htm.publish(
            cached.clone(),
            Schema::new(vec![
                Field::new("customer.c_age", DataType::Int),
                Field::new("customer.c_nationkey", DataType::Int),
            ]),
            StoredHt::Agg(ht),
        );

        // Additive request on a subset of keys ⇒ post-group match.
        let mut req = cached.clone();
        req.key_attrs = vec![Arc::from("customer.c_age")];
        let matches = find_matches(&htm, &req, &PredBox::all(), &st);
        assert_eq!(matches.len(), 1);
        assert!(matches[0].needs_post_group);
        assert_eq!(matches[0].case, ReuseCase::Exact);

        // AVG (non-additive) request on a subset ⇒ rejected.
        let mut avg_req = req.clone();
        avg_req.aggregates = vec![AggExpr::new(AggFunc::Avg, "customer.c_acctbal")];
        assert!(find_matches(&htm, &avg_req, &PredBox::all(), &st).is_empty());

        // Superset of keys ⇒ rejected (cached is too coarse).
        let mut sup = cached.clone();
        sup.key_attrs = vec![
            Arc::from("customer.c_age"),
            Arc::from("customer.c_nationkey"),
            Arc::from("customer.c_mktsegment"),
        ];
        assert!(find_matches(&htm, &sup, &PredBox::all(), &st).is_empty());
    }

    #[test]
    fn aggregate_function_mismatch_rejected() {
        let st = stats();
        let htm = HtManager::new(GcConfig::default());
        let cached = HtFingerprint {
            kind: HtKind::Aggregate,
            tables: std::iter::once(Arc::from("customer")).collect(),
            edges: vec![],
            region: Region::all(),
            key_attrs: vec![Arc::from("customer.c_age")],
            payload_attrs: vec![Arc::from("customer.c_age")],
            aggregates: vec![AggExpr::new(AggFunc::Sum, "customer.c_acctbal")],
        };
        let ht: ExtendibleHashTable<hashstash_cache::AggPayload> = ExtendibleHashTable::new(16);
        htm.publish(
            cached.clone(),
            Schema::new(vec![Field::new("customer.c_age", DataType::Int)]),
            StoredHt::Agg(ht),
        );
        let mut req = cached.clone();
        req.aggregates = vec![AggExpr::new(AggFunc::Min, "customer.c_acctbal")];
        assert!(
            find_matches(&htm, &req, &PredBox::all(), &st).is_empty(),
            "a MIN cannot be answered from a SUM table"
        );
    }
}
