//! Property-based tests over the core invariants:
//!
//! * region algebra laws (difference, containment, union, coalescing),
//! * the reuse-case classifier versus a brute-force point check,
//! * the extendible hash table versus a `HashMap` model,
//! * optimizer answers versus never-share answers on random queries.

use proptest::prelude::*;
use std::collections::HashMap;

use hashstash_hashtable::ExtendibleHashTable;
use hashstash_plan::{Interval, PredBox, Region, ReuseCase};
use hashstash_types::Value;

// ---------------------------------------------------------------------
// Region algebra
// ---------------------------------------------------------------------

fn interval_strategy() -> impl Strategy<Value = Interval> {
    (0i64..100, 0i64..100)
        .prop_map(|(a, b)| Interval::closed(Value::Int(a.min(b)), Value::Int(a.max(b))))
}

/// A box over up to two attributes `x`, `y`.
fn box_strategy() -> impl Strategy<Value = PredBox> {
    (
        proptest::option::of(interval_strategy()),
        proptest::option::of(interval_strategy()),
    )
        .prop_map(|(x, y)| {
            let mut b = PredBox::all();
            if let Some(ix) = x {
                b.constrain("t.x", ix);
            }
            if let Some(iy) = y {
                b.constrain("t.y", iy);
            }
            b
        })
}

fn region_strategy() -> impl Strategy<Value = Region> {
    proptest::collection::vec(box_strategy(), 1..4).prop_map(|boxes| {
        boxes
            .into_iter()
            .fold(Region::empty(), |acc, b| acc.union(&Region::from_box(b)))
    })
}

/// Evaluate membership of a lattice point.
fn contains(r: &Region, x: i64, y: i64) -> bool {
    r.matches(|attr| match attr {
        "t.x" => Some(Value::Int(x)),
        "t.y" => Some(Value::Int(y)),
        _ => None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn difference_is_pointwise_correct(a in region_strategy(), b in region_strategy()) {
        let d = a.difference(&b);
        // Spot-check a lattice grid.
        for x in (0..100).step_by(7) {
            for y in (0..100).step_by(7) {
                let expect = contains(&a, x, y) && !contains(&b, x, y);
                prop_assert_eq!(contains(&d, x, y), expect, "point ({}, {})", x, y);
            }
        }
    }

    #[test]
    fn union_is_pointwise_correct(a in region_strategy(), b in region_strategy()) {
        let u = a.union(&b);
        for x in (0..100).step_by(9) {
            for y in (0..100).step_by(9) {
                let expect = contains(&a, x, y) || contains(&b, x, y);
                prop_assert_eq!(contains(&u, x, y), expect, "point ({}, {})", x, y);
            }
        }
        // Union boxes stay pairwise disjoint (representation invariant).
        let boxes = u.boxes();
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                prop_assert!(!boxes[i].intersects(&boxes[j]));
            }
        }
    }

    #[test]
    fn subset_agrees_with_difference(a in region_strategy(), b in region_strategy()) {
        prop_assert_eq!(a.is_subset(&b), a.difference(&b).is_empty());
    }

    #[test]
    fn classifier_agrees_with_pointwise_semantics(
        r in region_strategy(),
        c in region_strategy(),
    ) {
        let case = ReuseCase::classify(&r, &c);
        // Derive the ground truth from lattice points.
        let mut r_minus_c = false;
        let mut c_minus_r = false;
        let mut both = false;
        for x in (0..100).step_by(3) {
            for y in (0..100).step_by(3) {
                let in_r = contains(&r, x, y);
                let in_c = contains(&c, x, y);
                r_minus_c |= in_r && !in_c;
                c_minus_r |= in_c && !in_r;
                both |= in_r && in_c;
            }
        }
        // The classifier works on exact region algebra; lattice sampling can
        // miss thin slivers, so check implications rather than equality.
        match case {
            ReuseCase::Exact => {
                prop_assert!(!r_minus_c && !c_minus_r);
            }
            ReuseCase::Subsuming => prop_assert!(!r_minus_c),
            ReuseCase::Partial => prop_assert!(!c_minus_r),
            ReuseCase::Overlapping => {}
            ReuseCase::Disjoint => prop_assert!(!both),
        }
    }

    #[test]
    fn disjointness_test_agrees_with_the_classifier(
        r in prop_oneof![region_strategy(), Just(Region::empty())],
        c in prop_oneof![region_strategy(), Just(Region::empty())],
    ) {
        prop_assert_eq!(
            r.is_disjoint(&c),
            ReuseCase::classify(&r, &c) == ReuseCase::Disjoint
        );
    }

    #[test]
    fn coalesce_preserves_semantics(a in region_strategy()) {
        let coalesced = a.clone().coalesced();
        for x in (0..100).step_by(5) {
            for y in (0..100).step_by(5) {
                prop_assert_eq!(contains(&a, x, y), contains(&coalesced, x, y));
            }
        }
        prop_assert!(coalesced.boxes().len() <= a.boxes().len());
    }
}

// ---------------------------------------------------------------------
// Hash table vs HashMap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Probe(u64),
    Upsert(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, 0u64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..64).prop_map(Op::Probe),
        (0u64..64).prop_map(Op::Upsert),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn extendible_ht_matches_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut ht: ExtendibleHashTable<u64> = ExtendibleHashTable::new(8);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    ht.insert(k, v);
                    model.entry(k).or_default().push(v);
                }
                Op::Probe(k) => {
                    let got: Vec<u64> = ht.probe(k).copied().collect();
                    let want = model.get(&k).cloned().unwrap_or_default();
                    prop_assert_eq!(got.len(), want.len(), "entry count under key {}", k);
                    prop_assert_eq!(
                        got.iter().sum::<u64>(),
                        want.iter().sum::<u64>(),
                        "value sum under key {}",
                        k
                    );
                }
                Op::Upsert(k) => {
                    // `upsert` bumps *one* matching entry (which one depends
                    // on chain order after lazy splits), so the model tracks
                    // the per-key SUM — the invariant aggregation relies on.
                    ht.upsert(k, || 1u64, |v| *v += 1);
                    let vs = model.entry(k).or_default();
                    if vs.is_empty() {
                        vs.push(1);
                    } else {
                        *vs.last_mut().expect("non-empty") += 1;
                    }
                }
            }
        }
        prop_assert_eq!(ht.len(), model.values().map(Vec::len).sum::<usize>());
        prop_assert_eq!(
            ht.distinct_keys(),
            model.values().filter(|v| !v.is_empty()).count()
        );
    }
}

// ---------------------------------------------------------------------
// Optimizer vs never-share on random queries
// ---------------------------------------------------------------------

mod optimizer_props {
    use super::*;
    use hashstash::{Database, EngineStrategy};
    use hashstash_plan::{AggExpr, AggFunc, QueryBuilder, QuerySpec};
    use hashstash_storage::tpch::{generate, TpchConfig};

    fn random_query(id: u32, lo: i64, hi: i64, drill: bool) -> QuerySpec {
        let mut b = QueryBuilder::new(id)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .filter(
                "customer.c_age",
                Interval::closed(Value::Int(lo.min(hi)), Value::Int(lo.max(hi))),
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .agg(AggExpr::new(AggFunc::Avg, "orders.o_totalprice"));
        if drill {
            b = b
                .join(
                    "orders",
                    "orders.o_orderkey",
                    "lineitem",
                    "lineitem.l_orderkey",
                )
                .agg(AggExpr::new(AggFunc::Sum, "lineitem.l_quantity"));
        }
        b.build().expect("valid")
    }

    fn normalized(mut rows: Vec<hashstash_types::Row>) -> Vec<Vec<String>> {
        rows.sort();
        rows.iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| match v.as_float() {
                        Some(f) => format!("{f:.4}"),
                        None => v.to_string(),
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn random_sessions_agree_with_never_share(
            bounds in proptest::collection::vec((18i64..92, 18i64..92, any::<bool>()), 3..6)
        ) {
            let catalog = generate(TpchConfig::new(0.002, 555));
            let mut hs = Database::open(catalog.clone()).session();
            let mut ns = Database::builder(catalog)
                .strategy(EngineStrategy::NoReuse)
                .build()
                .session();
            for (i, (lo, hi, drill)) in bounds.iter().enumerate() {
                let q = random_query(i as u32, *lo, *hi, *drill);
                let got = normalized(hs.execute(&q).unwrap().rows.into_vec());
                let want = normalized(ns.execute(&q).unwrap().rows.into_vec());
                prop_assert_eq!(got, want, "divergence at query {}", i);
            }
        }
    }
}
