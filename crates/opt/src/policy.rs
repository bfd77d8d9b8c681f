//! Reuse policy: the configurations the paper evaluates.
//!
//! §6 compares a closed set of configurations: no reuse, materialization
//! and HashStash (Exp. 1), and Always Share, Never Share and the cost model
//! (Exp. 2). [`EngineStrategy`] names each one (Never Share is
//! [`EngineStrategy::NoReuse`]: the two answer every question alike, and
//! the cost model is [`EngineStrategy::HashStash`]); its methods answer the
//! questions the optimizer asks at every pipeline breaker and the engine
//! asks per query:
//!
//! 1. [`reuses`](EngineStrategy::reuses) — match cached tables at all?
//! 2. [`admits`](EngineStrategy::admits) — publish a freshly built table
//!    into the cache, given (where the optimizer could price the build) the
//!    cost model's predicted benefit per byte of footprint?
//! 3. [`prefers_reuse`](EngineStrategy::prefers_reuse) — does any reusing
//!    alternative beat any non-reusing one regardless of cost (the greedy
//!    *Always Share* baseline)?
//! 4. [`materializes`](EngineStrategy::materializes) — run the
//!    materialization-based baseline (temp tables, Nagel et al. style)
//!    instead of hash-table caching?
//!
//! ```
//! use hashstash_opt::EngineStrategy;
//!
//! let s = EngineStrategy::BenefitScored;
//! assert!(s.reuses());
//! assert!(!s.admits(Some(0.5)), "cheap to rebuild, costly to keep");
//! assert!(s.admits(None), "unpriced (shared-plan) publishes are admitted");
//! ```

/// One of the paper's reuse configurations. `Copy`: the engine hands it to
/// every optimizer by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineStrategy {
    /// The paper's system: cost-based reuse of every viable candidate, every
    /// pipeline-breaker hash table admitted into the cache.
    #[default]
    HashStash,
    /// Traditional execution: no reuse, no materialization, nothing cached
    /// (also Exp. 2's *Never Share* baseline).
    NoReuse,
    /// Materialization-based reuse (paper §6.1, after Nagel et al.): no
    /// hash-table reuse; operator outputs are copied into temp tables and
    /// reused for exact/subsuming requests. Fresh tables are admitted, so
    /// the optimizer emits the publish markers the materialization rewrite
    /// turns into `Materialize`/`TempScan` operators, and shared plans
    /// publish hash tables.
    Materialized,
    /// Greedy baseline (paper Exp. 2): reuse whenever any candidate
    /// matches, whatever the cost model says.
    AlwaysShare,
    /// [`EngineStrategy::HashStash`] with **benefit-scored admission**: a
    /// freshly built table is published only when the predicted cycles a
    /// future reuse saves per byte of footprint clear
    /// [`EngineStrategy::MIN_BENEFIT_PER_BYTE`]. Tables that are cheap to
    /// rebuild relative to the cache space they occupy are not worth
    /// evicting someone else for — the admission-time mirror of the GC's
    /// benefit/size weight.
    BenefitScored,
}

impl EngineStrategy {
    /// Admission threshold of [`EngineStrategy::BenefitScored`] (ns saved
    /// per byte). Under the synthetic cost grid the Fig. 7 workload's join
    /// builds score ≈0.7–2 (cheap-to-rebuild, wide payloads at the low end)
    /// while aggregates — whose reuse skips the whole input pass — score far
    /// higher. `1.0` sits at the join median: the densest half of the builds
    /// is admitted, the rebuild-cheap half is refused.
    pub const MIN_BENEFIT_PER_BYTE: f64 = 1.0;

    /// Whether the optimizer matches cached tables at all. When `false` the
    /// recycle-graph lookup and rewrite planning are skipped entirely (and
    /// cache lookup statistics stay untouched).
    pub fn reuses(self) -> bool {
        matches!(
            self,
            EngineStrategy::HashStash | EngineStrategy::AlwaysShare | EngineStrategy::BenefitScored
        )
    }

    /// Whether a freshly built table is admitted (published) into the
    /// cache. `benefit_per_byte` is the cost model's prediction of the
    /// cycles one future exact reuse saves per byte of footprint, or `None`
    /// where the build is not priced per operator (shared plans).
    pub fn admits(self, benefit_per_byte: Option<f64>) -> bool {
        match self {
            EngineStrategy::NoReuse => false,
            EngineStrategy::BenefitScored => {
                benefit_per_byte.is_none_or(|b| b >= Self::MIN_BENEFIT_PER_BYTE)
            }
            EngineStrategy::HashStash
            | EngineStrategy::Materialized
            | EngineStrategy::AlwaysShare => true,
        }
    }

    /// Greedy preference: any reusing plan alternative is preferred over
    /// any non-reusing one before costs are compared.
    pub fn prefers_reuse(self) -> bool {
        self == EngineStrategy::AlwaysShare
    }

    /// Whether the engine runs the materialization-based baseline.
    pub fn materializes(self) -> bool {
        self == EngineStrategy::Materialized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_flags_match_paper_configurations() {
        let table = [
            // (strategy, reuses, admits unscored, prefers reuse, materializes)
            (EngineStrategy::HashStash, true, true, false, false),
            (EngineStrategy::NoReuse, false, false, false, false),
            (EngineStrategy::Materialized, false, true, false, true),
            (EngineStrategy::AlwaysShare, true, true, true, false),
            (EngineStrategy::BenefitScored, true, true, false, false),
        ];
        for (s, reuses, admits, prefers, materializes) in table {
            assert_eq!(s.reuses(), reuses, "{s:?}");
            assert_eq!(s.admits(None), admits, "{s:?}");
            assert_eq!(s.prefers_reuse(), prefers, "{s:?}");
            assert_eq!(s.materializes(), materializes, "{s:?}");
        }
        assert_eq!(EngineStrategy::default(), EngineStrategy::HashStash);
    }

    /// Strategies that do not reuse never look in the cache, so its lookup
    /// counter stays at zero; HashStash looks at every pipeline breaker.
    #[test]
    fn disabled_policies_drop_all_candidates() {
        use crate::{CostModel, DbStats, Optimizer};
        use hashstash_cache::{GcConfig, HtManager};
        use hashstash_plan::{AggExpr, AggFunc, QueryBuilder};
        use hashstash_storage::tpch::{generate, TpchConfig};

        let cat = generate(TpchConfig::new(0.002, 21));
        let stats = DbStats::from_catalog(&cat);
        let cost = CostModel::synthetic();
        let q = QueryBuilder::new(1)
            .join(
                "customer",
                "customer.c_custkey",
                "orders",
                "orders.o_custkey",
            )
            .group_by("customer.c_age")
            .agg(AggExpr::new(AggFunc::Count, "orders.o_orderkey"))
            .build()
            .unwrap();
        let htm = HtManager::new(GcConfig::default());
        for s in [EngineStrategy::NoReuse, EngineStrategy::Materialized] {
            Optimizer::new(&cat, &stats, &cost, s)
                .optimize(&q, &htm)
                .unwrap();
            assert_eq!(htm.stats().candidate_lookups, 0, "{s:?}");
        }
        Optimizer::new(&cat, &stats, &cost, EngineStrategy::HashStash)
            .optimize(&q, &htm)
            .unwrap();
        assert!(htm.stats().candidate_lookups > 0);
    }

    /// Only `BenefitScored` reads the score; every other strategy admits
    /// the same with and without one.
    #[test]
    fn admit_scored_defaults_to_admit() {
        for s in [
            EngineStrategy::HashStash,
            EngineStrategy::NoReuse,
            EngineStrategy::Materialized,
            EngineStrategy::AlwaysShare,
        ] {
            assert_eq!(s.admits(Some(0.0)), s.admits(None), "{s:?}");
            assert_eq!(s.admits(Some(1e9)), s.admits(None), "{s:?}");
        }
    }

    #[test]
    fn benefit_scored_admission_thresholds_on_benefit_per_byte() {
        let s = EngineStrategy::BenefitScored;
        let at = EngineStrategy::MIN_BENEFIT_PER_BYTE;
        assert!(s.admits(Some(at)), "the threshold itself is admitted");
        assert!(s.admits(Some(at * 10.0)));
        assert!(!s.admits(Some(at * 0.1)));
        assert!(!s.admits(Some(0.0)));
        // Unscored publishes (shared plans) are admitted like HashStash.
        assert!(s.admits(None));
    }
}
