//! Pluggable reuse policies.
//!
//! The paper's §6 evaluation compares five reuse configurations. Earlier
//! revisions hard-coded them as an enum threaded through the optimizer;
//! this module replaces that closed set with the [`ReusePolicy`] trait so
//! new policies can be added — and selected at runtime — without touching
//! the optimizer or engine internals.
//!
//! A policy answers three questions the optimizer asks at every pipeline
//! breaker:
//!
//! 1. [`candidates`](ReusePolicy::candidates) — which of the matched cached
//!    tables may this operator consider reusing?
//! 2. [`admit`](ReusePolicy::admit) /
//!    [`admit_scored`](ReusePolicy::admit_scored) — should a freshly built
//!    table be published (admitted) into the cache for future reuse? The
//!    scored variant receives an [`AdmissionScore`] — the cost model's
//!    prediction of cycles a future reuse would save, per byte of cache
//!    footprint — so policies can refuse tables that are cheap to rebuild
//!    but expensive to keep (see [`BenefitScoredAdmission`]).
//! 3. [`prefer_reuse`](ReusePolicy::prefer_reuse) — when costs are
//!    compared, does any reusing alternative beat any non-reusing one
//!    regardless of estimate (the paper's greedy *Always Share* baseline)?
//!
//! Plus one question the engine asks per query:
//! [`materialize`](ReusePolicy::materialize) — run the
//! materialization-based baseline (temp tables, Nagel et al. style)
//! instead of hash-table caching.
//!
//! # Implementing a custom policy
//!
//! ```
//! use hashstash_opt::policy::ReusePolicy;
//! use hashstash_opt::matching::MatchRewrite;
//! use hashstash_plan::{HtFingerprint, ReuseCase};
//!
//! /// Reuse only exact matches: never pay for deltas or post-filters.
//! struct ExactOnly;
//!
//! impl ReusePolicy for ExactOnly {
//!     fn name(&self) -> &str {
//!         "exact-only"
//!     }
//!     fn candidates(
//!         &self,
//!         _request: &HtFingerprint,
//!         matches: Vec<MatchRewrite>,
//!     ) -> Vec<MatchRewrite> {
//!         matches
//!             .into_iter()
//!             .filter(|m| m.case == ReuseCase::Exact)
//!             .collect()
//!     }
//!     fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
//!         true
//!     }
//! }
//!
//! assert_eq!(ExactOnly.name(), "exact-only");
//! assert!(!ExactOnly.materialize());
//! ```

use std::fmt;
use std::sync::Arc;

use hashstash_plan::HtFingerprint;

use crate::matching::MatchRewrite;

/// The cost model's prediction of what admitting a freshly built table is
/// worth: the cycles a single future exact reuse would save (the avoided
/// build work) against the bytes the table would occupy in the cache. This
/// is the per-candidate analogue of the paper's GC weight — benefit over
/// size — applied at *admission* time instead of eviction time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionScore {
    /// Estimated build cost (ns) that one future exact reuse would skip.
    pub predicted_benefit_ns: f64,
    /// Estimated cache footprint of the table (bytes).
    pub predicted_bytes: f64,
}

impl AdmissionScore {
    /// Predicted cycles saved per byte of footprint — the admission
    /// analogue of the GC's benefit/size weight.
    pub fn benefit_per_byte(&self) -> f64 {
        self.predicted_benefit_ns / self.predicted_bytes.max(1.0)
    }
}

/// A reuse strategy the optimizer consults at every pipeline breaker.
///
/// Implementations must be [`Send`] + [`Sync`]: one policy instance is
/// shared by every session of a `Database`.
pub trait ReusePolicy: Send + Sync {
    /// Short stable name, e.g. `"hashstash"`; used in logs and stats.
    fn name(&self) -> &str;

    /// Filter (and optionally reorder) the reuse candidates matched for one
    /// request. `request` is the fingerprint of the hash table the
    /// requesting operator would build fresh; `matches` are all cached
    /// tables the matcher found viable. Return an empty vector to forbid
    /// reuse at this operator.
    fn candidates(&self, request: &HtFingerprint, matches: Vec<MatchRewrite>) -> Vec<MatchRewrite>;

    /// Whether a freshly built hash table described by `fingerprint` should
    /// be admitted (published) into the cache when this operator runs.
    fn admit(&self, fingerprint: &HtFingerprint) -> bool;

    /// [`ReusePolicy::admit`] with the cost model's benefit prediction
    /// attached. The optimizer calls this wherever it can price the build
    /// (single-query pipeline breakers); shared-plan publishes, which have
    /// no per-operator costing, fall back to the unscored hook. The default
    /// ignores the score, so existing policies keep their behavior.
    fn admit_scored(&self, fingerprint: &HtFingerprint, score: &AdmissionScore) -> bool {
        let _ = score;
        self.admit(fingerprint)
    }

    /// Whether the optimizer should run candidate matching at all. Policies
    /// that unconditionally return no candidates override this to `false`
    /// so the engine skips the recycle-graph lookup and rewrite planning
    /// entirely (and cache lookup statistics stay untouched). Default
    /// `true`.
    fn wants_candidates(&self) -> bool {
        true
    }

    /// Greedy preference: when `true`, any reusing plan alternative is
    /// preferred over any non-reusing one before costs are compared (the
    /// paper's *Always Share* baseline). Default `false`: pure cost-based
    /// arbitration.
    fn prefer_reuse(&self) -> bool {
        false
    }

    /// Whether the engine should run the materialization-based baseline:
    /// operator outputs are copied into temp tables during execution and
    /// reused for exact/subsuming requests only (Nagel et al. style, paper
    /// §6.1). Default `false`: hash-table caching.
    fn materialize(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn ReusePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReusePolicy({})", self.name())
    }
}

/// The paper's system: cost-based reuse of every viable candidate, with
/// every pipeline-breaker hash table admitted into the cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBasedReuse;

impl ReusePolicy for CostBasedReuse {
    fn name(&self) -> &str {
        "hashstash"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        matches
    }
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        true
    }
}

/// Greedy baseline (paper Exp. 2): reuse whenever any candidate matches,
/// whatever the cost model says.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysShare;

impl ReusePolicy for AlwaysShare {
    fn name(&self) -> &str {
        "always-share"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        matches
    }
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        true
    }
    fn prefer_reuse(&self) -> bool {
        true
    }
}

/// Reuse disabled in the optimizer, nothing cached (paper Exp. 2's
/// *Never Share* baseline; execution-equivalent to [`NoReuse`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverShare;

impl ReusePolicy for NeverShare {
    fn wants_candidates(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "never-share"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        _matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        Vec::new()
    }
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        false
    }
}

/// Traditional execution: no reuse, no materialization, nothing cached.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoReuse;

impl ReusePolicy for NoReuse {
    fn wants_candidates(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "no-reuse"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        _matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        Vec::new()
    }
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        false
    }
}

/// Materialization-based reuse (paper §6.1, after Nagel et al.): no
/// hash-table reuse; instead the engine copies operator outputs into temp
/// tables and reuses those for exact/subsuming requests. `admit` returns
/// `true` so the optimizer emits publish *markers* that the materialization
/// rewrite turns into materialize/temp-scan operators — no hash tables are
/// ever cached.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaterializedReuse;

impl ReusePolicy for MaterializedReuse {
    fn wants_candidates(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "materialized"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        _matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        Vec::new()
    }
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        true
    }
    fn materialize(&self) -> bool {
        true
    }
}

/// Cost-based reuse with **benefit-scored admission**: candidates and
/// arbitration as [`CostBasedReuse`], but a freshly built table is admitted
/// only when the predicted cycles-saved-per-byte of a future reuse clears a
/// threshold. Tables that are cheap to rebuild relative to the cache space
/// they occupy (fat payloads, tiny builds) are not worth evicting someone
/// else for — the admission-time mirror of the paper's GC weight.
#[derive(Debug, Clone, Copy)]
pub struct BenefitScoredAdmission {
    /// Minimum predicted benefit (ns saved per byte) for admission.
    pub min_benefit_per_byte: f64,
}

impl BenefitScoredAdmission {
    /// Default threshold (ns/byte): under the synthetic cost grid the
    /// Fig. 7 workload's join builds score ≈0.7–2 (cheap-to-rebuild, wide
    /// payloads at the low end) while aggregates — whose reuse skips the
    /// whole input pass — score far higher. `1.0` sits at the join
    /// median: the densest half of the builds is admitted, the
    /// rebuild-cheap half is refused.
    pub const DEFAULT_MIN_BENEFIT_PER_BYTE: f64 = 1.0;

    /// Policy with an explicit threshold.
    pub fn new(min_benefit_per_byte: f64) -> Self {
        BenefitScoredAdmission {
            min_benefit_per_byte,
        }
    }
}

impl Default for BenefitScoredAdmission {
    fn default() -> Self {
        BenefitScoredAdmission::new(Self::DEFAULT_MIN_BENEFIT_PER_BYTE)
    }
}

impl ReusePolicy for BenefitScoredAdmission {
    fn name(&self) -> &str {
        "benefit-scored"
    }
    fn candidates(
        &self,
        _request: &HtFingerprint,
        matches: Vec<MatchRewrite>,
    ) -> Vec<MatchRewrite> {
        matches
    }
    /// Unscored fallback (shared-plan publishes): admit, as
    /// [`CostBasedReuse`] would.
    fn admit(&self, _fingerprint: &HtFingerprint) -> bool {
        true
    }
    fn admit_scored(&self, _fingerprint: &HtFingerprint, score: &AdmissionScore) -> bool {
        score.benefit_per_byte() >= self.min_benefit_per_byte
    }
}

/// Convenience alias for a shared, type-erased policy handle.
pub type PolicyHandle = Arc<dyn ReusePolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use hashstash_plan::{HtKind, Region};

    fn probe() -> HtFingerprint {
        HtFingerprint {
            kind: HtKind::JoinBuild,
            tables: std::iter::once(Arc::from("t")).collect(),
            edges: vec![],
            region: Region::empty(),
            key_attrs: vec![],
            payload_attrs: vec![],
            aggregates: vec![],
        }
    }

    #[test]
    fn builtin_flags_match_paper_configurations() {
        let table: [(&dyn ReusePolicy, bool, bool, bool); 5] = [
            // (policy, admits, prefers reuse, materializes)
            (&CostBasedReuse, true, false, false),
            (&AlwaysShare, true, true, false),
            (&NeverShare, false, false, false),
            (&NoReuse, false, false, false),
            (&MaterializedReuse, true, false, true),
        ];
        for (p, admits, prefers, materializes) in table {
            assert_eq!(p.admit(&probe()), admits, "{}", p.name());
            assert_eq!(p.prefer_reuse(), prefers, "{}", p.name());
            assert_eq!(p.materialize(), materializes, "{}", p.name());
        }
    }

    #[test]
    fn disabled_policies_drop_all_candidates() {
        assert!(NeverShare.candidates(&probe(), Vec::new()).is_empty());
        assert!(NoReuse.candidates(&probe(), Vec::new()).is_empty());
        assert!(MaterializedReuse
            .candidates(&probe(), Vec::new())
            .is_empty());
    }

    #[test]
    fn admit_scored_defaults_to_admit() {
        let generous = AdmissionScore {
            predicted_benefit_ns: 1e9,
            predicted_bytes: 1.0,
        };
        let stingy = AdmissionScore {
            predicted_benefit_ns: 0.0,
            predicted_bytes: 1e9,
        };
        // Policies that don't override the hook ignore the score entirely.
        assert!(CostBasedReuse.admit_scored(&probe(), &stingy));
        assert!(!NoReuse.admit_scored(&probe(), &generous));
    }

    #[test]
    fn benefit_scored_admission_thresholds_on_benefit_per_byte() {
        let p = BenefitScoredAdmission::new(0.5);
        let dense = AdmissionScore {
            predicted_benefit_ns: 100.0,
            predicted_bytes: 100.0, // 1.0 ns/byte
        };
        let sparse = AdmissionScore {
            predicted_benefit_ns: 100.0,
            predicted_bytes: 1000.0, // 0.1 ns/byte
        };
        assert!(p.admit_scored(&probe(), &dense));
        assert!(!p.admit_scored(&probe(), &sparse));
        // Unscored fallback (shared plans) admits like CostBasedReuse.
        assert!(p.admit(&probe()));
        assert!((AdmissionScore {
            predicted_benefit_ns: 7.0,
            predicted_bytes: 0.0,
        })
        .benefit_per_byte()
        .is_finite());
    }

    #[test]
    fn trait_objects_are_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PolicyHandle>();
        let p: PolicyHandle = Arc::new(CostBasedReuse);
        assert_eq!(format!("{:?}", &*p), "ReusePolicy(hashstash)");
    }
}
