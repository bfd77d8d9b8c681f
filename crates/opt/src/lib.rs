//! The Reuse-aware Query Optimizer (RQO).
//!
//! Paper §3: the optimizer enumerates join orders top-down (Algorithm 1),
//! retrieves candidate hash tables from the Hash Table Manager for every
//! sub-plan, rewrites sub-plans for the applicable reuse case, and costs the
//! alternatives with reuse-aware cost models calibrated by hash-table
//! micro-benchmarks. §4: a dynamic-programming pass merges a batch of
//! queries into reuse-aware shared plans.
//!
//! * [`stats`] — table/attribute statistics (row counts, domains, distinct
//!   counts) for selectivity and cardinality estimation.
//! * [`cost`] — the reuse-aware cost models `c_RHJ` and `c_RHA` built on the
//!   calibrated [`hashstash_hashtable::CostGrid`], parameterized by the
//!   contribution- and overhead-ratios of candidate tables.
//! * [`matching`] — candidate matching and rewrite planning for the four
//!   reuse cases (exact, subsuming, partial, overlapping).
//! * [`policy`] — [`EngineStrategy`], the paper's §6 reuse configurations
//!   as one `Copy` enum whose methods answer what to match, what to admit,
//!   whether to prefer reuse greedily and whether to materialize.
//! * [`optimizer`] — single-query plan enumeration (Algorithm 1) plus the
//!   benefit-oriented optimizations of §3.4, consulting the
//!   [`EngineStrategy`] at every pipeline breaker.
//! * [`multi`] — the query-batch interface: DP-based merging into
//!   reuse-aware shared plans (§4.2).

pub mod cost;
pub mod matching;
pub mod multi;
pub mod optimizer;
pub mod policy;
pub mod stats;

pub use cost::{CostModel, CostParams};
pub use matching::{MatchRewrite, Matcher};
pub use multi::{plan_batch, BatchPlan, BatchUnit};
pub use optimizer::{OptimizedQuery, Optimizer};
pub use policy::EngineStrategy;
pub use stats::DbStats;
