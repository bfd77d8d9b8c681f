//! Golden plans: the optimizer's every choice on the paper's exploration
//! traces, pinned as one digest per (trace, strategy, width).
//!
//! Each trace of `TraceConfig::paper(High | Medium | Low, seed)` is
//! replayed through `Optimizer::optimize` and `execute` against one
//! `HtManager` that evolves with the trace, so reuse decisions see the
//! cache earlier queries left behind. Every chosen `PhysicalPlan`'s `Debug`
//! text and the bits of its `est_cost_ns` are folded into a pinned FNV-1a
//! digest. A refactor of the optimizer that keeps every digest changes no
//! plan and no cost estimate, down to the last bit.
//!
//! The worker count the cost model prices is set on `CostParams` directly
//! (not through `with_parallelism`, which clamps to the host's cores), so
//! the digests do not depend on the machine. Execution runs inline.
//!
//! When a change *means* to alter plans, the failure message prints every
//! digest the code now produces; say in the change why each moved.

use std::hash::Hasher;

use hashstash_cache::{GcConfig, HtManager};
use hashstash_exec::{execute, ExecContext};
use hashstash_hashtable::CostGrid;
use hashstash_opt::{CostModel, CostParams, DbStats, EngineStrategy, Optimizer};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_types::StableHasher;
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

/// Trace seeds replayed per reuse level.
const SEEDS: std::ops::Range<u64> = 0..4;

/// The planner configurations pinned: every strategy priced serially, and
/// HashStash priced for four workers.
const CONFIGS: [(EngineStrategy, usize); 6] = [
    (EngineStrategy::HashStash, 1),
    (EngineStrategy::NoReuse, 1),
    (EngineStrategy::Materialized, 1),
    (EngineStrategy::AlwaysShare, 1),
    (EngineStrategy::BenefitScored, 1),
    (EngineStrategy::HashStash, 4),
];

/// Digests recorded before the optimizer's planning rules were each cut to
/// one copy, in `SEEDS` × `CONFIGS` order per level.
const GOLDEN_HIGH: [u64; 24] = [
    // seed 0
    0xeca1_9aee_2333_efe7,
    0x756a_73fb_334f_98a6,
    0xbc8d_4b65_dccf_bccd,
    0xa815_77ce_c4bd_3a6e,
    0x9b4d_e40f_d68c_e643,
    0xeca1_9aee_2333_efe7,
    // seed 1
    0x8a5b_fae1_b972_df13,
    0xb66e_4a53_0170_fd83,
    0xa8e6_168b_76c5_cee7,
    0x8556_c20d_7024_eeba,
    0x9343_8846_b3a2_f924,
    0x8a5b_fae1_b972_df13,
    // seed 2
    0x27e9_1dd5_89c5_aee0,
    0x181b_56fc_f429_aae6,
    0x4ab1_3c8a_30e6_ab0e,
    0x27e9_1dd5_89c5_aee0,
    0xb6f4_441b_1652_c432,
    0x27e9_1dd5_89c5_aee0,
    // seed 3
    0xa3aa_549c_8e0d_b569,
    0x6969_c7d0_74ec_ec55,
    0xb7b6_ef62_ab68_4b1c,
    0xa3aa_549c_8e0d_b569,
    0x5fad_df8c_3019_2239,
    0xa3aa_549c_8e0d_b569,
];
const GOLDEN_MEDIUM: [u64; 24] = [
    // seed 0
    0xad3f_9477_6744_3ca6,
    0x5177_da48_999e_c2a5,
    0x379c_187e_0124_ba47,
    0x4928_7c2c_4932_35de,
    0xc0d6_9619_a3e4_6280,
    0xcd68_17c7_8ab0_9b54,
    // seed 1
    0x70c8_247f_de6b_29d0,
    0xe319_efe6_b039_452a,
    0xfbb3_b1b7_c750_ed3e,
    0x9682_71c3_79bd_3d5c,
    0x1d15_c56d_c9d1_077d,
    0xf1fe_8af4_65dc_7db3,
    // seed 2
    0x78f1_928e_1a20_5dc3,
    0x8383_f37a_49ab_fce9,
    0xf5db_2a87_4b65_dec8,
    0x78f1_928e_1a20_5dc3,
    0xe464_66ea_8e57_2b9e,
    0x17fa_8aa0_4893_66a5,
    // seed 3
    0x6b35_f575_311b_1ef4,
    0x03cd_8b4b_31f1_6ba3,
    0x0d93_c0a3_163b_a74c,
    0xa2d7_6418_f1ed_9457,
    0x5e4f_883b_7442_1ae4,
    0xe8f3_aae7_aac7_57bc,
];
const GOLDEN_LOW: [u64; 24] = [
    // seed 0
    0x592f_ada2_98ba_3a89,
    0x0c33_7259_291e_d89a,
    0x2c9c_a774_97b8_a254,
    0x5f6e_7de3_9f54_b22c,
    0x9931_d4e2_c870_77b5,
    0x592f_ada2_98ba_3a89,
    // seed 1
    0xc7cd_a18e_d493_8ed8,
    0xde4e_991e_2627_02b8,
    0x447b_45bf_b883_87ca,
    0x4546_8f2c_1023_3fe1,
    0x860a_b14e_ae72_eda0,
    0xc7cd_a18e_d493_8ed8,
    // seed 2
    0x02bf_567b_4224_7ced,
    0x3f4d_c7c8_d212_fb9a,
    0x3ae4_821d_162b_d11c,
    0x0c9a_4cb0_9b3a_807b,
    0x2b0a_492c_b135_3b32,
    0x02bf_567b_4224_7ced,
    // seed 3
    0xf16f_ae89_c665_2919,
    0xf6e2_7d37_4dca_33b9,
    0x0f18_c84c_1a6e_6c09,
    0x7a25_c382_5ed9_1256,
    0x192a_7f8c_7f18_e16e,
    0xf16f_ae89_c665_2919,
];

fn catalog() -> Catalog {
    generate(TpchConfig::new(0.002, 42))
}

/// Digest of every plan chosen while replaying one trace under one
/// configuration.
fn trace_digest(
    cat: &Catalog,
    stats: &DbStats,
    level: ReusePotential,
    seed: u64,
    strategy: EngineStrategy,
    workers: usize,
) -> u64 {
    let params = CostParams {
        parallel_workers: workers,
        ..CostParams::default()
    };
    let cost = CostModel::new(CostGrid::synthetic(), params);
    let opt = Optimizer::new(cat, stats, &cost, strategy);
    let htm = HtManager::new(GcConfig::default());
    let mut h = StableHasher::new();
    for tq in generate_trace(TraceConfig::paper(level, seed)) {
        let oq = opt.optimize(&tq.query, &htm).unwrap();
        h.write(format!("{:?}", oq.plan).as_bytes());
        h.write(&oq.est_cost_ns.to_bits().to_le_bytes());
        execute(&oq.plan, &mut ExecContext::new(cat, &htm)).unwrap();
    }
    h.finish()
}

fn check_level(level: ReusePotential, golden: &[u64; 24]) {
    let cat = catalog();
    let stats = DbStats::from_catalog(&cat);
    let runs = SEEDS.flat_map(|seed| CONFIGS.map(|(s, w)| (seed, s, w)));
    let mut got = Vec::new();
    let mut moved = Vec::new();
    for ((seed, strategy, workers), &want) in runs.zip(golden) {
        let digest = trace_digest(&cat, &stats, level, seed, strategy, workers);
        if digest != want {
            moved.push(format!(
                "seed {seed} {strategy:?} x{workers}: {digest:#018x} (pinned {want:#018x})"
            ));
        }
        got.push(digest);
    }
    assert!(
        moved.is_empty(),
        "{level:?}: {} of {} plan digests moved:\n{}\nall digests now: {got:#018x?}",
        moved.len(),
        got.len(),
        moved.join("\n"),
    );
}

#[test]
fn golden_plans_high_reuse() {
    check_level(ReusePotential::High, &GOLDEN_HIGH);
}

#[test]
fn golden_plans_medium_reuse() {
    check_level(ReusePotential::Medium, &GOLDEN_MEDIUM);
}

#[test]
fn golden_plans_low_reuse() {
    check_level(ReusePotential::Low, &GOLDEN_LOW);
}
