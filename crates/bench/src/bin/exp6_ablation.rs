//! Ablation study (beyond the paper's figures, motivated by §5):
//! eviction-policy alternatives under memory pressure.
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp6_ablation --release
//! ```

use hashstash::Database;
use hashstash_bench::common::{catalog, header, ms, seed};
use hashstash_cache::{EvictionPolicy, GcConfig};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

fn run_with(gc: GcConfig, trace: &[hashstash_workload::trace::TraceQuery]) -> (f64, u64, u64) {
    let db = Database::builder(catalog()).gc(gc).build();
    let mut session = db.session();
    let t0 = std::time::Instant::now();
    for tq in trace {
        session.execute(&tq.query).expect("query");
    }
    (
        ms(t0.elapsed()),
        db.cache_stats().reuses,
        db.cache_stats().evictions,
    )
}

fn main() {
    header("Ablation: eviction policies under memory pressure (paper §5)");
    let trace = generate_trace(TraceConfig::paper(ReusePotential::High, seed()));
    // Peak footprint of an unbounded run sets the pressure level.
    let db = Database::open(catalog());
    let mut session = db.session();
    for tq in &trace {
        session.execute(&tq.query).expect("query");
    }
    let peak = db.cache_stats().peak_bytes;
    println!(
        "{:<34} {:>12} {:>8} {:>10}",
        "policy (30% budget)", "time (ms)", "reuses", "evictions"
    );
    for (name, policy) in [
        ("LRU (paper's choice)", EvictionPolicy::Lru),
        ("LFU", EvictionPolicy::Lfu),
        ("benefit-weighted", EvictionPolicy::BenefitWeighted),
    ] {
        let gc = GcConfig {
            budget_bytes: Some((peak as f64 * 0.3) as usize),
            policy,
            ..GcConfig::default()
        };
        let (t, reuses, evictions) = run_with(gc, &trace);
        println!("{name:<34} {t:>10.1}ms {reuses:>8} {evictions:>10}");
    }
}
