//! Experiment 5: effects of garbage collection.
//!
//! Runs each workload trace once without GC (recording the peak cache
//! footprint), then with the GC active at a budget of 20% and 50% of that
//! peak, and reports the runtime overhead and eviction counts. Also shows
//! the cost of the fine-grained (per-entry) bookkeeping mode the paper
//! implemented and rejected.
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp5_gc --release
//! ```

use hashstash::{Database, EngineStrategy};
use hashstash_bench::common::{catalog, header, mb, ms, run_trace, seed};
use hashstash_cache::GcConfig;
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

fn main() {
    header("Experiment 5: garbage collection overhead (paper §6.5)");
    println!(
        "{:<8} {:<22} {:>12} {:>12} {:>10} {:>10}",
        "reuse", "mode", "time (ms)", "overhead", "evictions", "peak MB"
    );
    for reuse in [
        ReusePotential::Low,
        ReusePotential::Medium,
        ReusePotential::High,
    ] {
        let trace = generate_trace(TraceConfig::paper(reuse, seed()));
        let (t_wo, db_wo) = run_trace(catalog(), EngineStrategy::HashStash, &trace);
        let peak = db_wo.cache_stats().peak_bytes.max(1);
        println!(
            "{:<8} {:<22} {:>10.1}ms {:>12} {:>10} {:>10.1}",
            format!("{reuse:?}"),
            "wo GC",
            ms(t_wo),
            "-",
            db_wo.cache_stats().evictions,
            mb(peak)
        );
        for (label, frac, fine) in [
            ("with GC (20% budget)", 0.2, false),
            ("with GC (50% budget)", 0.5, false),
            ("fine-grained (50%)", 0.5, true),
        ] {
            let db = Database::builder(catalog())
                .gc(GcConfig {
                    budget_bytes: Some((peak as f64 * frac) as usize),
                    fine_grained: fine,
                })
                .build();
            let mut session = db.session();
            let t0 = std::time::Instant::now();
            for tq in &trace {
                session.execute(&tq.query).expect("query");
            }
            let t = t0.elapsed();
            let overhead = (ms(t) / ms(t_wo) - 1.0) * 100.0;
            println!(
                "{:<8} {:<22} {:>10.1}ms {:>11.1}% {:>10} {:>10.1}",
                "",
                label,
                ms(t),
                overhead,
                db.cache_stats().evictions,
                mb(db.cache_stats().peak_bytes)
            );
        }
    }
    println!(
        "\nExpected shape (paper §6.5): ~10% overhead at a 20% budget for medium/high \
         reuse, dropping to ~5% at 50%; near-zero overhead for the low-reuse trace; \
         fine-grained bookkeeping costs extra, which is why the paper ships coarse LRU."
    );
}
