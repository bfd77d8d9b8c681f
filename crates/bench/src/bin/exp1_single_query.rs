//! Experiment 1 (Figure 7a + 7b): single-query reuse across workloads with
//! low / medium / high reuse potential.
//!
//! Runs the 64-query trace under no-reuse, materialization-based reuse and
//! HashStash, and prints the speed-up over no-reuse plus the cache
//! statistics table.
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp1_single_query --release
//! ```

use hashstash::EngineStrategy;
use hashstash_bench::common::{catalog, header, mb, ms, run_trace, seed};
use hashstash_workload::trace::{average_overlap, generate_trace, ReusePotential, TraceConfig};

fn main() {
    header("Experiment 1: single-query reuse (paper Figure 7a/7b)");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12} {:>10} {:>10}",
        "workload", "strategy", "time (ms)", "speedup (%)", "mem (MB)", "hitratio", "reuses"
    );
    for reuse in [
        ReusePotential::Low,
        ReusePotential::Medium,
        ReusePotential::High,
    ] {
        let trace = generate_trace(TraceConfig::paper(reuse, seed()));
        let overlap = average_overlap(&trace);

        // Run strategies in isolation: collect stats, then drop the
        // database (and its caches) before the next run so allocator and
        // LLC state do not bleed between measurements.
        let t_none = {
            let (t, db) = run_trace(catalog(), EngineStrategy::NoReuse, &trace);
            drop(db);
            t
        };
        let (t_mat, mat_stats) = {
            let (t, db) = run_trace(catalog(), EngineStrategy::Materialized, &trace);
            (t, db.cache_stats())
        };
        let (t_hs, hs_stats) = {
            let (t, db) = run_trace(catalog(), EngineStrategy::HashStash, &trace);
            (t, db.cache_stats())
        };

        let speedup = |t: std::time::Duration| (1.0 - ms(t) / ms(t_none)) * 100.0;
        let label = format!("{reuse:?} ({:.0}%)", overlap * 100.0);
        println!(
            "{:<10} {:>14} {:>14.1} {:>14.1} {:>12} {:>10} {:>10}",
            label,
            "NoReuse",
            ms(t_none),
            0.0,
            "-",
            "-",
            "-"
        );
        println!(
            "{:<10} {:>14} {:>14.1} {:>14.1} {:>12.1} {:>10.2} {:>10}",
            "",
            "Materialized",
            ms(t_mat),
            speedup(t_mat),
            mb(mat_stats.bytes),
            mat_stats.hit_ratio(),
            mat_stats.reuses
        );
        println!(
            "{:<10} {:>14} {:>14.1} {:>14.1} {:>12.1} {:>10.2} {:>10}",
            "",
            "HashStash",
            ms(t_hs),
            speedup(t_hs),
            mb(hs_stats.bytes),
            hs_stats.hit_ratio(),
            hs_stats.reuses
        );
    }
    println!(
        "\nExpected shape (paper Fig 7): HashStash beats Materialized at every reuse \
         level; with low reuse Materialized is *slower* than no-reuse (it pays \
         materialization without amortizing it) while HashStash stays at parity."
    );
}
