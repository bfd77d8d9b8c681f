//! Exp 9: benefit-scored admission under the unified reuse budget.
//!
//! The Fig. 7-style workload (medium-reuse interaction trace) runs under
//! three shared-budget levels, comparing always-admit
//! (`EngineStrategy::HashStash`, the paper's default) against
//! benefit-scored admission (`EngineStrategy::BenefitScored`): a freshly
//! built table is published only when the cost model's predicted
//! cycles-saved-per-byte of a future reuse clears a threshold. Under a tight budget, refusing low-density tables
//! leaves more room for the tables that actually pay rent — the admission
//! counterpart of the GC's benefit/size eviction weight.
//!
//! Output: a human-readable table plus `BENCH_admission.json` (uploaded by
//! CI as an artifact). Smoke mode (`HASHSTASH_SMOKE=1`) shrinks the trace
//! so the run finishes in seconds.

use std::io::Write as _;
use std::time::Instant;

use hashstash::{Database, EngineStrategy};
use hashstash_bench::common::{catalog, header, mb, ms, seed};
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

fn smoke() -> bool {
    std::env::var("HASHSTASH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

struct RunResult {
    wall_ms: f64,
    publishes: u64,
    reuses: u64,
    hit_ratio: f64,
    evictions: u64,
    peak_mb: f64,
}

fn run(strategy: EngineStrategy, budget: Option<usize>, trace_len: usize) -> RunResult {
    let trace = generate_trace(TraceConfig {
        queries: trace_len,
        ..TraceConfig::paper(ReusePotential::Medium, seed())
    });
    let db = Database::builder(catalog())
        .strategy(strategy)
        .gc_budget(budget)
        .build();
    let mut session = db.session();
    let t0 = Instant::now();
    for tq in &trace {
        session
            .execute(&tq.query)
            .unwrap_or_else(|e| panic!("query {} failed: {e}", tq.query.id));
    }
    let wall = t0.elapsed();
    let cs = db.cache_stats();
    RunResult {
        wall_ms: ms(wall),
        publishes: cs.publishes,
        reuses: cs.reuses,
        hit_ratio: cs.hit_ratio(),
        evictions: cs.evictions,
        peak_mb: mb(cs.peak_bytes),
    }
}

fn main() {
    let smoke = smoke();
    let trace_len = if smoke { 24 } else { 64 };

    header("Exp 9: benefit-scored admission vs always-admit (Fig. 7 workload)");

    // Reference run without a budget: its peak footprint calibrates the
    // three pressure levels.
    let unbounded = run(EngineStrategy::HashStash, None, trace_len);
    let peak_bytes = (unbounded.peak_mb * 1024.0 * 1024.0).max(1.0);
    println!(
        "unbounded reference: {:.1} ms, peak {:.2} MB, hit ratio {:.2}",
        unbounded.wall_ms, unbounded.peak_mb, unbounded.hit_ratio
    );
    println!(
        "\n{:<10} {:<16} {:>10} {:>10} {:>8} {:>10} {:>10} {:>9}",
        "budget",
        "admission",
        "time (ms)",
        "publishes",
        "reuses",
        "hit ratio",
        "evictions",
        "peak MB"
    );

    let strategies = [
        ("always-admit", EngineStrategy::HashStash),
        ("benefit-scored", EngineStrategy::BenefitScored),
    ];
    let budget_levels = [0.1, 0.25, 0.5];

    let mut results: Vec<String> = Vec::new();
    for &frac in &budget_levels {
        let budget = (peak_bytes * frac) as usize;
        for (name, strategy) in strategies {
            let r = run(strategy, Some(budget), trace_len);
            println!(
                "{:<10} {:<16} {:>10.1} {:>10} {:>8} {:>10.2} {:>10} {:>9.2}",
                format!("{:.0}%", frac * 100.0),
                name,
                r.wall_ms,
                r.publishes,
                r.reuses,
                r.hit_ratio,
                r.evictions,
                r.peak_mb
            );
            results.push(format!(
                "    {{\"budget_fraction\": {frac}, \"admission\": \"{name}\", \
                 \"wall_ms\": {:.3}, \"publishes\": {}, \"reuses\": {}, \
                 \"hit_ratio\": {:.4}, \"evictions\": {}, \"peak_mb\": {:.3}}}",
                r.wall_ms, r.publishes, r.reuses, r.hit_ratio, r.evictions, r.peak_mb
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"admission\",\n  \"smoke\": {smoke},\n  \"trace_queries\": {trace_len},\n  \
         \"workload\": \"fig7-medium-reuse\",\n  \"unbounded_peak_mb\": {:.3},\n  \
         \"threshold_ns_per_byte\": {},\n  \"budget_levels\": [0.1, 0.25, 0.5],\n  \"results\": [\n{}\n  ]\n}}\n",
        unbounded.peak_mb,
        EngineStrategy::MIN_BENEFIT_PER_BYTE,
        results.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_admission.json").expect("write results");
    f.write_all(json.as_bytes()).unwrap();
    println!("\nwrote BENCH_admission.json");
    println!(
        "Expected shape: benefit-scored admission publishes fewer (low-density) tables, \
         so the tight budget sees fewer evictions and a hit ratio at or above always-admit. \
         With a generous budget the trade-off flips — even low-density tables would have \
         found a reuse, so refusing them costs a few hits while saving publish+evict work."
    );
}
