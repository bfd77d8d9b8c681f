//! Experiment 2a (Figure 8a + Table 8b): reuse on the query level for the
//! fixed seven-interaction session over the 5-way join.
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp2_query_level --release
//! ```

use hashstash::{decision_string, Database, EngineStrategy};
use hashstash_bench::common::{catalog, header, ms};
use hashstash_workload::session::exp2_session;

fn main() {
    header("Experiment 2a: reuse on the query level (paper Figure 8a / Table 8b)");
    let session = exp2_session();
    // The paper's Never Share baseline is plain execution without reuse.
    let strategies = [
        ("AlwaysShare", EngineStrategy::AlwaysShare),
        ("NeverShare", EngineStrategy::NoReuse),
        ("CostModel", EngineStrategy::HashStash),
    ];

    // Per-strategy, per-step runtimes.
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut decisions: Vec<String> = Vec::new();
    for (si, (_, strategy)) in strategies.iter().enumerate() {
        let db = Database::builder(catalog()).strategy(*strategy).build();
        let mut sess = db.session();
        for (qi, step) in session.iter().enumerate() {
            let r = sess
                .execute(&step.query)
                .unwrap_or_else(|e| panic!("{} failed: {e}", step.name));
            rows[si].push(ms(r.wall_time));
            if *strategy == EngineStrategy::HashStash && qi > 0 {
                // Decision string in paper order: O, P, C, S, Agg.
                let s = decision_string(&r, &["orders.", "part.", "customer.", "supplier.", "agg"]);
                decisions.push(format!("{:<10} {}", step.name, s));
            }
        }
    }

    println!(
        "\n{:<11} {:>13} {:>13} {:>13}",
        "step", "AlwaysShare", "NeverShare", "CostModel"
    );
    for (qi, step) in session.iter().enumerate().skip(1) {
        println!(
            "{:<11} {:>11.1}ms {:>11.1}ms {:>11.1}ms",
            step.name, rows[0][qi], rows[1][qi], rows[2][qi]
        );
    }

    println!("\nTable 8b — CostModel decisions (O,P,C,S,Agg; N=new, S=reused, X=eliminated):");
    for d in &decisions {
        println!("  {d}");
    }
    println!(
        "\nExpected shape (paper): CostModel ≤ min(AlwaysShare, NeverShare) per step; \
         RollUp collapses to the cached aggregation table (XXXXS) and is orders of \
         magnitude faster than NeverShare."
    );
}
