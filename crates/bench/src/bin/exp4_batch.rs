//! Experiment 4 (Figure 11): the query-batch interface.
//!
//! Groups the medium-reuse trace into batches of 4, 8 and 16 queries. For
//! each size: the first batch populates the cache, then 10 further batches
//! run in each of the three modes — single-query plans without reuse,
//! single-query plans with reuse, and reuse-aware shared plans — and the
//! average total batch runtime is reported.
//!
//! Every query's answer (its row multiset) must be the same in all three
//! modes; a divergence is reported and the process exits 1, so CI catches a
//! shared plan that answers differently from one-at-a-time execution. Float
//! aggregates may differ in the last bits between plans that fold rows in
//! different orders, so floats compare to a relative 1e-9.
//!
//! ```text
//! cargo run -p hashstash-bench --bin exp4_batch --release
//! ```

use std::time::Instant;

use hashstash::{BatchMode, Database};
use hashstash_bench::common::{catalog, header, ms, seed};
use hashstash_types::{Row, Value};
use hashstash_workload::trace::{batches, generate_trace, ReusePotential, TraceConfig};

/// Whether two sorted answers are the same multiset of rows.
fn same_answer(a: &[Row], b: &[Row]) -> bool {
    let same_value = |x: &Value, y: &Value| match (x, y) {
        (Value::Float(x), Value::Float(y)) => {
            x.0 == y.0 || (x.0 - y.0).abs() <= 1e-9 * x.0.abs().max(y.0.abs())
        }
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, v)| same_value(u, v))
        })
}

fn main() {
    header("Experiment 4: multi-query reuse (paper Figure 11)");
    let trace = generate_trace(TraceConfig::paper(ReusePotential::Medium, seed()));
    println!(
        "{:>6} {:>22} {:>22} {:>22}",
        "batch", "single (wo reuse)", "single (w reuse)", "shared (w reuse)"
    );
    let mut divergences = Vec::new();
    for size in [4usize, 8, 16] {
        let all = batches(&trace, size);
        let warm = &all[0];
        let rest: Vec<_> = all.iter().skip(1).take(10).collect();
        let mut totals = [0.0f64; 3];
        // Per mode: every timed query's sorted answer, in batch order.
        let mut answers: Vec<Vec<Vec<Row>>> = Vec::new();
        let modes = [
            BatchMode::SingleNoReuse,
            BatchMode::SingleWithReuse,
            BatchMode::SharedWithReuse,
        ];
        for (mi, mode) in modes.iter().enumerate() {
            let db = Database::open(catalog());
            let mut session = db.session();
            // Populate the cache with one batch first (reuse modes benefit).
            session
                .execute_batch(warm, BatchMode::SingleWithReuse)
                .expect("warm batch");
            let t0 = Instant::now();
            let results: Vec<_> = rest
                .iter()
                .map(|b| session.execute_batch(b, *mode).expect("batch runs"))
                .collect();
            totals[mi] = ms(t0.elapsed()) / rest.len() as f64;
            answers.push(
                results
                    .into_iter()
                    .flatten()
                    .map(|r| {
                        let mut rows = r.rows.into_vec();
                        rows.sort();
                        rows
                    })
                    .collect(),
            );
        }
        for (mi, mode) in modes.iter().enumerate().skip(1) {
            for (qi, (want, got)) in answers[0].iter().zip(&answers[mi]).enumerate() {
                if !same_answer(want, got) {
                    divergences.push(format!(
                        "batch size {size}, timed query {qi}: {mode:?} differs from {:?}",
                        modes[0]
                    ));
                }
            }
        }
        println!(
            "{:>6} {:>20.1}ms {:>20.1}ms {:>20.1}ms",
            size, totals[0], totals[1], totals[2]
        );
    }
    println!(
        "\nExpected shape (paper Fig 11): single-with-reuse ≈20% below single-without; \
         shared plans lowest (~40% below single-without), gap widening with batch size."
    );
    if !divergences.is_empty() {
        for d in &divergences {
            eprintln!("DIVERGENCE: {d}");
        }
        eprintln!(
            "ERROR: batch modes answered differently ({} case(s)) — failing hard",
            divergences.len()
        );
        std::process::exit(1);
    }
    println!("answers identical across all three modes");
}
