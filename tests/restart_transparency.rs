//! A restart is invisible to the queries that follow it: a durable engine
//! that is dropped and reopened from its data directory (with an empty
//! catalog, so everything comes back from the snapshot) every few queries
//! answers every query of a trace exactly as an engine that never stopped
//! does. Same reuse decisions, same cost estimate to the bit, same reply
//! text, byte for byte.
//!
//! The paper's traces (`paper(High | Medium | Low, 0..=1)`) run at one
//! worker (the cost model prices the worker count), both unbounded and under
//! a 400 KB budget whose evictions the restarted engine must reproduce from
//! the LRU order its snapshot recorded.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use hashstash::{Database, EngineStrategy};
use hashstash_durability::FsyncPolicy;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

/// Queries between two restarts.
const RESTART_EVERY: usize = 7;

/// What a reply shows of one query.
#[derive(Debug, PartialEq)]
struct Answer {
    decisions: String,
    est_cost_bits: u64,
    reply: Vec<u8>,
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hashstash-restart-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(catalog: Catalog, dir: &PathBuf, budget: Option<usize>) -> Arc<Database> {
    Database::builder(catalog)
        .strategy(EngineStrategy::HashStash)
        .parallelism(1)
        .gc_budget(budget)
        .data_dir(dir)
        .fsync(FsyncPolicy::None)
        .build()
}

/// Replay the trace on a durable engine, restarting it every `restart`
/// queries (never, with `None`).
fn replay(
    level: ReusePotential,
    seed: u64,
    budget: Option<usize>,
    restart: Option<usize>,
) -> Vec<Answer> {
    let tag = format!("{level:?}-{seed}-{budget:?}-{restart:?}");
    let dir = fresh_dir(&tag);
    let mut db = open(generate(TpchConfig::new(0.002, 42)), &dir, budget);
    let mut answers = Vec::new();
    for (q, tq) in generate_trace(TraceConfig::paper(level, seed))
        .iter()
        .enumerate()
    {
        if restart.is_some_and(|every| q > 0 && q % every == 0) {
            // Dropping the last handle flushes; the reopened engine
            // recovers its catalog and cache from the snapshot.
            drop(db);
            db = open(Catalog::new(), &dir, budget);
        }
        let r = db
            .session()
            .execute(&tq.query)
            .unwrap_or_else(|e| panic!("{tag} q{q}: {e}"));
        let mut reply = Vec::new();
        r.rows.write_text(&mut reply);
        answers.push(Answer {
            decisions: format!("{:?}", r.decisions),
            est_cost_bits: r.est_cost_ns.to_bits(),
            reply,
        });
    }
    drop(db);
    let _ = fs::remove_dir_all(&dir);
    answers
}

fn check_level(level: ReusePotential) {
    for seed in 0..=1 {
        for budget in [None, Some(400 * 1024)] {
            let want = replay(level, seed, budget, None);
            let got = replay(level, seed, budget, Some(RESTART_EVERY));
            assert_eq!(want.len(), got.len());
            for (q, (w, g)) in want.iter().zip(&got).enumerate() {
                assert!(
                    w == g,
                    "{level:?} seed {seed} budget {budget:?} q{q}: \
                     uninterrupted {w:?}\nrestarted {g:?}"
                );
            }
        }
    }
}

#[test]
fn restarts_are_transparent_on_high_reuse_traces() {
    check_level(ReusePotential::High);
}

#[test]
fn restarts_are_transparent_on_medium_reuse_traces() {
    check_level(ReusePotential::Medium);
}

#[test]
fn restarts_are_transparent_on_low_reuse_traces() {
    check_level(ReusePotential::Low);
}
