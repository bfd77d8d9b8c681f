//! Cross-crate integration tests: every reuse policy must produce the
//! same answers as plain execution, across whole exploration sessions and
//! batches, with and without garbage collection — and the facade must be
//! deterministic: two independently built databases replay a trace with
//! identical rows, reuse decisions and cache statistics. (These tests
//! absorbed the coverage of the deleted pre-0.2 `Engine` shim, which used
//! to be checked against the facade decision-for-decision.)

use std::collections::HashMap;

use hashstash::{BatchMode, Database, EngineStrategy};
use hashstash_cache::{GcConfig, HtManager};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_types::{HtId, Row};
use hashstash_workload::session::exp2_session;
use hashstash_workload::trace::{batches, generate_trace, ReusePotential, TraceConfig};

fn catalog() -> hashstash_storage::Catalog {
    generate(TpchConfig::new(0.004, 1234))
}

fn normalized(mut rows: Vec<Row>) -> Vec<Vec<String>> {
    rows.sort();
    rows.iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v.as_float() {
                    // Float aggregation order differs between plans; compare
                    // with fixed precision.
                    Some(f) => format!("{f:.4}"),
                    None => v.to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn full_session_equivalence_across_strategies() {
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::High,
        queries: 20,
        seed: 9,
        structural_prob: 0.3,
    });
    let reference: Vec<_> = {
        let mut session = Database::builder(catalog())
            .strategy(EngineStrategy::NoReuse)
            .build()
            .session();
        trace
            .iter()
            .map(|tq| normalized(session.execute(&tq.query).unwrap().rows))
            .collect()
    };
    for strategy in [
        EngineStrategy::HashStash,
        EngineStrategy::Materialized,
        EngineStrategy::AlwaysShare,
        EngineStrategy::BenefitScored,
    ] {
        let mut session = Database::builder(catalog())
            .strategy(strategy)
            .build()
            .session();
        for (i, tq) in trace.iter().enumerate() {
            let got = normalized(session.execute(&tq.query).unwrap().rows);
            assert_eq!(got, reference[i], "{strategy:?} diverges at query {i}");
        }
    }
}

/// The facade is deterministic: two independently built databases with the
/// same strategy replay a trace with identical rows, identical reuse
/// decisions at every pipeline breaker, and identical cache statistics.
/// (This is the coverage the deleted `Engine`-shim equivalence test used
/// to provide, now expressed entirely at the facade level.)
#[test]
fn facade_is_deterministic_across_instances() {
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::High,
        queries: 12,
        seed: 21,
        structural_prob: 0.25,
    });
    for strategy in [
        EngineStrategy::HashStash,
        EngineStrategy::NoReuse,
        EngineStrategy::Materialized,
        EngineStrategy::AlwaysShare,
        EngineStrategy::BenefitScored,
    ] {
        let db_a = Database::builder(catalog()).strategy(strategy).build();
        let db_b = Database::builder(catalog()).strategy(strategy).build();
        let mut a = db_a.session();
        let mut b = db_b.session();
        for (i, tq) in trace.iter().enumerate() {
            let ra = a.execute(&tq.query).unwrap();
            let rb = b.execute(&tq.query).unwrap();
            assert_eq!(
                normalized(ra.rows),
                normalized(rb.rows),
                "{strategy:?} rows diverge at query {i}"
            );
            // Same reuse decisions at every pipeline breaker.
            assert_eq!(
                ra.decisions, rb.decisions,
                "{strategy:?} reuse decisions diverge at query {i}"
            );
        }
        // Same cache behavior overall.
        assert_eq!(
            db_a.cache_stats().publishes,
            db_b.cache_stats().publishes,
            "{strategy:?} publish counts diverge"
        );
        assert_eq!(
            db_a.cache_stats().reuses,
            db_b.cache_stats().reuses,
            "{strategy:?} reuse counts diverge"
        );
    }
}

/// Builder defaults must match the documented invariants (and the old
/// `EngineConfig::default()` semantics).
#[test]
fn builder_default_invariants() {
    let db = Database::builder(catalog()).build();
    assert_eq!(db.strategy(), EngineStrategy::HashStash, "default strategy");
    assert!(!db.strategy().materializes());
    assert!(!db.strategy().prefers_reuse());
    assert_eq!(db.cache_stats().publishes, 0, "cache starts empty");
    assert_eq!(db.cache_stats().bytes, 0);
    assert_eq!(db.total_stats().queries, 0);

    // The builder installs the named strategy.
    for strategy in [
        EngineStrategy::HashStash,
        EngineStrategy::NoReuse,
        EngineStrategy::Materialized,
        EngineStrategy::AlwaysShare,
        EngineStrategy::BenefitScored,
    ] {
        let db = Database::builder(catalog()).strategy(strategy).build();
        assert_eq!(db.strategy(), strategy);
    }
}

/// Benefit-scored admission on one Fig. 7 trace: it publishes no more
/// tables than HashStash, refuses at least one that HashStash admits, and
/// answers every query like NoReuse.
#[test]
fn benefit_scored_admission_refuses_tables_and_keeps_answers() {
    let trace = generate_trace(TraceConfig {
        queries: 24,
        ..TraceConfig::paper(ReusePotential::Medium, 42)
    });
    let run = |strategy| {
        let db = Database::builder(catalog()).strategy(strategy).build();
        let mut session = db.session();
        let answers: Vec<_> = trace
            .iter()
            .map(|tq| normalized(session.execute(&tq.query).unwrap().rows))
            .collect();
        (answers, db.cache_stats().publishes)
    };
    let (reference, _) = run(EngineStrategy::NoReuse);
    let (_, admit_all) = run(EngineStrategy::HashStash);
    let (answers, scored) = run(EngineStrategy::BenefitScored);
    assert!(
        scored < admit_all,
        "benefit scoring refused no table: {scored} vs {admit_all} publishes"
    );
    assert!(scored > 0, "benefit scoring admitted nothing");
    for (i, (got, want)) in answers.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "BenefitScored diverges at query {i}");
    }
}

#[test]
fn exp2_session_equivalence() {
    let session_steps = exp2_session();
    let reference: Vec<_> = {
        let mut session = Database::builder(catalog())
            .strategy(EngineStrategy::NoReuse)
            .build()
            .session();
        session_steps
            .iter()
            .map(|s| normalized(session.execute(&s.query).unwrap().rows))
            .collect()
    };
    let db = Database::open(catalog());
    let mut session = db.session();
    for (i, s) in session_steps.iter().enumerate() {
        let got = normalized(session.execute(&s.query).unwrap().rows);
        assert_eq!(got, reference[i], "{} diverges", s.name);
    }
    assert!(
        db.cache_stats().reuses >= 3,
        "the session must exercise reuse (got {})",
        db.cache_stats().reuses
    );
}

#[test]
fn batch_modes_equivalent_over_trace_batches() {
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::Medium,
        queries: 16,
        seed: 31,
        structural_prob: 0.0,
    });
    for batch in batches(&trace, 8) {
        let reference: Vec<_> = {
            let mut session = Database::builder(catalog())
                .strategy(EngineStrategy::NoReuse)
                .build()
                .session();
            batch
                .iter()
                .map(|q| normalized(session.execute(q).unwrap().rows))
                .collect()
        };
        let mut session = Database::open(catalog()).session();
        let results = session
            .execute_batch(&batch, BatchMode::SharedWithReuse)
            .unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                normalized(r.rows.clone()),
                reference[i],
                "shared batch diverges at query {i}"
            );
        }
    }
}

#[test]
fn gc_does_not_change_answers() {
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::High,
        queries: 16,
        seed: 5,
        structural_prob: 0.2,
    });
    let reference: Vec<_> = {
        let mut session = Database::builder(catalog())
            .strategy(EngineStrategy::NoReuse)
            .build()
            .session();
        trace
            .iter()
            .map(|tq| normalized(session.execute(&tq.query).unwrap().rows))
            .collect()
    };
    // Brutal budget: 64 KB forces constant eviction.
    let db = Database::builder(catalog())
        .gc(GcConfig {
            budget_bytes: Some(64 * 1024),
            ..GcConfig::default()
        })
        .build();
    let mut session = db.session();
    for (i, tq) in trace.iter().enumerate() {
        let got = normalized(session.execute(&tq.query).unwrap().rows);
        assert_eq!(got, reference[i], "GC engine diverges at query {i}");
        assert!(db.cache_stats().bytes <= 64 * 1024);
    }
    assert!(db.cache_stats().evictions > 0, "budget forced evictions");
}

#[test]
fn zero_budget_cache_still_correct() {
    let db = Database::builder(catalog()).gc_budget(0).build();
    let mut session = db.session();
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::High,
        queries: 6,
        seed: 77,
        structural_prob: 0.0,
    });
    let mut reference = Database::builder(catalog())
        .strategy(EngineStrategy::NoReuse)
        .build()
        .session();
    for tq in &trace {
        let got = normalized(session.execute(&tq.query).unwrap().rows);
        let want = normalized(reference.execute(&tq.query).unwrap().rows);
        assert_eq!(got, want);
    }
}

/// Whether `cache` holds both kinds under one shape key, after checking
/// that neither kind's lookup returns the other kind for any entry.
fn kinds_kept_apart(cache: &HtManager) -> bool {
    let entries = cache.snapshot_entries();
    let temp: HashMap<HtId, bool> = entries
        .iter()
        .map(|e| (e.id, e.payload.is_materialized()))
        .collect();
    let mut shared_shape = false;
    for e in &entries {
        let hts = cache.candidates(&e.fingerprint);
        let temps = cache.temp_candidates(&e.fingerprint);
        assert!(
            hts.iter().all(|c| !temp[&c.id]),
            "ht lookup saw a temp table"
        );
        assert!(
            temps.iter().all(|c| temp[&c.id]),
            "temp lookup saw a hash table"
        );
        shared_shape |= !hts.is_empty() && !temps.is_empty();
    }
    shared_shape
}

/// The one cache holds both payload kinds when a materialized database
/// runs a shared batch (shared plans publish hash tables) and then single
/// queries (which materialize temp tables) — and again when a HashStash
/// database restarts on its snapshot. Every answer equals NoReuse, no
/// hash-table reuse picks a temp table and no temp scan picks a hash table.
#[test]
fn materialized_database_keeps_kinds_apart_through_batches() {
    let trace = generate_trace(TraceConfig {
        reuse: ReusePotential::High,
        queries: 8,
        seed: 17,
        structural_prob: 0.0,
    });
    let queries: Vec<_> = trace.into_iter().map(|tq| tq.query).collect();
    let reference: Vec<_> = {
        let mut session = Database::builder(catalog())
            .strategy(EngineStrategy::NoReuse)
            .build()
            .session();
        queries
            .iter()
            .map(|q| normalized(session.execute(q).unwrap().rows))
            .collect()
    };
    let dir = std::env::temp_dir().join(format!("hashstash-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::builder(catalog())
            .strategy(EngineStrategy::Materialized)
            .data_dir(&dir)
            .build();
        let mut session = db.session();
        let batch = session
            .execute_batch(&queries, BatchMode::SharedWithReuse)
            .unwrap();
        for (i, r) in batch.into_iter().enumerate() {
            assert_eq!(normalized(r.rows), reference[i], "batch query {i}");
        }
        let published = db.cache_stats().publishes;
        for pass in 0..2 {
            for (i, q) in queries.iter().enumerate() {
                let got = normalized(session.execute(q).unwrap().rows);
                assert_eq!(got, reference[i], "pass {pass} query {i}");
            }
        }
        assert!(
            db.cache_stats().publishes > published,
            "temp tables materialized"
        );
        assert!(db.cache_stats().reuses > 0, "temp tables reused");
        assert!(
            kinds_kept_apart(db.cache()),
            "no shape holds both kinds: the test lost its point"
        );
    } // Drop flushes both kinds into one snapshot.

    let db = Database::builder(hashstash_storage::Catalog::new())
        .data_dir(&dir)
        .build();
    assert!(kinds_kept_apart(db.cache()));
    let mut session = db.session();
    let mut reused = false;
    for (i, q) in queries.iter().enumerate() {
        let r = session.execute(q).unwrap();
        reused |= r.decisions.iter().any(|(_, c)| c.is_some());
        assert_eq!(normalized(r.rows), reference[i], "after restart, query {i}");
    }
    assert!(reused, "rehydrated hash tables serve reuse");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
