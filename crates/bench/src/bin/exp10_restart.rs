//! Exp 10: warm restart of the reuse cache (durability subsystem).
//!
//! A durable engine (`EngineBuilder::data_dir`) persists the catalog and
//! the reuse cache in snapshots. This experiment measures what that buys:
//! **time to the first reuse hit** after a restart, warm (rehydrated
//! cache) vs cold (fresh engine that must rebuild its hash tables from
//! scratch).
//!
//! Protocol: run the Fig. 7-style medium-reuse trace on a durable engine,
//! flush, drop it (clean exit), reopen the data directory with an *empty*
//! catalog — recovery reads the newest valid snapshot, rebuilding catalog
//! and cache — and replay the trace, timing how long until a query's plan
//! first reuses a cached table. The cold baseline replays the identical
//! trace on a fresh in-memory engine.
//!
//! Output: a human-readable table plus `BENCH_restart.json` (uploaded by
//! CI as an artifact); the JSON records the fsync policy in effect. Smoke
//! mode (`HASHSTASH_SMOKE=1`) shrinks the trace and forces `fsync=none`
//! so the run finishes in seconds on a 1-core container; override the
//! policy with `HASHSTASH_FSYNC=none|interval`.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hashstash::durability::FsyncPolicy;
use hashstash::Database;
use hashstash_bench::common::{catalog, header, mb, ms, seed};
use hashstash_storage::Catalog;
use hashstash_workload::trace::{generate_trace, ReusePotential, TraceConfig};

fn smoke() -> bool {
    std::env::var("HASHSTASH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Execute the trace until a query's plan reuses a cached table; returns
/// (elapsed ms, 1-based query index of the first hit, or 0 if none hit).
fn time_to_first_hit(
    db: &Arc<Database>,
    trace: &[hashstash_workload::trace::TraceQuery],
) -> (f64, usize) {
    let mut session = db.session();
    let t0 = Instant::now();
    for (i, tq) in trace.iter().enumerate() {
        let r = session
            .execute(&tq.query)
            .unwrap_or_else(|e| panic!("query {} failed: {e}", tq.query.id));
        if r.decisions.iter().any(|(_, c)| c.is_some()) {
            return (ms(t0.elapsed()), i + 1);
        }
    }
    (ms(t0.elapsed()), 0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn main() {
    let smoke = smoke();
    let trace_len = if smoke { 16 } else { 48 };
    let fsync = std::env::var("HASHSTASH_FSYNC")
        .ok()
        .and_then(|s| FsyncPolicy::parse(&s))
        .unwrap_or(if smoke {
            FsyncPolicy::None
        } else {
            FsyncPolicy::Interval
        });

    header("Exp 10: warm restart of the reuse cache (snapshot recovery)");
    println!("fsync policy: {}", fsync.name());

    let trace = generate_trace(TraceConfig {
        queries: trace_len,
        ..TraceConfig::paper(ReusePotential::Medium, seed())
    });

    // Cold baseline: a fresh in-memory engine replays the trace; the first
    // reuse hit requires building the table within the measured window.
    let cold_db = Database::builder(catalog()).build();
    let (cold_ms, cold_q) = time_to_first_hit(&cold_db, &trace);
    drop(cold_db);

    // Populate a durable engine, then exit cleanly (explicit flush).
    let dir = std::env::temp_dir().join(format!("hashstash_exp10_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persisted;
    {
        let db = Database::builder(catalog())
            .data_dir(&dir)
            .fsync(fsync)
            .build();
        let mut session = db.session();
        let t0 = Instant::now();
        for tq in &trace {
            session
                .execute(&tq.query)
                .unwrap_or_else(|e| panic!("query {} failed: {e}", tq.query.id));
        }
        let populate = t0.elapsed();
        let t1 = Instant::now();
        db.flush().expect("flush");
        persisted = db.cache_stats().entries;
        println!(
            "populate: {:.1} ms over {trace_len} queries, flush: {:.1} ms, \
             {} cache entries persisted",
            ms(populate),
            ms(t1.elapsed()),
            persisted
        );
    }
    let disk_mb = mb(dir_bytes(&dir) as usize);

    // Warm restart: empty catalog in, recovered catalog + rehydrated cache
    // out. Replay the same trace; the first queries should hit immediately.
    let t0 = Instant::now();
    let warm_db = Database::builder(Catalog::new())
        .data_dir(&dir)
        .fsync(fsync)
        .build();
    let recover_ms = ms(t0.elapsed());
    let rehydrated = warm_db.cache_stats().entries;
    let (warm_ms, warm_q) = time_to_first_hit(&warm_db, &trace);
    drop(warm_db);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "\n{:<22} {:>14} {:>16}",
        "", "cold (fresh)", "warm (restart)"
    );
    println!(
        "{:<22} {:>14.1} {:>16.1}",
        "first reuse hit (ms)", cold_ms, warm_ms
    );
    println!("{:<22} {:>14} {:>16}", "hit at query #", cold_q, warm_q);
    println!(
        "\nrecovery: {recover_ms:.1} ms, {rehydrated} entries rehydrated, \
         {disk_mb:.2} MB on disk"
    );

    let json = format!(
        "{{\n  \"bench\": \"restart\",\n  \"smoke\": {smoke},\n  \
         \"trace_queries\": {trace_len},\n  \"workload\": \"fig7-medium-reuse\",\n  \
         \"fsync\": \"{}\",\n  \"cold_first_hit_ms\": {cold_ms:.3},\n  \
         \"cold_hit_query\": {cold_q},\n  \"warm_first_hit_ms\": {warm_ms:.3},\n  \
         \"warm_hit_query\": {warm_q},\n  \"recover_ms\": {recover_ms:.3},\n  \
         \"persisted_entries\": {persisted},\n  \"rehydrated_entries\": {rehydrated},\n  \
         \"disk_mb\": {disk_mb:.3}\n}}\n",
        fsync.name()
    );
    let mut f = std::fs::File::create("BENCH_restart.json").expect("write results");
    f.write_all(json.as_bytes()).unwrap();
    println!("\nwrote BENCH_restart.json");
    println!(
        "Expected shape: the warm engine reuses a rehydrated table within its first \
         queries, so its time-to-first-reuse-hit is a fraction of the cold engine's, \
         which must execute (and pay for) the builder query first."
    );

    assert!(
        warm_q != 0,
        "warm restart must produce a reuse hit from rehydrated entries"
    );
    assert!(
        cold_q == 0 || warm_ms < cold_ms,
        "warm first hit ({warm_ms:.1} ms) should beat cold ({cold_ms:.1} ms)"
    );
}
