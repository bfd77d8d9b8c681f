//! The system under test, opened the way a deployment would: a `Database`
//! behind a `hashstash_server::Server` on loopback. Also the in-process
//! mirror the traced run decomposes a request with, and the `NoReuse`
//! reference replies are verified against.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashstash::durability::FsyncPolicy;
use hashstash::exec::ExecMetrics;
use hashstash::{Database, EngineStrategy, Session};
use hashstash_server::{CatalogSchema, Server, ServerConfig, TenantSpec};
use hashstash_storage::Catalog;

use crate::metrics::Tracer;
use crate::placement;
use crate::sqlgen::Query;
use crate::wire::Digest;

/// Fixed settings, recorded in every run's output.
pub const PARALLELISM: usize = 2;
pub const FSYNC: FsyncPolicy = FsyncPolicy::Interval;

/// The single tenant of the one-client workloads.
pub const ANALYST: &str = "analyst";

/// Wire token of a benchmark tenant.
pub fn token(tenant: &str) -> String {
    format!("{tenant}-secret")
}

pub fn tenant(name: &str, floor_bytes: usize) -> TenantSpec {
    TenantSpec {
        name: name.to_string(),
        token: token(name),
        floor_bytes,
    }
}

/// Build (or, with an existing `dir`, recover) a database. Its pool workers
/// are spawned unpinned (see [`placement`]).
pub fn database(catalog: Catalog, dir: Option<&Path>, budget: Option<usize>) -> Arc<Database> {
    let mut b = Database::builder(catalog)
        .parallelism(PARALLELISM)
        .gc_budget(budget);
    if let Some(dir) = dir {
        b = b.data_dir(dir).fsync(FSYNC);
    }
    placement::unpinned(|| b.try_build().expect("database build/recovery failed"))
}

pub fn serve(db: &Arc<Database>, tenants: Vec<TenantSpec>) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        tenants,
    };
    Server::start(Arc::clone(db), cfg).expect("bind loopback")
}

/// Stop the server and drop the database *on this thread*. Connection
/// threads are detached and release their `Arc<Database>` shortly after the
/// client's QUIT; waiting for sole ownership keeps the final flush of a
/// durable database from racing the reopen of its directory.
pub fn close(mut db: Arc<Database>, server: Server) {
    drop(server);
    loop {
        match Arc::try_unwrap(db) {
            Ok(sole) => return drop(sole),
            Err(shared) => {
                db = shared;
                std::thread::yield_now();
            }
        }
    }
}

/// What the in-process replay of one request measured.
pub struct Inproc {
    pub parse: Duration,
    pub lower: Duration,
    pub plan: Duration,
    /// `Session::execute`, start to return.
    pub execute: Duration,
    /// `QueryResult.optimize_time` (optimize + pin).
    pub optimize: Duration,
    /// `QueryResult.wall_time` (plan execution).
    pub wall: Duration,
    pub est_cost_ns: f64,
    pub metrics: ExecMetrics,
    pub breakers: usize,
    pub reuse_decisions: usize,
    pub digest: Digest,
}

/// Replay `sql` in-process on `session`, timing each crate's public entry
/// point: `sql::parse`, `sql::lower`, `Session::plan_only`,
/// `Session::execute`. `plan_only` is informational (the optimizer runs
/// again inside `execute`); shares are computed from `execute`'s own
/// `optimize_time`/`wall_time`.
pub fn replay(tr: &mut Tracer, request: u64, session: &mut Session, sql: &str) -> Inproc {
    let db = Arc::clone(session.database());
    let start = Instant::now();
    let root = tr.fresh_id();
    let (ast, parse, _) = tr.time(request, root, "sql.parse", || hashstash_sql::parse(sql));
    let ast = ast.expect("benchmark SQL parses");
    let (spec, lower, _) = tr.time(request, root, "sql.lower", || {
        hashstash_sql::lower(&ast, request as u32, &CatalogSchema(db.catalog()))
    });
    let spec = spec.expect("benchmark SQL lowers");
    let (plan, plan_took, _) = tr.time(request, root, "opt.plan_only", || session.plan_only(&spec));
    plan.expect("benchmark query plans");
    let exec_start = Instant::now();
    let result = session.execute(&spec).expect("benchmark query executes");
    let execute = exec_start.elapsed();
    let ex = tr.record(request, root, "core.execute", exec_start, execute);
    tr.record(
        request,
        ex,
        "opt.optimize",
        exec_start,
        result.optimize_time,
    );
    let run_start = exec_start + result.optimize_time;
    tr.record(request, ex, "exec.run", run_start, result.wall_time);
    tr.push(root, request, 0, "replay", start, start.elapsed());
    Inproc {
        parse,
        lower,
        plan: plan_took,
        execute,
        optimize: result.optimize_time,
        wall: result.wall_time,
        est_cost_ns: result.est_cost_ns,
        metrics: result.metrics,
        breakers: result.decisions.len(),
        reuse_decisions: result.decisions.iter().filter(|(_, c)| c.is_some()).count(),
        digest: Digest::of_rows(&result.rows),
    }
}

/// Reference digests: execute every query in-process on a `NoReuse`
/// database (nothing cached, nothing reused). Returns the digests and the
/// time spent inside `Session::execute`.
pub fn reference(catalog: &Catalog, queries: &[&Query]) -> (Vec<Digest>, Duration) {
    let db = placement::unpinned(|| {
        Database::builder(catalog.clone())
            .strategy(EngineStrategy::NoReuse)
            .parallelism(PARALLELISM)
            .build()
    });
    let mut session = db.session();
    let mut spent = Duration::ZERO;
    let digests = queries
        .iter()
        .map(|q| {
            let t0 = Instant::now();
            let r = session.execute(&q.spec).expect("reference query executes");
            spent += t0.elapsed();
            Digest::of_rows(&r.rows)
        })
        .collect();
    (digests, spent)
}
