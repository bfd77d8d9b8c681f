//! The four workloads. Each sets the system up repeatedly (`setup_s`, see
//! [`SetUps`]), drives it closed-loop over loopback for the requested time,
//! verifies every reply against a `NoReuse` reference and returns the
//! metrics of the requested kind.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashstash::cache::CacheStats;
use hashstash::exec::ExecMetrics;
use hashstash::{Database, Session};
use hashstash_server::Server;
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_workload::trace::{average_overlap, generate_trace, ReusePotential, TraceConfig};

use crate::engine::{self, Inproc, ANALYST};
use crate::legs;
use crate::metrics::{mean, ms, quantile, ratio, us, Span, Tracer, Values, PER_LAYER};
use crate::sqlgen::{self, Query};
use crate::wire::{Client, Reply};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TraceHigh,
    TraceLow,
    TenantMix,
    RestartCycle,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::TraceHigh,
        Kind::TraceLow,
        Kind::TenantMix,
        Kind::RestartCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TraceHigh => "trace_high",
            Kind::TraceLow => "trace_low",
            Kind::TenantMix => "tenant_mix",
            Kind::RestartCycle => "restart_cycle",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn durable(self) -> bool {
        self == Kind::RestartCycle
    }

    /// How many traces a run of `seconds` replays. Work is fixed by count,
    /// not cut off by the clock: a trace's latency mix depends on how early
    /// it drills down, so one trace more or fewer moved `query_p50_ms` by
    /// 16 % between otherwise identical runs. The rates are traces per
    /// second on the reference machine, so a run measures for about
    /// `seconds` there.
    fn traces(self, seconds: f64) -> usize {
        let per_second = match self {
            Kind::TraceHigh => 1.0,
            Kind::TraceLow => 0.85,
            _ => 0.45,
        };
        ((seconds * per_second).round() as usize).max(1)
    }

    /// Leading traces whose program counters feed the exact-count layer
    /// metrics (all of them in a run shorter than this).
    fn counted_units(self) -> usize {
        match self {
            Kind::RestartCycle => 2,
            _ => 4,
        }
    }
}

pub struct Settings {
    pub sf: f64,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub setup_groups: usize,
    /// Scratch space for data directories; inside the build directory.
    pub tmp: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated invariants (the tenant mix's budget/floor contract).
    pub problems: Vec<String>,
    pub values: Values,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

/// One request as observed: the wire reply and, in the traced run, the
/// in-process replay of the same SQL on the mirror engine.
struct Obs {
    sql_bytes: usize,
    reply: Reply,
    inproc: Option<Inproc>,
    /// Feeds the exact-count metrics.
    counted: bool,
}

/// The tenant-mix queries (exp12's): three dashboard queries for the hot
/// tenant, disjoint month windows for the churning one.
const HOT_QUERIES: [&str; 3] = [
    "SELECT c_age, COUNT(c_custkey) FROM customer GROUP BY c_age",
    "SELECT c_age, AVG(c_acctbal) FROM customer WHERE c_age >= 30 GROUP BY c_age",
    legs::WIDE_PROJECTION,
];
const CHURN_WINDOWS: usize = 80; // 1992-01 .. 1998-08

fn churn_query(i: usize) -> String {
    let year = 1992 + i / 12;
    let month = 1 + i % 12;
    format!(
        "SELECT c_age, SUM(l_quantity) FROM customer \
         JOIN orders ON customer.c_custkey = orders.o_custkey \
         JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
         WHERE o_orderdate BETWEEN '{year}-{month:02}-01' AND '{year}-{month:02}-25' \
         GROUP BY c_age"
    )
}

/// A 64-query trace, cut into the segments between which the engine is
/// restarted (one segment unless the workload is durable).
struct Unit {
    segments: Vec<Vec<Query>>,
    overlap: f64,
}

/// Trace `index` of the workload's canonical trace set. The set is the same
/// for every `--seed` (which seeds the data the queries run on): drawing the
/// traces from the seed too made run-to-run spread a property of the draw
/// (19-28 % on throughput) rather than of the system (1.4 % on one draw).
fn trace_unit(kind: Kind, index: usize, catalog: &Catalog) -> Unit {
    let reuse = match kind {
        Kind::TraceHigh => ReusePotential::High,
        Kind::TraceLow => ReusePotential::Low,
        _ => ReusePotential::Medium,
    };
    let trace = generate_trace(TraceConfig::paper(reuse, index as u64));
    let overlap = average_overlap(&trace);
    let queries: Vec<Query> = trace
        .into_iter()
        .map(|t| sqlgen::query(t.query, catalog))
        .collect();
    let per_segment = if kind.durable() { 16 } else { queries.len() };
    Unit {
        segments: queries.chunks(per_segment).map(<[Query]>::to_vec).collect(),
        overlap,
    }
}

/// Everything a set-up repetition produces.
struct Ready {
    catalog: Catalog,
    db: Arc<Database>,
    server: Server,
    clients: Vec<Client>,
    /// Tenant-mix GC budget and hot floor, sized at run time.
    budget: Option<usize>,
    floor: usize,
    dir: Option<PathBuf>,
    generate: Duration,
}

impl Ready {
    fn close(self) {
        self.clients.into_iter().for_each(Client::quit);
        engine::close(self.db, self.server);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Tenant-mix sizing pass (exp12's): the hot tenant's steady footprint and
/// the bytes one churn window publishes, on an unbounded engine.
fn size_tenant_mix(catalog: &Catalog) -> (usize, usize) {
    let db = engine::database(catalog.clone(), None, None);
    let hot = db.register_tenant("hot");
    let churn = db.register_tenant("churn");
    let run = |session: &mut Session, sql: &str| {
        let q = sqlgen::parsed(sql, 0, catalog);
        session.execute(&q.spec).expect("sizing query");
    };
    let mut hot_session = db.session_as(hot);
    for _ in 0..2 {
        for sql in HOT_QUERIES {
            run(&mut hot_session, sql);
        }
    }
    let hot_bytes = db.tenant_cache_stats(hot).bytes;
    const WINDOWS: usize = 4;
    let mut churn_session = db.session_as(churn);
    for i in 0..WINDOWS {
        run(&mut churn_session, &churn_query(i));
    }
    let window_avg = db.tenant_cache_stats(churn).bytes / WINDOWS;
    assert!(
        hot_bytes > 0 && window_avg > 0,
        "sizing pass published nothing"
    );
    // Tight: the hot set with slack plus ~3 churn windows.
    (hot_bytes * 2 + window_avg * 3, hot_bytes * 2)
}

/// One set-up: generate TPC-H, build the database the workload starts
/// from, start the server, connect and authenticate its clients.
fn set_up(kind: Kind, s: &Settings) -> Ready {
    let t0 = Instant::now();
    let catalog = generate(TpchConfig::new(s.sf, s.seed));
    let generate = t0.elapsed();
    let (mut budget, mut floor) = (None, 0);
    let mut tenants = vec![engine::tenant(ANALYST, 0)];
    if kind == Kind::TenantMix {
        let (b, f) = size_tenant_mix(&catalog);
        (budget, floor) = (Some(b), f);
        tenants = vec![engine::tenant("hot", f), engine::tenant("churn", 0)];
    }
    let dir = kind.durable().then(|| fresh_dir(&s.tmp, "setup"));
    let db = engine::database(catalog.clone(), dir.as_deref(), budget);
    let names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
    let server = engine::serve(&db, tenants);
    let clients = names
        .iter()
        .map(|n| {
            Client::connect(server.local_addr(), n, &engine::token(n)).expect("connect + HELLO")
        })
        .collect();
    Ready {
        catalog,
        db,
        server,
        clients,
        budget,
        floor,
        dir,
        generate,
    }
}

fn fresh_dir(tmp: &Path, name: &str) -> PathBuf {
    let dir = tmp.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_bytes(dir: &Path, only_snapshots: bool) -> f64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    rd.filter_map(Result::ok)
        .filter(|e| !only_snapshots || e.file_name().to_string_lossy().ends_with(".snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .sum()
}

/// Durability-layer observations of the restart cycle.
#[derive(Default)]
struct Restarts {
    restart_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    first_hit_ms: Vec<f64>,
    rehydrate: Vec<f64>,
    dir_bytes: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

/// Cache-layer observations, per unit or (tenant mix) per run.
#[derive(Default)]
struct CacheObs {
    /// Counters summed over the databases of the counted units.
    counted: CacheStats,
    end_bytes: Vec<f64>,
    peak_bytes: Vec<f64>,
    candidates_us: Vec<f64>,
    checkout_us: Vec<f64>,
}

impl CacheObs {
    fn count(&mut self, s: &CacheStats) {
        let c = &mut self.counted;
        c.publishes += s.publishes;
        c.publish_dedups += s.publish_dedups;
        c.reuses += s.reuses;
        c.evictions += s.evictions;
        c.candidate_lookups += s.candidate_lookups;
    }
}

/// What a run records beside the per-request observations.
struct Probes {
    tr: Tracer,
    cache: CacheObs,
    restarts: Restarts,
}

impl Probes {
    fn new(tr: Tracer) -> Probes {
        Probes {
            tr,
            cache: CacheObs::default(),
            restarts: Restarts::default(),
        }
    }
}

/// Run one unit over the wire and, when `mirrored`, in lock-step on an
/// in-process mirror engine: same configuration, same query sequence, so
/// its cache is in the state the wire engine's is. Returns the observations
/// in query order (a connection error leaves the rest of the unit
/// unobserved, counted as failed) and the unit's wall time: every segment
/// from opening its engine to having closed it, restarts and flushes
/// included. The mirror's replays fall inside it, so only an unmirrored
/// run's wall time is reported.
fn run_unit(
    kind: Kind,
    s: &Settings,
    catalog: &Catalog,
    unit: &Unit,
    index: usize,
    mirrored: bool,
    probes: &mut Probes,
) -> (Vec<Obs>, Duration) {
    let Probes {
        tr,
        cache,
        restarts,
    } = probes;
    let counted = index < kind.counted_units();
    let wire_dir = kind.durable().then(|| fresh_dir(&s.tmp, "wire"));
    let mirror_dir = (kind.durable() && mirrored).then(|| fresh_dir(&s.tmp, "mirror"));
    let mut obs = Vec::new();
    let mut wall = Duration::ZERO;
    let mut request = (index as u64) << 16;
    let mut peak = 0usize;
    let mut end_bytes = 0usize;
    let mut entries_at_flush = None;

    'unit: for (si, segment) in unit.segments.iter().enumerate() {
        // A restart reopens the directory with an empty catalog: recovery
        // must bring back both the tables and the cache.
        let start_catalog = || {
            if si == 0 {
                catalog.clone()
            } else {
                Catalog::new()
            }
        };
        // The mirror's session owns its database. It opens (or recovers)
        // before the restart clock starts.
        let mut mirror = mirrored
            .then(|| engine::database(start_catalog(), mirror_dir.as_deref(), None).session());

        let opened = Instant::now();
        let db = engine::database(start_catalog(), wire_dir.as_deref(), None);
        let recover = opened.elapsed();
        let server = engine::serve(&db, vec![engine::tenant(ANALYST, 0)]);
        let mut client = Client::connect(server.local_addr(), ANALYST, &engine::token(ANALYST))
            .expect("connect + HELLO");
        // Time on the wire side since the restart began: open, serve, HELLO
        // and the round trips so far, without the mirror's replays between.
        let mut since_restart = opened.elapsed();
        if let Some(at_flush) = entries_at_flush {
            restarts.recover_ms.push(ms(recover));
            restarts
                .rehydrate
                .push(ratio(db.cache_stats().entries as f64, at_flush as f64));
        }

        let mut awaiting_hit = si > 0;
        for (qi, q) in segment.iter().enumerate() {
            request += 1;
            let Ok(reply) = client.query(&q.sql) else {
                drop(client);
                engine::close(db, server);
                break 'unit;
            };
            tr.record(
                request,
                0,
                "server.round_trip",
                reply.sent_at,
                reply.round_trip,
            );
            since_restart += reply.round_trip;
            if si > 0 && qi == 0 {
                restarts.restart_ms.push(ms(since_restart));
            }
            if awaiting_hit && reply.reused > 0 {
                restarts.first_hit_ms.push(ms(since_restart));
                awaiting_hit = false;
            }
            let inproc = mirror
                .as_mut()
                .map(|m| engine::replay(tr, request, m, &q.sql));
            obs.push(Obs {
                sql_bytes: q.sql.len(),
                reply,
                inproc,
                counted,
            });
        }

        if kind.durable() {
            let t0 = Instant::now();
            db.flush().expect("flush");
            restarts.flush_ms.push(ms(t0.elapsed()));
        }
        let stats = db.cache_stats();
        entries_at_flush = Some(stats.entries);
        peak = peak.max(stats.peak_bytes);
        end_bytes = stats.bytes;
        if counted {
            cache.count(&stats);
        }
        client.quit();
        engine::close(db, server);
        wall += opened.elapsed();

        if let Some(mirror) = mirror {
            let db = mirror.database();
            if kind.durable() {
                db.flush().expect("mirror flush");
            }
            if counted && si + 1 == unit.segments.len() {
                legs::cache(db, &mut cache.candidates_us, &mut cache.checkout_us);
            }
        }
    }
    cache.peak_bytes.push(peak as f64);
    cache.end_bytes.push(end_bytes as f64);
    if let Some(dir) = &wire_dir {
        restarts.dir_bytes.push(dir_bytes(dir, false));
        restarts.snapshot_bytes.push(dir_bytes(dir, true));
    }
    for dir in [wire_dir, mirror_dir].into_iter().flatten() {
        let _ = std::fs::remove_dir_all(dir);
    }
    (obs, wall)
}

/// Sums and samples over observations, from which both metric sets derive.
#[derive(Default)]
struct Acc {
    ok: u64,
    rt_ms: Vec<f64>,
    sql_bytes: f64,
    reply_bytes: f64,
    reply_rows: f64,
    // Traced run only: parallel samples of the in-process replay.
    parse_us: Vec<f64>,
    lower_us: Vec<f64>,
    plan_us: Vec<f64>,
    execute_us: Vec<f64>,
    wall_ms: Vec<f64>,
    overhead_us: Vec<f64>,
    qerror: Vec<f64>,
    sum_rt: f64,
    sum_sql: f64,
    sum_opt: f64,
    sum_exec: f64,
    sum_server: f64,
    sum_execute: f64,
    // Exact counts over the counted observations.
    counted_queries: f64,
    counted_wall_s: f64,
    exec: ExecMetrics,
    breakers: f64,
    reuse_decisions: f64,
}

impl Acc {
    /// Absorb one verified-OK observation.
    fn observe(&mut self, o: &Obs, rows: u64) {
        let rt = o.reply.round_trip;
        self.ok += 1;
        self.rt_ms.push(ms(rt));
        self.sql_bytes += o.sql_bytes as f64;
        self.reply_bytes += o.reply.bytes as f64;
        self.reply_rows += rows as f64;
        let Some(i) = &o.inproc else { return };
        let inproc = i.parse + i.lower + i.execute;
        self.parse_us.push(us(i.parse));
        self.lower_us.push(us(i.lower));
        self.plan_us.push(us(i.plan));
        self.execute_us.push(us(i.execute));
        self.wall_ms.push(ms(i.wall));
        self.overhead_us.push(us(rt) - us(inproc));
        let (est, actual) = (i.est_cost_ns, i.wall.as_nanos() as f64);
        if est > 0.0 && actual > 0.0 {
            self.qerror.push((est / actual).max(actual / est));
        }
        self.sum_rt += rt.as_secs_f64();
        self.sum_sql += (i.parse + i.lower).as_secs_f64();
        self.sum_opt += i.optimize.as_secs_f64();
        self.sum_exec += i.wall.as_secs_f64();
        self.sum_server += rt.as_secs_f64() - inproc.as_secs_f64();
        self.sum_execute += i.execute.as_secs_f64();
        if o.counted {
            self.counted_queries += 1.0;
            self.counted_wall_s += i.wall.as_secs_f64();
            self.exec.absorb(&i.metrics);
            self.breakers += i.breakers as f64;
            self.reuse_decisions += i.reuse_decisions as f64;
        }
    }

    fn end_to_end(&self, out: &mut Values, timed: Duration, peaks: &[f64]) {
        out.insert("queries_per_s", ratio(self.ok as f64, timed.as_secs_f64()));
        // Printed, not bounded: see README "End-to-end metrics".
        out.insert("query_p50_ms", quantile(&self.rt_ms, 0.5));
        out.insert("query_p95_ms", quantile(&self.rt_ms, 0.95));
        out.insert("cache_peak_mb", mean(peaks) / (1 << 20) as f64);
    }

    /// The metrics that derive from request observations alone.
    fn layers(&self, out: &mut Values) {
        let n = self.counted_queries.max(1.0);
        let share = |part: f64| ratio(part, self.sum_rt);
        out.insert("sql.parse_us_p50", quantile(&self.parse_us, 0.5));
        out.insert("sql.lower_us_p50", quantile(&self.lower_us, 0.5));
        out.insert("sql.share_of_query", share(self.sum_sql));
        out.insert("opt.plan_us_p50", quantile(&self.plan_us, 0.5));
        out.insert("opt.plan_us_p95", quantile(&self.plan_us, 0.95));
        out.insert("opt.share_of_query", share(self.sum_opt));
        out.insert(
            "opt.reuse_decision_rate",
            ratio(self.reuse_decisions, self.breakers),
        );
        out.insert("opt.qerror_p50", quantile(&self.qerror, 0.5));
        out.insert("opt.qerror_p95", quantile(&self.qerror, 0.95));
        out.insert("exec.wall_ms_p50", quantile(&self.wall_ms, 0.5));
        out.insert("exec.wall_ms_p95", quantile(&self.wall_ms, 0.95));
        out.insert("exec.share_of_query", share(self.sum_exec));
        let e = &self.exec;
        out.insert("exec.rows_scanned", e.rows_scanned as f64 / n);
        out.insert("exec.ht_inserts", e.ht_inserts as f64 / n);
        out.insert("exec.ht_probes", e.ht_probes as f64 / n);
        out.insert("exec.ht_updates", e.ht_updates as f64 / n);
        out.insert("exec.rows_output", e.rows_output as f64 / n);
        out.insert("exec.built_tables", e.built_tables as f64 / n);
        out.insert("exec.reused_tables", e.reused_tables as f64 / n);
        out.insert("exec.batches", e.batches_processed as f64 / n);
        out.insert(
            "exec.ns_per_row_scanned",
            ratio(self.counted_wall_s * 1e9, e.rows_scanned as f64),
        );
        out.insert("server.round_trip_ms_p50", quantile(&self.rt_ms, 0.5));
        out.insert("server.overhead_us_p50", quantile(&self.overhead_us, 0.5));
        out.insert("server.overhead_us_p95", quantile(&self.overhead_us, 0.95));
        out.insert("server.share_of_query", share(self.sum_server));
        let ok = (self.ok as f64).max(1.0);
        out.insert("sql.bytes_per_query", self.sql_bytes / ok);
        out.insert("workload.sql_bytes", self.sql_bytes);
        out.insert("server.reply_bytes_per_query", self.reply_bytes / ok);
        out.insert("server.reply_rows_per_query", self.reply_rows / ok);
        out.insert("core.execute_us_p50", quantile(&self.execute_us, 0.5));
        out.insert(
            "core.unattributed_share",
            1.0 - share(self.sum_sql + self.sum_opt + self.sum_exec + self.sum_server),
        );
    }
}

fn cache_layers(out: &mut Values, c: &CacheObs, counted_queries: f64) {
    let s = &c.counted;
    out.insert("cache.publishes", s.publishes as f64);
    out.insert("cache.publish_dedups", s.publish_dedups as f64);
    out.insert("cache.reuses", s.reuses as f64);
    out.insert("cache.evictions", s.evictions as f64);
    out.insert("cache.hit_ratio", s.hit_ratio());
    out.insert("cache.candidate_lookups", s.candidate_lookups as f64);
    out.insert(
        "opt.candidates_per_query",
        ratio(s.candidate_lookups as f64, counted_queries),
    );
    out.insert("cache.end_bytes", mean(&c.end_bytes));
    out.insert("cache.peak_bytes", mean(&c.peak_bytes));
    out.insert("cache.candidates_us_p50", quantile(&c.candidates_us, 0.5));
    out.insert("cache.checkout_us_p50", quantile(&c.checkout_us, 0.5));
}

fn restart_layers(out: &mut Values, r: &Restarts) {
    out.insert("durability.restart_ms_p50", quantile(&r.restart_ms, 0.5));
    out.insert("durability.flush_ms_p50", quantile(&r.flush_ms, 0.5));
    out.insert("durability.recover_ms_p50", quantile(&r.recover_ms, 0.5));
    out.insert("durability.dir_bytes", mean(&r.dir_bytes));
    out.insert("durability.snapshot_bytes", mean(&r.snapshot_bytes));
    out.insert("durability.rehydrate_ratio", mean(&r.rehydrate));
    out.insert("durability.first_hit_ms", quantile(&r.first_hit_ms, 0.5));
}

/// Set-ups a group holds; the fastest is the group's time.
const BEST_OF: usize = 3;

/// The set-up times of a run, from which `setup_s` derives: the median
/// over `setup_groups` groups of the fastest of `BEST_OF` set-ups made back
/// to back. The first set-up is the one the run uses; after it a group falls
/// due every `seconds / setup_groups` of run time and is made at the next
/// unit boundary. Set-up is tens of milliseconds of CPU-bound work on a
/// host whose speed wanders: taken back to back at the start, repetitions
/// sampled one moment of it, and their plain median moved 38 % between two
/// sets of runs of one commit. The host only ever adds time, so the best of
/// three is the repetition it disturbed least, and groups spread over the
/// run belong to the same stretch of time as the run's other metrics.
struct SetUps {
    started: Instant,
    times: Vec<f64>,
}

impl SetUps {
    fn timed(&mut self, kind: Kind, s: &Settings) -> Ready {
        let t0 = Instant::now();
        let ready = set_up(kind, s);
        self.times.push(t0.elapsed().as_secs_f64());
        ready
    }

    /// Finish the group under way and make the groups due by now; all that
    /// remain, at the `end`.
    fn catch_up(&mut self, kind: Kind, s: &Settings, end: bool) {
        let every = s.seconds / s.setup_groups as f64;
        while self.times.len() < s.setup_groups * BEST_OF {
            let group = self.times.len() / BEST_OF;
            let under_way = !self.times.len().is_multiple_of(BEST_OF);
            let due = self.started.elapsed().as_secs_f64() >= every * group as f64;
            if !(under_way || due || end) {
                break;
            }
            self.timed(kind, s).close();
        }
    }

    fn setup_s(&self) -> f64 {
        let fastest = |group: &[f64]| group.iter().copied().fold(f64::INFINITY, f64::min);
        let groups: Vec<f64> = self.times.chunks(BEST_OF).map(fastest).collect();
        quantile(&groups, 0.5)
    }
}

/// Run `kind` once.
pub fn run(kind: Kind, s: &Settings) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let values = &mut out.values;
    let mut setups = SetUps {
        started: epoch,
        times: Vec::new(),
    };
    let mut ready = setups.timed(kind, s);
    if s.traced {
        // A layer the workload does not exercise reports 0.
        values.extend(PER_LAYER.iter().map(|d| (d.name, 0.0)));
    }
    values.insert("storage.generate_s", ready.generate.as_secs_f64());

    if s.traced {
        legs::hashtable(s.seed, values);
        legs::storage(&ready.catalog, values);
        let tenant = if kind == Kind::TenantMix {
            "hot"
        } else {
            ANALYST
        };
        let tenant = ready.db.tenant_id(tenant).expect("tenant registered");
        let session = ready.db.session_as(tenant);
        legs::server(session, &mut ready.clients[0], values);
    }

    if kind == Kind::TenantMix {
        run_tenant_mix(s, ready, epoch, &mut setups, &mut out);
    } else {
        let catalog = ready.catalog.clone();
        ready.close();
        run_traces(kind, s, &catalog, epoch, &mut setups, &mut out);
    }
    setups.catch_up(kind, s, true);
    out.values.insert("setup_s", setups.setup_s());
    out.notes.push(format!(
        "setup_s: median over {} groups, spread over the run, of the fastest of {BEST_OF} set-ups",
        setups.times.len() / BEST_OF
    ));
    out
}

/// `trace_high`, `trace_low`, `restart_cycle`: one client replays 64-query
/// traces, a fresh engine per trace.
fn run_traces(
    kind: Kind,
    s: &Settings,
    catalog: &Catalog,
    epoch: Instant,
    setups: &mut SetUps,
    out: &mut Outcome,
) {
    let values = &mut out.values;
    let mut probes = Probes::new(Tracer::new(epoch, s.traced));
    let mut units: Vec<(Unit, Vec<Obs>)> = Vec::new();
    let mut timed = Duration::ZERO;
    // The traced run does each trace twice (wire and mirror), so it takes
    // the first half of the same trace set.
    let traces = kind.traces(s.seconds);
    for index in 0..if s.traced { traces.div_ceil(2) } else { traces } {
        let unit = trace_unit(kind, index, catalog);
        let (obs, wall) = run_unit(kind, s, catalog, &unit, index, s.traced, &mut probes);
        timed += wall;
        units.push((unit, obs));
        setups.catch_up(kind, s, false);
    }

    // Tracing overhead: replay the counted units untraced (no spans, no
    // mirror) and compare the summed round trips.
    let mut overhead = (0.0, 0.0);
    if s.traced {
        let mut discard = Probes::new(Tracer::new(epoch, false));
        for (index, (unit, traced)) in units.iter().take(kind.counted_units()).enumerate() {
            let (plain, _) = run_unit(kind, s, catalog, unit, index, false, &mut discard);
            let sum = |o: &[Obs]| {
                o.iter()
                    .map(|o| o.reply.round_trip.as_secs_f64())
                    .sum::<f64>()
            };
            overhead.0 += sum(traced);
            overhead.1 += sum(&plain);
        }
    }

    // Verify every reply against the NoReuse reference.
    let mut acc = Acc::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut noreuse_s = 0.0;
    for (unit, obs) in &units {
        let flat: Vec<&Query> = unit.segments.iter().flatten().collect();
        attempted += flat.len() as u64;
        failed += (flat.len() - obs.len()) as u64;
        let (digests, spent) = engine::reference(catalog, &flat);
        noreuse_s += spent.as_secs_f64();
        for (o, expect) in obs.iter().zip(&digests) {
            let mirror_ok = o.inproc.as_ref().is_none_or(|i| i.digest == *expect);
            if o.reply.digest == Some(*expect) && mirror_ok {
                acc.observe(o, expect.rows);
            } else {
                failed += 1;
            }
        }
    }

    out.notes.push(format!(
        "{} traces, {} queries attempted, latency samples n={} (p95 has {} beyond it)",
        units.len(),
        attempted,
        acc.rt_ms.len(),
        acc.rt_ms.len() / 20
    ));
    if s.traced {
        acc.layers(values);
        cache_layers(values, &probes.cache, acc.counted_queries);
        if kind.durable() {
            restart_layers(values, &probes.restarts);
        } else {
            // In-process wall of the same traces without reuse ÷ with the
            // default policy (paper Fig. 7a). The durable engine also pays
            // WAL/snapshot work, so only in-memory runs report the ratio.
            values.insert("core.noreuse_ratio", ratio(noreuse_s, acc.sum_execute));
        }
        let overlaps: Vec<f64> = units.iter().map(|(u, _)| u.overlap).collect();
        values.insert("workload.avg_overlap", mean(&overlaps));
        values.insert(
            "core.trace_overhead_frac",
            ratio(overhead.0, overhead.1) - 1.0,
        );
    } else {
        acc.end_to_end(values, timed, &probes.cache.peak_bytes);
    }
    out.attempted = attempted;
    out.failed = failed;
    out.spans = probes.tr.spans;
}

/// Hot requests per churn request in the tenant mix.
const HOT_PER_CHURN: usize = 8;
/// The tenant mix's unit of work: one march of the churn tenant through all
/// its windows, with the hot requests between. Every cycle is the same work.
const CYCLE: usize = CHURN_WINDOWS * (HOT_PER_CHURN + 1);
/// Leading cycles whose program counters feed the exact-count layer metrics.
const COUNTED_CYCLES: usize = 5;

/// `tenant_mix`: two tenants, two connections, one budgeted engine, driven
/// by one closed-loop client in a fixed interleave of 8 hot requests (the
/// three dashboard queries in turn, protected by a floor) to 1 churn
/// request (the next month window; the march overflows the budget). Whole
/// cycles run until the time is up.
fn run_tenant_mix(
    s: &Settings,
    mut ready: Ready,
    epoch: Instant,
    setups: &mut SetUps,
    out: &mut Outcome,
) {
    let values = &mut out.values;
    let catalog = &ready.catalog;
    let hot_q: Vec<Query> = HOT_QUERIES
        .iter()
        .map(|sql| sqlgen::parsed(sql, 0, catalog))
        .collect();
    let churn_q: Vec<Query> = (0..CHURN_WINDOWS)
        .map(|i| sqlgen::parsed(&churn_query(i), 0, catalog))
        .collect();
    let (hot_expect, _) = engine::reference(catalog, &hot_q.iter().collect::<Vec<_>>());
    let (churn_expect, _) = engine::reference(catalog, &churn_q.iter().collect::<Vec<_>>());

    let db = Arc::clone(&ready.db);
    let tenant_stats =
        |name: &str| db.tenant_cache_stats(db.tenant_id(name).expect("tenant registered"));
    let budget = ready.budget.expect("tenant mix is budgeted");
    // The mirror's sessions own its database.
    let mut mirror = s.traced.then(|| {
        let db = engine::database(catalog.clone(), None, Some(budget));
        let hot = db.register_tenant("hot");
        db.set_tenant_floor(hot, ready.floor);
        let churn = db.register_tenant("churn");
        [db.session_as(hot), db.session_as(churn)]
    });

    let mut tr = Tracer::new(epoch, s.traced);
    let mut acc = Acc::default();
    let mut by_tenant = [Vec::new(), Vec::new()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counted_cache = None;
    let (mut hot_i, mut churn_i) = (0usize, s.seed as usize % CHURN_WINDOWS);
    // Wall time of the cycles alone: set-up repetitions fall between them.
    let mut timed = Duration::ZERO;
    let t0 = Instant::now();
    'run: for cycle in 0.. {
        if cycle >= COUNTED_CYCLES && t0.elapsed().as_secs_f64() >= s.seconds {
            break;
        }
        if cycle == COUNTED_CYCLES {
            counted_cache = Some((db.cache_stats(), tenant_stats("hot"), tenant_stats("churn")));
        }
        let began = Instant::now();
        for i in 0..CYCLE {
            let t = usize::from(i % (HOT_PER_CHURN + 1) == HOT_PER_CHURN);
            let (q, expect) = if t == 0 {
                hot_i += 1;
                (&hot_q[hot_i % 3], hot_expect[hot_i % 3])
            } else {
                churn_i += 1;
                let w = churn_i % CHURN_WINDOWS;
                (&churn_q[w], churn_expect[w])
            };
            attempted += 1;
            let Ok(reply) = ready.clients[t].query(&q.sql) else {
                failed += 1;
                break 'run;
            };
            tr.record(
                attempted,
                0,
                "server.round_trip",
                reply.sent_at,
                reply.round_trip,
            );
            let inproc = mirror
                .as_mut()
                .map(|m| engine::replay(&mut tr, attempted, &mut m[t], &q.sql));
            let ok =
                reply.digest == Some(expect) && inproc.as_ref().is_none_or(|r| r.digest == expect);
            if ok {
                by_tenant[t].push(ms(reply.round_trip));
                let obs = Obs {
                    sql_bytes: q.sql.len(),
                    reply,
                    inproc,
                    counted: cycle < COUNTED_CYCLES,
                };
                acc.observe(&obs, expect.rows);
            } else {
                failed += 1;
            }
        }
        timed += began.elapsed();
        setups.catch_up(Kind::TenantMix, s, false);
    }

    // The exp12 contract: the floor held, the pressure landed on the
    // churner, per-tenant accounting partitions the global counters.
    let (hs, cs, global) = (tenant_stats("hot"), tenant_stats("churn"), db.cache_stats());
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.problems.push(what);
        }
    };
    check(
        hs.evictions == 0,
        format!("floored tenant lost entries: {hs:?}"),
    );
    check(
        cs.evictions > 0,
        format!("budget never pressured churn: {cs:?}"),
    );
    check(
        global.bytes <= budget,
        format!("cache ended over budget: {} > {budget}", global.bytes),
    );
    check(
        hs.publishes + cs.publishes == global.publishes
            && hs.evictions + cs.evictions == global.evictions
            && hs.entries + cs.entries == global.entries
            && hs.bytes + cs.bytes == global.bytes,
        format!("tenant counters do not partition the global: {hs:?} + {cs:?} != {global:?}"),
    );

    out.notes.push(format!(
        "1 client thread, 2 connections, {HOT_PER_CHURN} hot : 1 churn; hot n={} churn n={}; \
         budget {} KiB, hot floor {} KiB",
        by_tenant[0].len(),
        by_tenant[1].len(),
        budget / 1024,
        ready.floor / 1024
    ));
    if s.traced {
        acc.layers(values);
        let (counted, hot, churn) = counted_cache.unwrap_or((global, hs, cs));
        let mut cache = CacheObs::default();
        cache.count(&counted);
        cache.end_bytes.push(global.bytes as f64);
        cache.peak_bytes.push(global.peak_bytes as f64);
        if let Some([hot_session, _]) = &mirror {
            let db = hot_session.database();
            legs::cache(db, &mut cache.candidates_us, &mut cache.checkout_us);
        }
        cache_layers(values, &cache, acc.counted_queries);
        values.insert("cache.hot_evictions", hot.evictions as f64);
        values.insert("cache.churn_evictions", churn.evictions as f64);
        values.insert("workload.hot_p95_ms", quantile(&by_tenant[0], 0.95));
        values.insert("workload.churn_p50_ms", quantile(&by_tenant[1], 0.5));
    } else {
        acc.end_to_end(values, timed, &[global.peak_bytes as f64]);
    }
    // `close` waits until it holds the only handle on the database.
    drop(db);
    ready.close();
    out.attempted = attempted;
    out.failed = failed;
    out.spans = tr.spans;
}
