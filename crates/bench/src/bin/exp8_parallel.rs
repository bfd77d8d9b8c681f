//! Exp 8: intra-query morsel parallelism on the Figure-9 operator mix.
//!
//! The operators whose reuse effects Figure 9 measures — base-table scan,
//! hash-join build + probe, exact-reuse probe, and the post-filter pass of
//! subsuming reuse — are exactly the loops the morsel scheduler fans out,
//! plus a **build-bound phase** (pure join build, fresh aggregate build)
//! exercising the partitioned parallel build. This experiment runs that mix
//! at W ∈ {1, 2, 4, 8} workers against the same data and reports the
//! wall-clock speedup (overall and build-only) over the serial interpreter.
//!
//! Determinism is a **hard error**, smoke mode included: every iteration's
//! full output digest (row contents *and* order) is compared against the
//! serial reference and against the worker count's own first iteration; any
//! divergence is recorded in the JSON (`"deterministic": false`) and the
//! process exits non-zero, so CI fails loudly instead of archiving a bad
//! artifact silently.
//!
//! All worker counts share **one** persistent `WorkerPool` — the engine's
//! execution model — and the run additionally measures the per-phase
//! dispatch overhead of that pool (cold = first submission after spawn,
//! warm = steady state) against the retired spawn-per-phase scoped-thread
//! baseline, so the spawn-tax fix is visible even where wall-clock speedup
//! is hardware-bound. It also times the serving pattern: one 60-morsel
//! phase after the pool has idled 250 µs, inline and on the pool.
//!
//! Output: a human-readable table plus `BENCH_parallel.json` (uploaded by
//! CI as an artifact). Smoke mode (`HASHSTASH_SMOKE=1`) shrinks the row
//! counts so the run finishes in seconds (the iteration count stays at
//! eight — worker counts are interleaved across iterations, and the
//! per-count median needs that many samples to shrug off host noise
//! bursts). Speedup is
//! bounded by the machine: `available_cores` is recorded in the JSON so a
//! 1-core container's ~1× is interpretable.

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashstash_bench::common::{header, ms};
use hashstash_cache::recycle::ShapeKey;
use hashstash_cache::{GcConfig, HtManager, DEFAULT_SHARDS};
use hashstash_exec::parallel::{morsel_count, run_morsels};
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{
    execute, min_parallel_morsels, ExecContext, Scheduler, WorkerPool, MORSEL_ROWS,
};
use hashstash_plan::{
    AggExpr, AggFunc, HtFingerprint, HtKind, Interval, JoinEdge, PredBox, Region, ReuseCase,
};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Value};

fn smoke() -> bool {
    std::env::var("HASHSTASH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Synthetic star schema sized to make the probe/scan loops the hot path:
/// `dim(d_key, d_attr)` with one row per key, `fact(f_key)` with fan-out 4.
fn synth(n: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut d = TableBuilder::new(
        "dim",
        vec![("d_key", DataType::Int), ("d_attr", DataType::Int)],
    );
    for i in 0..n {
        d.push_row(vec![Value::Int(i), Value::Int(i % 1000)]);
    }
    cat.register(d.finish());
    let mut f = TableBuilder::new("fact", vec![("f_key", DataType::Int)]);
    for i in 0..n * 4 {
        f.push_row(vec![Value::Int(i % n)]);
    }
    cat.register(f.finish());
    cat
}

fn dim_fingerprint(region: Region) -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region,
        key_attrs: vec![Arc::from("dim.d_key")],
        payload_attrs: vec![Arc::from("dim.d_key"), Arc::from("dim.d_attr")],
        aggregates: vec![],
    }
}

/// Golden cross-check run before any measurement: the bench and the engine
/// must agree on shard routing. Pins `ShapeKey::stable_hash` of the same
/// canonical join fingerprint as `tests/durability_recovery.rs`'s golden
/// test, and the shard it lands on at the default shard count — a drift
/// here means bench numbers and engine behaviour are describing different
/// shards.
fn assert_engine_shard_routing() {
    let fp = HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: ["customer", "orders"].into_iter().map(Arc::from).collect(),
        edges: vec![JoinEdge::new(
            "customer",
            "customer.c_custkey",
            "orders",
            "orders.o_custkey",
        )],
        region: Region::all(),
        key_attrs: vec![Arc::from("customer.c_custkey")],
        payload_attrs: vec![Arc::from("customer.c_age")],
        aggregates: vec![],
    };
    let h = ShapeKey::of(&fp).stable_hash();
    assert_eq!(
        h, 0x6894_58a4_d0e0_8586,
        "ShapeKey::stable_hash drifted from the engine's golden value"
    );
    assert_eq!(
        (h % DEFAULT_SHARDS as u64) as usize,
        6,
        "canonical fingerprint routes to a different shard than the engine"
    );
}

/// Per-phase dispatch overhead of a persistent pool, in nanoseconds:
/// submit the smallest above-threshold phase (near-zero real work per
/// morsel) and time the whole submit→quiesce round trip. Returns
/// `(cold, warm)` — the first submission after the pool spawns, then the
/// steady-state mean.
fn measure_pool_dispatch(workers: usize, iters: u32) -> (f64, f64) {
    let pool = WorkerPool::new(workers.saturating_sub(1));
    let sched = Scheduler {
        parallelism: workers,
        pool: Some(&pool),
    };
    let total = MORSEL_ROWS * min_parallel_morsels();
    let phase = || {
        let t0 = Instant::now();
        std::hint::black_box(run_morsels(sched, total, |r| r.len()));
        t0.elapsed()
    };
    let cold = phase();
    let mut warm = Duration::ZERO;
    for _ in 0..iters {
        warm += phase();
    }
    (
        cold.as_nanos() as f64,
        warm.as_nanos() as f64 / f64::from(iters),
    )
}

/// The serving pattern: one 60-morsel phase — a selection over 60 morsels
/// of rows, the shape of a fact-table probe — submitted after the pool has
/// sat idle for 250 µs, as requests arriving one at a time find it (the
/// back-to-back phases of [`measure_pool_dispatch`] never let it idle).
/// Returns the median phase time in nanoseconds three ways at `workers`
/// participants: one undivided chunk inline, the 60 morsels inline (no
/// pool), and the 60 morsels on the pool.
fn measure_idle_phase(workers: usize, iters: u32) -> [f64; 3] {
    const MORSELS: usize = 60;
    const IDLE: Duration = Duration::from_micros(250);
    let pool = WorkerPool::new(workers.saturating_sub(1));
    let column: Vec<i64> = (0..(MORSELS * MORSEL_ROWS) as i64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1000)
        .collect();
    let median = |sched: Scheduler<'_>| {
        let mut samples: Vec<f64> = (0..iters)
            .map(|_| {
                std::thread::sleep(IDLE);
                let t0 = Instant::now();
                let sel = run_morsels(sched, column.len(), |r| {
                    r.filter(|&i| column[i] < 10)
                        .map(|i| i as u32)
                        .collect::<Vec<u32>>()
                });
                std::hint::black_box(sel);
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let on = |parallelism, pool| Scheduler { parallelism, pool };
    [
        median(on(1, None)),
        median(on(workers, None)),
        median(on(workers, Some(&pool))),
    ]
}

/// The same phase under the retired execution model — spawn `workers`
/// scoped threads, claim morsels off an atomic counter, join — so the
/// JSON records what the pool is being compared against.
fn measure_spawn_baseline(workers: usize, iters: u32) -> f64 {
    let total = MORSEL_ROWS * min_parallel_morsels();
    let morsels = morsel_count(total);
    let mut wall = Duration::ZERO;
    for _ in 0..iters {
        let t0 = Instant::now();
        let next = std::sync::atomic::AtomicUsize::new(0);
        // tidy:allow(no-raw-spawn): measures the retired spawn-per-phase baseline
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut claimed = 0usize;
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= morsels {
                            break;
                        }
                        claimed += MORSEL_ROWS.min(total - i * MORSEL_ROWS);
                    }
                    std::hint::black_box(claimed);
                });
            }
        });
        wall += t0.elapsed();
    }
    wall.as_nanos() as f64 / f64::from(iters)
}

fn join(build: Option<PhysicalPlan>, reuse: Option<ReuseSpec>) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("fact"))),
        build: build.map(Box::new),
        probe_key: "fact.f_key".into(),
        build_key: "dim.d_key".into(),
        reuse,
        publish: None,
    }
}

fn main() {
    assert_engine_shard_routing();
    let smoke = smoke();
    let n: i64 = if smoke { 20_000 } else { 150_000 };
    let iters = 8;
    let worker_counts = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    header("Exp 8: morsel-driven intra-query parallelism (Fig. 9 operator mix)");
    println!(
        "dim rows {n}, fact rows {}, {iters} iterations/mix, {cores} cores, smoke={smoke}",
        n * 4
    );

    let cat = synth(n);
    let htm = HtManager::new(GcConfig::default());
    // One persistent pool shared by every worker count below — exactly the
    // engine's execution model (a Database owns one pool for all sessions).
    // Sized for the largest count in the sweep (the caller participates,
    // so W workers need W-1 pool threads).
    let pool = WorkerPool::new(worker_counts.iter().max().unwrap() - 1);

    // Warm the cache once: the exact-reuse and subsuming-reuse legs of the
    // mix probe this table (read-only shared checkouts, any worker count).
    let fp = dim_fingerprint(Region::all());
    {
        let warm = PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(ScanSpec {
                table: "fact".into(),
                region: Region::empty(),
                projection: vec![],
            })),
            build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("dim")))),
            probe_key: "fact.f_key".into(),
            build_key: "dim.d_key".into(),
            reuse: None,
            publish: Some(fp.clone()),
        };
        let mut ctx = ExecContext::new(&cat, &htm).with_parallelism(1);
        execute(&warm, &mut ctx).expect("warm-up");
    }
    let cand = htm.candidates(&fp).remove(0);

    // The Fig. 9 operator mix.
    let scan_pred = PredBox::all().with(
        "dim.d_attr",
        Interval::closed(Value::Int(0), Value::Int(499)),
    );
    let narrow = PredBox::all().with(
        "dim.d_attr",
        Interval::closed(Value::Int(0), Value::Int(249)),
    );
    // (name, build_bound, plan): the build-bound entries isolate the
    // partitioned parallel build — an empty probe side (pure join build)
    // and a fresh aggregate (all insert/update work, no probe at all).
    let mix: Vec<(&str, bool, PhysicalPlan)> = vec![
        (
            "scan",
            false,
            PhysicalPlan::Scan(ScanSpec::filtered("dim", scan_pred)),
        ),
        (
            "fresh_join",
            false,
            join(Some(PhysicalPlan::Scan(ScanSpec::full("dim"))), None),
        ),
        (
            "exact_reuse_probe",
            false,
            join(
                None,
                Some(ReuseSpec {
                    id: cand.id,
                    case: ReuseCase::Exact,
                    post_filter: None,
                    request_region: Region::all(),
                    cached_region: cand.fingerprint.region.clone(),
                    schema: cand.schema.clone(),
                }),
            ),
        ),
        (
            "subsuming_reuse_filter",
            false,
            join(
                None,
                Some(ReuseSpec {
                    id: cand.id,
                    case: ReuseCase::Subsuming,
                    post_filter: Some(narrow.clone()),
                    request_region: Region::from_box(narrow),
                    cached_region: cand.fingerprint.region.clone(),
                    schema: cand.schema.clone(),
                }),
            ),
        ),
        (
            "join_build_bound",
            true,
            // Build-dominated, but with a *chain-order-observable* output:
            // the build keys on d_attr (n/1000 duplicates per key), and the
            // small probe slice emits each key's matches in collision-chain
            // order — so the divergence digest would catch a build whose
            // chain layout varied with the worker count. An empty probe
            // would leave the build unobservable here.
            PhysicalPlan::HashJoin {
                probe: Box::new(PhysicalPlan::Scan(
                    ScanSpec::filtered(
                        "dim",
                        PredBox::all().with(
                            "dim.d_attr",
                            Interval::closed(Value::Int(0), Value::Int(20)),
                        ),
                    )
                    .project(&["dim.d_attr"]),
                )),
                build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("dim")))),
                probe_key: "dim.d_attr".into(),
                build_key: "dim.d_attr".into(),
                reuse: None,
                publish: None,
            },
        ),
        (
            "agg_build_bound",
            true,
            PhysicalPlan::HashAggregate {
                input: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("dim")))),
                group_by: vec!["dim.d_attr".into()],
                aggs: vec![
                    AggExpr::new(AggFunc::Sum, "dim.d_key"),
                    AggExpr::new(AggFunc::Count, "dim.d_key"),
                ],
                output_aggs: vec![OutputAgg::Direct(0), OutputAgg::Direct(1)],
                reuse: None,
                publish: None,
                post_group_by: None,
            },
        ),
    ];

    // Per-plan digest of the full output — row contents *and* order — so a
    // determinism regression that preserves cardinality still fails here.
    // FNV-1a via StableHasher, so digests are also comparable across runs
    // and processes (DefaultHasher is seeded per process).
    fn digest(rows: &[hashstash_types::Row]) -> (usize, u64) {
        use std::hash::{Hash, Hasher};
        let mut h = hashstash_types::StableHasher::new();
        for r in rows {
            r.hash(&mut h);
        }
        (rows.len(), h.finish())
    }

    // Divergence — across worker counts *or* across iterations of one
    // worker count — is a hard error (recorded in the JSON, then exit 1),
    // in smoke mode and full mode alike.
    let mut reference: Option<Vec<(usize, u64)>> = None;
    let mut divergences: Vec<String> = Vec::new();
    let mut wall: Vec<Vec<Duration>> = vec![Vec::new(); worker_counts.len()];
    let mut build_wall: Vec<Vec<Duration>> = vec![Vec::new(); worker_counts.len()];
    // Worker counts are *interleaved* across iterations (1, 2, 4, 8, 1, 2,
    // …) rather than measured in contiguous blocks, so slow drift —
    // frequency scaling, page-cache warming, a noisy neighbour — lands on
    // every count equally instead of biasing whole rows. Iteration 0 warms
    // every count untimed (its outputs still feed the divergence check).
    // Reported wall times are the *median* over iterations: a neighbour
    // burst that lands inside one iteration inflates the mean of whichever
    // worker count it hit, while the median simply discards it.
    for iter in 0..=iters {
        for (w, &workers) in worker_counts.iter().enumerate() {
            let mut iter_wall = Duration::ZERO;
            let mut iter_build = Duration::ZERO;
            let mut digests = Vec::with_capacity(mix.len());
            for (name, build_bound, plan) in &mix {
                let t0 = Instant::now();
                let mut ctx = ExecContext::new(&cat, &htm)
                    .with_parallelism(workers)
                    .with_pool(&pool);
                let (_, rows) = execute(plan, &mut ctx).expect(name);
                let dt = t0.elapsed();
                iter_wall += dt;
                if *build_bound {
                    iter_build += dt;
                }
                if std::env::var("EXP8_LEGS").is_ok() {
                    eprintln!("LEG {workers} {name} {:.1}", dt.as_secs_f64() * 1e6);
                }
                digests.push(digest(&rows));
            }
            if iter > 0 {
                wall[w].push(iter_wall);
                build_wall[w].push(iter_build);
            }
            // One check covers both divergence shapes (cross-worker and
            // cross-iteration): the reference is the first pass of the
            // serial interpreter, so each event is reported exactly once.
            match &reference {
                None => reference = Some(digests),
                Some(want) if want != &digests => divergences.push(format!(
                    "{workers} workers, iteration {iter}: output diverged from the \
                     serial reference (1 worker, warm-up pass)"
                )),
                Some(_) => {}
            }
        }
    }
    fn median(samples: &[Duration]) -> Duration {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) && mid > 0 {
            (sorted[mid - 1] + sorted[mid]) / 2
        } else {
            sorted[mid]
        }
    }
    let mut rows_table: Vec<(usize, f64, f64, f64, f64)> = worker_counts
        .iter()
        .enumerate()
        .map(|(w, &workers)| {
            (
                workers,
                ms(median(&wall[w])),
                0.0,
                ms(median(&build_wall[w])),
                0.0,
            )
        })
        .collect();
    let serial_ms = rows_table[0].1;
    let serial_build_ms = rows_table[0].3;
    for row in &mut rows_table {
        row.2 = serial_ms / row.1;
        row.4 = serial_build_ms / row.3;
    }
    for (workers, wall, speedup, build_wall, build_speedup) in &rows_table {
        println!(
            "{workers:>2} workers: {wall:>10.2} ms (speedup {speedup:>5.2}×)  |  \
             build-bound {build_wall:>10.2} ms (speedup {build_speedup:>5.2}×)"
        );
    }
    let at_4 = rows_table.iter().find(|r| r.0 == 4);
    let speedup_at_4 = at_4.map(|r| r.2).unwrap_or(0.0);
    let build_speedup_at_4 = at_4.map(|r| r.4).unwrap_or(0.0);
    let deterministic = divergences.is_empty();

    // Per-phase dispatch overhead: warm pool vs the retired
    // spawn-per-phase model, at the sweep's midpoint worker count.
    let dispatch_iters = if smoke { 64 } else { 512 };
    let (dispatch_cold, dispatch_warm) = measure_pool_dispatch(4, dispatch_iters);
    let spawn_baseline = measure_spawn_baseline(4, dispatch_iters);
    let dispatch_improvement = spawn_baseline / dispatch_warm.max(1.0);
    println!(
        "\nper-phase dispatch (4 workers): pool cold {:.1} µs, pool warm {:.1} µs, \
         spawn-per-phase baseline {:.1} µs ({dispatch_improvement:.1}× lower warm)",
        dispatch_cold / 1_000.0,
        dispatch_warm / 1_000.0,
        spawn_baseline / 1_000.0
    );

    let idle_iters = if smoke { 32 } else { 128 };
    let [idle_chunk, idle_inline, idle_pool] = measure_idle_phase(2, idle_iters);
    println!(
        "60-morsel phase after 250 µs idle (2 workers, median): one chunk inline {:.1} µs, \
         60 morsels inline {:.1} µs, on the pool {:.1} µs",
        idle_chunk / 1_000.0,
        idle_inline / 1_000.0,
        idle_pool / 1_000.0
    );

    let results: Vec<String> = rows_table
        .iter()
        .map(|(workers, wall, speedup, build_wall, build_speedup)| {
            format!(
                "    {{\"workers\": {workers}, \"wall_ms\": {wall:.3}, \"speedup\": {speedup:.3}, \
                 \"build_wall_ms\": {build_wall:.3}, \"build_speedup\": {build_speedup:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"smoke\": {smoke},\n  \"dim_rows\": {n},\n  \"fact_rows\": {},\n  \"iterations\": {iters},\n  \"available_cores\": {cores},\n  \"operator_mix\": [\"scan\", \"fresh_join\", \"exact_reuse_probe\", \"subsuming_reuse_filter\", \"join_build_bound\", \"agg_build_bound\"],\n  \"build_bound_mix\": [\"join_build_bound\", \"agg_build_bound\"],\n  \"deterministic\": {deterministic},\n  \"speedup_at_4_workers\": {speedup_at_4:.3},\n  \"build_speedup_at_4_workers\": {build_speedup_at_4:.3},\n  \"dispatch\": {{\"workers\": 4, \"pool_cold_ns\": {dispatch_cold:.0}, \"pool_warm_ns\": {dispatch_warm:.0}, \"spawn_baseline_ns\": {spawn_baseline:.0}, \"warm_improvement\": {dispatch_improvement:.1}}},\n  \"idle_phase\": {{\"workers\": 2, \"morsels\": 60, \"idle_us\": 250, \"one_chunk_inline_ns\": {idle_chunk:.0}, \"morsels_inline_ns\": {idle_inline:.0}, \"pool_ns\": {idle_pool:.0}}},\n  \"results\": [\n{}\n  ]\n}}\n",
        n * 4,
        results.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_parallel.json").expect("write results");
    f.write_all(json.as_bytes()).unwrap();
    println!("\nwrote BENCH_parallel.json");

    if !deterministic {
        for d in &divergences {
            eprintln!("DIVERGENCE: {d}");
        }
        eprintln!(
            "ERROR: parallel execution diverged from the serial interpreter \
             ({} case(s)) — failing hard",
            divergences.len()
        );
        std::process::exit(1);
    }

    if cores >= 4 && speedup_at_4 < 2.0 {
        println!(
            "WARNING: 4-worker speedup {speedup_at_4:.2}× below the 2× target on a {cores}-core machine"
        );
    } else if cores < 4 {
        println!(
            "NOTE: only {cores} core(s) visible — wall-clock speedup is hardware-bound; \
             determinism and scheduling overhead are still exercised"
        );
    }
}
