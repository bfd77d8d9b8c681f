//! An `ExecContext` that was not handed a pool has no workers to borrow:
//! at `parallelism = 4` its phases keep their partitioned shape but run
//! inline on the caller, with output identical to a pooled run — and no
//! thread is ever spawned behind the caller's back. This is the only test
//! in its binary so the OS thread count it samples from `/proc/self/task`
//! (Linux) is not perturbed by sibling tests.

use std::time::{Duration, Instant};

use hashstash_cache::HtManager;
use hashstash_exec::plan::{OutputAgg, PhysicalPlan, ScanSpec};
use hashstash_exec::{execute, ExecContext, ExecMetrics, WorkerPool, MIN_PARALLEL_BUILD_ROWS};
use hashstash_plan::{AggExpr, AggFunc};
use hashstash_storage::tpch::{generate, TpchConfig};
use hashstash_storage::Catalog;
use hashstash_types::Row;

/// Threads in this process, per the kernel (`None` off Linux).
fn os_thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// The thread count once it has held still for 10 ms (waiting at most
/// 1 s): a harness thread that started or ended around the test's start
/// may still be coming or going in `/proc/self/task`.
fn settled_thread_count() -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut last = os_thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = os_thread_count();
        if now == last || Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// A fresh join and a fresh aggregate, both over inputs large enough that
/// the morsel fan-out and the partitioned builds engage at `parallelism > 1`.
fn plans() -> Vec<PhysicalPlan> {
    vec![
        PhysicalPlan::HashJoin {
            probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("orders"))),
            build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("customer")))),
            probe_key: "orders.o_custkey".into(),
            build_key: "customer.c_custkey".into(),
            reuse: None,
            publish: None,
        },
        PhysicalPlan::HashAggregate {
            input: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("orders")))),
            group_by: vec!["orders.o_custkey".into()],
            aggs: vec![AggExpr::new(AggFunc::Sum, "orders.o_totalprice")],
            output_aggs: vec![OutputAgg::Direct(0)],
            reuse: None,
            publish: None,
            post_group_by: None,
        },
    ]
}

fn run_all(cat: &Catalog, pool: Option<&WorkerPool>) -> Vec<(Vec<Row>, ExecMetrics)> {
    let htm = HtManager::unbounded();
    plans()
        .iter()
        .map(|plan| {
            let mut ctx = ExecContext::new(cat, &htm).with_parallelism(4);
            if let Some(pool) = pool {
                ctx = ctx.with_pool(pool);
            }
            let (_, rows) = execute(plan, &mut ctx).expect("plan executes");
            (rows.into_vec(), ctx.metrics)
        })
        .collect()
}

#[test]
fn pool_less_context_runs_inline_with_pooled_output() {
    let cat = generate(TpchConfig::new(0.03, 11));
    assert!(cat.get("customer").unwrap().row_count() >= MIN_PARALLEL_BUILD_ROWS);

    let before = settled_thread_count();
    let inline = run_all(&cat, None);
    assert_eq!(
        os_thread_count(),
        before,
        "a pool-less context spawns no threads"
    );

    let pool = WorkerPool::new(3);
    let pooled = run_all(&cat, Some(&pool));
    assert!(pool.jobs_dispatched() > 0, "the pooled run fanned out");
    drop(pool);
    // `WorkerPool::drop` joins its workers, but the kernel lists a joined
    // thread until it reaps the task, so poll for at most a second; a
    // detached worker never leaves and still fails.
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut after = os_thread_count();
    while after != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        after = os_thread_count();
    }
    assert_eq!(after, before, "the explicit pool joined");

    assert_eq!(inline, pooled, "rows (order included) and metrics");
}
