//! Criterion version of Figure 9a: a reuse-aware hash join executed fresh
//! (never-share) versus with an exact-reuse cached table, at two scales.
//! The exact-reuse path must win by roughly the build-side cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hashstash_cache::{ColumnHt, GcConfig, HtManager, StoredHt};
use hashstash_exec::plan::{PhysicalPlan, ReuseSpec, ScanSpec};
use hashstash_exec::{default_parallelism, execute, ExecContext, WorkerPool};
use hashstash_plan::{HtFingerprint, HtKind, Region, ReuseCase};
use hashstash_storage::{Catalog, TableBuilder};
use hashstash_types::{DataType, Field, Row, Schema, Value};
use std::sync::Arc;

fn synth(n: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut b = TableBuilder::new("dim", vec![("d_key", DataType::Int)]);
    for i in 0..n {
        b.push_row(vec![Value::Int(i)]);
    }
    cat.register(b.finish());
    let mut f = TableBuilder::new("fact", vec![("f_key", DataType::Int)]);
    for i in 0..n * 4 {
        f.push_row(vec![Value::Int(i % n)]);
    }
    cat.register(f.finish());
    cat
}

fn fingerprint() -> HtFingerprint {
    HtFingerprint {
        kind: HtKind::JoinBuild,
        tables: std::iter::once(Arc::from("dim")).collect(),
        edges: vec![],
        region: Region::all(),
        key_attrs: vec![Arc::from("dim.d_key")],
        payload_attrs: vec![Arc::from("dim.d_key")],
        aggregates: vec![],
    }
}

fn fresh_plan() -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("fact"))),
        build: Some(Box::new(PhysicalPlan::Scan(ScanSpec::full("dim")))),
        probe_key: "fact.f_key".into(),
        build_key: "dim.d_key".into(),
        reuse: None,
        publish: None,
    }
}

fn benches(c: &mut Criterion) {
    // `ExecContext::new` takes its worker count from `PARALLELISM`; give it
    // the pool workers to match.
    let pool = WorkerPool::new(default_parallelism() - 1);
    let mut group = c.benchmark_group("fig9/join");
    for &n in &[10_000i64, 50_000] {
        let cat = synth(n);
        group.bench_with_input(BenchmarkId::new("never_share", n), &n, |b, _| {
            let plan = fresh_plan();
            b.iter(|| {
                let htm = HtManager::new(GcConfig::default());
                let mut ctx = ExecContext::new(&cat, &htm).with_pool(&pool);
                execute(&plan, &mut ctx).unwrap().1.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("exact_reuse", n), &n, |b, _| {
            // Pre-build the cached table once.
            let mut ht = ColumnHt::with_capacity(8, &[DataType::Int], n as usize);
            for i in 0..n {
                ht.insert(i as u64, &Row::new(vec![Value::Int(i)])).unwrap();
            }
            let schema = Schema::new(vec![Field::new("dim.d_key", DataType::Int)]);
            b.iter_batched(
                || {
                    let htm = HtManager::new(GcConfig::default());
                    let id = htm.publish(fingerprint(), schema.clone(), StoredHt::Rows(ht.clone()));
                    (htm, id)
                },
                |(htm, id)| {
                    let plan = PhysicalPlan::HashJoin {
                        probe: Box::new(PhysicalPlan::Scan(ScanSpec::full("fact"))),
                        build: None,
                        probe_key: "fact.f_key".into(),
                        build_key: "dim.d_key".into(),
                        reuse: Some(ReuseSpec {
                            id,
                            case: ReuseCase::Exact,
                            post_filter: None,
                            request_region: Region::all(),
                            cached_region: Region::all(),
                            schema: schema.clone(),
                        }),
                        publish: None,
                    };
                    let mut ctx = ExecContext::new(&cat, &htm).with_pool(&pool);
                    execute(&plan, &mut ctx).unwrap().1.len()
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = fig9;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(fig9);
