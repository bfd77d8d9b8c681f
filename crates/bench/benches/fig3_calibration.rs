//! Criterion version of the paper's Figure 3 micro-benchmarks: per-tuple
//! insert / probe / update costs across hash-table sizes and tuple widths,
//! plus a probe group with a hit-rate axis — Fig. 3 probes only keys that
//! are present, which says nothing about the selective probes (a filtered
//! dimension probed by a whole fact table) the directory's tag filter is
//! for. `cargo bench --bench fig3_calibration -- fig3/probe_hit_rate` runs
//! that group alone; add `--test` for a one-sample smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hashstash_hashtable::ExtendibleHashTable;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn filled<const W: usize>(target_bytes: usize) -> (ExtendibleHashTable<[u8; W]>, Vec<u64>) {
    let n = (target_bytes / (W + 12)).max(16);
    let mut ht = ExtendibleHashTable::with_capacity(W, n);
    let mut seed = 0xdead_beefu64;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let k = splitmix(&mut seed);
        ht.insert(k, [0u8; W]);
        keys.push(k);
    }
    (ht, keys)
}

fn bench_width<const W: usize>(c: &mut Criterion) {
    let sizes = [32 << 10, 1 << 20, 16 << 20];
    let mut group = c.benchmark_group(format!("fig3/width_{W}B"));
    for &size in &sizes {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("insert", size), &size, |b, &s| {
            let (ht, _) = filled::<W>(s);
            let mut seed = 0x1111u64;
            b.iter_batched(
                || ht.clone(),
                |mut t| {
                    t.insert(splitmix(&mut seed), [0u8; W]);
                    t
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("probe", size), &size, |b, &s| {
            let (mut ht, keys) = filled::<W>(s);
            let mut seed = 0x2222u64;
            b.iter(|| {
                let k = keys[(splitmix(&mut seed) as usize) % keys.len()];
                ht.probe(k).next().map(|v| v[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("update", size), &size, |b, &s| {
            let (mut ht, keys) = filled::<W>(s);
            let mut seed = 0x3333u64;
            b.iter(|| {
                let k = keys[(splitmix(&mut seed) as usize) % keys.len()];
                if let Some(v) = ht.get_mut(k) {
                    v[0] = v[0].wrapping_add(1);
                }
            });
        });
    }
    group.finish();
}

/// Read-only probes of `PROBES` keys, of which a given share is present,
/// against tables of 2^8 / 2^14 / 2^18 entries: per key as
/// `probe_readonly` (what `hsbench`'s `hashtable.probe_ns_per_row` times),
/// and as the executor's probe spine does it — `filter_keys` over the
/// batch, then `probe_readonly` for the admitted keys only.
fn bench_probe_hit_rate(c: &mut Criterion) {
    const PROBES: usize = 1 << 16;
    let mut group = c.benchmark_group("fig3/probe_hit_rate");
    group.throughput(Throughput::Elements(PROBES as u64));
    for log2_entries in [8u32, 14, 18] {
        let mut seed = 0xfeed_f00du64;
        let mut ht = ExtendibleHashTable::with_capacity(16, 1 << log2_entries);
        let keys: Vec<u64> = (0..1usize << log2_entries)
            .map(|_| splitmix(&mut seed))
            .collect();
        for &k in &keys {
            ht.insert(k, k);
        }
        for hit_pct in [0u64, 1, 10, 100] {
            // Absent keys are fresh 64-bit draws: they collide with a
            // present key with probability 2^-46 at worst.
            let probes: Vec<u64> = (0..PROBES)
                .map(|_| {
                    let r = splitmix(&mut seed);
                    if r % 100 < hit_pct {
                        keys[(r >> 8) as usize % keys.len()]
                    } else {
                        splitmix(&mut seed)
                    }
                })
                .collect();
            let param = format!("2^{log2_entries}/{hit_pct}pct");
            group.bench_with_input(BenchmarkId::new("per_key", &param), &probes, |b, p| {
                b.iter(|| {
                    p.iter()
                        .map(|&k| ht.probe_readonly(k).count())
                        .sum::<usize>()
                });
            });
            group.bench_with_input(BenchmarkId::new("spine", &param), &probes, |b, p| {
                let mut admitted = Vec::with_capacity(1024);
                b.iter(|| {
                    let mut hits = 0usize;
                    for chunk in p.chunks(1024) {
                        admitted.clear();
                        ht.filter_keys(chunk, &mut admitted);
                        for &j in &admitted {
                            hits += ht.probe_readonly(chunk[j as usize]).count();
                        }
                    }
                    hits
                });
            });
        }
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_probe_hit_rate(c);
    bench_width::<8>(c);
    bench_width::<64>(c);
    bench_width::<256>(c);
}

criterion_group! {
    name = fig3;
    config = Criterion::default().sample_size(20);
    targets = benches
}
criterion_main!(fig3);
