//! Wall-clock comparison of all partitioners across sizes — the Table 2
//! CPU row and the §5 O(n²) claim, under Criterion's statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fhp_baselines::{FiducciaMattheyses, KernighanLin, SimulatedAnnealing};
use fhp_bench::{bench_instance, SIZES};
use fhp_core::{Algorithm1, Bipartitioner, Multilevel, PartitionConfig};
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    // This file was previously named `scaling`; that name now belongs to
    // the large-instance pair-cap/zero-allocation bench.
    let mut group = c.benchmark_group("partitioners");
    group.sample_size(10);
    for &n in &SIZES {
        let h = bench_instance(n);
        group.bench_with_input(BenchmarkId::new("alg1_single", n), &h, |b, h| {
            let p = Algorithm1::new(PartitionConfig::new().seed(1));
            b.iter(|| black_box(p.run(h).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("alg1_paper50", n), &h, |b, h| {
            let p = Algorithm1::new(PartitionConfig::paper().seed(1));
            b.iter(|| black_box(p.run(h).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("fm", n), &h, |b, h| {
            let p = FiducciaMattheyses::new(1);
            b.iter(|| black_box(p.bipartition(h).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("kl", n), &h, |b, h| {
            let p = KernighanLin::new(1);
            b.iter(|| black_box(p.bipartition(h).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("sa_fast", n), &h, |b, h| {
            let p = SimulatedAnnealing::fast(1);
            b.iter(|| black_box(p.bipartition(h).expect("valid")))
        });
        group.bench_with_input(BenchmarkId::new("multilevel", n), &h, |b, h| {
            let p = Multilevel::new(1);
            b.iter(|| black_box(p.bipartition(h).expect("valid")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
