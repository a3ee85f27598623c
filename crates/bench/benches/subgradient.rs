//! Benchmarks of the Lagrangian machinery: dual ascent, one subgradient
//! phase, and the greedy heuristics, across cyclic-core sizes.

use cover::CoverMatrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use ucp_core::dual::dual_ascent;
use ucp_core::greedy::{lagrangian_greedy, GammaRule};
use ucp_core::{subgradient_ascent_with, SubgradientOptions};
use ucp_telemetry::NoopProbe;
use workloads::circulant;

fn bench_lagrangian(c: &mut Criterion) {
    let mut group = c.benchmark_group("lagrangian");
    group.sample_size(15);
    for &n in &[51usize, 201, 801] {
        let m: CoverMatrix = circulant(n, 2);
        group.bench_with_input(BenchmarkId::new("dual_ascent", n), &m, |b, m| {
            b.iter(|| black_box(dual_ascent(m, m.costs(), None).value))
        });
        group.bench_with_input(BenchmarkId::new("greedy_linear", n), &m, |b, m| {
            b.iter(|| black_box(lagrangian_greedy(m, m.costs(), GammaRule::Linear)))
        });
        group.bench_with_input(BenchmarkId::new("greedy_occurrence", n), &m, |b, m| {
            b.iter(|| black_box(lagrangian_greedy(m, m.costs(), GammaRule::Occurrence)))
        });
        let opts = SubgradientOptions {
            max_iters: 100,
            ..SubgradientOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("subgradient_100", n), &m, |b, m| {
            b.iter(|| {
                black_box(subgradient_ascent_with(m, &opts, None, None, None, &mut NoopProbe).lb)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lagrangian);
criterion_main!(benches);
