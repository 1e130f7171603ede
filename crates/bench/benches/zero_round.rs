//! Criterion bench: planning and running the 0-round testers (E3/E4)
//! and the asymmetric threshold tester (E5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_core::asymmetric::{AsymmetricThresholdTester, CostVector};
use dut_core::zero_round::{AndNetworkTester, ThresholdNetworkTester};
use dut_distributions::DiscreteDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_round_plan");
    group.bench_function("threshold_exact_150k", |b| {
        b.iter(|| {
            black_box(ThresholdNetworkTester::plan(1 << 20, 150_000, 0.5, 1.0 / 3.0).unwrap())
        })
    });
    group.bench_function("and_rule_4096", |b| {
        b.iter(|| black_box(AndNetworkTester::plan(1 << 20, 4096, 0.5, 1.0 / 3.0).unwrap()))
    });
    group.finish();
}

fn bench_network_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_round_run");
    group.sample_size(10);
    let n = 1 << 16;
    for &k in &[10_000usize, 40_000] {
        if let Ok(tester) = ThresholdNetworkTester::plan(n, k, 1.0, 1.0 / 3.0) {
            let uniform = DiscreteDistribution::uniform(n);
            group.bench_with_input(BenchmarkId::new("threshold", k), &k, |b, _| {
                let mut rng = StdRng::seed_from_u64(5);
                b.iter(|| black_box(tester.run(&uniform, &mut rng)))
            });
        }
    }
    // The `mc_estimate` shape: §4.2's asymmetric threshold tester on
    // E5's uniform costs, one network run per iteration.
    let n = 1 << 20;
    let k = 150_000;
    let asym = AsymmetricThresholdTester::plan(n, &CostVector::uniform(k), 0.5, 1.0 / 3.0).unwrap();
    let uniform = DiscreteDistribution::uniform(n);
    group.bench_with_input(BenchmarkId::new("asymmetric_run", k), &k, |b, _| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| black_box(asym.run(&uniform, &mut rng)))
    });
    group.finish();
}

criterion_group!(benches, bench_planning, bench_network_run);
criterion_main!(benches);
