//! Criterion bench: code construction, encoding (E8 substrate) and
//! Justesen decoding against the retained reference decoder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_ecc::justesen::reference;
use dut_ecc::{BinaryCode, JustesenCode, RandomLinearCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc_encode");
    for &k in &[256usize, 4096] {
        let linear = RandomLinearCode::rate_one_third(k, 15);
        let words = k.div_ceil(64);
        let mut rng = StdRng::seed_from_u64(16);
        let msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("random_linear", k), &k, |b, _| {
            b.iter(|| black_box(linear.encode(&msg)))
        });
    }
    let justesen = JustesenCode::rate_one_third(8);
    let words = justesen.input_bits().div_ceil(64);
    let mut rng = StdRng::seed_from_u64(17);
    let msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    group.bench_function("justesen_m8", |b| {
        b.iter(|| black_box(justesen.encode(&msg)))
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc_construct");
    group.bench_function("random_linear_4096", |b| {
        b.iter(|| black_box(RandomLinearCode::rate_one_third(4096, 18)))
    });
    group.bench_function("justesen_m10", |b| {
        b.iter(|| black_box(JustesenCode::rate_one_third(10)))
    });
    group.finish();
}

/// Times `fast` and `reference` in alternating batches and prints the
/// median of the per-round time ratios, so host-speed drift hits both
/// sides alike.
fn print_speedup(id: &str, mut fast: impl FnMut(), mut reference: impl FnMut()) {
    const ROUNDS: usize = 11;
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..20 {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| time(&mut reference) / time(&mut fast))
        .collect();
    ratios.sort_by(f64::total_cmp);
    println!(
        "{id:<48} speed-up: {:.1}x (reference / fast, median of {ROUNDS} interleaved rounds)",
        ratios[ROUNDS / 2]
    );
}

fn bench_decoding(c: &mut Criterion) {
    // m = 5 is the instance every robust CONGEST message travels in.
    let code = JustesenCode::rate_one_third(5);
    let radius = code.certified_correction_radius();
    let mut rng = StdRng::seed_from_u64(19);
    let mut msg: Vec<u64> = (0..code.input_bits().div_ceil(64))
        .map(|_| rng.gen())
        .collect();
    let last = msg.len() - 1;
    msg[last] &= u64::MAX >> (msg.len() * 64 - code.input_bits());
    let clean = code.encode(&msg);
    let mut group = c.benchmark_group("ecc_decode");
    for (row, flips) in [
        ("clean", 0),
        ("1_flip", 1),
        ("radius_flips", radius),
        ("beyond_radius", 3 * radius),
    ] {
        let mut word = clean.clone();
        let mut bits: Vec<usize> = (0..code.output_bits()).collect();
        for i in 0..flips {
            let j = rng.gen_range(i..bits.len());
            bits.swap(i, j);
            word[bits[i] / 64] ^= 1 << (bits[i] % 64);
        }
        group.bench_function(BenchmarkId::new("justesen_m5", row), |b| {
            b.iter(|| black_box(code.decode(&word)))
        });
        group.bench_function(BenchmarkId::new("reference_m5", row), |b| {
            b.iter(|| black_box(reference::decode(&code, &word)))
        });
        print_speedup(
            &format!("ecc_decode/speedup_m5/{row}"),
            || drop(black_box(code.decode(&word))),
            || drop(black_box(reference::decode(&code, &word))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_construction, bench_decoding);
criterion_main!(benches);
