//! §4.2's stated drawback: ML "requires significant amount of computation
//! and memory". This bench quantifies it: training cost versus rounds and
//! corpus size, and per-session inference cost (which must stay cheap —
//! inference is what the staged pipeline runs online).

use botwall_core::Label;
use botwall_ml::{AdaBoostConfig, AdaBoostModel, Attribute, FeatureVector};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn corpus(n: usize, seed: u64) -> Vec<(FeatureVector, Label)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let robot = rng.gen_bool(0.5);
            let mut x = FeatureVector::zero();
            for i in 0..12 {
                x.0[i] = rng.gen::<f64>() * 0.2;
            }
            if robot {
                x.0[Attribute::CgiPct.index()] += rng.gen_range(0.2..0.8);
                x.0[Attribute::Resp4xxPct.index()] += rng.gen_range(0.1..0.5);
            } else {
                x.0[Attribute::ImagePct.index()] += rng.gen_range(0.2..0.6);
                x.0[Attribute::ReferrerPct.index()] += rng.gen_range(0.3..0.8);
            }
            (x, if robot { Label::Robot } else { Label::Human })
        })
        .collect()
}

fn bench_adaboost(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaboost_train");
    for rounds in [10usize, 50, 200] {
        let data = corpus(500, 1);
        group.bench_with_input(BenchmarkId::new("rounds", rounds), &rounds, |b, &r| {
            b.iter(|| {
                black_box(AdaBoostModel::train(
                    black_box(&data),
                    &AdaBoostConfig { rounds: r },
                ))
            })
        });
    }
    for n in [100usize, 500, 2000] {
        let data = corpus(n, 2);
        group.bench_with_input(BenchmarkId::new("corpus_size", n), &data, |b, data| {
            b.iter(|| {
                black_box(AdaBoostModel::train(
                    black_box(data),
                    &AdaBoostConfig { rounds: 50 },
                ))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("adaboost_classify");
    group.throughput(Throughput::Elements(1));
    let data = corpus(500, 3);
    let model = AdaBoostModel::train(&data, &AdaBoostConfig::default());
    let x = data[0].0;
    group.bench_function("single_vector_200_rounds", |b| {
        b.iter(|| black_box(model.classify(black_box(&x))))
    });
    group.finish();
}

criterion_group!(benches, bench_adaboost);
criterion_main!(benches);
