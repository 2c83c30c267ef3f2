//! The §4.2 machine-learning pipeline end to end: generate a labelled
//! corpus, train AdaBoost on the Table-2 features, inspect accuracy and
//! the attribute-importance ranking, then plug the model into the staged
//! pipeline as the boundary-case classifier.
//!
//! Run with `cargo run --release --example ml_pipeline`.

use botwall_bench::{build_ml_corpus, CorpusConfig};
use botwall_ml::{evaluate, AdaBoostBoundary, AdaBoostConfig, AdaBoostModel, StagedPipeline};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let (corpus, (humans, robots)) = build_ml_corpus(&CorpusConfig {
        sessions: 400,
        ..CorpusConfig::default()
    });
    println!("corpus: {humans} human / {robots} robot sessions");

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let (train, test) = corpus.split_half(&mut rng);
    let train_set = train.features_at(160, 1);
    let test_set = test.features_at(160, 1);

    let model = AdaBoostModel::train(&train_set, &AdaBoostConfig::default());
    let matrix = evaluate(&model, &test_set);
    println!("\ntest-set confusion:\n{matrix}");

    println!("\nattribute importance:");
    for (attr, w) in model.importance().iter().take(5) {
        println!("  {:<20} {:.3}", attr.name(), w);
    }

    // The trained model becomes the §4.1 boundary stage.
    let pipeline = StagedPipeline::new(AdaBoostBoundary::new(model, 20));
    // No gateway runs it: the stage classifies completed sessions
    // offline, as the `staged` bin's ablation does.
    let _ = &pipeline;
    println!("\nmodel wired into the staged pipeline (fast paths first, ML on boundary cases)");
}
