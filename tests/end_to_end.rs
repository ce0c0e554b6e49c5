//! End-to-end integration: campaign → collection → summarization →
//! retrieval → prediction, across every workspace crate.

use rcacopilot::core::context::ContextSpec;
use rcacopilot::core::eval::{evaluate_method, Method, PreparedDataset};
use rcacopilot::core::pipeline::{Embedder, RcaCopilot, RcaCopilotConfig};
use rcacopilot::embed::{FastTextConfig, FastTextModel, FeatureExtractor};
use rcacopilot::llm::ModelProfile;
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Topology};

/// A reduced campaign + pipeline configuration so debug-mode test runs
/// stay fast while still exercising every stage.
fn small_setup() -> (PreparedDataset, RcaCopilotConfig) {
    let dataset = generate_dataset(&CampaignConfig {
        seed: 42,
        topology: Topology::new(2, 6, 3, 3),
        noise: NoiseProfile {
            routine_logs: 8,
            herring_logs: 2,
            healthy_traces: 3,
            unrelated_failure: true,
            bystander_anomalies: 2,
        },
    });
    let split = dataset.split(7, 0.75);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let config = RcaCopilotConfig {
        embedding: FastTextConfig {
            dim: 32,
            epochs: 6,
            lr: 0.35,
            features: FeatureExtractor {
                buckets: 1 << 13,
                ..FeatureExtractor::default()
            },
            ..FastTextConfig::default()
        },
        ..RcaCopilotConfig::default()
    };
    (prepared, config)
}

#[test]
fn pipeline_beats_trivial_baselines_end_to_end() {
    let (prepared, config) = small_setup();
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), config);

    let gold: Vec<String> = prepared.test_gold();
    let preds: Vec<String> = prepared
        .test
        .iter()
        .map(|&i| {
            let inc = &prepared.incidents[i];
            copilot
                .predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at)
                .label
        })
        .collect();
    let f1 = rcacopilot::core::metrics::f1_scores(&gold, &preds);

    // Majority-class accuracy on this dataset is ~4% (27/653); the
    // pipeline must be far above it even with the reduced config.
    assert!(
        f1.micro_f1 > 0.45,
        "end-to-end micro-F1 too low: {}",
        f1.micro_f1
    );
    assert!(f1.macro_f1 > 0.30, "macro-F1 too low: {}", f1.macro_f1);
}

#[test]
fn predictions_are_deterministic_given_seeds() {
    let (prepared, config) = small_setup();
    let spec = ContextSpec::default();
    let copilot_a = RcaCopilot::train(&prepared.train_examples(&spec), config.clone());
    let copilot_b = RcaCopilot::train(&prepared.train_examples(&spec), config);
    for &i in prepared.test.iter().take(25) {
        let inc = &prepared.incidents[i];
        let a = copilot_a.predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at);
        let b = copilot_b.predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at);
        assert_eq!(a.label, b.label, "nondeterministic prediction at {i}");
        assert_eq!(a.explanation, b.explanation);
    }
}

#[test]
fn every_prediction_carries_an_explanation_and_demos_or_unseen() {
    let (prepared, config) = small_setup();
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), config);
    for &i in prepared.test.iter().take(40) {
        let inc = &prepared.incidents[i];
        let pred = copilot.predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at);
        assert!(!pred.label.is_empty());
        assert!(
            pred.explanation.len() > 40,
            "explanation too thin: {}",
            pred.explanation
        );
        if !pred.unseen {
            assert!(pred.demo_categories.contains(&pred.label));
        }
    }
}

#[test]
fn zero_shot_baseline_runs_through_the_harness() {
    let (prepared, _) = small_setup();
    let report = evaluate_method(&prepared, Method::ZeroShot, 3);
    assert_eq!(report.predictions.len(), prepared.test.len());
    // Zero-shot free-generates keywords; they rarely match OCE labels.
    assert!(report.f1.micro_f1 < 0.2);
}

#[test]
fn gpt4_profile_is_at_least_as_good_as_gpt35_on_average() {
    let (prepared, config) = small_setup();
    let spec = ContextSpec::default();
    let examples = prepared.train_examples(&spec);
    // The copilots differ only in profile and LLM seed, which training
    // never reads: train the FastText embedder once, as
    // `RcaCopilot::train` would, and share it.
    let pairs: Vec<(String, String)> = examples
        .iter()
        .map(|e| (e.raw_diag.clone(), e.category.clone()))
        .collect();
    let fasttext = Embedder::FastText(Box::new(FastTextModel::train(
        &pairs,
        config.embedding.clone(),
    )));
    let mut wins = 0;
    for seed in [1, 2, 3] {
        let mut cfg4 = config.clone();
        cfg4.llm_seed = seed;
        cfg4.profile = ModelProfile::Gpt4;
        let mut cfg35 = config.clone();
        cfg35.llm_seed = seed;
        cfg35.profile = ModelProfile::Gpt35;
        let c4 = RcaCopilot::train_with_embedder(&examples, fasttext.clone(), cfg4);
        let c35 = RcaCopilot::train_with_embedder(&examples, fasttext.clone(), cfg35);
        let gold = prepared.test_gold();
        let p4: Vec<String> = prepared
            .test
            .iter()
            .map(|&i| {
                let inc = &prepared.incidents[i];
                c4.predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at)
                    .label
            })
            .collect();
        let p35: Vec<String> = prepared
            .test
            .iter()
            .map(|&i| {
                let inc = &prepared.incidents[i];
                c35.predict(&inc.raw_diag, &prepared.context_text(i, &spec), inc.at)
                    .label
            })
            .collect();
        let f4 = rcacopilot::core::metrics::f1_scores(&gold, &p4).micro_f1;
        let f35 = rcacopilot::core::metrics::f1_scores(&gold, &p35).micro_f1;
        if f4 >= f35 {
            wins += 1;
        }
    }
    assert!(
        wins >= 2,
        "GPT-4 profile should win most rounds, won {wins}/3"
    );
}
