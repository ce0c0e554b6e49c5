//! Benchmark set-up: the standard campaign, collected and summarized,
//! and the trained pipeline — timed part by part.

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{Embedder, RcaCopilotConfig};
use rcacopilot::core::{ContextSpec, RcaCopilot};
use rcacopilot::embed::FastTextModel;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident};
use rcacopilot::textkit::bpe::BpeTokenizer;
use std::sync::Arc;
use std::time::Instant;

/// Campaign seed of the standard 653-incident dataset.
pub const CAMPAIGN_SEED: u64 = 42;
/// Seed of the 75/25 train/test split.
pub const SPLIT_SEED: u64 = 7;
/// Training fraction of the split.
pub const TRAIN_FRAC: f64 = 0.75;
/// Vocabulary size `RcaCopilot::train_with_embedder` fits its prompt
/// tokenizer to. The traced pass refits an identical tokenizer, because
/// the pipeline keeps its own private.
pub const PROMPT_VOCAB: usize = 800;

/// Wall seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimings {
    /// Generate the campaign, split it, collect and summarize it.
    pub prepare_s: f64,
    /// Train the FastText embedder.
    pub embed_train_s: f64,
    /// Build the historical index and fit the prompt tokenizer.
    pub index_s: f64,
}

impl SetupTimings {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.prepare_s + self.embed_train_s + self.index_s
    }
}

/// A trained pipeline plus the incidents the workloads stream.
pub struct Setup {
    /// The trained pipeline, shared by every engine of a run.
    pub copilot: Arc<RcaCopilot>,
    /// The test-split incidents, in campaign order.
    pub test: Vec<Incident>,
    /// The demonstration texts the prompt tokenizer was fitted on.
    pub demo_corpus: Vec<String>,
    /// How long each part took.
    pub timings: SetupTimings,
}

impl Setup {
    /// Runs the full set-up with the default pipeline configuration.
    pub fn build() -> Self {
        let t0 = Instant::now();
        let dataset = generate_dataset(&CampaignConfig {
            seed: CAMPAIGN_SEED,
            ..CampaignConfig::default()
        });
        let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
        let prepared = PreparedDataset::prepare(&dataset, &split);
        let examples = prepared.train_examples(&ContextSpec::default());
        let prepare_s = t0.elapsed().as_secs_f64();

        let config = RcaCopilotConfig::default();
        let t1 = Instant::now();
        let pairs: Vec<(String, String)> = examples
            .iter()
            .map(|e| (e.raw_diag.clone(), e.category.clone()))
            .collect();
        let model = FastTextModel::train(&pairs, config.embedding.clone());
        let embed_train_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let copilot =
            RcaCopilot::train_with_embedder(&examples, Embedder::FastText(Box::new(model)), config);
        let index_s = t2.elapsed().as_secs_f64();

        Setup {
            copilot: Arc::new(copilot),
            test: split
                .test
                .iter()
                .map(|&i| dataset.incidents()[i].clone())
                .collect(),
            demo_corpus: examples.into_iter().map(|e| e.demo_text).collect(),
            timings: SetupTimings {
                prepare_s,
                embed_train_s,
                index_s,
            },
        }
    }

    /// Refits the pipeline's prompt tokenizer from outside, returning it
    /// and the wall seconds the fit took.
    pub fn fit_tokenizer(&self) -> (BpeTokenizer, f64) {
        let t0 = Instant::now();
        let tokenizer = BpeTokenizer::train(&self.demo_corpus, PROMPT_VOCAB);
        (tokenizer, t0.elapsed().as_secs_f64())
    }
}
