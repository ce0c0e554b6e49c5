//! The end-to-end RCACopilot pipeline (paper Figure 4, right half).

use crate::retrieval::{HistoricalEntry, HistoricalIndex, HistoryView, RetrievalConfig};
use rcacopilot_embed::{FastTextConfig, FastTextModel};
use rcacopilot_handlers::RunDegradation;
use rcacopilot_llm::prompt::{PredictionPrompt, PromptOption, CONTEXT_TOKENS};
use rcacopilot_llm::{CotEngine, ModelProfile, Summarizer};
use rcacopilot_telemetry::time::SimTime;
use rcacopilot_textkit::bpe::BpeTokenizer;
use rcacopilot_textkit::ngram::hash_token;
use serde::{Deserialize, Serialize};

/// One training example for the prediction stage.
#[derive(Debug, Clone)]
pub struct TrainExample {
    /// Raw collected diagnostic text ("original incident information" —
    /// what the paper embeds for nearest-neighbor search).
    pub raw_diag: String,
    /// Demonstration text shown in prompts (normally the summary).
    pub demo_text: String,
    /// Ground-truth category.
    pub category: String,
    /// Occurrence time.
    pub at: SimTime,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RcaCopilotConfig {
    /// Simulated LLM capability profile.
    pub profile: ModelProfile,
    /// Retrieval parameters (K, α).
    pub retrieval: RetrievalConfig,
    /// Embedding model hyperparameters.
    pub embedding: FastTextConfig,
    /// Seed of the LLM's noise stream (varied per round in §5.6).
    pub llm_seed: u64,
    /// Embeddings are L2-normalized and multiplied by this scale before
    /// entering the similarity formula. The scale balances the spatial
    /// term `1/(1+‖a−b‖)` against the temporal decay `e^(−α·Δt)`: unit
    /// vectors alone span distances of at most 2, which a few days of
    /// decay would always override.
    pub embedding_scale: f64,
}

impl Default for RcaCopilotConfig {
    fn default() -> Self {
        RcaCopilotConfig {
            profile: ModelProfile::Gpt4,
            retrieval: RetrievalConfig::default(),
            embedding: FastTextConfig {
                dim: 64,
                epochs: 30,
                lr: 0.35,
                ..FastTextConfig::default()
            },
            llm_seed: 1,
            embedding_scale: 12.0,
        }
    }
}

/// How the pipeline embeds incident text.
#[derive(Debug, Clone)]
pub enum Embedder {
    /// The trained FastText model (the paper's choice).
    FastText(Box<FastTextModel>),
    /// A generic, untrained LM-style embedding: hashed character trigrams
    /// pseudo-randomly projected to `dim` dimensions. This is the
    /// "GPT-4 Embed." baseline — plausible semantics, no domain training.
    GenericLm {
        /// Embedding dimension.
        dim: usize,
    },
}

impl Embedder {
    /// Embeds one text.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        match self {
            Embedder::FastText(m) => m.embed(text),
            Embedder::GenericLm { dim } => generic_lm_embedding(text, *dim),
        }
    }
}

/// L2-normalizes a vector and multiplies it by `scale`; zero vectors pass
/// through unchanged.
fn scaled(mut v: Vec<f32>, scale: f64) -> Vec<f32> {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        let factor = scale as f32 / norm;
        for x in &mut v {
            *x *= factor;
        }
    }
    v
}

/// Hashed-trigram random-projection embedding (no training), with the
/// *anisotropy* of real general-purpose LM embeddings: a dominant shared
/// bias direction compresses pairwise distances between arbitrary
/// documents into a narrow band, so the spatial similarity term carries
/// little domain signal — exactly the failure mode behind the paper's
/// weak "GPT-4 Embed." row.
pub fn generic_lm_embedding(text: &str, dim: usize) -> Vec<f32> {
    /// Relative magnitude of the shared bias component.
    const ANISOTROPY: f32 = 60.0;
    let canon = rcacopilot_textkit::normalize::normalize(text);
    let chars: Vec<char> = canon.chars().collect();
    let mut v = vec![0.0f32; dim];
    if chars.len() < 3 {
        return v;
    }
    let mut count = 0f32;
    for w in chars.windows(3) {
        let g: String = w.iter().collect();
        let h = hash_token(&g);
        let d = (h % dim as u64) as usize;
        let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[d] += sign;
        count += 1.0;
    }
    if count > 0.0 {
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        // Shared bias direction: alternating unit pattern common to all
        // documents.
        for (i, x) in v.iter_mut().enumerate() {
            let b = if i % 2 == 0 { 1.0 } else { -1.0 };
            *x += ANISOTROPY * b / (dim as f32).sqrt();
        }
    }
    v
}

/// The pipeline's answer for one incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcaPrediction {
    /// Predicted category (or synthesized new-category label).
    pub label: String,
    /// True when the LLM chose "Unseen incident".
    pub unseen: bool,
    /// The LLM's confidence in the chosen option, downgraded in
    /// proportion to diagnostic completeness when collection degraded.
    pub confidence: f64,
    /// Natural-language explanation.
    pub explanation: String,
    /// Categories of the retrieved demonstrations, in prompt order.
    pub demo_categories: Vec<String>,
    /// Completeness of the diagnostics behind this prediction (`1.0`
    /// when collection saw no faults).
    pub completeness: f64,
}

/// The trained RCACopilot prediction stage.
#[derive(Debug, Clone)]
pub struct RcaCopilot {
    config: RcaCopilotConfig,
    embedder: Embedder,
    index: HistoricalIndex,
    summarizer: Summarizer,
    tokenizer: BpeTokenizer,
}

impl RcaCopilot {
    /// Trains the full stage: FastText embedder on the raw diagnostics,
    /// then the historical index over the training incidents.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty.
    pub fn train(examples: &[TrainExample], config: RcaCopilotConfig) -> Self {
        assert!(!examples.is_empty(), "training set must not be empty");
        let pairs: Vec<(String, String)> = examples
            .iter()
            .map(|e| (e.raw_diag.clone(), e.category.clone()))
            .collect();
        let embedder = Embedder::FastText(Box::new(FastTextModel::train(
            &pairs,
            config.embedding.clone(),
        )));
        Self::train_with_embedder(examples, embedder, config)
    }

    /// Trains the stage around a caller-provided embedder (used by the
    /// GPT-4 Embed. baseline and by ablations that share one embedder).
    pub fn train_with_embedder(
        examples: &[TrainExample],
        embedder: Embedder,
        config: RcaCopilotConfig,
    ) -> Self {
        assert!(!examples.is_empty(), "training set must not be empty");
        let mut index = HistoricalIndex::new();
        for (i, e) in examples.iter().enumerate() {
            index.add(HistoricalEntry {
                id: i,
                category: e.category.clone(),
                summary: e.demo_text.clone(),
                at: e.at,
                embedding: scaled(embedder.embed(&e.raw_diag), config.embedding_scale),
            });
        }
        // Token accounting uses a BPE tokenizer fitted on the demo corpus.
        let corpus: Vec<String> = examples.iter().map(|e| e.demo_text.clone()).collect();
        let tokenizer = BpeTokenizer::train(&corpus, 800);
        RcaCopilot {
            config,
            embedder,
            index,
            summarizer: Summarizer::default(),
            tokenizer,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RcaCopilotConfig {
        &self.config
    }

    /// The summarizer used for diagnostic compression.
    pub fn summarizer(&self) -> &Summarizer {
        &self.summarizer
    }

    /// Number of indexed historical incidents.
    pub fn history_len(&self) -> usize {
        self.index.len()
    }

    /// The historical index (read access, e.g. for inspection tooling).
    pub fn index(&self) -> &HistoricalIndex {
        &self.index
    }

    /// Embeds text exactly as retrieval does (normalized and scaled).
    pub fn embed_scaled(&self, text: &str) -> Vec<f32> {
        scaled(self.embedder.embed(text), self.config.embedding_scale)
    }

    /// Predicts with the configured retrieval parameters.
    pub fn predict(&self, raw_diag: &str, input_text: &str, at: SimTime) -> RcaPrediction {
        self.predict_with(raw_diag, input_text, at, &self.config.retrieval)
    }

    /// Predicts with explicit retrieval parameters (Figure 12 sweeps).
    ///
    /// `raw_diag` drives the embedding/nearest-neighbor search (the
    /// paper's "original incident information"); `input_text` is the
    /// prompt input (normally the summarized diagnostics).
    pub fn predict_with(
        &self,
        raw_diag: &str,
        input_text: &str,
        at: SimTime,
        retrieval: &RetrievalConfig,
    ) -> RcaPrediction {
        self.predict_impl(
            raw_diag,
            input_text,
            at,
            retrieval,
            &RunDegradation::default(),
        )
    }

    /// Predicts from degraded diagnostics: when the collection stage ran
    /// under faults (`degradation.completeness() < 1.0`), the prompt is
    /// annotated with a data-completeness warning and the returned
    /// confidence is downgraded in proportion to completeness.
    ///
    /// With a fault-free degradation record this is exactly
    /// [`RcaCopilot::predict`] — same prompt bytes, same answer.
    pub fn predict_degraded(
        &self,
        raw_diag: &str,
        input_text: &str,
        at: SimTime,
        degradation: &RunDegradation,
    ) -> RcaPrediction {
        self.predict_impl(
            raw_diag,
            input_text,
            at,
            &self.config.retrieval,
            degradation,
        )
    }

    fn predict_impl(
        &self,
        raw_diag: &str,
        input_text: &str,
        at: SimTime,
        retrieval: &RetrievalConfig,
        degradation: &RunDegradation,
    ) -> RcaPrediction {
        let query = self.embed_scaled(raw_diag);
        self.predict_from_query(&self.index, &query, input_text, at, retrieval, degradation)
    }

    /// The retrieval + prompting + LLM stages, decoupled from embedding
    /// and from this pipeline's own frozen index.
    ///
    /// This is the per-incident stage surface the online serving engine
    /// composes: `query` is a scaled embedding (normally
    /// [`RcaCopilot::embed_scaled`] of the raw diagnostics, possibly
    /// memoized), and `history` is whichever [`HistoryView`] should
    /// answer retrieval — the trained index, or an epoch snapshot of an
    /// incrementally growing one. Calling this with `self.index()` and a
    /// freshly embedded query is exactly [`RcaCopilot::predict`].
    pub fn predict_from_query(
        &self,
        history: &dyn HistoryView,
        query: &[f32],
        input_text: &str,
        at: SimTime,
        retrieval: &RetrievalConfig,
        degradation: &RunDegradation,
    ) -> RcaPrediction {
        let neighbors = history.top_k_diverse(query, at, retrieval);
        let mut prompt = PredictionPrompt::new(
            input_text,
            neighbors
                .iter()
                .map(|n| PromptOption {
                    summary: n.entry.summary.as_str().into(),
                    category: n.entry.category.as_str().into(),
                })
                .collect(),
        );
        let completeness = degradation.completeness();
        if completeness < 1.0 {
            prompt.degradation_note = Some(format!(
                "{}; treat missing evidence as unknown rather than absent.",
                degradation.summary()
            ));
        }
        prompt.truncate_to_budget(&self.tokenizer, CONTEXT_TOKENS);
        let engine = CotEngine::new(self.config.profile, self.config.llm_seed);
        let pred = engine.predict(&prompt);
        let mut confidence = pred.confidence;
        let mut explanation = pred.explanation;
        if completeness < 1.0 {
            // Partial evidence cannot support full confidence: scale it
            // down and say so, mirroring how an OCE hedges a diagnosis
            // made from incomplete telemetry.
            confidence *= completeness;
            explanation.push_str(&format!(
                " Note: diagnostics were incomplete ({}); confidence downgraded to reflect \
                 completeness {:.0}%.",
                degradation.summary(),
                completeness * 100.0
            ));
        }
        // Predictions outlive the run (engine records, reports), so they
        // keep no spare capacity: the explanation drops `format!`'s
        // slack, and the categories are collected fresh rather than in
        // place over the options' larger allocation.
        explanation.shrink_to_fit();
        RcaPrediction {
            label: pred.label,
            unseen: pred.unseen,
            confidence,
            explanation,
            demo_categories: prompt
                .options
                .iter()
                .map(|o| o.category.to_string())
                .collect(),
            completeness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(cat: &str, day: u64, text: &str) -> TrainExample {
        TrainExample {
            raw_diag: format!("{text} with routine noise accepted connection heartbeat ok"),
            demo_text: text.to_string(),
            category: cat.to_string(),
            at: SimTime::from_days(day),
        }
    }

    fn training_set() -> Vec<TrainExample> {
        let mut out = Vec::new();
        for d in 0..6 {
            out.push(example(
                "HubPortExhaustion",
                40 + d,
                "DatacenterHubOutboundProxyProbe failed WinSock error 11001 Total UDP socket count 15276 Transport.exe",
            ));
            out.push(example(
                "FullDisk",
                60 + d,
                "System.IO.IOException not enough space on the disk processes crashed DiagnosticsLog",
            ));
            out.push(example(
                "InvalidJournaling",
                80 + d,
                "TenantSettingsNotFoundException JournalingReportNdrTo invalid submission queue over limit",
            ));
        }
        out
    }

    fn quick_config() -> RcaCopilotConfig {
        RcaCopilotConfig {
            embedding: FastTextConfig {
                dim: 24,
                epochs: 10,
                lr: 0.4,
                features: rcacopilot_embed::FeatureExtractor {
                    buckets: 1 << 12,
                    ..rcacopilot_embed::FeatureExtractor::default()
                },
                ..FastTextConfig::default()
            },
            ..RcaCopilotConfig::default()
        }
    }

    #[test]
    fn pipeline_predicts_recurring_category() {
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        assert_eq!(copilot.history_len(), 18);
        let pred = copilot.predict(
            "DatacenterHubOutboundProxyProbe failed twice WinSock error 11001 UDP socket count 14800 Transport.exe noise here",
            "The DatacenterHubOutboundProxyProbe failed twice with WinSock error 11001; total UDP socket count 14800 mostly Transport.exe.",
            SimTime::from_days(47),
        );
        assert_eq!(pred.label, "HubPortExhaustion");
        assert!(!pred.unseen);
        assert!(pred
            .demo_categories
            .contains(&"HubPortExhaustion".to_string()));
        assert!(!pred.explanation.is_empty());
    }

    #[test]
    fn demonstrations_come_from_distinct_categories() {
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        let pred = copilot.predict(
            "System.IO.IOException not enough space disk crash",
            "System.IO.IOException: not enough space on the disk; crashes observed.",
            SimTime::from_days(62),
        );
        let mut cats = pred.demo_categories.clone();
        cats.sort();
        cats.dedup();
        assert_eq!(cats.len(), pred.demo_categories.len());
    }

    #[test]
    fn unseen_incident_synthesizes_label() {
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        let pred = copilot.predict(
            "KRB_AP_ERR_SKEW clock skew too great Kerberos authentication retries latency",
            "KRB_AP_ERR_SKEW: clock skew too great between client and KDC; retries inflate latency.",
            SimTime::from_days(100),
        );
        assert!(pred.unseen, "confidence {}", pred.confidence);
        assert!(!pred.label.is_empty());
        assert!(pred.explanation.contains("unseen"));
    }

    #[test]
    fn alpha_zero_vs_high_changes_recency_preference() {
        // Two categories with *identical* diagnostic text, one old, one
        // recent: only the temporal term can separate them.
        let examples = vec![
            example("OldCategory", 10, "IdenticalSignatureException replicated"),
            example("NewCategory", 99, "IdenticalSignatureException replicated"),
        ];
        let copilot = RcaCopilot::train(&examples, quick_config());
        let pred_decayed = copilot.predict_with(
            "IdenticalSignatureException replicated noise",
            "IdenticalSignatureException replicated.",
            SimTime::from_days(100),
            &RetrievalConfig { k: 1, alpha: 0.3 },
        );
        assert_eq!(
            pred_decayed.demo_categories,
            vec!["NewCategory".to_string()]
        );
    }

    #[test]
    fn predictions_keep_no_spare_capacity() {
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        let degraded = RunDegradation {
            sections_total: 4,
            sections_failed: 1,
            sources_failed: vec!["probes".into()],
            ..RunDegradation::default()
        };
        for degradation in [RunDegradation::default(), degraded] {
            let pred = copilot.predict_degraded(
                "DatacenterHubOutboundProxyProbe failed WinSock error 11001 UDP socket count",
                "The probe failed with WinSock error 11001.",
                SimTime::from_days(47),
                &degradation,
            );
            assert!(pred.demo_categories.len() > 1);
            assert_eq!(pred.demo_categories.capacity(), pred.demo_categories.len());
            assert_eq!(pred.explanation.capacity(), pred.explanation.len());
        }
    }

    #[test]
    fn zero_query_embedding_answers_alike_on_frozen_and_warm_views() {
        use crate::retrieval::ShardedHistoricalIndex;
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        let zero = vec![0.0f32; copilot.index().entries()[0].embedding.len()];
        let warm = ShardedHistoricalIndex::warm(copilot.index().entries(), 2, 4).snapshot();
        let cfg = copilot.config().retrieval;
        let at = SimTime::from_days(47);
        let none = RunDegradation::default();
        for input in [
            "The probe failed with WinSock error 11001.",
            "not enough space on the disk",
            "",
        ] {
            let frozen = copilot.predict_from_query(copilot.index(), &zero, input, at, &cfg, &none);
            let online = copilot.predict_from_query(&warm, &zero, input, at, &cfg, &none);
            assert_eq!(frozen, online, "input {input:?}");
            assert_eq!(frozen.demo_categories.len(), 3);
            if input.is_empty() {
                assert!(frozen.unseen, "an empty input matches nothing");
            }
        }
    }

    #[test]
    fn empty_summaries_with_zero_embeddings_answer_unseen() {
        let copilot = RcaCopilot::train(&training_set(), quick_config());
        let dim = copilot.index().entries()[0].embedding.len();
        let mut blank = HistoricalIndex::new();
        for (id, category) in ["HubPortExhaustion", "FullDisk", "InvalidJournaling"]
            .into_iter()
            .enumerate()
        {
            blank.add(HistoricalEntry {
                id,
                category: category.to_string(),
                summary: String::new(),
                at: SimTime::from_days(40 + id as u64),
                embedding: vec![0.0; dim],
            });
        }
        let input = "DatacenterHubOutboundProxyProbe failed WinSock error 11001";
        for query in [vec![0.0; dim], copilot.embed_scaled(input)] {
            let pred = copilot.predict_from_query(
                &blank,
                &query,
                input,
                SimTime::from_days(47),
                &copilot.config().retrieval,
                &RunDegradation::default(),
            );
            assert!(pred.unseen, "{pred:?}");
            assert_eq!(pred.demo_categories.len(), 3);
        }
    }

    #[test]
    fn generic_lm_embedding_is_deterministic_and_normalized() {
        let a = generic_lm_embedding("udp socket exhausted", 32);
        let b = generic_lm_embedding("udp socket exhausted", 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>();
        assert!(norm > 0.0);
        let short = generic_lm_embedding("ab", 32);
        assert!(short.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_panics() {
        let _ = RcaCopilot::train(&[], quick_config());
    }
}
