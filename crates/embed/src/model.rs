//! The supervised FastText model: averaged input embeddings + linear
//! softmax, trained with SGD.

use crate::features::FeatureExtractor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastTextConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to zero).
    pub lr: f64,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
    /// Feature extraction settings.
    pub features: FeatureExtractor,
}

impl Default for FastTextConfig {
    fn default() -> Self {
        FastTextConfig {
            dim: 64,
            epochs: 30,
            lr: 0.35,
            seed: 7,
            features: FeatureExtractor::default(),
        }
    }
}

/// A trained FastText model: embedding table, output layer, label set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FastTextModel {
    config: FastTextConfig,
    /// Input embeddings, `buckets x dim`, flattened row-major.
    input: Vec<f32>,
    /// Output layer, `labels x dim`, flattened row-major.
    output: Vec<f32>,
    /// Label names, index = class id.
    labels: Vec<String>,
}

impl FastTextModel {
    /// Trains a model on `(text, label)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty.
    pub fn train(examples: &[(String, String)], config: FastTextConfig) -> Self {
        assert!(!examples.is_empty(), "training set must not be empty");
        let mut label_ids: BTreeMap<&str, usize> = BTreeMap::new();
        for (_, label) in examples {
            let next = label_ids.len();
            label_ids.entry(label.as_str()).or_insert(next);
        }
        let labels: Vec<String> = {
            let mut v = vec![String::new(); label_ids.len()];
            for (name, id) in &label_ids {
                v[*id] = (*name).to_string();
            }
            v
        };

        let dim = config.dim;
        let buckets = config.features.buckets;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut input = vec![0.0f32; buckets * dim];
        for w in &mut input {
            *w = rng.gen_range(-0.5..0.5) / (dim as f32).sqrt();
        }
        let mut output = vec![0.0f32; labels.len() * dim];

        // Pre-extract features once. They live through every epoch, so
        // each document keeps an exact-size `u32` slice rather than the
        // push-grown `usize` vector `extract` returns (half the bytes per
        // id, and no spare capacity).
        let docs: Vec<(Box<[u32]>, usize)> = examples
            .iter()
            .map(|(text, label)| {
                let feats = config
                    .features
                    .extract(text)
                    .into_iter()
                    .map(|f| u32::try_from(f).expect("feature bucket ids fit in u32"));
                (feats.collect(), label_ids[label.as_str()])
            })
            .collect();

        let total_steps = (config.epochs * docs.len()).max(1) as f64;
        let mut step = 0f64;
        let mut order: Vec<usize> = (0..docs.len()).collect();
        let mut hidden = vec![0.0f32; dim];
        let mut grad = vec![0.0f32; dim];
        let mut scores = vec![0.0f32; labels.len()];

        for _ in 0..config.epochs {
            // Shuffle example order each epoch.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &di in &order {
                let (feats, target) = &docs[di];
                if feats.is_empty() {
                    step += 1.0;
                    continue;
                }
                let lr = (config.lr * (1.0 - step / total_steps)).max(config.lr * 0.01);
                step += 1.0;

                // Forward: hidden = mean of feature embeddings.
                hidden.iter_mut().for_each(|h| *h = 0.0);
                for &f in feats.iter() {
                    let f = f as usize;
                    let row = &input[f * dim..(f + 1) * dim];
                    for (h, w) in hidden.iter_mut().zip(row) {
                        *h += w;
                    }
                }
                let inv = 1.0 / feats.len() as f32;
                hidden.iter_mut().for_each(|h| *h *= inv);

                // Scores and softmax.
                for (li, s) in scores.iter_mut().enumerate() {
                    let row = &output[li * dim..(li + 1) * dim];
                    *s = hidden.iter().zip(row).map(|(h, w)| h * w).sum();
                }
                softmax(&mut scores);

                // Backward.
                grad.iter_mut().for_each(|g| *g = 0.0);
                for (li, &p) in scores.iter().enumerate() {
                    let err = (p - if li == *target { 1.0 } else { 0.0 }) * lr as f32;
                    let row = &mut output[li * dim..(li + 1) * dim];
                    for d in 0..dim {
                        grad[d] += err * row[d];
                        row[d] -= err * hidden[d];
                    }
                }
                let scale = inv;
                for &f in feats.iter() {
                    let f = f as usize;
                    let row = &mut input[f * dim..(f + 1) * dim];
                    for d in 0..dim {
                        row[d] -= grad[d] * scale;
                    }
                }
            }
        }

        FastTextModel {
            config,
            input,
            output,
            labels,
        }
    }

    /// The label set, index = class id.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Embeds `text` as the averaged input embedding (the hidden state).
    /// Returns the zero vector for featureless text.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let dim = self.config.dim;
        let feats = self.config.features.extract(text);
        let mut hidden = vec![0.0f32; dim];
        if feats.is_empty() {
            return hidden;
        }
        for &f in &feats {
            let row = &self.input[f * dim..(f + 1) * dim];
            for (h, w) in hidden.iter_mut().zip(row) {
                *h += w;
            }
        }
        let inv = 1.0 / feats.len() as f32;
        hidden.iter_mut().for_each(|h| *h *= inv);
        hidden
    }

    /// Class probabilities for `text`, aligned with [`FastTextModel::labels`].
    pub fn predict_proba(&self, text: &str) -> Vec<f32> {
        let dim = self.config.dim;
        let hidden = self.embed(text);
        let mut scores: Vec<f32> = (0..self.labels.len())
            .map(|li| {
                let row = &self.output[li * dim..(li + 1) * dim];
                hidden.iter().zip(row).map(|(h, w)| h * w).sum()
            })
            .collect();
        softmax(&mut scores);
        scores
    }

    /// The most likely label and its probability.
    pub fn predict(&self, text: &str) -> (&str, f32) {
        let probs = self.predict_proba(text);
        let (best, p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .expect("at least one label");
        (&self.labels[best], *p)
    }
}

fn softmax(scores: &mut [f32]) {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    if sum > 0.0 {
        for s in scores.iter_mut() {
            *s /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_training_set() -> Vec<(String, String)> {
        let mut out = Vec::new();
        for i in 0..12 {
            out.push((
                format!("UDP socket count exhausted hub ports WinSock 11001 case {i}"),
                "HubPortExhaustion".to_string(),
            ));
            out.push((
                format!("disk full IOException no space left volume case {i}"),
                "FullDisk".to_string(),
            ));
            out.push((
                format!("TenantSettingsNotFoundException journaling invalid config case {i}"),
                "InvalidJournaling".to_string(),
            ));
        }
        out
    }

    fn small_config() -> FastTextConfig {
        FastTextConfig {
            dim: 32,
            epochs: 40,
            lr: 0.5,
            seed: 3,
            features: FeatureExtractor {
                buckets: 1 << 12,
                ..FeatureExtractor::default()
            },
        }
    }

    #[test]
    fn model_learns_separable_classes() {
        let model = FastTextModel::train(&toy_training_set(), small_config());
        assert_eq!(model.labels().len(), 3);
        let (label, p) = model.predict("WinSock 11001 UDP socket exhausted on hub");
        assert_eq!(label, "HubPortExhaustion");
        assert!(p > 0.5, "confidence {p}");
        let (label, _) = model.predict("IOException: there is not enough space on the disk");
        assert_eq!(label, "FullDisk");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let model = FastTextModel::train(&toy_training_set(), small_config());
        let probs = model.predict_proba("journaling config invalid");
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn embeddings_cluster_by_topic() {
        let model = FastTextModel::train(&toy_training_set(), small_config());
        let a = model.embed("UDP socket exhausted WinSock hub ports");
        let b = model.embed("hub ports exhausted socket count WinSock");
        let c = model.embed("disk full IOException space");
        let d2 =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum() };
        assert!(d2(&a, &b) < d2(&a, &c), "same-topic embeddings closer");
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let model = FastTextModel::train(&toy_training_set(), small_config());
        let z = model.embed("");
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn training_is_deterministic() {
        let m1 = FastTextModel::train(&toy_training_set(), small_config());
        let m2 = FastTextModel::train(&toy_training_set(), small_config());
        assert_eq!(m1.embed("WinSock"), m2.embed("WinSock"));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_training_set_panics() {
        let _ = FastTextModel::train(&[], small_config());
    }
}
