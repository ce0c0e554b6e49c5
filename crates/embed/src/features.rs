//! Hashed feature extraction for FastText-style models.

use rcacopilot_textkit::ngram::{for_each_char_ngram_hash, for_each_word_ngram_hash};
use rcacopilot_textkit::normalize::{mask_entities, normalize, tokenize};
use serde::{Deserialize, Serialize};

/// Turns raw text into hashed feature-bucket indices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Number of hash buckets (rows of the embedding table).
    pub buckets: usize,
    /// Minimum character n-gram length.
    pub min_n: usize,
    /// Maximum character n-gram length.
    pub max_n: usize,
    /// Maximum word n-gram order (1 = unigrams only).
    pub word_ngrams: usize,
    /// Whether to mask per-incident entities before tokenizing.
    pub mask: bool,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            buckets: 1 << 15,
            min_n: 3,
            max_n: 5,
            word_ngrams: 2,
            mask: true,
        }
    }
}

impl FeatureExtractor {
    /// Extracts the bucket indices of all features of `text`.
    ///
    /// Features: word n-grams up to `word_ngrams`, plus character n-grams
    /// of each word (FastText's subword trick). Duplicates are kept —
    /// frequency matters for the averaged representation.
    ///
    /// Each n-gram is hashed from byte slices of its tokens
    /// ([`for_each_word_ngram_hash`], [`for_each_char_ngram_hash`])
    /// rather than built as a string; ids and their order equal
    /// `bucket_of` over `word_ngrams` and `char_ngrams`.
    pub fn extract(&self, text: &str) -> Vec<usize> {
        let canon = if self.mask {
            normalize(&mask_entities(text))
        } else {
            normalize(text)
        };
        let tokens = tokenize(&canon);
        let buckets = self.buckets as u64;
        let mut out = Vec::with_capacity(tokens.len() * 6);
        let mut push = |h: u64| out.push((h % buckets) as usize);
        for_each_word_ngram_hash(&tokens, self.word_ngrams, &mut push);
        for tok in &tokens {
            // Placeholders (<machine>, <num>, ...) carry no subword signal.
            if tok.starts_with('<') {
                continue;
            }
            for_each_char_ngram_hash(tok, self.min_n, self.max_n, &mut push);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_is_deterministic_and_in_range() {
        let fx = FeatureExtractor::default();
        let a = fx.extract("UDP socket count exhausted on NAMPR03FD0001");
        let b = fx.extract("UDP socket count exhausted on NAMPR03FD0001");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|&i| i < fx.buckets));
    }

    #[test]
    fn masking_makes_machine_names_irrelevant() {
        let fx = FeatureExtractor::default();
        let a = fx.extract("probe failed on NAMPR03FD0001 with WinSock 11001");
        let b = fx.extract("probe failed on EURPR07FD0002 with WinSock 11001");
        assert_eq!(a, b, "masked machine names must not change features");
        let fx_raw = FeatureExtractor {
            mask: false,
            ..FeatureExtractor::default()
        };
        let c = fx_raw.extract("probe failed on NAMPR03FD0001 with WinSock 11001");
        let d = fx_raw.extract("probe failed on EURPR07FD0002 with WinSock 11001");
        assert_ne!(c, d);
    }

    #[test]
    fn similar_texts_share_features() {
        let fx = FeatureExtractor::default();
        let a: std::collections::BTreeSet<usize> = fx
            .extract("TenantSettingsNotFoundException in journaling")
            .into_iter()
            .collect();
        let b: std::collections::BTreeSet<usize> = fx
            .extract("TenantSettingsNotFoundException in submission")
            .into_iter()
            .collect();
        let c: std::collections::BTreeSet<usize> =
            fx.extract("UDP hub ports exhausted").into_iter().collect();
        let ab = a.intersection(&b).count();
        let ac = a.intersection(&c).count();
        assert!(
            ab > ac * 2,
            "related texts should share more buckets ({ab} vs {ac})"
        );
    }

    #[test]
    fn empty_text_yields_no_features() {
        let fx = FeatureExtractor::default();
        assert!(fx.extract("").is_empty());
        assert!(fx.extract("   \n\t ").is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rcacopilot_textkit::ngram::{bucket_of, char_ngrams, word_ngrams};

    /// `extract` as string n-grams: the definition the hashed path must
    /// reproduce id for id.
    fn extract_by_strings(fx: &FeatureExtractor, text: &str) -> Vec<usize> {
        let canon = if fx.mask {
            normalize(&mask_entities(text))
        } else {
            normalize(text)
        };
        let tokens = tokenize(&canon);
        let mut out: Vec<usize> = word_ngrams(&tokens, fx.word_ngrams)
            .iter()
            .map(|g| bucket_of(g, fx.buckets))
            .collect();
        for tok in tokens.iter().filter(|t| !t.starts_with('<')) {
            for gram in char_ngrams(tok, fx.min_n, fx.max_n) {
                out.push(bucket_of(&gram, fx.buckets));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn extract_matches_the_string_ngram_reference(
            words in proptest::collection::vec(
                proptest::sample::select(vec![
                    "NAMPR03FD0001", "11/21/2022", "2:04:20", "3fa85f64-5717", "203736",
                    "System.IO.IOException", "port=25", "<machine>", "WinSock", "a",
                ]),
                0..8,
            ),
            noise in "[a-zA-Z0-9 _.:/=<>()\u{e9}\u{3a3}-]{0,80}",
            mask in proptest::sample::select(vec![false, true]),
            min_n in 1usize..5,
            span in 0usize..4,
            word_ngrams in 1usize..=3,
            buckets in 1usize..5000,
        ) {
            let fx = FeatureExtractor {
                buckets,
                min_n,
                max_n: min_n + span,
                word_ngrams,
                mask,
            };
            let text = format!("{} {noise}", words.join(" "));
            prop_assert_eq!(fx.extract(&text), extract_by_strings(&fx, &text));
        }
    }
}
