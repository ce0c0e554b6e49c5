//! A byte-pair-encoding tokenizer — the reproduction's `tiktoken`.
//!
//! The paper uses tiktoken only to *count* tokens (the summarizer's
//! 120–140-word budget, the prompt-length limits) and the simulated LLM
//! needs a stable subword id space. This is a classic BPE trained on a
//! corpus: start from characters, repeatedly merge the most frequent
//! adjacent symbol pair until the target vocabulary size is reached.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// End-of-word marker appended during training/encoding, so that merges do
/// not cross word boundaries and suffixes tokenize consistently.
const EOW: char = '\u{1}';

/// A trained BPE tokenizer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BpeTokenizer {
    /// Symbol table: id → symbol string.
    symbols: Vec<String>,
    /// Reverse lookup: symbol string → id.
    ids: BTreeMap<String, u32>,
    /// Ordered merge rules: (left id, right id) → merged id, by priority.
    merges: HashMap<(u32, u32), (u32, u32)>,
}

impl BpeTokenizer {
    /// Trains a tokenizer on `corpus`, stopping at `vocab_size` symbols or
    /// when no pair occurs at least twice.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is zero.
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        let mut tok = BpeTokenizer::default();

        // Word frequency table over lowercased whitespace words.
        let mut word_freq: BTreeMap<String, u64> = BTreeMap::new();
        for doc in corpus {
            for w in doc.split_whitespace() {
                *word_freq.entry(w.to_lowercase()).or_insert(0) += 1;
            }
        }

        // Seed the symbol table with single characters (+ EOW).
        let mut char_set: Vec<char> = word_freq
            .keys()
            .flat_map(|w| w.chars())
            .collect::<std::collections::BTreeSet<char>>()
            .into_iter()
            .collect();
        char_set.push(EOW);
        for c in char_set {
            tok.intern(c.to_string());
        }

        // Represent each distinct word as a symbol-id sequence.
        let mut words: Vec<(Vec<u32>, u64)> = word_freq
            .iter()
            .map(|(w, f)| {
                let mut seq: Vec<u32> = w.chars().map(|c| tok.ids[&c.to_string()]).collect();
                seq.push(tok.ids[&EOW.to_string()]);
                (seq, *f)
            })
            .collect();

        let mut priority = 0u32;
        while tok.symbols.len() < vocab_size {
            // Count adjacent pairs.
            let mut pair_freq: HashMap<(u32, u32), u64> = HashMap::new();
            for (seq, f) in &words {
                for win in seq.windows(2) {
                    *pair_freq.entry((win[0], win[1])).or_insert(0) += f;
                }
            }
            // Deterministic best pair: max frequency, ties by pair ids.
            let Some((&best_pair, &best_freq)) = pair_freq
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if best_freq < 2 {
                break;
            }
            let merged_sym = format!(
                "{}{}",
                tok.symbols[best_pair.0 as usize], tok.symbols[best_pair.1 as usize]
            );
            let merged_id = tok.intern(merged_sym);
            tok.merges.insert(best_pair, (priority, merged_id));
            priority += 1;

            // Apply the merge to every word.
            for (seq, _) in &mut words {
                let mut out = Vec::with_capacity(seq.len());
                let mut i = 0;
                while i < seq.len() {
                    if i + 1 < seq.len() && (seq[i], seq[i + 1]) == best_pair {
                        out.push(merged_id);
                        i += 2;
                    } else {
                        out.push(seq[i]);
                        i += 1;
                    }
                }
                *seq = out;
            }
        }
        tok
    }

    fn intern(&mut self, sym: String) -> u32 {
        if let Some(&id) = self.ids.get(&sym) {
            return id;
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(sym.clone());
        self.ids.insert(sym, id);
        id
    }

    /// Number of symbols in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.symbols.len()
    }

    /// Encodes `text` into symbol ids. Unknown characters are skipped.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            let lower = word.to_lowercase();
            let mut seq: Vec<u32> = lower
                .chars()
                .filter_map(|c| self.ids.get(&c.to_string()).copied())
                .collect();
            if let Some(&eow) = self.ids.get(&EOW.to_string()) {
                seq.push(eow);
            }
            // Repeatedly apply the highest-priority applicable merge.
            loop {
                let mut best: Option<(u32, usize, u32)> = None; // (priority, pos, merged)
                for (pos, win) in seq.windows(2).enumerate() {
                    if let Some(&(prio, merged)) = self.merges.get(&(win[0], win[1])) {
                        if best.is_none_or(|(bp, _, _)| prio < bp) {
                            best = Some((prio, pos, merged));
                        }
                    }
                }
                let Some((_, pos, merged)) = best else { break };
                seq[pos] = merged;
                seq.remove(pos + 1);
            }
            out.extend(seq);
        }
        out
    }

    /// Number of BPE tokens in `text` — the reproduction's token counter.
    pub fn count_tokens(&self, text: &str) -> usize {
        self.encode(text).len()
    }

    /// An upper bound on [`BpeTokenizer::count_tokens`] that never
    /// encodes: the sum over whitespace words of each word's lowercased
    /// character count plus one.
    ///
    /// [`BpeTokenizer::encode`] starts a word with at most one symbol per
    /// character of its lowercase form (unknown characters are skipped)
    /// plus the end-of-word marker, and every merge shortens it.
    /// `str::to_lowercase` maps each character to exactly as many
    /// characters as `char::to_lowercase` (final sigma included), so the
    /// per-character sum is the lowercase form's length.
    pub fn token_upper_bound(&self, text: &str) -> usize {
        text.split_whitespace()
            .map(|word| {
                let chars = if word.is_ascii() {
                    word.len()
                } else {
                    word.chars().map(|c| c.to_lowercase().len()).sum()
                };
                chars + 1
            })
            .sum()
    }

    /// Decodes ids back to a string (words separated by single spaces).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            if let Some(sym) = self.symbols.get(id as usize) {
                for c in sym.chars() {
                    if c == EOW {
                        out.push(' ');
                    } else {
                        out.push(c);
                    }
                }
            }
        }
        out.trim_end().to_string()
    }

    /// The symbol string of id, if valid.
    pub fn symbol(&self, id: u32) -> Option<&str> {
        self.symbols.get(id as usize).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        vec![
            "the transport process failed failed failed".to_string(),
            "transport process restarted".to_string(),
            "socket socket socket exception in transport".to_string(),
        ]
    }

    #[test]
    fn training_reaches_target_or_exhausts_merges() {
        let tok = BpeTokenizer::train(&corpus(), 200);
        assert!(tok.vocab_size() <= 200);
        assert!(tok.vocab_size() > 20);
    }

    #[test]
    fn frequent_words_compress_to_few_tokens() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let frequent = tok.count_tokens("transport");
        let rare = tok.count_tokens("zzzgibberishzzz");
        assert!(
            frequent < "transport".len(),
            "frequent word should merge below character count, got {frequent}"
        );
        // Rare word stays near character granularity (chars present in corpus).
        assert!(rare >= frequent);
    }

    #[test]
    fn encode_decode_round_trips_known_text() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let text = "transport process failed";
        let ids = tok.encode(text);
        assert_eq!(tok.decode(&ids), text);
    }

    #[test]
    fn unknown_characters_are_skipped_not_panicking() {
        let tok = BpeTokenizer::train(&corpus(), 100);
        let ids = tok.encode("Ω≈ç√ transport");
        assert!(!ids.is_empty());
        assert!(tok.decode(&ids).contains("transport"));
    }

    #[test]
    fn encoding_is_case_insensitive() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        assert_eq!(tok.encode("Transport"), tok.encode("transport"));
    }

    #[test]
    fn count_tokens_is_additive_over_words() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        let a = tok.count_tokens("transport");
        let b = tok.count_tokens("process");
        assert_eq!(tok.count_tokens("transport process"), a + b);
    }

    #[test]
    fn token_upper_bound_counts_lowercased_chars_plus_one_per_word() {
        let tok = BpeTokenizer::train(&corpus(), 300);
        assert_eq!(tok.token_upper_bound(""), 0);
        assert_eq!(tok.token_upper_bound("  transport\tprocess \n"), 10 + 8);
        // `İ` lowercases to two characters; `ΑΣ` ends in final sigma.
        assert_eq!(tok.token_upper_bound("\u{130}x \u{391}\u{3a3}"), 4 + 3);
        for text in ["transport process failed", "Socket EXCEPTION Ω≈ç√", "zzz"] {
            assert!(tok.token_upper_bound(text) >= tok.count_tokens(text));
        }
    }

    #[test]
    #[should_panic(expected = "vocab_size must be positive")]
    fn zero_vocab_panics() {
        let _ = BpeTokenizer::train(&corpus(), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let a = BpeTokenizer::train(&corpus(), 150);
        let b = BpeTokenizer::train(&corpus(), 150);
        assert_eq!(
            a.encode("transport process failed"),
            b.encode("transport process failed")
        );
        assert_eq!(a.vocab_size(), b.vocab_size());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn encode_decode_round_trips_corpus_alphabet(words in proptest::collection::vec("[a-z]{1,8}", 1..8)) {
            let corpus = vec![words.join(" "), "the quick brown fox".to_string()];
            let tok = BpeTokenizer::train(&corpus, 200);
            let text = words.join(" ");
            let ids = tok.encode(&text);
            prop_assert_eq!(tok.decode(&ids), text);
        }

        #[test]
        fn token_upper_bound_never_undercounts(
            words in proptest::collection::vec("[a-z]{1,8}", 1..6),
            text in "[a-zA-Z0-9 \t\n\u{3000}.,_<>\u{391}-\u{3c9}\u{130}\u{1e9e}\u{df}\u{1f600}-]{0,80}",
        ) {
            // A vocabulary from lowercase ASCII words: uppercase folds into
            // it, Greek, emoji and the rest stay outside it, and `Σ` at a
            // word's end lowercases to final sigma.
            let tok = BpeTokenizer::train(&[words.join(" ")], 120);
            prop_assert!(tok.token_upper_bound(&text) >= tok.count_tokens(&text));
            let joined = format!("{} {text}", words.join(" "));
            prop_assert!(tok.token_upper_bound(&joined) >= tok.count_tokens(&joined));
        }

        #[test]
        fn token_count_is_monotone_under_concat(a in "[a-z ]{1,40}", b in "[a-z ]{1,40}") {
            let corpus = vec![a.clone(), b.clone()];
            let tok = BpeTokenizer::train(&corpus, 150);
            let joined = format!("{a} {b}");
            prop_assert!(tok.count_tokens(&joined) <= tok.count_tokens(&a) + tok.count_tokens(&b) + 1);
        }
    }
}
