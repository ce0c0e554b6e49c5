//! A byte-pair-encoding tokenizer — the reproduction's `tiktoken`.
//!
//! The paper uses tiktoken only to *count* tokens (the summarizer's
//! 120–140-word budget, the prompt-length limits) and the simulated LLM
//! needs a stable subword id space. This is a classic BPE trained on a
//! corpus: start from characters, repeatedly merge the most frequent
//! adjacent symbol pair until the target vocabulary size is reached.
//!
//! Training counts every adjacent pair once and then keeps the counts
//! current: a merge rewrites only the words that hold the merged pair and
//! applies the net change of their pair counts, and a max-heap with lazily
//! skipped stale entries finds the next pair. It makes the same choices
//! as recounting every pair before each merge would.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

/// End-of-word marker appended during training/encoding, so that merges do
/// not cross word boundaries and suffixes tokenize consistently.
const EOW: char = '\u{1}';

/// A trained BPE tokenizer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BpeTokenizer {
    /// Symbol table: id → symbol string.
    symbols: Vec<String>,
    /// Reverse lookup: symbol string → id.
    ids: BTreeMap<String, u32>,
    /// Ordered merge rules: (left id, right id) → merged id, by priority.
    merges: HashMap<(u32, u32), (u32, u32)>,
}

/// Each distinct word as a symbol-id sequence, with its corpus frequency.
type WordTable = Vec<(Vec<u32>, u64)>;

impl BpeTokenizer {
    /// Trains a tokenizer on `corpus`, stopping at `vocab_size` symbols or
    /// when no pair occurs at least twice.
    ///
    /// Each merge takes the pair with the highest count, the smallest
    /// `(left, right)` id pair among equal counts.
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` is zero.
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        assert!(vocab_size > 0, "vocab_size must be positive");
        let (mut tok, mut words) = Self::seed(corpus);
        let mut pairs = PairCounts::new(&words);
        let mut priority = 0u32;
        while tok.symbols.len() < vocab_size {
            let Some((best_pair, best_freq)) = pairs.pop_best() else {
                break;
            };
            if best_freq < 2 {
                break;
            }
            let merged_id = tok.merge(best_pair, priority);
            priority += 1;
            pairs.apply_merge(&mut words, best_pair, merged_id);
        }
        tok
    }

    /// The symbol table seeded with every corpus character (plus the
    /// end-of-word marker), and each distinct lowercased whitespace word
    /// of the corpus spelled in those symbols.
    fn seed(corpus: &[String]) -> (Self, WordTable) {
        let mut tok = BpeTokenizer::default();
        let mut word_freq: BTreeMap<String, u64> = BTreeMap::new();
        for doc in corpus {
            for w in doc.split_whitespace() {
                *word_freq.entry(w.to_lowercase()).or_insert(0) += 1;
            }
        }
        let char_set: BTreeSet<char> = word_freq.keys().flat_map(|w| w.chars()).collect();
        for c in char_set.into_iter().chain(std::iter::once(EOW)) {
            tok.intern(c.to_string());
        }
        let id = |c| tok.char_id(c).expect("every corpus character is interned");
        let words = word_freq
            .iter()
            .map(|(w, &f)| (w.chars().chain(std::iter::once(EOW)).map(id).collect(), f))
            .collect();
        (tok, words)
    }

    /// Records the merge of `pair` at `priority` and returns the merged
    /// symbol's id, an existing one when another pair already spelled it.
    fn merge(&mut self, pair: (u32, u32), priority: u32) -> u32 {
        let merged_sym = format!(
            "{}{}",
            self.symbols[pair.0 as usize], self.symbols[pair.1 as usize]
        );
        let merged_id = self.intern(merged_sym);
        self.merges.insert(pair, (priority, merged_id));
        merged_id
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

    /// The id of the one-character symbol `c`, looked up without
    /// allocating a `String`.
    fn char_id(&self, c: char) -> Option<u32> {
        self.ids.get(&*c.encode_utf8(&mut [0u8; 4])).copied()
    }

    /// Number of symbols in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.symbols.len()
    }

    /// Encodes `text` into symbol ids. Unknown characters are skipped.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        let mut rules = Vec::new();
        let eow = self.char_id(EOW);
        for word in text.split_whitespace() {
            let start = out.len();
            out.extend(word.to_lowercase().chars().filter_map(|c| self.char_id(c)));
            out.extend(eow);
            self.apply_merges(&mut out, start, &mut rules);
        }
        out
    }

    /// Repeatedly applies, to `seq[start..]` (one word's symbols), the
    /// highest-priority merge at its leftmost position. Each adjacent
    /// pair's rule is looked up once, and again only next to a merge;
    /// `rules` is scratch space.
    fn apply_merges(&self, seq: &mut Vec<u32>, start: usize, rules: &mut Vec<Option<(u32, u32)>>) {
        let rule = |win: &[u32]| self.merges.get(&(win[0], win[1])).copied();
        rules.clear();
        rules.extend(seq[start..].windows(2).map(rule));
        // (priority, position, merged id) of the next merge.
        while let Some((_, pos, merged)) = rules
            .iter()
            .enumerate()
            .filter_map(|(pos, r)| r.map(|(prio, merged)| (prio, pos, merged)))
            .min()
        {
            let at = start + pos;
            seq[at] = merged;
            seq.remove(at + 1);
            rules.remove(pos);
            if pos < rules.len() {
                rules[pos] = rule(&seq[at..at + 2]);
            }
            if pos > 0 {
                rules[pos - 1] = rule(&seq[at - 1..at + 1]);
            }
        }
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

/// An adjacent symbol pair packed into one `u64`, left id in the high
/// half, so keys order as `(left, right)` tuples do.
fn pair_key(left: u32, right: u32) -> u64 {
    u64::from(left) << 32 | u64::from(right)
}

/// Adjacent-pair counts over a word table, kept current across merges.
struct PairCounts {
    /// Every pair some word holds, with the summed frequency of its
    /// occurrences.
    counts: HashMap<u64, u64>,
    /// The words (indices into the table) that may hold each pair. Every
    /// holder is listed, perhaps twice, beside words that lost the pair.
    holders: HashMap<u64, Vec<u32>>,
    /// `(count, Reverse(pair))` for each count a pair took on: the top is
    /// the highest count, the smallest pair among equal counts. An entry
    /// whose count differs from `counts` is stale.
    heap: BinaryHeap<(u64, Reverse<u64>)>,
}

impl PairCounts {
    fn new(words: &WordTable) -> Self {
        let mut counts = HashMap::new();
        let mut holders: HashMap<u64, Vec<u32>> = HashMap::new();
        for (w, (seq, freq)) in (0u32..).zip(words) {
            for win in seq.windows(2) {
                let key = pair_key(win[0], win[1]);
                *counts.entry(key).or_insert(0) += freq;
                holders.entry(key).or_default().push(w);
            }
        }
        let heap = counts.iter().map(|(&key, &c)| (c, Reverse(key))).collect();
        PairCounts {
            counts,
            holders,
            heap,
        }
    }

    /// Pops the pair with the highest count, the smallest pair among equal
    /// counts, with its count; stale entries on the way are dropped.
    fn pop_best(&mut self) -> Option<((u32, u32), u64)> {
        while let Some((count, Reverse(key))) = self.heap.pop() {
            if self.counts.get(&key) == Some(&count) {
                return Some((((key >> 32) as u32, key as u32), count));
            }
        }
        None
    }

    /// Merges `pair` into `merged` in every word that holds it and applies
    /// the net change of their pair counts.
    fn apply_merge(&mut self, words: &mut WordTable, pair: (u32, u32), merged: u32) {
        let mut holders = self
            .holders
            .remove(&pair_key(pair.0, pair.1))
            .unwrap_or_default();
        holders.sort_unstable();
        holders.dedup();
        let mut delta: HashMap<u64, i64> = HashMap::new();
        let mut sites = Vec::new();
        for w in holders {
            let (seq, freq) = &mut words[w as usize];
            let freq = i64::try_from(*freq).expect("a word frequency fits in i64");
            merge_word(seq, pair, merged, &mut sites, |key, sign| {
                *delta.entry(key).or_insert(0) += sign * freq;
                if sign > 0 {
                    self.holders.entry(key).or_default().push(w);
                }
            });
        }
        for (key, change) in delta {
            if change == 0 {
                continue;
            }
            let count = self.counts.entry(key).or_insert(0);
            *count = count
                .checked_add_signed(change)
                .expect("a pair count never falls below zero");
            if *count == 0 {
                self.counts.remove(&key);
            } else {
                self.heap.push((*count, Reverse(key)));
            }
        }
    }
}

/// Rewrites `seq` as a full recount's merge does, each occurrence of
/// `pair` (left to right, without overlap) becoming `merged`, and reports
/// every adjacent pair the rewrite removes as `change(key, -1)` and every
/// one it adds as `change(key, 1)`. A window that touches no occurrence
/// survives the rewrite unchanged, so only windows next to one are read.
/// `sites` is scratch space.
fn merge_word(
    seq: &mut Vec<u32>,
    pair: (u32, u32),
    merged: u32,
    sites: &mut Vec<usize>,
    mut change: impl FnMut(u64, i64),
) {
    sites.clear();
    let mut i = 0;
    while i + 1 < seq.len() {
        if (seq[i], seq[i + 1]) == pair {
            sites.push(i);
            i += 2;
        } else {
            i += 1;
        }
    }
    if sites.is_empty() {
        return; // a holder that lost the pair to an earlier merge
    }
    // Windows starting at i - 1, i and i + 1 touch the occurrence at i;
    // `next` keeps neighbouring occurrences from reading one twice.
    let mut next = 0;
    for &i in sites.iter() {
        let end = (i + 2).min(seq.len() - 1);
        for s in i.saturating_sub(1).max(next)..end {
            change(pair_key(seq[s], seq[s + 1]), -1);
        }
        next = end;
    }
    // Rewrite in place, moving each site to the merged symbol's position.
    let (mut read, mut write) = (0, 0);
    for site in sites.iter_mut() {
        seq.copy_within(read..*site, write);
        write += *site - read;
        seq[write] = merged;
        read = *site + 2;
        *site = write;
        write += 1;
    }
    seq.copy_within(read.., write);
    seq.truncate(write + seq.len() - read);
    // Windows starting at p - 1 and p touch the merged symbol at p.
    let mut next = 0;
    for &p in sites.iter() {
        let end = (p + 1).min(seq.len() - 1);
        for s in p.saturating_sub(1).max(next)..end {
            change(pair_key(seq[s], seq[s + 1]), 1);
        }
        next = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the trainer that recounts every adjacent pair of every
    /// word before each merge and rewrites every word.
    pub(super) fn reference_train(corpus: &[String], vocab_size: usize) -> BpeTokenizer {
        let (mut tok, mut words) = BpeTokenizer::seed(corpus);
        let mut priority = 0u32;
        while tok.symbols.len() < vocab_size {
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
            let merged_id = tok.merge(best_pair, priority);
            priority += 1;
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

    /// Reference: encoding that looks up every adjacent pair of a word
    /// again after each merge.
    pub(super) fn reference_encode(tok: &BpeTokenizer, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            let lower = word.to_lowercase();
            let mut seq: Vec<u32> = lower
                .chars()
                .filter_map(|c| tok.ids.get(&c.to_string()).copied())
                .collect();
            if let Some(&eow) = tok.ids.get(&EOW.to_string()) {
                seq.push(eow);
            }
            loop {
                let mut best: Option<(u32, usize, u32)> = None; // (priority, pos, merged)
                for (pos, win) in seq.windows(2).enumerate() {
                    if let Some(&(prio, merged)) = tok.merges.get(&(win[0], win[1])) {
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
    fn a_merge_that_spells_an_existing_symbol_reuses_its_id() {
        // Training applies every merge to every word, so no corpus leads
        // two pairs to one symbol; this word table is built by hand: one
        // word already merged `ab`, the other `bc`.
        let (mut tok, _) = BpeTokenizer::seed(&["abc".to_string()]);
        let [a, b, c, eow] = ["a", "b", "c", "\u{1}"].map(|s| tok.ids[s]);
        let ab = tok.merge((a, b), 0);
        let bc = tok.merge((b, c), 1);
        let mut words = vec![(vec![ab, c, eow], 2), (vec![a, bc, eow, a, bc], 3)];
        let mut pairs = PairCounts::new(&words);

        let abc = tok.merge((ab, c), 2);
        pairs.apply_merge(&mut words, (ab, c), abc);
        let vocab = tok.vocab_size();
        assert_eq!(tok.merge((a, bc), 3), abc);
        assert_eq!(tok.vocab_size(), vocab);
        assert_eq!(tok.merges[&(ab, c)], (2, abc));
        assert_eq!(tok.merges[&(a, bc)], (3, abc));

        pairs.apply_merge(&mut words, (a, bc), abc);
        assert_eq!(words, vec![(vec![abc, eow], 2), (vec![abc, eow, abc], 3)]);
        let recount = PairCounts::new(&words);
        assert_eq!(pairs.counts, recount.counts);
        assert_eq!(pairs.pop_best(), Some(((abc, eow), 5)));
        assert_eq!(pairs.pop_best(), Some(((eow, abc), 3)));
        assert_eq!(pairs.pop_best(), None);
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

    proptest! {
        #[test]
        fn incremental_training_and_encoding_match_the_references(
            // Runs of one letter (overlapping pairs such as `aaaa`), upper
            // case that folds into lower case, `İ` (two characters in
            // lower case), `Σ` (final sigma at a word's end), `é`, CJK and
            // the end-of-word marker itself.
            docs in proptest::collection::vec("[aaaaabbbcAB \u{1}\u{130}\u{3a3}\u{e9}\u{4e2d}\u{6587}]{0,24}", 0..6),
            blank in proptest::sample::select(vec!["", " ", " \t\n\u{3000}"]),
            extra in 0..40usize,
            // Characters outside the vocabulary are skipped.
            text in "[aaaabbcBC xyz\u{130}\u{3a3}\u{3c3}\u{3c2}\u{e9}\u{4e2d}\u{1}\t]{0,40}",
        ) {
            let mut corpus = docs;
            corpus.push(blank.to_string());
            let alphabet = BpeTokenizer::seed(&corpus).0.vocab_size();
            // Below the alphabet, at it, within the merges, and past the
            // last pair seen twice.
            for vocab_size in [alphabet.saturating_sub(1).max(1), alphabet, alphabet + extra, usize::MAX] {
                let tok = BpeTokenizer::train(&corpus, vocab_size);
                prop_assert_eq!(&tok, &super::tests::reference_train(&corpus, vocab_size));
                for t in corpus.iter().chain([&text]) {
                    prop_assert_eq!(tok.encode(t), super::tests::reference_encode(&tok, t));
                }
            }
        }
    }
}
