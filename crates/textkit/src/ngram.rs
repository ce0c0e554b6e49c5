//! N-gram extraction and feature hashing.
//!
//! FastText-style models represent a word by the bag of its character
//! n-grams, hashed into a fixed-size bucket table. The hash is FNV-1a —
//! simple, fast, and deterministic across runs, which the reproduction
//! relies on for stable results.
//!
//! [`char_ngrams`] and [`word_ngrams`] build the n-grams as strings; they
//! are the reference. [`for_each_char_ngram_hash`] and
//! [`for_each_word_ngram_hash`] produce the same n-grams' hashes in the
//! same order, fed to a streaming [`Fnv1a`] straight from byte slices,
//! which is what the embedding hot path uses.

/// Streaming FNV-1a 64-bit hasher. Writing byte slices one after another
/// hashes their concatenation, so an n-gram hashes in place without being
/// joined into a string first.
///
/// The multiplier is `0x1000_0000_01b3`, not the published 64-bit FNV
/// prime `0x100_0000_01b3` that `core::retrieval::fnv1a` uses. Every
/// feature bucket and trained embedding depends on it, so it stays.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;

    /// A hasher that has seen no bytes.
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
    }

    /// Feeds `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The hash of every byte fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit hash of a string.
pub fn hash_token(token: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(token.as_bytes());
    h.finish()
}

/// Character n-grams of `word` for all `n` in `min_n..=max_n`, with the
/// FastText convention of angle-bracket word boundaries (`<word>`).
///
/// Returns the n-grams as strings; the whole padded word is *not* included
/// (callers usually add the word token itself separately).
pub fn char_ngrams(word: &str, min_n: usize, max_n: usize) -> Vec<String> {
    let padded: Vec<char> = std::iter::once('<')
        .chain(word.chars())
        .chain(std::iter::once('>'))
        .collect();
    let mut grams = Vec::new();
    for n in min_n..=max_n {
        if padded.len() < n {
            break;
        }
        for start in 0..=(padded.len() - n) {
            grams.push(padded[start..start + n].iter().collect());
        }
    }
    grams
}

/// Word n-grams (as joined strings with `_`) for all `n` in `1..=max_n`.
pub fn word_ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for n in 1..=max_n {
        if tokens.len() < n {
            break;
        }
        for start in 0..=(tokens.len() - n) {
            grams.push(tokens[start..start + n].join("_"));
        }
    }
    grams
}

/// Calls `emit` with the [`hash_token`] of every gram of
/// [`char_ngrams`]`(word, min_n, max_n)`, in the same order, without
/// building the grams.
///
/// Each gram is a byte range of `<word>` that starts and ends on character
/// boundaries; the boundary bytes are fed around the slice of `word` it
/// covers, so the hashed bytes are exactly the gram's UTF-8.
pub fn for_each_char_ngram_hash(word: &str, min_n: usize, max_n: usize, mut emit: impl FnMut(u64)) {
    let bytes = word.as_bytes();
    // Byte offset of each character boundary of `<word>`, end included.
    // ASCII words (all that `tokenize` yields) have one byte per character
    // and need no table.
    let table: Vec<usize> = if word.is_ascii() {
        Vec::new()
    } else {
        std::iter::once(0)
            .chain(word.char_indices().map(|(i, _)| i + 1))
            .chain([bytes.len() + 1, bytes.len() + 2])
            .collect()
    };
    let offset = |k: usize| if table.is_empty() { k } else { table[k] };
    let padded_chars = if table.is_empty() {
        bytes.len() + 2
    } else {
        table.len() - 1
    };
    for n in min_n..=max_n {
        for start in 0..(padded_chars + 1).saturating_sub(n) {
            emit(padded_hash(bytes, offset(start), offset(start + n)));
        }
    }
}

/// FNV-1a of bytes `lo..hi` of `<` + `word` + `>`.
fn padded_hash(word: &[u8], lo: usize, hi: usize) -> u64 {
    let mut h = Fnv1a::new();
    if lo < hi {
        if lo == 0 {
            h.write_u8(b'<');
        }
        h.write(&word[lo.max(1) - 1..(hi - 1).min(word.len())]);
        if hi == word.len() + 2 {
            h.write_u8(b'>');
        }
    }
    h.finish()
}

/// Calls `emit` with the [`hash_token`] of every gram of
/// [`word_ngrams`]`(tokens, max_n)`, in the same order, without joining
/// the tokens.
pub fn for_each_word_ngram_hash(tokens: &[String], max_n: usize, mut emit: impl FnMut(u64)) {
    for n in 1..=max_n.min(tokens.len()) {
        for gram in tokens.windows(n) {
            let mut h = Fnv1a::new();
            for (i, tok) in gram.iter().enumerate() {
                if i > 0 {
                    h.write_u8(b'_');
                }
                h.write(tok.as_bytes());
            }
            emit(h.finish());
        }
    }
}

/// Maps a token to a bucket index in `0..buckets`.
pub fn bucket_of(token: &str, buckets: usize) -> usize {
    debug_assert!(buckets > 0, "bucket count must be positive");
    (hash_token(token) % buckets as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(hash_token("abc"), hash_token("abc"));
        assert_ne!(hash_token("abc"), hash_token("abd"));
        assert_ne!(hash_token(""), hash_token("a"));
    }

    #[test]
    fn char_ngrams_use_boundaries() {
        let grams = char_ngrams("cat", 3, 3);
        assert_eq!(grams, vec!["<ca", "cat", "at>"]);
    }

    #[test]
    fn char_ngrams_multiple_sizes() {
        let grams = char_ngrams("io", 2, 4);
        // Padded: < i o >  (len 4).
        assert!(grams.contains(&"<i".to_string()));
        assert!(grams.contains(&"io>".to_string()));
        assert!(grams.contains(&"<io>".to_string()));
    }

    #[test]
    fn char_ngrams_short_word_does_not_panic() {
        let grams = char_ngrams("a", 3, 6);
        assert_eq!(grams, vec!["<a>"]);
        let empty = char_ngrams("", 3, 6);
        assert!(empty.is_empty() || empty == vec!["<>".to_string()]);
    }

    #[test]
    fn word_ngrams_join_with_underscore() {
        let toks: Vec<String> = ["udp", "socket", "count"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let grams = word_ngrams(&toks, 2);
        assert!(grams.contains(&"udp".to_string()));
        assert!(grams.contains(&"udp_socket".to_string()));
        assert!(grams.contains(&"socket_count".to_string()));
        assert_eq!(grams.len(), 3 + 2);
    }

    #[test]
    fn word_ngram_hashes_follow_the_string_grams() {
        let toks: Vec<String> = ["udp", "socket", "count"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for max_n in 0..=4 {
            let want: Vec<u64> = word_ngrams(&toks, max_n)
                .iter()
                .map(|g| hash_token(g))
                .collect();
            let mut got = Vec::new();
            for_each_word_ngram_hash(&toks, max_n, |h| got.push(h));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn buckets_are_in_range() {
        for tok in ["a", "b", "winsock", "system.io"] {
            assert!(bucket_of(tok, 97) < 97);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn char_ngram_hashes_match_the_reference(
            word in "[a-z0-9_<>é\u{3a3}\u{1f600}]{0,12}",
            min_n in 0usize..5,
            span in 0usize..4,
        ) {
            let want: Vec<u64> = char_ngrams(&word, min_n, min_n + span)
                .iter()
                .map(|g| hash_token(g))
                .collect();
            let mut got = Vec::new();
            for_each_char_ngram_hash(&word, min_n, min_n + span, |h| got.push(h));
            prop_assert_eq!(got, want);
        }
    }
}
