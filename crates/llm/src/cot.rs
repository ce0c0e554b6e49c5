//! The chain-of-thought prediction engine.
//!
//! Given the paper's Figure 9 prompt — the incident's summarized
//! diagnostics plus top-K historical demonstrations — the engine scores
//! every option against the input by textual evidence only:
//!
//! - cosine similarity of character-trigram profiles (robust to phrasing),
//! - Jaccard overlap of *salient entities* (exception names, CamelCase
//!   identifiers, ALL-CAPS markers) — the "reasoning" a capable model
//!   would articulate, and which the explanation text cites.
//!
//! A capability-dependent noise term models the difference between
//! GPT-3.5 and GPT-4; if even the best option scores below the profile's
//! threshold the engine answers "Unseen incident" and synthesizes a new
//! category label (Figure 11).
//!
//! Each call reads every prompt text once: one canonical form
//! (`normalize(mask_entities(text))`), a hashed trigram profile, and
//! entities and evidence terms borrowed from the text and its canonical
//! form. [`salient_entities`] and [`evidence_terms`] are the text-based
//! definitions those readings reproduce.

use crate::labelgen::{camelcase_entities, is_camelcase_entity, synthesize_label};
use crate::profile::ModelProfile;
use crate::prompt::PredictionPrompt;
use rcacopilot_textkit::ngram::Fnv1a;
use rcacopilot_textkit::normalize::{mask_entities, normalize};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// The engine's answer to a prediction prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted category label. For unseen incidents this is the
    /// synthesized new-category keyword.
    pub label: String,
    /// Index into the prompt's options, `None` for "Unseen incident".
    pub option_index: Option<usize>,
    /// True when option A (unseen) was chosen.
    pub unseen: bool,
    /// The winning option's (noisy) similarity score.
    pub confidence: f64,
    /// Natural-language explanation of the choice.
    pub explanation: String,
}

/// The simulated chain-of-thought predictor.
#[derive(Debug, Clone, Copy)]
pub struct CotEngine {
    /// Capability profile in use.
    pub profile: ModelProfile,
    /// Seed for the (deterministic) noise stream; vary across rounds to
    /// reproduce the paper's §5.6 stability experiment.
    pub seed: u64,
}

impl CotEngine {
    /// Creates an engine with the given profile and noise seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        CotEngine { profile, seed }
    }

    /// Per-option score breakdown `(clean, cosine, jaccard, contrastive)`
    /// — the engine's "reasoning trace", exposed for debugging and for
    /// explanation tooling.
    pub fn option_scores(&self, prompt: &PredictionPrompt<'_>) -> Vec<(f64, f64, f64, f64)> {
        let canons: Vec<String> = prompt_texts(prompt).map(canonical).collect();
        let (query, options) = read_prompt(prompt, &canons);
        score_options(&query, &options)
    }

    /// Answers a prediction prompt.
    pub fn predict(&self, prompt: &PredictionPrompt<'_>) -> Prediction {
        let canons: Vec<String> = prompt_texts(prompt).map(canonical).collect();
        let (query, options) = read_prompt(prompt, &canons);

        // Long prompts degrade a real LLM's reading fidelity
        // ("lost in the middle"); scoring noise grows with the amount of
        // context the model must hold. This is what the paper's
        // summarization stage buys back (Table 3: summarized beats raw).
        let prompt_chars: usize = prompt.input.len()
            + prompt
                .options
                .iter()
                .map(|o| o.summary.len())
                .sum::<usize>();
        let approx_tokens = prompt_chars as f64 / 4.0 * self.profile.length_sensitivity();
        // Superlinear in length: a long prompt does not merely dilute
        // attention, it causes outright misreads past a few thousand
        // tokens. Capped so pathological prompts stay bounded.
        let length_factor =
            (1.0 + approx_tokens / 1500.0 + (approx_tokens / 1800.0).powi(2)).min(12.0);

        // Long prompts degrade reading fidelity (see `length_factor`
        // above); contrastive per-option scores come from a shared helper.
        let scores = score_options(&query, &options);
        let noise = self.option_noise(&prompt.input, scores.len());
        let mut best: Option<(usize, f64, f64)> = None; // (idx, noisy, clean)
        for (i, &(clean, _, _, _)) in scores.iter().enumerate() {
            let noisy = clean + noise[i] * length_factor;
            if best.is_none_or(|(_, bn, _)| noisy > bn) {
                best = Some((i, noisy, clean));
            }
        }
        // An option wins only on *distinctive* grounds: template-level
        // similarity without any option-specific shared evidence is what a
        // careful reader calls "none of these match".
        let best_is_generic = best.is_some_and(|(idx, _, clean)| {
            let (_, cos, _, contrastive) = scores[idx];
            contrastive < 0.02 && cos < 0.80 && clean < 0.45
        });

        match best {
            Some((idx, noisy, _))
                if noisy >= self.profile.unseen_threshold() && !best_is_generic =>
            {
                let option = &prompt.options[idx];
                let shared: Vec<&str> = merge_join(&query.entities, &options[idx].entities, |e| *e)
                    .map(|(e, _)| *e)
                    .collect();
                let explanation = explain_match(&option.category, &shared, &prompt.input);
                Prediction {
                    label: option.category.to_string(),
                    option_index: Some(idx),
                    unseen: false,
                    confidence: noisy,
                    explanation,
                }
            }
            best_or_none => {
                let label = synthesize_label(&prompt.input);
                let confidence = best_or_none.map_or(0.0, |(_, n, _)| n);
                let explanation = explain_unseen(&label, &prompt.input);
                Prediction {
                    label,
                    option_index: None,
                    unseen: true,
                    confidence,
                    explanation,
                }
            }
        }
    }

    /// Deterministic pseudo-Gaussian noise for `(input, option index)`,
    /// for each option index below `options`.
    fn option_noise(&self, input: &str, options: usize) -> Vec<f64> {
        let sigma = self.profile.noise();
        if sigma == 0.0 {
            return vec![0.0; options];
        }
        // Sum of three uniforms approximates a Gaussian (Irwin–Hall). Draw
        // `salt` of option `i` hashes `"{seed}|{i}|{salt}|{input}"`: one
        // hasher per draw starts from its key, and one pass over the input
        // feeds them all.
        let mut seeded = Fnv1a::new();
        write_decimal(&mut seeded, self.seed);
        seeded.write_u8(b'|');
        let mut draws = Vec::with_capacity(3 * options);
        for i in 0..options as u64 {
            let mut keyed = seeded;
            write_decimal(&mut keyed, i);
            keyed.write_u8(b'|');
            for salt in 0..3u64 {
                let mut draw = keyed;
                write_decimal(&mut draw, salt);
                draw.write_u8(b'|');
                draws.push(draw);
            }
        }
        for &byte in input.as_bytes() {
            for draw in &mut draws {
                draw.write_u8(byte);
            }
        }
        draws
            .chunks(3)
            .map(|salts| {
                let acc = salts.iter().fold(0.0, |acc, h| {
                    acc + ((h.finish() % 1_000_000) as f64 / 1_000_000.0 - 0.5)
                });
                acc * sigma * 2.0
            })
            .collect()
    }
}

/// Feeds `n` to `h` as the decimal digits `format!("{n}")` writes.
fn write_decimal(h: &mut Fnv1a, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    h.write(&digits[start..]);
}

/// The prompt's texts in reading order: the input, then each option's
/// summary.
fn prompt_texts<'p>(prompt: &'p PredictionPrompt<'_>) -> impl Iterator<Item = &'p str> {
    std::iter::once(&*prompt.input).chain(prompt.options.iter().map(|o| &*o.summary))
}

/// The canonical form every text feature but the entities is read from.
fn canonical(text: &str) -> String {
    normalize(&mask_entities(text))
}

/// Reads the input and every option once. `canons` holds the canonical
/// forms of [`prompt_texts`], in that order.
fn read_prompt<'t>(
    prompt: &'t PredictionPrompt<'_>,
    canons: &'t [String],
) -> (Reading<'t>, Vec<Reading<'t>>) {
    let mut readings = prompt_texts(prompt)
        .zip(canons)
        .map(|(text, canon)| Reading::new(text, canon));
    let query = readings.next().expect("a prompt always has an input");
    (query, readings.collect())
}

/// What scoring needs of one text, computed once per call.
struct Reading<'t> {
    /// Character-trigram profile: `(hash, count)` in ascending hash order.
    trigrams: Vec<(u64, u32)>,
    /// Euclidean norm of the trigram counts.
    norm: f64,
    /// [`salient_entities`], sorted and deduplicated.
    entities: Vec<&'t str>,
    /// [`evidence_terms`], sorted and deduplicated.
    terms: Vec<&'t str>,
}

impl<'t> Reading<'t> {
    /// Reads `text`, whose canonical form is `canon`.
    fn new(text: &'t str, canon: &'t str) -> Self {
        let trigrams = trigram_counts(canon);
        let norm = trigrams
            .iter()
            .map(|&(_, n)| f64::from(n) * f64::from(n))
            .sum::<f64>()
            .sqrt();
        let mut entities: Vec<&str> = text
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|tok| is_camelcase_entity(tok))
            .chain(
                text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .filter(|tok| is_caps_or_snake_entity(tok)),
            )
            .collect();
        entities.sort_unstable();
        entities.dedup();
        let mut terms = entities.clone();
        terms.extend(
            canon
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|tok| tok.len() >= 5 && tok.bytes().all(|b| b.is_ascii_lowercase())),
        );
        terms.sort_unstable();
        terms.dedup();
        Reading {
            trigrams,
            norm,
            entities,
            terms,
        }
    }
}

/// Scores every option of a prompt: `(clean, cosine, jaccard, contrastive)`.
///
/// The contrastive component models how a capable model reads a
/// multiple-choice prompt: evidence terms that appear in more than one
/// option cannot discriminate, so only each option's *unique* terms count,
/// matched against the query's own non-boilerplate terms.
fn score_options(query: &Reading<'_>, options: &[Reading<'_>]) -> Vec<(f64, f64, f64, f64)> {
    // Terms present in more than one option are non-discriminative: an
    // option's unique terms are those no other option has, and the
    // query's distinct terms those that at most one option has. Every
    // `(term, option)` pair sorted once groups each term with the options
    // that have it, lowest option first.
    let mut owners: Vec<(&str, usize)> = options
        .iter()
        .enumerate()
        .flat_map(|(i, opt)| opt.terms.iter().map(move |&t| (t, i)))
        .collect();
    owners.sort_unstable();
    let mut unique = vec![0usize; options.len()];
    let mut inter = vec![0usize; options.len()];
    let mut query_distinct = query.terms.len();
    let mut query_terms = query.terms.iter().peekable();
    for group in owners.chunk_by(|a, b| a.0 == b.0) {
        let (term, first) = group[0];
        while query_terms.next_if(|&&t| t < term).is_some() {}
        let in_query = query_terms.next_if(|&&t| t == term).is_some();
        if group.len() == 1 {
            unique[first] += 1;
            inter[first] += usize::from(in_query);
        } else if in_query {
            query_distinct -= 1;
        }
    }

    options
        .iter()
        .enumerate()
        .map(|(i, opt)| {
            let cos = trigram_cosine(query, opt);
            let jac = jaccard(&query.entities, &opt.entities);
            // Cosine-style normalization: plain Jaccard punishes options
            // with richer summaries (larger unions), biasing toward terse
            // options regardless of evidence.
            let denom = ((unique[i] * query_distinct) as f64).sqrt();
            let contrastive = if denom == 0.0 {
                0.0
            } else {
                inter[i] as f64 / denom
            };
            (
                0.25 * cos + 0.20 * jac + 0.55 * contrastive,
                cos,
                jac,
                contrastive,
            )
        })
        .collect()
}

/// Character-trigram profile of canonical text: the [`Fnv1a`] hash of
/// every three-character window's UTF-8, counted, in ascending hash order.
fn trigram_counts(canon: &str) -> Vec<(u64, u32)> {
    // A window runs from a character's start to the start of the third
    // character after it, or to the end of the text.
    let starts = canon.char_indices().map(|(i, _)| i);
    let ends = starts.clone().chain([canon.len()]).skip(3);
    let mut hashes: Vec<u64> = starts
        .zip(ends)
        .map(|(a, b)| {
            let mut h = Fnv1a::new();
            h.write(&canon.as_bytes()[a..b]);
            h.finish()
        })
        .collect();
    hashes.sort_unstable();
    let mut counts: Vec<(u64, u32)> = Vec::with_capacity(hashes.len());
    for h in hashes {
        match counts.last_mut() {
            Some((last, n)) if *last == h => *n += 1,
            _ => counts.push((h, 1)),
        }
    }
    counts
}

/// Cosine of two trigram profiles. The products of shared trigrams are
/// summed in ascending hash order with `Iterator::sum`, as a sum over an
/// ordered map would be, so profiles that share no trigram give `-0.0`.
fn trigram_cosine(a: &Reading<'_>, b: &Reading<'_>) -> f64 {
    if a.norm == 0.0 || b.norm == 0.0 {
        return 0.0;
    }
    let dot: f64 = merge_join(&a.trigrams, &b.trigrams, |&(h, _)| h)
        .map(|(&(_, x), &(_, y))| f64::from(x) * f64::from(y))
        .sum();
    dot / (a.norm * b.norm)
}

/// Jaccard overlap of two sorted, deduplicated sets.
fn jaccard(a: &[&str], b: &[&str]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = merge_join(a, b, |e| *e).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Pairs of items with equal keys from two slices sorted by a unique
/// `key`, in ascending key order.
fn merge_join<'s, T, K: Ord>(
    a: &'s [T],
    b: &'s [T],
    key: impl Fn(&T) -> K + 's,
) -> impl Iterator<Item = (&'s T, &'s T)> + 's {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
            match key(x).cmp(&key(y)) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    return Some((x, y));
                }
            }
        }
        None
    })
}

/// Evidence terms for contrastive option reading: salient entities plus
/// lowercase content words of length >= 5 (after masking per-incident
/// identifiers). Lowercase words matter because discriminators are often
/// plain prose — "quarantine queue" vs "replay queue".
pub fn evidence_terms(text: &str) -> BTreeSet<String> {
    let mut set = salient_entities(text);
    let canon = normalize(&mask_entities(text));
    for tok in canon.split(|c: char| !c.is_ascii_alphanumeric()) {
        if tok.len() >= 5 && tok.chars().all(|c| c.is_ascii_lowercase()) {
            set.insert(tok.to_string());
        }
    }
    set
}

/// Salient entities: CamelCase identifiers plus ALL-CAPS markers and
/// snake_case metric names.
pub fn salient_entities(text: &str) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = camelcase_entities(text).into_iter().collect();
    for tok in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if is_caps_or_snake_entity(tok) {
            set.insert(tok.to_string());
        }
    }
    set
}

/// True if `tok`, a run of ASCII alphanumerics and `_`, is an ALL-CAPS
/// marker (four or more capitals) or a snake_case metric name (six or
/// more lowercase letters and underscores, one underscore at least).
fn is_caps_or_snake_entity(tok: &str) -> bool {
    let len = tok.len();
    (len >= 4 && tok.chars().all(|c| c.is_ascii_uppercase()))
        || (len >= 6
            && tok.contains('_')
            && tok.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
}

fn explain_match(category: &str, shared: &[&str], input: &str) -> String {
    let evidence = if shared.is_empty() {
        "the closely matching error-log narrative".to_string()
    } else {
        shared[..shared.len().min(4)].join(", ")
    };
    let first_line: String = input.split('.').next().unwrap_or("").trim().to_string();
    format!(
        "The incident was matched to category {category} based on the occurrence of {evidence} \
         in both the current diagnostics and the historical incident. The current incident \
         reports: \"{first_line}\", which mirrors the demonstrated failure pattern."
    )
}

fn explain_unseen(label: &str, input: &str) -> String {
    let ents = camelcase_entities(input);
    let evidence = if ents.is_empty() {
        "the failure narrative".to_string()
    } else {
        ents.iter()
            .take(3)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "The prediction of \"{label}\" was made based on the occurrence of {evidence} within \
         the diagnostic information, which does not match any provided historical incident. \
         These signals point to a previously unseen failure mode; the new category keyword \
         \"{label}\" is proposed for OCE review."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::PromptOption;
    use proptest::prelude::*;
    use rcacopilot_textkit::ngram::hash_token;
    use std::collections::BTreeMap;

    fn prompt(input: &str, options: &[(&str, &str)]) -> PredictionPrompt<'static> {
        PredictionPrompt::new(
            input.to_string(),
            options
                .iter()
                .map(|(s, c)| PromptOption {
                    summary: s.to_string().into(),
                    category: c.to_string().into(),
                })
                .collect(),
        )
    }

    /// Reference: character-trigram frequency profile over normalized,
    /// masked text, one string per trigram.
    fn trigram_profile(text: &str) -> BTreeMap<u64, f64> {
        let canon = normalize(&mask_entities(text));
        let chars: Vec<char> = canon.chars().collect();
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        if chars.len() < 3 {
            return map;
        }
        for w in chars.windows(3) {
            let g: String = w.iter().collect();
            *map.entry(hash_token(&g)).or_insert(0.0) += 1.0;
        }
        map
    }

    /// Reference cosine of two trigram profiles.
    fn cosine(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> f64 {
        let dot: f64 = a
            .iter()
            .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
            .sum();
        let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
        let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn reference_jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        let union = a.union(b).count() as f64;
        inter / union
    }

    /// Reference option scores: every feature recomputed from the text
    /// with the set- and map-based definitions.
    fn reference_scores(prompt: &PredictionPrompt<'_>) -> Vec<(f64, f64, f64, f64)> {
        let query_tri = trigram_profile(&prompt.input);
        let query_ents = salient_entities(&prompt.input);
        let query_terms = evidence_terms(&prompt.input);
        let option_terms: Vec<BTreeSet<String>> = prompt
            .options
            .iter()
            .map(|o| evidence_terms(&o.summary))
            .collect();
        let mut term_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for terms in &option_terms {
            for t in terms {
                *term_counts.entry(t.as_str()).or_insert(0) += 1;
            }
        }
        let shared: BTreeSet<&str> = term_counts
            .iter()
            .filter(|(_, &c)| c > 1)
            .map(|(&t, _)| t)
            .collect();
        let query_distinct: BTreeSet<&str> = query_terms
            .iter()
            .map(String::as_str)
            .filter(|t| !shared.contains(t))
            .collect();
        prompt
            .options
            .iter()
            .enumerate()
            .map(|(i, opt)| {
                let cos = cosine(&query_tri, &trigram_profile(&opt.summary));
                let jac = reference_jaccard(&query_ents, &salient_entities(&opt.summary));
                let unique: BTreeSet<&str> = option_terms[i]
                    .iter()
                    .map(String::as_str)
                    .filter(|t| !shared.contains(t))
                    .collect();
                let inter = unique.intersection(&query_distinct).count();
                let denom = ((unique.len() * query_distinct.len()) as f64).sqrt();
                let contrastive = if denom == 0.0 {
                    0.0
                } else {
                    inter as f64 / denom
                };
                (
                    0.25 * cos + 0.20 * jac + 0.55 * contrastive,
                    cos,
                    jac,
                    contrastive,
                )
            })
            .collect()
    }

    /// Reference noise: the whole key formatted, then hashed.
    fn reference_noise(engine: &CotEngine, input: &str, option_index: usize) -> f64 {
        let sigma = engine.profile.noise();
        if sigma == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for salt in 0..3u64 {
            let h = hash_token(&format!(
                "{}|{}|{}|{}",
                engine.seed, option_index, salt, input
            ));
            acc += (h % 1_000_000) as f64 / 1_000_000.0 - 0.5;
        }
        acc * sigma * 2.0
    }

    fn bits(scores: &[(f64, f64, f64, f64)]) -> Vec<[u64; 4]> {
        scores
            .iter()
            .map(|s| [s.0.to_bits(), s.1.to_bits(), s.2.to_bits(), s.3.to_bits()])
            .collect()
    }

    /// The entities a match explanation cites; none when it cites the
    /// narrative instead.
    fn cited_entities(explanation: &str) -> Vec<&str> {
        let evidence = explanation
            .split_once("based on the occurrence of ")
            .and_then(|(_, rest)| rest.split_once(" in both the current diagnostics"))
            .map(|(evidence, _)| evidence)
            .expect("a match explanation names its evidence");
        if evidence == "the closely matching error-log narrative" {
            Vec::new()
        } else {
            evidence.split(", ").collect()
        }
    }

    /// Words the generated texts are made of: per-incident identifiers
    /// that masking replaces, `key=value` tokens, CamelCase, ALL-CAPS and
    /// snake_case entities, long lowercase words, short words, and
    /// non-ASCII words (a dotted capital I, accented letters, a word-final
    /// capital sigma, CJK).
    const WORDS: &[&str] = &[
        "NAMPR03MB1234",
        "11/21/2022",
        "2:04:20",
        "3fa85f64-5717",
        "15276",
        "pid=203736",
        "status=BLOCKED",
        "retries=3",
        "TaskCanceledException",
        "GetTokenAsync",
        "WinSock",
        "DatacenterHubOutboundProxyProbe",
        "TransportDelivery",
        "TIMEOUT",
        "NXDOMAIN",
        "UDP",
        "dependency_latency_ms",
        "queue_depth",
        "quarantine",
        "replay",
        "queue",
        "socket",
        "exhausted",
        "mailbox",
        "certificate",
        "the",
        "on",
        "x",
        "é",
        "İstanbul",
        "ΟΔΟΣ",
        "café",
        "naïve",
        "日本語",
        "System.IO.IOException:",
        "(11/21/2022)",
    ];
    const SEPARATORS: &[&str] = &[" ", " ", " ", ". ", "; ", ", ", "\n"];
    const CATEGORIES: &[&str] = &["HubPortExhaustion", "DeliveryHang", "FullDisk"];

    fn arb_text() -> impl Strategy<Value = String> {
        let words = proptest::collection::vec(
            (
                proptest::sample::select(WORDS.to_vec()),
                proptest::sample::select(SEPARATORS.to_vec()),
            ),
            0..20,
        );
        // One text in five is short: under three characters, or a word
        // that shares no trigram with the rest.
        (0u8..5, "[a-zé]{0,4}", words).prop_map(|(pick, short, words)| {
            if pick == 0 {
                short
            } else {
                words.into_iter().flat_map(|(w, s)| [w, s]).collect()
            }
        })
    }

    fn arb_prompt() -> impl Strategy<Value = PredictionPrompt<'static>> {
        let options = proptest::collection::vec(
            (arb_text(), proptest::sample::select(CATEGORIES.to_vec())),
            0..=8,
        );
        (arb_text(), options).prop_map(|(input, options)| {
            let options = options
                .into_iter()
                .map(|(summary, category)| PromptOption {
                    summary: summary.into(),
                    category: category.into(),
                })
                .collect();
            PredictionPrompt::new(input, options)
        })
    }

    fn arb_engine() -> impl Strategy<Value = CotEngine> {
        (
            proptest::sample::select(vec![ModelProfile::Gpt35, ModelProfile::Gpt4]),
            0..u64::MAX,
        )
            .prop_map(|(profile, seed)| CotEngine::new(profile, seed))
    }

    proptest! {
        #[test]
        fn scoring_matches_the_text_reference(p in arb_prompt(), engine in arb_engine()) {
            prop_assert_eq!(bits(&engine.option_scores(&p)), bits(&reference_scores(&p)));
            let noise = engine.option_noise(&p.input, p.options.len());
            prop_assert_eq!(noise.len(), p.options.len());
            for (i, n) in noise.iter().enumerate() {
                prop_assert_eq!(n.to_bits(), reference_noise(&engine, &p.input, i).to_bits());
            }
            let pred = engine.predict(&p);
            if let Some(idx) = pred.option_index {
                let shared: Vec<String> = salient_entities(&p.input)
                    .intersection(&salient_entities(&p.options[idx].summary))
                    .cloned()
                    .collect();
                let shared: Vec<&str> = shared.iter().map(String::as_str).collect();
                prop_assert_eq!(
                    pred.explanation,
                    explain_match(&p.options[idx].category, &shared, &p.input)
                );
            }
        }

        #[test]
        fn permuting_the_options_permutes_the_scores(
            p in arb_prompt(),
            keys in proptest::collection::vec(0..u64::MAX, 8),
        ) {
            let mut order: Vec<usize> = (0..p.options.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let engine = CotEngine::new(ModelProfile::Gpt4, 1);
            let scores = engine.option_scores(&p);
            let permuted = PredictionPrompt::new(
                p.input.clone(),
                order.iter().map(|&i| p.options[i].clone()).collect(),
            );
            let want: Vec<_> = order.iter().map(|&i| scores[i]).collect();
            prop_assert_eq!(bits(&engine.option_scores(&permuted)), bits(&want));
        }

        #[test]
        fn cited_entities_occur_in_the_input_and_the_chosen_summary(
            p in arb_prompt(),
            engine in arb_engine(),
        ) {
            let pred = engine.predict(&p);
            if let Some(idx) = pred.option_index {
                let input_ents = salient_entities(&p.input);
                let chosen_ents = salient_entities(&p.options[idx].summary);
                for cited in cited_entities(&pred.explanation) {
                    prop_assert!(
                        input_ents.contains(cited) && chosen_ents.contains(cited),
                        "{cited:?} cited in {:?}",
                        pred.explanation
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_texts_never_panic_and_an_empty_prompt_is_unseen() {
        let texts = [
            "",
            " ",
            "a",
            "ab",
            "abc",
            "İ",
            "İİ",
            "é",
            "ée",
            "ÉTÉ",
            "ΟΔΟΣ",
            "ΣΟΦΟΣ ΟΔΟΣ.",
            "=",
            "a=b",
            "..",
        ];
        let options: Vec<(&str, &str)> = texts.iter().map(|t| (*t, "FullDisk")).collect();
        for profile in [ModelProfile::Gpt35, ModelProfile::Gpt4] {
            let engine = CotEngine::new(profile, 3);
            for input in texts {
                for p in [prompt(input, &[]), prompt(input, &options)] {
                    let scores = engine.option_scores(&p);
                    assert_eq!(bits(&scores), bits(&reference_scores(&p)), "{input:?}");
                    assert!(scores.iter().all(|s| s.0.is_finite()), "{input:?}");
                    let pred = engine.predict(&p);
                    assert!(pred.confidence.is_finite(), "{input:?}");
                }
            }
            let empty = engine.predict(&prompt("", &[("", "FullDisk"), ("", "DeliveryHang")]));
            assert!(empty.unseen);
            assert_eq!(empty.option_index, None);
        }
    }

    #[test]
    fn picks_the_matching_demonstration() {
        let p = prompt(
            "The DatacenterHubOutboundProxyProbe failed twice with WinSock error 11001; total \
             UDP socket count is 15276, mostly Transport.exe.",
            &[
                (
                    "The DatacenterHubOutboundProxyProbe has failed twice on the backend \
                     machine with WinSock error 11001; UDP socket count 14923 used by \
                     Transport.exe.",
                    "HubPortExhaustion",
                ),
                (
                    "There are 62 managed threads blocked in process TransportDelivery waiting \
                     on DeliveryQueue.",
                    "DeliveryHang",
                ),
            ],
        );
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert_eq!(pred.label, "HubPortExhaustion");
        assert_eq!(pred.option_index, Some(0));
        assert!(!pred.unseen);
        assert!(pred.explanation.contains("HubPortExhaustion"));
        assert!(
            pred.explanation.contains("DatacenterHubOutboundProxyProbe")
                || pred.explanation.contains("WinSock")
        );
    }

    #[test]
    fn declares_unseen_when_nothing_matches() {
        let p = prompt(
            "System.IO.IOException: there is not enough space on the disk; multiple processes \
             crashed with IO exceptions in DiagnosticsLog.",
            &[
                (
                    "TLS handshake failed due to cipher suite mismatch after baseline change.",
                    "TlsHandshakeFailureCipherSuite",
                ),
                (
                    "LDAP referral chase storm across domain controllers.",
                    "LdapReferralStorm",
                ),
            ],
        );
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert!(pred.unseen, "confidence {}", pred.confidence);
        assert_eq!(pred.label, "I/O Bottleneck");
        assert!(pred.explanation.contains("I/O Bottleneck"));
        assert!(pred.explanation.contains("unseen"));
    }

    #[test]
    fn empty_options_always_unseen() {
        let p = prompt("anything at all", &[]);
        let engine = CotEngine::new(ModelProfile::Gpt4, 1);
        let pred = engine.predict(&p);
        assert!(pred.unseen);
        assert_eq!(pred.option_index, None);
    }

    #[test]
    fn gpt35_is_noisier_than_gpt4_but_deterministic_per_seed() {
        let p = prompt(
            "TenantSettingsNotFoundException: journaling config invalid for tenant.",
            &[
                (
                    "TenantSettingsNotFoundException raised for JournalingReportNdrTo.",
                    "InvalidJournaling",
                ),
                (
                    "InvalidConfigurationException: DlpPolicy value rejected.",
                    "ConfigInvalidDlpPolicy",
                ),
            ],
        );
        let e1 = CotEngine::new(ModelProfile::Gpt35, 5);
        let e2 = CotEngine::new(ModelProfile::Gpt35, 5);
        assert_eq!(e1.predict(&p), e2.predict(&p));
        // Noise magnitude differs across profiles.
        let n35 = CotEngine::new(ModelProfile::Gpt35, 5).option_noise("x", 1)[0].abs();
        let n4 = CotEngine::new(ModelProfile::Gpt4, 5).option_noise("x", 1)[0].abs();
        // Same hash stream scaled by sigma: 3.33x ratio exactly.
        assert!(n35 > n4);
    }

    #[test]
    fn salient_entities_capture_the_right_tokens() {
        let ents = salient_entities(
            "TaskCanceledException at AuthClient.GetTokenAsync; metric dependency_latency_ms \
             TIMEOUT observed",
        );
        assert!(ents.contains("TaskCanceledException"));
        assert!(ents.contains("GetTokenAsync"));
        assert!(ents.contains("dependency_latency_ms"));
        assert!(ents.contains("TIMEOUT"));
        assert!(!ents.contains("at"));
    }

    #[test]
    fn trigram_cosine_orders_similarity_sensibly() {
        let a = trigram_profile("udp socket count exhausted winsock error");
        let b = trigram_profile("winsock error udp socket exhausted on hub");
        let c = trigram_profile("certificate expired for federation endpoint");
        assert!(cosine(&a, &b) > cosine(&a, &c));
        assert!(cosine(&a, &a) > 0.999);
    }
}
