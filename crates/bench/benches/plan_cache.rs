//! Plan-cache policy comparison: exact vs shingle-similarity memoization
//! under a flapping-monitor alert storm.
//!
//! The inference plan's summary cache is keyed by a pluggable
//! `MemoPolicy`. The default `ExactMemo` hashes the raw diagnostic bytes:
//! it only collapses *byte-identical* re-raises (a monitor flapping on
//! exactly the same view of an incident). The near-duplicate
//! `ShingleMemo` policy sketches entity-masked word shingles, so alerts
//! that differ only in machine names, timestamps and counters — the
//! signature of one fault re-raised from many hosts — share a
//! summary-cache entry.
//!
//! The storm is scheduled by the serving plane's own flapping-monitor
//! stream model (`reraise_prob`), and every *odd* re-raise of an incident
//! is entity-churned: its digits are rotated, which changes the bytes of
//! machine names, timestamps and counters while preserving the
//! entity-masked text (the churn is only applied when `mask_entities`
//! confirms the masked form is unchanged, else the re-raise stays
//! byte-identical). Even re-raises stay byte-identical — the same-host
//! flap both policies collapse.
//!
//! The shingle policy's summary hit rate must be *strictly* higher: it
//! keeps every exact hit and adds the churned re-raises. Results go to
//! `BENCH_plan_cache.json` at the repository root (tracked). `--smoke`
//! runs a small campaign for CI.

use rcacopilot_bench::{banner, smoke_dataset, write_root_results, SPLIT_SEED, TRAIN_FRAC};
use rcacopilot_core::collection::CollectionStage;
use rcacopilot_core::memo::{ExactMemo, MemoPolicy, ShingleMemo};
use rcacopilot_core::plan::{memoized_summary, PlanCaches};
use rcacopilot_llm::summarize::Summarizer;
use rcacopilot_serve::{stream, ArrivalModel, StreamConfig};
use rcacopilot_simcloud::Incident;
use rcacopilot_textkit::mask_entities;
use std::collections::HashMap;

/// The "same fault, different host" view of a diagnostic text: rotates
/// the digits of every token the entity mask would hide (machine names,
/// timestamps, trace ids), renaming the hosts and shifting the clock
/// while leaving counts, build numbers and prose untouched. A token is
/// rotated only when the rotation provably preserves its masked form, so
/// the churned text is a near-duplicate *by construction* — different
/// bytes, same entity-masked shape.
fn churn(text: &str, ordinal: usize) -> String {
    let step = (ordinal % 9 + 1) as u8;
    let rotate = |tok: &str| -> String {
        tok.chars()
            .map(|c| {
                if c.is_ascii_digit() {
                    char::from(b'0' + (c as u8 - b'0' + step) % 10)
                } else {
                    c
                }
            })
            .collect()
    };
    let mut out = String::with_capacity(text.len());
    let mut token = String::new();
    let flush = |out: &mut String, token: &mut String| {
        if !token.is_empty() {
            let masked = mask_entities(token);
            let rotated = rotate(token);
            if masked != *token && mask_entities(&rotated) == masked {
                out.push_str(&rotated);
            } else {
                out.push_str(token);
            }
            token.clear();
        }
    };
    for c in text.chars() {
        if c.is_whitespace() {
            flush(&mut out, &mut token);
            out.push(c);
        } else {
            token.push(c);
        }
    }
    flush(&mut out, &mut token);
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner("Plan caches: exact vs shingle memo policy on a flapping storm");

    let dataset = if smoke {
        smoke_dataset()
    } else {
        rcacopilot_bench::standard_dataset()
    };
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    let test: Vec<Incident> = split
        .test
        .iter()
        .take(if smoke { 40 } else { usize::MAX })
        .map(|&i| dataset.incidents()[i].clone())
        .collect();

    // A flapping-monitor storm: tight bursts plus a high re-raise
    // probability, scheduled by the serving plane's stream model.
    let config = StreamConfig {
        seed: 31,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 120,
            burst_prob: 0.6,
            burst_len: 8,
            burst_gap_secs: 3,
        },
        reraise_prob: 0.5,
    };
    let events = stream::schedule(&test, &config);

    // Collect each incident once, then expand the storm into the raw
    // diagnostic text each arrival would hand the summarize stage.
    let stage = CollectionStage::standard();
    let raw: Vec<String> = test
        .iter()
        .map(|inc| {
            stage
                .collect(inc)
                .expect("fault-free collection succeeds")
                .diagnostic_text()
        })
        .collect();
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut churned = 0usize;
    let arrivals: Vec<String> = events
        .iter()
        .map(|e| {
            let n = seen.entry(e.incident_idx).or_insert(0);
            let text = if *n % 2 == 1 {
                churn(&raw[e.incident_idx], *n)
            } else {
                raw[e.incident_idx].clone()
            };
            if text != raw[e.incident_idx] {
                churned += 1;
            }
            *n += 1;
            text
        })
        .collect();
    println!(
        "test={} arrivals={} re-raised={} entity-churned={}",
        test.len(),
        arrivals.len(),
        arrivals.len() - test.len(),
        churned,
    );
    assert!(
        churned > 0,
        "the storm must contain at least one entity-churned re-raise"
    );

    let summarizer = Summarizer::default();
    let run = |policy: &dyn MemoPolicy| {
        let caches = PlanCaches::new(1);
        for text in &arrivals {
            memoized_summary(&summarizer, text, policy, &caches.summary);
        }
        caches.summary.stats()
    };

    let (exact_hits, exact_misses) = run(&ExactMemo);
    let (shingle_hits, shingle_misses) = run(&ShingleMemo::default());
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let exact_rate = rate(exact_hits, exact_misses);
    let shingle_rate = rate(shingle_hits, shingle_misses);

    println!(
        "\n{:>10} {:>8} {:>8} {:>10}",
        "policy", "hits", "misses", "hit rate"
    );
    println!(
        "{:>10} {:>8} {:>8} {:>9.1}%",
        "exact",
        exact_hits,
        exact_misses,
        exact_rate * 100.0
    );
    println!(
        "{:>10} {:>8} {:>8} {:>9.1}%",
        "shingle",
        shingle_hits,
        shingle_misses,
        shingle_rate * 100.0
    );

    assert_eq!(
        exact_hits + exact_misses,
        shingle_hits + shingle_misses,
        "both policies see the same stream of summarize calls"
    );
    assert!(
        shingle_rate > exact_rate,
        "shingle near-duplicate caching must beat exact hashing on a \
         flapping storm: shingle {shingle_rate:.3} vs exact {exact_rate:.3}"
    );
    println!("\nshingle hit rate strictly beats exact on the storm workload ✓");

    write_root_results(
        "BENCH_plan_cache",
        &serde_json::json!({
            "stream": {
                "seed": config.seed,
                "model": "bursty(mean_gap=120s, p=0.6, len=8, gap=3s)",
                "reraise_prob": config.reraise_prob,
                "test_incidents": test.len(),
                "arrivals": arrivals.len(),
                "entity_churned": churned,
            },
            "summary_cache": {
                "exact": {
                    "hits": exact_hits,
                    "misses": exact_misses,
                    "hit_rate": exact_rate,
                },
                "shingle": {
                    "hits": shingle_hits,
                    "misses": shingle_misses,
                    "hit_rate": shingle_rate,
                },
            },
            "smoke": smoke,
        }),
        smoke,
    );
}
