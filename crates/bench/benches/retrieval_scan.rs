//! Exact retrieval at scale: the time-outward scan over 100k–1M-incident
//! corpora.
//!
//! Retrieval ranks by `1/(1+d) · e^(−α·Δt)`. The decay factor bounds every
//! similarity, so the scan visits entries outward from the query time and
//! stops once that bound falls below the k-th distinct-category score.
//! This bench measures what that costs on [`rcacopilot_simcloud::scale`]
//! corpora, which keep the paper's long-tail categories (Figure 3) and
//! burst recurrence (Figure 2):
//!
//! - **build**: wall-clock seconds to warm a one-shard index;
//! - **latency**: wall-clock p50/p99 per query, for the paper's α = 0.3
//!   and for α = 0.02, under which months of history compete;
//! - **exactness**: checked queries must answer identically — entries,
//!   order and similarities — to `linear_top_k_diverse`, the brute-force
//!   reference. A mismatch aborts the run.
//!
//! Results go to `BENCH_retrieval_scan.json` at the repository root.
//! `--smoke` runs small corpora, checks every query, and writes under
//! `target/bench-results/` instead.

use rcacopilot_bench::{banner, write_root_results};
use rcacopilot_core::retrieval::{
    linear_top_k_diverse, HistoricalEntry, HistoryView, RetrievalConfig, ShardedHistoricalIndex,
};
use rcacopilot_simcloud::{corpus_stats, scaled_corpus, ScaleConfig};
use rcacopilot_telemetry::time::SimTime;
use std::time::Instant;

const K: usize = 5;
/// The paper's decay rate, and a gentle one that keeps months of history
/// in play on a multi-year corpus — the scan's worst case.
const ALPHAS: [f64; 2] = [0.3, 0.02];
const MAX_CELL: usize = 256;
const QUERIES: usize = 200;
/// Queries per (size, α) checked against the brute-force reference in a
/// full run (a smoke run checks them all).
const CHECKED: usize = 25;
const DIM: usize = 16;
const YEARS: usize = 4;

fn entries_for(corpus_size: usize, years: usize) -> Vec<HistoricalEntry> {
    let corpus = scaled_corpus(&ScaleConfig {
        seed: 42,
        years,
        incidents: corpus_size,
        dim: DIM,
    });
    let stats = corpus_stats(&corpus);
    println!(
        "corpus: {} incidents, {} categories, head share {:.4}, recurrence≤20d {:.3}",
        stats.incidents, stats.categories, stats.head_share, stats.recurrence_within_20d
    );
    corpus
        .into_iter()
        .enumerate()
        .map(|(id, inc)| HistoricalEntry {
            id,
            category: inc.category,
            summary: String::new(),
            at: inc.at,
            embedding: inc.embedding,
        })
        .collect()
}

/// Query embeddings drawn from the *tail* of the corpus: an incoming
/// incident is usually a recurrence of a recently active category
/// (paper Figure 2: 93.8% of recurrences within 20 days), so realistic
/// queries look like the newest history, not a uniform sample of years
/// past.
fn queries_for(entries: &[HistoricalEntry]) -> Vec<Vec<f32>> {
    let tail = entries.len().saturating_sub(entries.len() / 10);
    let window = &entries[tail..];
    let step = (window.len() / QUERIES).max(1);
    window
        .iter()
        .step_by(step)
        .take(QUERIES)
        .map(|e| e.embedding.clone())
        .collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(if smoke {
        "Exact retrieval scan: smoke run"
    } else {
        "Exact retrieval scan: corpus size × decay rate"
    });

    let sizes: &[usize] = if smoke {
        &[2_000, 6_000]
    } else {
        &[100_000, 250_000, 1_000_000]
    };
    let years = if smoke { 2 } else { YEARS };
    let mut rows: Vec<serde_json::Value> = Vec::new();
    for &size in sizes {
        let entries = entries_for(size, years);
        let queries = queries_for(&entries);
        // Query just past the horizon: every entry is history.
        let at = SimTime::from_days((years as u64) * 364 + 1);

        let t0 = Instant::now();
        let index = ShardedHistoricalIndex::warm(&entries, 1, MAX_CELL);
        let build_secs = t0.elapsed().as_secs_f64();
        let snap = index.snapshot();
        for alpha in ALPHAS {
            let cfg = RetrievalConfig { k: K, alpha };
            let mut lat_us: Vec<f64> = Vec::with_capacity(queries.len());
            for q in &queries {
                let t0 = Instant::now();
                std::hint::black_box(snap.top_k_diverse(q, at, &cfg));
                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let checked = if smoke { queries.len() } else { CHECKED };
            for q in queries.iter().take(checked) {
                assert_eq!(
                    snap.top_k_diverse(q, at, &cfg),
                    linear_top_k_diverse(&entries, q, at, &cfg),
                    "the scan must answer exactly like the brute-force reference"
                );
            }
            lat_us.sort_by(f64::total_cmp);
            let (p50, p99) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));
            println!(
                "{size:>8} α={alpha:<5} build {build_secs:>6.2}s p50 {p50:>9.1}µs p99 {p99:>9.1}µs \
                 exact on {checked} checked queries ✓"
            );
            rows.push(serde_json::json!({
                "size": size,
                "alpha": alpha,
                "build_secs": build_secs,
                "p50_us": p50,
                "p99_us": p99,
                "exact_checked": checked,
            }));
        }
    }

    write_root_results(
        "BENCH_retrieval_scan",
        &serde_json::json!({
            "config": {
                "k": K,
                "max_cell": MAX_CELL,
                "queries": QUERIES,
                "dim": DIM,
                "years": years,
                "host_cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            "sweep": rows,
            "smoke": smoke,
        }),
        smoke,
    );
}
