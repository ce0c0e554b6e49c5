//! Shared helpers for the RCACopilot benchmark harness.
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper (see DESIGN.md's experiment index). They are custom-harness
//! binaries (`harness = false`): deterministic experiment runners that
//! print the paper-style rows next to the paper's published values and
//! export machine-readable JSON under `target/bench-results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rcacopilot_core::eval::PreparedDataset;
use rcacopilot_simcloud::{generate_dataset, CampaignConfig, IncidentDataset};
use std::path::PathBuf;

/// Campaign seed used by every experiment (reported in EXPERIMENTS.md).
pub const CAMPAIGN_SEED: u64 = 42;
/// Split seed for the 75/25 train/test division.
pub const SPLIT_SEED: u64 = 7;
/// Training fraction (paper §5.1).
pub const TRAIN_FRAC: f64 = 0.75;

/// Generates the standard 653-incident dataset.
pub fn standard_dataset() -> IncidentDataset {
    generate_dataset(&CampaignConfig {
        seed: CAMPAIGN_SEED,
        ..CampaignConfig::default()
    })
}

/// Generates + collects + summarizes the standard dataset.
pub fn standard_prepared() -> PreparedDataset {
    let dataset = standard_dataset();
    let split = dataset.split(SPLIT_SEED, TRAIN_FRAC);
    PreparedDataset::prepare(&dataset, &split)
}

/// Prints a horizontal rule and a centred title.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title:^78}");
    println!("{}", "=".repeat(78));
}

/// Directory for machine-readable experiment results.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-results");
    std::fs::create_dir_all(&dir).expect("can create results dir");
    dir
}

/// Writes a JSON value to `target/bench-results/<name>.json`.
pub fn write_results(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serializable"),
    )
    .expect("can write results file");
    println!("\n[results written to {}]", path.display());
}

/// Writes a JSON value to `<name>.json` at the repository root, or —
/// for a smoke run — to `target/bench-results/<name>.json`.
///
/// Unlike [`write_results`], root results are version-tracked: the
/// serving benchmark commits its sweep as `BENCH_serve.json` so the
/// numbers travel with the code instead of living in the ignored
/// `target/` tree. A smoke run's reduced sizes are not results, so it
/// never overwrites a tracked file.
pub fn write_root_results(name: &str, value: &serde_json::Value, smoke: bool) {
    if smoke {
        write_results(name, value);
        return;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serializable"),
    )
    .expect("can write root results file");
    println!("\n[results written to {}]", path.display());
}
