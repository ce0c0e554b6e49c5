//! Serve a live alert stream: train the pipeline, then run the online
//! serving engine against a bursty, flapping alert stream with admission
//! control and an incrementally growing retrieval index.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serve_stream
//! ```

use rcacopilot::core::eval::PreparedDataset;
use rcacopilot::core::pipeline::{RcaCopilot, RcaCopilotConfig};
use rcacopilot::core::ContextSpec;
use rcacopilot::serve::{
    AdmissionConfig, ArrivalModel, EngineConfig, EventOutcome, IndexMode, ServeEngine, StreamConfig,
};
use rcacopilot::simcloud::noise::NoiseProfile;
use rcacopilot::simcloud::{generate_dataset, CampaignConfig, Incident, Topology};

fn main() {
    // 1. Simulate a campaign and train the pipeline on the first 60%.
    let dataset = generate_dataset(&CampaignConfig {
        seed: 42,
        topology: Topology::new(2, 6, 3, 3),
        noise: NoiseProfile::default(),
    });
    let split = dataset.split(7, 0.6);
    let prepared = PreparedDataset::prepare(&dataset, &split);
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), RcaCopilotConfig::default());
    println!(
        "Trained on {} incidents; streaming {} test incidents.",
        copilot.history_len(),
        split.test.len()
    );

    // 2. Stream the held-out incidents as a bursty alert feed: Poisson
    //    background traffic, alert storms, and flapping monitors that
    //    re-raise recent incidents.
    let test: Vec<Incident> = split
        .test
        .iter()
        .map(|&i| dataset.incidents()[i].clone())
        .collect();
    let stream = StreamConfig {
        seed: 17,
        arrivals: ArrivalModel::Bursty {
            mean_gap_secs: 300,
            burst_prob: 0.35,
            burst_len: 6,
            burst_gap_secs: 8,
        },
        reraise_prob: 0.2,
    };

    // 3. Serve with 4 workers, severity-aware admission control, and the
    //    online index: every resolved incident joins the retrieval
    //    history for the incidents that arrive after it resolves.
    let engine = ServeEngine::new(
        copilot,
        EngineConfig {
            workers: 4,
            index_mode: IndexMode::Online,
            admission: AdmissionConfig {
                capacity_secs: 3_600,
                ..AdmissionConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let outcome = engine.run(&test, &stream);

    // 4. Score the predictions and summarize the run.
    let mut correct = 0usize;
    let mut predicted = 0usize;
    let mut shed = 0usize;
    let mut degraded = 0usize;
    let mut failed = 0usize;
    for record in &outcome.records {
        match &record.outcome {
            EventOutcome::Shed { .. } => shed += 1,
            EventOutcome::Predicted {
                prediction,
                degraded: was_degraded,
            } => {
                predicted += 1;
                if *was_degraded {
                    degraded += 1;
                }
                if prediction.label == test[record.incident_idx].category {
                    correct += 1;
                }
            }
            EventOutcome::Failed { .. } => failed += 1,
        }
    }
    println!(
        "\n{} events streamed: {predicted} predicted ({degraded} degraded), {shed} shed, {failed} failed.",
        outcome.records.len()
    );
    println!(
        "Accuracy on served predictions: {correct}/{predicted} ({:.1}%).",
        100.0 * correct as f64 / predicted.max(1) as f64
    );
    println!("\nFirst few log lines of the deterministic prediction log:");
    for line in outcome.log.lines().take(5) {
        println!("  {line}");
    }
}
